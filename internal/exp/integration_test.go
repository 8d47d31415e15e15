package exp

import (
	"context"
	"sort"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/workloads"
)

// TestReportEquivalenceAllApps is the repository's end-to-end soundness
// check (the contract in DESIGN.md) on the real workload suite rather than
// random networks: for every one of the 26 applications, the baseline
// full-NFA report multiset equals the BaseAP/SpAP report multiset and the
// AP-CPU report multiset, under a realistic profiling prefix and the
// batch-filling optimization.
func TestReportEquivalenceAllApps(t *testing.T) {
	wl := workloads.Config{InputLen: 8192, Divisor: 64, Seed: 5}
	cfg := ap.DefaultConfig().WithCapacity(375)
	s := NewSuite(wl, cfg)
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := s.App(name)
			if err != nil {
				t.Fatal(err)
			}
			input := a.TestInput()
			baseline := sim.Run(a.App.Net, input, sim.Options{CollectReports: true})
			p, err := a.Partition(0.01, cfg.Capacity)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			res, err := spap.RunBaseAPSpAP(p, input, cfg, spap.Options{CollectReports: true})
			if err != nil {
				t.Fatal(err)
			}
			assertSameReports(t, "BaseAP/SpAP", baseline.Reports, res.Reports)
			cpu, err := spap.RunAPCPU(context.Background(), p, input, cfg, spap.Options{CollectReports: true})
			if err != nil {
				t.Fatal(err)
			}
			assertSameReports(t, "AP-CPU", baseline.Reports, cpu.Reports)
		})
	}
}

func assertSameReports(t *testing.T, system string, want, got []sim.Report) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d reports, baseline %d", system, len(got), len(want))
	}
	norm := func(rs []sim.Report) []sim.Report {
		out := append([]sim.Report(nil), rs...)
		sort.Slice(out, func(a, b int) bool {
			if out[a].Pos != out[b].Pos {
				return out[a].Pos < out[b].Pos
			}
			return out[a].State < out[b].State
		})
		return out
	}
	w, g := norm(want), norm(got)
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: report %d differs: %+v vs baseline %+v", system, i, g[i], w[i])
		}
	}
}

// TestCycleAccountingConsistency checks the executor's arithmetic across
// the suite: TotalCycles = BaseAPCycles + SpAPCycles, SpAPCycles =
// processed + stalls, and BaseAP cycles follow the batching model.
func TestCycleAccountingConsistency(t *testing.T) {
	wl := workloads.Config{InputLen: 8192, Divisor: 64, Seed: 2}
	cfg := ap.DefaultConfig().WithCapacity(375)
	s := NewSuite(wl, cfg)
	for _, name := range workloads.HighMediumNames() {
		a, err := s.App(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.RunBaseAPSpAP(0.01, cfg.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(len(a.TestInput()))
		if res.BaseAPCycles != int64(res.BaseAPBatches)*n {
			t.Errorf("%s: BaseAP cycles %d != batches %d × n %d", name, res.BaseAPCycles, res.BaseAPBatches, n)
		}
		if res.TotalCycles != res.BaseAPCycles+res.SpAPCycles {
			t.Errorf("%s: total cycles inconsistent", name)
		}
		if res.SpAPCycles != res.SpAPProcessed+res.EnableStalls {
			t.Errorf("%s: SpAP cycles %d != processed %d + stalls %d",
				name, res.SpAPCycles, res.SpAPProcessed, res.EnableStalls)
		}
		if res.SpAPExecutions > res.ColdBatches {
			t.Errorf("%s: executions %d > cold batches %d", name, res.SpAPExecutions, res.ColdBatches)
		}
	}
}
