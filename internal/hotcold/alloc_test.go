package hotcold_test

import (
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/graph"
	"sparseap/internal/hotcold"
	"sparseap/internal/workloads"
	"sparseap/internal/worstcase"
)

// TestSetupAllocations holds the set-up analyses to allocating per pass,
// not per state, at the ledger's scale (seed 1, default divisor):
// graph.TopoOrder makes at most 128 allocations whatever the size, the
// static partition at most one per intermediate reporting state (its
// name) plus 256, and the NoGram worst-case bound at most two per NFA
// plus 256. The network caches nothing these analyses compute (its one
// cache is the execution image, which none of them compiles), so
// AllocsPerRun's warm-up run leaves nothing for the measured run to read
// for free: each measured call is the cold call a program's set-up pays.
func TestSetupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	opts := hotcold.Options{Capacity: ap.DefaultConfig().Capacity}
	for _, abbr := range workloads.Names() {
		app, err := workloads.Build(abbr, workloads.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		net := app.Net
		topo := testing.AllocsPerRun(1, func() {
			graph.TopoOrder(net)
		})
		var p *hotcold.Partition
		part := testing.AllocsPerRun(1, func() {
			if p, err = hotcold.BuildWithStrategy(net, hotcold.StrategyStatic, hotcold.StrategyInput{}, opts); err != nil {
				t.Fatal(err)
			}
		})
		bound := testing.AllocsPerRun(1, func() {
			worstcase.Analyze(net, worstcase.Config{NoGram: true})
		})
		perState := func(allocs float64) float64 { return allocs / float64(net.Len()) }
		t.Logf("%-8s %6d states %4d NFAs: TopoOrder %6.0f (%.2f/state)  partition %6.0f (%.2f/state, %d intermediates)  worst case %6.0f (%.2f/state)",
			abbr, net.Len(), net.NumNFAs(), topo, perState(topo), part, perState(part), p.NumIntermediate, bound, perState(bound))
		if topo > 128 {
			t.Errorf("%s: graph.TopoOrder made %.0f allocations, want <= 128", abbr, topo)
		}
		if max := float64(p.NumIntermediate + 256); part > max {
			t.Errorf("%s: static partition made %.0f allocations, want <= %.0f", abbr, part, max)
		}
		if max := float64(2*net.NumNFAs() + 256); bound > max {
			t.Errorf("%s: worstcase.Analyze(NoGram) made %.0f allocations, want <= %.0f", abbr, bound, max)
		}
	}
}

// offlineColdPanel is the app list of the ledger's offline_cold workload
// (bench/spec.go).
var offlineColdPanel = []string{"Snort_L", "DS", "Snort", "CAV", "TCP", "DS06"}

// BenchmarkStaticPartition times the static partition the way the
// offline_cold workload's set-up pays it: over the whole panel at the
// ledger's scale. A network holds nothing the partition computes, so
// every iteration pays the whole of it. It is the in-tree counterpart of
// the ledger's hotcold.partition_ms row.
func BenchmarkStaticPartition(b *testing.B) {
	opts := hotcold.Options{Capacity: ap.DefaultConfig().Capacity}
	nets := make([]*automata.Network, len(offlineColdPanel))
	for i, abbr := range offlineColdPanel {
		app, err := workloads.Build(abbr, workloads.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		nets[i] = app.Net
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, net := range nets {
			if _, err := hotcold.BuildWithStrategy(net, hotcold.StrategyStatic, hotcold.StrategyInput{}, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
