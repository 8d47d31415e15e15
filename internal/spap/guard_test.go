package spap

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/fault"
	"sparseap/internal/graph"
	"sparseap/internal/hotcold"
	"sparseap/internal/regexc"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
)

// buildStorm returns a PEN-shaped storm partition: `starts` always-enabled
// hot states matching ['a','a'+span) each feed their own cold reporting
// child matching the same range, cut at k=1. Every in-range input symbol
// then produces `starts` simultaneous intermediate reports — both the
// report density and the enable-stall rate sit far over any sane budget.
// The input cycles through the range.
func buildStorm(t *testing.T, starts int, span byte, inputLen int) (*hotcold.Partition, []byte) {
	t.Helper()
	m := automata.NewNFA()
	var wide symset.Set
	wide.AddRange('a', 'a'+span-1)
	for i := 0; i < starts; i++ {
		parent := m.Add(wide, automata.StartAllInput, false)
		m.Connect(parent, m.Add(wide, automata.StartNone, true))
	}
	net := automata.NewNetwork(m)
	p, err := hotcold.Build(net, graph.TopoOrder(net), []int32{1}, hotcold.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, inputLen)
	for i := range input {
		input[i] = 'a' + byte(i)%span
	}
	return p, input
}

func TestGuardStormWidenRetry(t *testing.T) {
	// With an effectively-disabled hopeless cutoff, the guard widens k and
	// the retry — now fully hot, no intermediates — succeeds.
	p, input := buildStorm(t, 4, 16, 4096)
	g := Guard{MinReports: 64, HopelessFactor: 1000}
	res, err := RunGuarded(context.Background(), p, input, cfgWithCapacity(100), g, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	gs := res.Guard
	if gs == nil || gs.Attempts != 2 || gs.Trips != 1 || !gs.Widened || gs.FallbackBaseline {
		t.Fatalf("guard stats = %+v, want 2 attempts, 1 trip, widened, no baseline fallback", gs)
	}
	if gs.WastedCycles <= 0 || len(gs.TripPos) != 1 {
		t.Errorf("trip accounting wrong: %+v", gs)
	}
	baseline := sim.Run(p.Net, input, sim.Options{CollectReports: true})
	if !reportsEqual(baseline.Reports, res.Reports) {
		t.Fatalf("reports differ after widen retry: %d vs %d", len(res.Reports), len(baseline.Reports))
	}
	// Regret bound: total cost is at most the aborted attempt plus the
	// successful one; the wasted part is bounded by the trip position.
	if gs.WastedCycles > gs.TripPos[0]+int64(watchdogStride) {
		t.Errorf("wasted %d cycles for a trip at %d", gs.WastedCycles, gs.TripPos[0])
	}
}

func TestGuardStormHopelessFallsBack(t *testing.T) {
	// The storm rate (~4 reports/symbol) is far over the default hopeless
	// threshold (8 × 0.15 = 1.2): the guard skips the widen retry entirely
	// and degrades straight to baseline after one short aborted attempt.
	p, input := buildStorm(t, 4, 16, 4096)
	g := Guard{MinReports: 64}
	res, err := RunGuarded(context.Background(), p, input, cfgWithCapacity(100), g, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	gs := res.Guard
	if gs == nil || gs.Attempts != 1 || !gs.FallbackBaseline || gs.Widened {
		t.Fatalf("guard stats = %+v, want 1 attempt and a baseline fallback", gs)
	}
	baseline := sim.Run(p.Net, input, sim.Options{CollectReports: true})
	if !reportsEqual(baseline.Reports, res.Reports) {
		t.Fatal("baseline fallback changed the report multiset")
	}
	if gs.FallbackCycles == 0 {
		t.Error("fallback cycles not accounted")
	}
	if res.TotalCycles < gs.FallbackCycles+gs.WastedCycles {
		t.Errorf("TotalCycles %d omits the guard's costs (%d wasted + %d fallback)",
			res.TotalCycles, gs.WastedCycles, gs.FallbackCycles)
	}
}

func TestGuardNoRetriesConfigured(t *testing.T) {
	p, input := buildStorm(t, 4, 16, 4096)
	g := Guard{MinReports: 64, MaxRetries: -1}
	res, err := RunGuarded(context.Background(), p, input, cfgWithCapacity(100), g, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	if gs := res.Guard; gs.Widened || !gs.FallbackBaseline || gs.Attempts != 1 {
		t.Fatalf("MaxRetries=-1 should fall back without widening, got %+v", gs)
	}
}

func TestGuardTransparentOnHealthyRun(t *testing.T) {
	// When no budget trips, the guarded result must be cycle-for-cycle
	// identical to the unguarded executor.
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ab abcde xx abcde")
	p := buildPartition(t, net, input[:2])
	plain, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := RunGuarded(context.Background(), p, input, cfgWithCapacity(100), Guard{}, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	if gs := guarded.Guard; gs == nil || gs.Trips != 0 || gs.Attempts != 1 || gs.BatchFallbacks != 0 {
		t.Fatalf("healthy run tripped the guard: %+v", guarded.Guard)
	}
	if guarded.TotalCycles != plain.TotalCycles || guarded.EnableStalls != plain.EnableStalls ||
		guarded.IntermediateReports != plain.IntermediateReports {
		t.Fatalf("guarded run diverges from unguarded: %d vs %d cycles", guarded.TotalCycles, plain.TotalCycles)
	}
	if !reportsEqual(plain.Reports, guarded.Reports) {
		t.Fatal("reports differ")
	}
}

func TestGuardPerBatchFallback(t *testing.T) {
	// Two cold states reporting at the same positions stall the enable
	// port. A near-zero stall budget (with the watchdog effectively off)
	// forces the per-batch pre-flight to run those NFAs un-split instead.
	net, err := regexc.CompileAll([]string{"ab", "a[bc]"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("aXab ab ac")
	p := buildPartition(t, net, []byte("XX"))
	g := Guard{ReportBudget: 100, StallBudget: 1e-9, MinReports: 1 << 40}
	res, err := RunGuarded(context.Background(), p, input, cfgWithCapacity(100), g, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	gs := res.Guard
	if gs.BatchFallbacks == 0 || gs.Trips != 0 {
		t.Fatalf("expected a per-batch fallback without a watchdog trip, got %+v", gs)
	}
	if res.SpAPExecutions != 0 {
		t.Errorf("the stalling batch still ran in SpAP mode (%d executions)", res.SpAPExecutions)
	}
	baseline := sim.Run(net, input, sim.Options{CollectReports: true})
	if !reportsEqual(baseline.Reports, res.Reports) {
		t.Fatalf("per-batch fallback broke report equivalence:\nbaseline %v\nguarded %v",
			baseline.Reports, res.Reports)
	}
}

func TestRunGuardedCancellation(t *testing.T) {
	p, input := buildStorm(t, 4, 16, 1<<16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunGuarded(ctx, p, input, cfgWithCapacity(100), Guard{}, Options{CollectReports: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Guard == nil {
		t.Fatal("cancelled run must still return partial stats")
	}
	if res.BaseAPCycles != 0 {
		t.Errorf("pre-cancelled run streamed %d cycles", res.BaseAPCycles)
	}
}

func TestRunBaseAPSpAPContextCancelFromGoroutine(t *testing.T) {
	// Exercises the concurrent cancel path under -race. The run may finish
	// before the cancel lands; both outcomes must leave a valid result.
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 1<<20)
	copy(input, "ab abcde xx abcde")
	p := buildPartition(t, net, input[:2])
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	res, err := RunBaseAPSpAPContext(ctx, p, input, cfgWithCapacity(100), Options{})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error %v", err)
	}
	if res == nil || res.TotalCycles < 0 || res.NumReports < 0 {
		t.Fatalf("invalid partial result %+v", res)
	}
	cancel()
}

func TestConfigLoadFailureErrorsOut(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ab abcde xx abcde")
	p := buildPartition(t, net, input[:2])
	inj := fault.New(fault.Plan{Seed: 1, LoadFailRate: 1})
	_, err = RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{Faults: inj})
	if !errors.Is(err, fault.ErrConfigLoad) {
		t.Fatalf("err = %v, want ErrConfigLoad", err)
	}
}

func TestReportDropFaultsAreCounted(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ab abcde xx abcde")
	p := buildPartition(t, net, input[:2])
	inj := fault.New(fault.Plan{Seed: 1, ReportDropRate: 1})
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{CollectReports: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.DroppedReports == 0 {
		t.Fatal("expected dropped intermediate reports to be counted")
	}
	// With every queue entry lost, SpAP mode never learns of the deep
	// matches: the surviving reports are a strict subset of the baseline's.
	baseline := sim.Run(net, input, sim.Options{CollectReports: true})
	if len(res.Reports) >= len(baseline.Reports) {
		t.Fatalf("dropping all intermediate reports should lose matches: %d vs %d",
			len(res.Reports), len(baseline.Reports))
	}
}
