package spap

import (
	"context"
	"math"
	"sort"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/hotcold"
	"sparseap/internal/oracle"
	"sparseap/internal/regexc"
	"sparseap/internal/sim"
)

func cfgWithCapacity(c int) ap.Config {
	return ap.DefaultConfig().WithCapacity(c)
}

// sortedReports canonicalizes a report list for equality comparison.
func sortedReports(rs []sim.Report) []sim.Report {
	out := append([]sim.Report(nil), rs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Pos != out[b].Pos {
			return out[a].Pos < out[b].Pos
		}
		return out[a].State < out[b].State
	})
	return out
}

func reportsEqual(a, b []sim.Report) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedReports(a), sortedReports(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildPartition partitions net at the profiled layers for profInput.
func buildPartition(t *testing.T, net *automata.Network, profInput []byte) *hotcold.Partition {
	t.Helper()
	p, err := hotcold.BuildFromProfile(net, profInput, hotcold.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReportEquivalenceSimpleChain(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ab abcde xx abcde")
	// Profile with a prefix that only sees "ab": deep states predicted cold.
	p := buildPartition(t, net, input[:2])
	if p.Cold.Len() == 0 {
		t.Fatal("test needs a nonempty cold set")
	}
	baseline := oracle.Reports[sim.Report](net, input)
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(baseline, res.Reports) {
		t.Fatalf("reports differ:\nbaseline %v\npartitioned %v", baseline, res.Reports)
	}
	if res.IntermediateReports == 0 {
		t.Fatal("expected intermediate reports from mis-predictions")
	}
}

func TestNoIntermediateReportsSkipsSpAP(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcd"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Profile on the full input: prediction is perfect, SpAP never runs.
	input := []byte("abcq abcq")
	p := buildPartition(t, net, input)
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntermediateReports != 0 || res.SpAPExecutions != 0 || res.SpAPCycles != 0 {
		t.Fatalf("unexpected SpAP activity: %+v", res)
	}
	if !math.IsNaN(res.JumpRatio) {
		t.Fatal("jump ratio should be NaN when SpAP never ran")
	}
}

func TestJumpSkipsIdleRegions(t *testing.T) {
	// One deep pattern; a single late mis-prediction. SpAP must jump
	// directly to the report position rather than streaming the prefix.
	net, err := regexc.CompileAll([]string{"xyzw"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 1000)
	for i := range input {
		input[i] = '.'
	}
	copy(input[990:], []byte("xyzw"))
	p := buildPartition(t, net, input[:10]) // profile sees only dots
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpAPExecutions != 1 {
		t.Fatalf("SpAP executions = %d", res.SpAPExecutions)
	}
	if res.SpAPCycles >= 100 {
		t.Fatalf("SpAP cycles = %d, expected a short jumped run", res.SpAPCycles)
	}
	if res.JumpRatio < 0.9 {
		t.Fatalf("jump ratio = %v, want > 0.9", res.JumpRatio)
	}
	baseline := oracle.Reports[sim.Report](net, input)
	if !reportsEqual(baseline, res.Reports) {
		t.Fatal("reports differ")
	}
}

func TestEnableStallsOnSimultaneousReports(t *testing.T) {
	// Two NFAs whose cut states activate at the same position: the second
	// enable in the same cycle stalls the pipeline.
	net, err := regexc.CompileAll([]string{"ab", "a[bc]"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The layer-2 states are cold under a profile that never sees 'a';
	// on "ab" both intermediates then fire at the same position.
	input := []byte("aXab ab ac")
	p := buildPartition(t, net, []byte("XX"))
	if p.Cold.Len() != 2 {
		t.Fatalf("cold states = %d, want 2", p.Cold.Len())
	}
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both intermediates (b-target and c-target) fire at every position
	// after an 'a': positions 1,3,5,7 in "aXaXab ac".
	if res.IntermediateReports == 0 {
		t.Fatal("expected intermediate reports")
	}
	if res.EnableStalls == 0 {
		t.Fatal("expected enable stalls from simultaneous reports")
	}
	baseline := oracle.Reports[sim.Report](net, input)
	if !reportsEqual(baseline, res.Reports) {
		t.Fatal("reports differ")
	}
}

func TestColdBatchRouting(t *testing.T) {
	// Many small NFAs whose cold fragments exceed one batch: reports must
	// be routed to the right batch and every batch with reports executes.
	patterns := make([]string, 12)
	for i := range patterns {
		patterns[i] = "ab" + string(rune('c'+i%3)) + "d"
	}
	net, err := regexc.CompileAll(patterns, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abcd abdd abed abcd")
	p := buildPartition(t, net, input[:2])
	cfg := cfgWithCapacity(26) // hot fits; cold (24 states) needs >1 batch? cold per NFA = 2, 12 NFAs = 24 -> 1 batch of 24 fits 26; shrink:
	cfg = cfgWithCapacity(10)
	res, err := RunBaseAPSpAP(p, input, cfg, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdBatches < 2 {
		t.Fatalf("cold batches = %d, want >= 2", res.ColdBatches)
	}
	baseline := oracle.Reports[sim.Report](net, input)
	if !reportsEqual(baseline, res.Reports) {
		t.Fatal("reports differ across batched SpAP execution")
	}
}

func TestAPCPUEquivalenceAndCost(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcde", "xyz"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ab abcde xyz abcde")
	p := buildPartition(t, net, input[:3])
	res, err := RunAPCPU(context.Background(), p, input, cfgWithCapacity(100), Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	baseline := oracle.Reports[sim.Report](net, input)
	if !reportsEqual(baseline, res.Reports) {
		t.Fatal("AP-CPU reports differ")
	}
	if res.IntermediateReports > 0 && res.CPUTimeNS <= 0 {
		t.Fatal("CPU time not accounted")
	}
	if res.SpAPCycles != 0 {
		t.Fatal("AP-CPU must not use SpAP cycles")
	}
	wantMin := float64(res.IntermediateReports) * cpuDispatchNS
	if res.CPUTimeNS < wantMin {
		t.Fatalf("CPU time %v below dispatch floor %v", res.CPUTimeNS, wantMin)
	}
}

func TestBatchCountsMatchModel(t *testing.T) {
	// 10 NFAs × 10 states on a 25-capacity AP: baseline 4 batches. With a
	// perfect profile keeping 2 states per NFA (20 total + intermediates),
	// BaseAP needs 1 batch.
	patterns := make([]string, 10)
	for i := range patterns {
		patterns[i] = "ab War and Peace"[:10] // "ab War and" 10 chars
	}
	net, err := regexc.CompileAll(patterns, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ab ab ab")
	p := buildPartition(t, net, input)
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := ap.BaselineCycles(net, len(input), 50)
	if err != nil {
		t.Fatal(err)
	}
	if base != 2 {
		t.Fatalf("baseline batches = %d, want 2", base)
	}
	if res.BaseAPBatches != 1 {
		t.Fatalf("BaseAP batches = %d, want 1", res.BaseAPBatches)
	}
	if res.TotalCycles >= int64(base)*int64(len(input)) {
		t.Fatal("partitioned execution not faster despite fitting in one batch")
	}
}

func TestEnablePortsReduceStalls(t *testing.T) {
	// Three rules share the same cut-firing position: with one port, two
	// stalls per burst; with four ports, none.
	net, err := regexc.CompileAll([]string{"ab", "a[bc]", "a[bd]"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("XaXb ab ab")
	p := buildPartition(t, net, []byte("XX"))
	run := func(ports int) *Result {
		cfg := cfgWithCapacity(100)
		cfg.EnablePorts = ports
		res, err := RunBaseAPSpAP(p, input, cfg, Options{CollectReports: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if one.EnableStalls == 0 {
		t.Fatal("expected stalls with one port")
	}
	if four.EnableStalls != 0 {
		t.Fatalf("stalls with four ports = %d", four.EnableStalls)
	}
	if one.TotalCycles <= four.TotalCycles {
		// stalls must cost cycles
		t.Fatalf("port widening did not reduce cycles: %d vs %d", one.TotalCycles, four.TotalCycles)
	}
	if !reportsEqual(one.Reports, four.Reports) {
		t.Fatal("port width changed reports")
	}
	// Two ports: ceil(3/2)-1 = 1 stall per 3-wide burst.
	two := run(2)
	if two.EnableStalls == 0 || two.EnableStalls >= one.EnableStalls {
		t.Fatalf("two-port stalls = %d (one-port %d)", two.EnableStalls, one.EnableStalls)
	}
}

func TestSpAPBatchCyclesRecorded(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcd", "abce"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abcd abce abcd")
	p := buildPartition(t, net, []byte("XX"))
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SpAPBatchCycles) != res.SpAPExecutions {
		t.Fatalf("batch cycles %d entries, executions %d", len(res.SpAPBatchCycles), res.SpAPExecutions)
	}
	var sum int64
	for _, c := range res.SpAPBatchCycles {
		sum += c
	}
	if sum != res.SpAPCycles {
		t.Fatalf("batch cycles sum %d != SpAPCycles %d", sum, res.SpAPCycles)
	}
}
