package spap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparseap/internal/checkpoint"
	"sparseap/internal/fault"
	"sparseap/internal/hotcold"
	"sparseap/internal/oracle"
	"sparseap/internal/regexc"
	"sparseap/internal/sim"
)

// chainApp builds a long stream over the "abcde" chain pattern profiled
// so the deep states land cold: a workload with a substantial SpAP phase.
func chainApp(t *testing.T, n int) (p *hotcold.Partition, input []byte) {
	t.Helper()
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	unit := []byte("ab abcde xx abcde ")
	input = bytes.Repeat(unit, (n+len(unit)-1)/len(unit))[:n]
	return buildPartition(t, net, input[:2]), input
}

// countersEqual asserts two results agree on every counter, the fault and
// guard statistics and the pre-flight verdict — everything but the report
// list and the Resume bookkeeping.
func countersEqual(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.BaseAPBatches != want.BaseAPBatches || got.ColdBatches != want.ColdBatches ||
		got.SpAPExecutions != want.SpAPExecutions ||
		got.IntermediateReports != want.IntermediateReports ||
		got.EnableStalls != want.EnableStalls || got.QueueRefills != want.QueueRefills ||
		got.BaseAPCycles != want.BaseAPCycles || got.SpAPCycles != want.SpAPCycles ||
		got.SpAPProcessed != want.SpAPProcessed || got.TotalCycles != want.TotalCycles ||
		got.NumReports != want.NumReports {
		t.Fatalf("%s: counters diverged:\ngot  %+v\nwant %+v", tag, got, want)
	}
	if len(got.SpAPBatchCycles) != len(want.SpAPBatchCycles) {
		t.Fatalf("%s: SpAPBatchCycles %v vs %v", tag, got.SpAPBatchCycles, want.SpAPBatchCycles)
	}
	for i := range got.SpAPBatchCycles {
		if got.SpAPBatchCycles[i] != want.SpAPBatchCycles[i] {
			t.Fatalf("%s: SpAPBatchCycles %v vs %v", tag, got.SpAPBatchCycles, want.SpAPBatchCycles)
		}
	}
	if !(math.IsNaN(got.JumpRatio) && math.IsNaN(want.JumpRatio)) && got.JumpRatio != want.JumpRatio {
		t.Fatalf("%s: JumpRatio %v vs %v", tag, got.JumpRatio, want.JumpRatio)
	}
	if got.Fault != want.Fault {
		t.Fatalf("%s: fault stats %+v vs %+v", tag, got.Fault, want.Fault)
	}
	if (got.Guard == nil) != (want.Guard == nil) {
		t.Fatalf("%s: guard presence %v vs %v", tag, got.Guard != nil, want.Guard != nil)
	}
	if got.Guard != nil {
		a, b := got.Guard, want.Guard
		if a.Attempts != b.Attempts || a.Trips != b.Trips || a.WastedCycles != b.WastedCycles ||
			a.Widened != b.Widened || a.FallbackBaseline != b.FallbackBaseline ||
			a.BatchFallbacks != b.BatchFallbacks || a.FallbackCycles != b.FallbackCycles ||
			len(a.TripPos) != len(b.TripPos) {
			t.Fatalf("%s: guard stats:\ngot  %+v\nwant %+v", tag, a, b)
		}
		for i := range a.TripPos {
			if a.TripPos[i] != b.TripPos[i] {
				t.Fatalf("%s: TripPos %v vs %v", tag, a.TripPos, b.TripPos)
			}
		}
		if !reflect.DeepEqual(a.Preflight, b.Preflight) {
			t.Fatalf("%s: preflight verdict %+v vs %+v", tag, a.Preflight, b.Preflight)
		}
	}
}

// ckResultsEqual asserts two runs of the machine returned the same
// result, field by field and report by report (Resume bookkeeping
// excluded by design).
func ckResultsEqual(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	countersEqual(t, tag, got, want)
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("%s: %d reports vs %d", tag, len(got.Reports), len(want.Reports))
	}
	for i := range got.Reports {
		if got.Reports[i] != want.Reports[i] {
			t.Fatalf("%s: report %d = %+v, want %+v (order must be bit-identical)",
				tag, i, got.Reports[i], want.Reports[i])
		}
	}
}

// killSched injects crashes at global chaos-hook-poll thresholds; the
// counter spans resumes, so every threshold fires exactly once.
type killSched struct {
	checks int64
	at     []int64
	next   int
}

func (k *killSched) hook(pos int64) bool {
	k.checks++
	if k.next < len(k.at) && k.checks >= k.at[k.next] {
		k.next++
		return true
	}
	return false
}

// seededKills distributes nKills thresholds across the poll volume of an
// uninterrupted run of `probe`, so crashes land in every phase the
// workload reaches (early BaseAP through the tail of the cold phase).
func seededKills(t *testing.T, nKills int, probe func(ck *checkpoint.Runner) error) *killSched {
	t.Helper()
	count := &killSched{}
	if err := probe(&checkpoint.Runner{CrashAt: count.hook}); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if count.checks < int64(nKills) {
		t.Fatalf("workload too small: %d chaos polls", count.checks)
	}
	s := &killSched{}
	for i := 1; i <= nKills; i++ {
		s.at = append(s.at, count.checks*int64(2*i-1)/int64(2*nKills))
	}
	return s
}

// runUntilDone drives a checkpointed run through its kill schedule,
// re-invoking after each injected crash until it completes. It returns
// the final result and the phases the run resumed into.
func runUntilDone(t *testing.T, sched *killSched, store checkpoint.Store, every int64,
	run func(ck *checkpoint.Runner) (*Result, error)) (*Result, []string) {
	t.Helper()
	var phases []string
	for attempt := 0; ; attempt++ {
		if attempt > len(sched.at)+2 {
			t.Fatalf("kill/resume loop did not converge after %d attempts", attempt)
		}
		ck := &checkpoint.Runner{Store: store, Name: "spap", Every: every, CrashAt: sched.hook}
		res, err := run(ck)
		if res != nil && res.Resume != nil && res.Resume.Resumed {
			phases = append(phases, res.Resume.Phase)
		}
		if err == nil {
			if sched.next != len(sched.at) {
				t.Fatalf("only %d of %d kill points fired", sched.next, len(sched.at))
			}
			return res, phases
		}
		if !errors.Is(err, checkpoint.ErrCrashInjected) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
}

// crashCell is one crash/resume cell: run executes the workload with the
// runner it is given. The cell runs it with no runner, with a store and no
// interruption, and under nKills seeded kills on a second store, and
// asserts the three results agree field by field and report by report. It
// returns the crash-resumed result and the phases it resumed into.
func crashCell(t *testing.T, nKills int, run func(ck *checkpoint.Runner) (*Result, error)) (*Result, []string) {
	t.Helper()
	return crashCellEvery(t, nKills, 64, run)
}

// crashCellEvery is crashCell at a capture cadence of the caller's.
func crashCellEvery(t *testing.T, nKills int, every int64, run func(ck *checkpoint.Runner) (*Result, error)) (*Result, []string) {
	t.Helper()
	want, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	open := func() checkpoint.Store {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	stored, err := run(&checkpoint.Runner{Store: open(), Name: "spap", Every: every})
	if err != nil {
		t.Fatal(err)
	}
	ckResultsEqual(t, "store attached, uninterrupted", stored, want)
	if stored.Resume.Resumed || stored.Resume.Saves == 0 {
		t.Fatalf("uninterrupted run with a store: Resume = %+v", stored.Resume)
	}
	sched := seededKills(t, nKills, func(ck *checkpoint.Runner) error {
		_, err := run(ck)
		return err
	})
	got, phases := runUntilDone(t, sched, open(), every, run)
	ckResultsEqual(t, "crash-resumed", got, want)
	return got, phases
}

func hasPhase(phases []string, want string) bool {
	for _, ph := range phases {
		if ph == want {
			return true
		}
	}
	return false
}

// streamHash fingerprints a report stream, order included.
func streamHash(rs []sim.Report) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		fmt.Fprintf(h, "%d:%d,", r.Pos, r.State)
	}
	return h.Sum64()
}

// Golden results of the two deterministic fixtures, recorded at the last
// commit that still had the separate plain (runBaseAPMode/runSpAPMode) and
// guarded (runGuarded/runColdGuarded/baselineFallback) executors, from
// those executors: the evidence that folding them into the phase machine
// changed no counter. chain is chainApp(2048), storm is
// buildStorm(4, 16, 4096), both at capacity 100.
var (
	goldenChain = Result{BaseAPBatches: 1, ColdBatches: 1, SpAPExecutions: 1, IntermediateReports: 227,
		QueueRefills: 1, BaseAPCycles: 2048, SpAPCycles: 454, SpAPProcessed: 454,
		SpAPBatchCycles: []int64{454}, TotalCycles: 2502, JumpRatio: 0.7783203125, NumReports: 227}
	goldenChainHash = uint64(0xb0105fad96196d1c)
	goldenStormHash = uint64(0x68a9f4f649121a4d)

	goldenGuards = []struct {
		name string
		g    Guard
	}{
		{"healthy", Guard{}},
		{"widen-retry", Guard{MinReports: 64, HopelessFactor: 1000}},
		{"hopeless-fallback", Guard{MinReports: 64}},
		{"batch-fallback", Guard{ReportBudget: 100, StallBudget: 1e-9, MinReports: 1 << 40}},
	}
	// The chain never storms: every guard case leaves it on the plain path.
	goldenChainGuard = GuardStats{Attempts: 1}
	goldenStorm      = map[string]Result{
		"plain": {BaseAPBatches: 1, ColdBatches: 1, SpAPExecutions: 1, IntermediateReports: 16380,
			EnableStalls: 12285, QueueRefills: 127, BaseAPCycles: 4096, SpAPCycles: 16380, SpAPProcessed: 4095,
			SpAPBatchCycles: []int64{16380}, TotalCycles: 20476, JumpRatio: 0.000244140625, NumReports: 16380},
		"healthy": {TotalCycles: 4225, JumpRatio: math.NaN(), NumReports: 16380,
			Guard: &GuardStats{Attempts: 1, Trips: 1, TripPos: []int64{129}, WastedCycles: 129,
				FallbackBaseline: true, FallbackCycles: 4096}},
		"widen-retry": {BaseAPBatches: 1, BaseAPCycles: 4096, TotalCycles: 4113, JumpRatio: math.NaN(), NumReports: 16380,
			Guard: &GuardStats{Attempts: 2, Trips: 1, TripPos: []int64{17}, WastedCycles: 17, Widened: true}},
		"hopeless-fallback": {TotalCycles: 4113, JumpRatio: math.NaN(), NumReports: 16380,
			Guard: &GuardStats{Attempts: 1, Trips: 1, TripPos: []int64{17}, WastedCycles: 17,
				FallbackBaseline: true, FallbackCycles: 4096}},
		"batch-fallback": {BaseAPBatches: 1, ColdBatches: 1, IntermediateReports: 16380, BaseAPCycles: 4096,
			TotalCycles: 8192, JumpRatio: math.NaN(), NumReports: 16380,
			Guard: &GuardStats{Attempts: 1, BatchFallbacks: 1, FallbackCycles: 4096}},
	}
)

// goldenCheck asserts got carries the pinned counters and report-stream
// fingerprint, and that the stream is the oracle's on the un-partitioned
// network.
func goldenCheck(t *testing.T, tag string, got *Result, want Result, hash uint64, p *hotcold.Partition, input []byte) {
	t.Helper()
	countersEqual(t, tag, got, &want)
	if int64(len(got.Reports)) != want.NumReports || streamHash(got.Reports) != hash {
		t.Fatalf("%s: report stream (%d reports, hash %#x) is not the pinned one (%d, %#x)",
			tag, len(got.Reports), streamHash(got.Reports), want.NumReports, hash)
	}
	if !reportsEqual(oracle.Reports[sim.Report](p.Net, input), got.Reports) {
		t.Fatalf("%s: report stream differs from the oracle's", tag)
	}
}

// The unguarded machine with no runner: pinned counters on the fixtures.
// Over drawn networks every executor is internal/oracle's TestDifferential's.
func TestCheckpointedDisabledMatchesPlain(t *testing.T) {
	cfg, opts := cfgWithCapacity(100), Options{CollectReports: true}
	p, input := chainApp(t, 2048)
	got, err := RunBaseAPSpAP(p, input, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "chain", got, goldenChain, goldenChainHash, p, input)
	p, input = buildStorm(t, 4, 16, 4096)
	if got, err = RunBaseAPSpAP(p, input, cfg, opts); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "storm", got, goldenStorm["plain"], goldenStormHash, p, input)
}

// The four outcomes of the guard ladder, pinned on both fixtures.
func TestCheckpointedGuardedLadderMatchesPlain(t *testing.T) {
	cfg, opts := cfgWithCapacity(100), Options{CollectReports: true}
	for _, tc := range goldenGuards {
		t.Run(tc.name, func(t *testing.T) {
			p, input := chainApp(t, 2048)
			got, err := RunGuarded(context.Background(), p, input, cfg, tc.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenChain
			want.Guard = &goldenChainGuard
			goldenCheck(t, "chain", got, want, goldenChainHash, p, input)

			p, input = buildStorm(t, 4, 16, 4096)
			if got, err = RunGuarded(context.Background(), p, input, cfg, tc.g, opts); err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, "storm", got, goldenStorm[tc.name], goldenStormHash, p, input)
		})
	}
}

// No runner, a store and no interruption, and a store under seeded kills
// agree on every ladder outcome; a rerun on a finished store replays the
// done-phase record.
func TestCheckpointedUninterruptedWithStoreMatchesPlain(t *testing.T) {
	ctx := context.Background()
	cfg, opts := cfgWithCapacity(100), Options{CollectReports: true}
	for _, tc := range goldenGuards {
		p, input := buildStorm(t, 4, 16, 4096)
		crashCell(t, 3, func(ck *checkpoint.Runner) (*Result, error) {
			return RunGuardedCheckpointed(ctx, p, input, cfg, tc.g, opts, ck)
		})
	}

	p, input := chainApp(t, 2048)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck := &checkpoint.Runner{Store: store, Name: "spap", Every: 64}
	first, err := RunBaseAPSpAPContext(ctx, p, input, cfg, opts, ck)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "with-store", first, goldenChain, goldenChainHash, p, input)
	again, err := RunBaseAPSpAPContext(ctx, p, input, cfg, opts, ck)
	if err != nil {
		t.Fatal(err)
	}
	ckResultsEqual(t, "done-replay", again, first)
	if !again.Resume.Resumed || again.Resume.Phase != "done" {
		t.Fatalf("done replay Resume = %+v", again.Resume)
	}
}

func TestCheckpointedCrashResumeUnguarded(t *testing.T) {
	p, input := chainApp(t, 4096)
	_, phases := crashCell(t, 5, func(ck *checkpoint.Runner) (*Result, error) {
		return RunBaseAPSpAPContext(context.Background(), p, input, cfgWithCapacity(100), Options{CollectReports: true}, ck)
	})
	if !hasPhase(phases, "baseap") || !hasPhase(phases, "spap") {
		t.Fatalf("kill points did not span both phases: resumed into %v", phases)
	}
}

// A capture taken inside a quiet run — nothing explicitly enabled, the last
// symbol's start plan pending, the run cut at the hook — restores into an
// engine that goes on as the uninterrupted one does. The stream is
// chainApp's with a stretch nothing matches after every unit, and the
// cadence is drawn until most captures of the BaseAP phase fall strictly
// inside such stretches; the cell must resume from one of them.
func TestCheckpointedCrashResumeInsideQuietRun(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat(append([]byte("ab abcde xx abcde "), bytes.Repeat([]byte("-"), 150)...), 24)
	p := buildPartition(t, net, input[:2])
	// inside[i]: a stepping hot engine would skip both symbol i-1 and i.
	inside := make([]bool, len(input))
	eng, before := sim.NewEngine(p.Hot, sim.Options{}), false
	for i := range input {
		quiet := eng.Skip(input[:i+1], i) == 1
		if !quiet {
			eng.Step(int64(i), input[i])
		}
		inside[i], before = quiet && before, quiet
	}
	r := rand.New(rand.NewSource(7))
	every, captures, hits := int64(0), 0, 0
	for hits*2 <= captures {
		every, captures, hits = 40+r.Int63n(60), 0, 0
		for pos := every; pos < int64(len(input)); pos += every {
			captures++
			if inside[pos] {
				hits++
			}
		}
	}
	var resumedInside []int64
	crashCellEvery(t, 6, every, func(ck *checkpoint.Runner) (*Result, error) {
		res, err := RunGuardedCheckpointed(context.Background(), p, input, cfgWithCapacity(100), Guard{}, Options{CollectReports: true}, ck)
		if res != nil && res.Resume != nil && res.Resume.Resumed && res.Resume.Phase == "baseap" && inside[res.Resume.Pos] {
			resumedInside = append(resumedInside, res.Resume.Pos)
		}
		return res, err
	})
	if len(resumedInside) == 0 {
		t.Fatalf("capturing every %d symbols, %d of %d positions inside quiet runs, and no resume from one", every, hits, captures)
	}
}

func TestCheckpointedCrashResumeGuardedWiden(t *testing.T) {
	p, input := buildStorm(t, 4, 16, 4096)
	g := Guard{MinReports: 64, HopelessFactor: 1000}
	got, _ := crashCell(t, 5, func(ck *checkpoint.Runner) (*Result, error) {
		return RunGuardedCheckpointed(context.Background(), p, input, cfgWithCapacity(100), g, Options{CollectReports: true}, ck)
	})
	if got.Guard == nil || !got.Guard.Widened || got.Guard.Attempts != 2 {
		t.Fatalf("widen ladder lost across resumes: %+v", got.Guard)
	}
}

func TestCheckpointedCrashResumeGuardedFallback(t *testing.T) {
	p, input := buildStorm(t, 4, 16, 4096)
	g := Guard{MinReports: 64} // hopeless storm: falls back to baseline
	got, phases := crashCell(t, 5, func(ck *checkpoint.Runner) (*Result, error) {
		return RunGuardedCheckpointed(context.Background(), p, input, cfgWithCapacity(100), g, Options{CollectReports: true}, ck)
	})
	if got.Guard == nil || !got.Guard.FallbackBaseline {
		t.Fatalf("fallback ladder lost across resumes: %+v", got.Guard)
	}
	if !hasPhase(phases, "fallback") {
		t.Fatalf("no kill point landed in the fallback phase: resumed into %v", phases)
	}
}

func TestCheckpointedFaultPlanCrashResume(t *testing.T) {
	p, input := chainApp(t, 4096)
	inj := fault.New(fault.Plan{Seed: 3, EnableFlipRate: 0.002, ReportDropRate: 0.1})
	// The fault plan is hash-seeded by position, so the interrupted run
	// replays the exact same flips and drops as the uninterrupted one.
	got, _ := crashCell(t, 5, func(ck *checkpoint.Runner) (*Result, error) {
		return RunBaseAPSpAPContext(context.Background(), p, input, cfgWithCapacity(100), Options{CollectReports: true, Faults: inj}, ck)
	})
	if got.Fault.Flips == 0 && got.Fault.DroppedReports == 0 {
		t.Fatal("fault plan never fired; test is vacuous")
	}
}

// The three pre-flight verdicts of preflight_test.go as crash/resume
// cells: the verdict is part of the persisted state, so a resumed run
// reports the same Preflight and follows the same ladder as an
// uninterrupted one.
func TestCheckpointedCrashResumePreflight(t *testing.T) {
	ctx := context.Background()
	cfg, opts := cfgWithCapacity(100), Options{CollectReports: true}
	g := Guard{Preflight: true, MinReports: 64}
	cell := func(t *testing.T, p *hotcold.Partition, input []byte) (*GuardStats, []string) {
		got, phases := crashCell(t, 4, func(ck *checkpoint.Runner) (*Result, error) {
			return RunGuardedCheckpointed(ctx, p, input, cfg, g, opts, ck)
		})
		if !reportsEqual(oracle.Reports[sim.Report](p.Net, input), got.Reports) {
			t.Fatal("report stream differs from the oracle's")
		}
		if got.Guard.Preflight == nil {
			t.Fatalf("guard stats lack the pre-flight verdict: %+v", got.Guard)
		}
		return got.Guard, phases
	}
	t.Run("safe", func(t *testing.T) {
		p, input := chainApp(t, 4096)
		gs, _ := cell(t, p, input)
		if !gs.Preflight.Safe || gs.Attempts != 1 || gs.Trips != 0 || gs.Widened || gs.FallbackBaseline {
			t.Fatalf("guard stats = %+v (preflight %+v), want Safe and an untouched run", gs, gs.Preflight)
		}
	})
	t.Run("sized", func(t *testing.T) {
		p, input := buildStorm(t, 4, 16, 4096)
		gs, phases := cell(t, p, input)
		if gs.Preflight.K == nil || gs.Attempts != 1 || gs.Trips != 0 || !gs.Widened || gs.FallbackBaseline || gs.WastedCycles != 0 {
			t.Fatalf("guard stats = %+v (preflight %+v), want a pre-widened single attempt", gs, gs.Preflight)
		}
		if !hasPhase(phases, "baseap") {
			t.Fatalf("no kill landed in the pre-widened attempt: resumed into %v", phases)
		}
	})
	t.Run("hopeless", func(t *testing.T) {
		p, input := buildDeepStorm(t, 4, 16, 3, 4096)
		gs, phases := cell(t, p, input)
		if !gs.Preflight.Hopeless || gs.Attempts != 0 || gs.Trips != 0 || !gs.FallbackBaseline || gs.WastedCycles != 0 {
			t.Fatalf("guard stats = %+v (preflight %+v), want zero attempts and a baseline fallback", gs, gs.Preflight)
		}
		if !hasPhase(phases, "fallback") {
			t.Fatalf("no kill landed in the fallback: resumed into %v", phases)
		}
	})
}

// The nil-hook contract: what each absent hook leaves out of the Result.
func TestNilHookContract(t *testing.T) {
	ctx := context.Background()
	cfg := cfgWithCapacity(100)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		ck   func() *checkpoint.Runner
	}{
		{"no runner", func() *checkpoint.Runner { return nil }},
		{"runner without store", func() *checkpoint.Runner { return &checkpoint.Runner{} }},
		{"runner with store", func() *checkpoint.Runner {
			store.Clear()
			return &checkpoint.Runner{Store: store, Name: "spap", Every: 64}
		}},
	}
	guards := append([]struct {
		name string
		g    Guard
	}{{name: "unguarded"}}, goldenGuards...)
	for _, storm := range []bool{false, true} {
		p, input := chainApp(t, 2048)
		if storm {
			p, input = buildStorm(t, 4, 16, 4096)
		}
		for _, gc := range guards {
			for _, rc := range runners {
				for _, collect := range []bool{false, true} {
					ck, opts := rc.ck(), Options{CollectReports: collect}
					var res *Result
					if gc.name == "unguarded" {
						res, err = RunBaseAPSpAPContext(ctx, p, input, cfg, opts, ck)
					} else {
						res, err = RunGuardedCheckpointed(ctx, p, input, cfg, gc.g, opts, ck)
					}
					tag := fmt.Sprintf("storm=%v %s, %s, collect=%v", storm, gc.name, rc.name, collect)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if (res.Resume == nil) != (ck == nil) {
						t.Errorf("%s: Resume = %+v", tag, res.Resume)
					}
					if (res.Guard == nil) != (gc.name == "unguarded") {
						t.Errorf("%s: Guard = %+v", tag, res.Guard)
					}
					if collect && int64(len(res.Reports)) != res.NumReports || !collect && res.Reports != nil {
						t.Errorf("%s: %d reports retained, %d counted", tag, len(res.Reports), res.NumReports)
					}
					if res.NumReports == 0 {
						t.Errorf("%s: no reports counted; the cell is vacuous", tag)
					}
				}
			}
		}
	}

	// apsim -fault crash= without -checkpoint: the chaos hook fires on a
	// runner that has no store, guarded or not.
	p, input := chainApp(t, 2048)
	hookOnly := func() *checkpoint.Runner {
		return &checkpoint.Runner{CrashAt: (&killSched{at: []int64{400}}).hook}
	}
	res, err := RunBaseAPSpAPContext(ctx, p, input, cfg, Options{}, hookOnly())
	if !errors.Is(err, checkpoint.ErrCrashInjected) || res == nil || res.Resume == nil || res.Resume.Saves != 0 {
		t.Fatalf("store-less crash hook, unguarded: res %+v, err %v", res, err)
	}
	res, err = RunGuardedCheckpointed(ctx, p, input, cfg, Guard{}, Options{}, hookOnly())
	if !errors.Is(err, checkpoint.ErrCrashInjected) || res == nil || res.Guard == nil {
		t.Fatalf("store-less crash hook, guarded: res %+v, err %v", res, err)
	}
}

func TestCheckpointedGuardModeMismatch(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 2048)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := &killSched{at: []int64{400}}
	ck := &checkpoint.Runner{Store: store, Name: "spap", Every: 64, CrashAt: sched.hook}
	if _, err := RunBaseAPSpAPContext(ctx, p, input, cfgWithCapacity(100), Options{}, ck); !errors.Is(err, checkpoint.ErrCrashInjected) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	// Resuming a plain run through the guarded entry point must refuse.
	ck2 := &checkpoint.Runner{Store: store, Name: "spap", Every: 64}
	if _, err := RunGuardedCheckpointed(ctx, p, input, cfgWithCapacity(100), Guard{}, Options{}, ck2); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("guarded resume of a plain checkpoint: err = %v, want ErrMismatch", err)
	}
}

func TestCheckpointedStateVersionMismatch(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 512)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("spap", spapStateVersion+1, []byte("future")); err != nil {
		t.Fatal(err)
	}
	ck := &checkpoint.Runner{Store: store, Name: "spap", Every: 64}
	if _, err := RunBaseAPSpAPContext(ctx, p, input, cfgWithCapacity(100), Options{}, ck); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("future-version checkpoint: err = %v, want ErrMismatch", err)
	}
}
