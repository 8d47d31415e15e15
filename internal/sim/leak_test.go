package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
	"sparseap/internal/testleak"
)

// leakNet builds a small acyclic network shaped like the workload NFAs:
// an all-input start fanning into a chain, so every input symbol keeps
// the frontier non-empty.
func leakNet(t *testing.T) *automata.Network {
	t.Helper()
	nfa := automata.NewNFA()
	prev := nfa.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	for i := 0; i < 12; i++ {
		s := nfa.Add(symset.Range('a', 'z'), automata.StartNone, i == 11)
		nfa.Connect(prev, s)
		prev = s
	}
	return automata.NewNetwork(nfa)
}

func leakInput(n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte('a' + i%26)
	}
	return in
}

// TestBatchAcquireReleaseSteadyStateNoAlloc drives the batch-engine pool
// through full acquire → join → run → release cycles: after one warm-up
// cycle the pool must serve every later cycle from retained scratch, so
// the steady state allocates nothing per batch.
func TestBatchAcquireReleaseSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; zero-alloc does not hold")
	}
	net := leakNet(t)
	img := ImageOf(net)
	inputs := make([][]byte, MaxLanes)
	for l := range inputs {
		inputs[l] = leakInput(256 + 16*l)
	}
	cycle := func() {
		be := img.AcquireBatch(BatchOptions{})
		for _, in := range inputs {
			be.Join(in)
		}
		for be.Running() > 0 {
			be.Tick()
		}
		be.Release()
	}
	cycle() // warm-up: first acquisition sizes the scratch
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state acquire/run/release allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRunAllocations pins what Run allocates on a warm pooled engine: the
// Result alone with reports off, and with reports on the growth of the
// report slice that Run then hands over (16 384 reports end above
// maxPooledReportCap, so the next run grows a new one). The checkpoint
// loop Run shares with RunContext must add to neither.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the counts do not hold")
	}
	m := automata.NewNFA()
	m.Add(symset.Single('a'), automata.StartAllInput, true)
	m.Add(symset.Single('b'), automata.StartAllInput, true)
	net := automata.NewNetwork(m)
	input := make([]byte, 64<<10)
	for i := range input {
		input[i] = 'x'
		if i%4 == 0 {
			input[i] = 'a'
		}
	}
	for _, tc := range []struct {
		collect bool
		max     float64
	}{{false, 1}, {true, 23}} {
		opts := Options{CollectReports: tc.collect}
		if n := Run(net, input, opts).NumReports; n != 16384 {
			t.Fatalf("%d reports, want 16384", n)
		}
		if got := testing.AllocsPerRun(20, func() { Run(net, input, opts) }); got > tc.max {
			t.Errorf("CollectReports=%v: Run allocates %.1f times, want <= %.0f", tc.collect, got, tc.max)
		}
	}
}

// TestBatchAcquireReleaseSoak drives full batch cycles — acquire, lane
// join, tick to retirement, release — from several goroutines against
// one shared image. Unlike the zero-alloc cell above (which sync.Pool
// semantics force to skip under the race detector), this cell runs
// under -race too, so the pool handoff and lane join/retire paths get
// race coverage, and every lane's report count is checked against a
// solo run of the same input.
func TestBatchAcquireReleaseSoak(t *testing.T) {
	net := leakNet(t)
	img := ImageOf(net)
	const lanesPer = 6
	want := make([]int, lanesPer)
	for l := range want {
		want[l] = len(Run(net, leakInput(256+32*l), Options{CollectReports: true}).Reports)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := 0; trial < 8; trial++ {
				be := img.AcquireBatch(BatchOptions{CollectReports: true})
				lanes := make([]int, lanesPer)
				for l := range lanes {
					lane, ok := be.Join(leakInput(256 + 32*l))
					if !ok {
						errs <- fmt.Errorf("trial %d: lane %d join refused", trial, l)
						be.Release()
						return
					}
					lanes[l] = lane
				}
				for be.Running() > 0 {
					be.Tick()
				}
				for l, lane := range lanes {
					if got := len(be.LaneReports(lane)); got != want[l] {
						errs <- fmt.Errorf("trial %d: lane %d got %d reports, want %d", trial, l, got, want[l])
						be.Release()
						return
					}
				}
				be.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchPoolIsolatedFromSoloPool checks the two engine pools of one
// image never hand each other's scratch back: interleaved acquire and
// release of solo and batch engines must keep both kinds usable.
func TestBatchPoolIsolatedFromSoloPool(t *testing.T) {
	net := leakNet(t)
	img := ImageOf(net)
	input := leakInput(4096)
	want := Run(net, input, Options{CollectReports: true}).Reports
	for trial := 0; trial < 4; trial++ {
		be := img.AcquireBatch(BatchOptions{CollectReports: true})
		eng := img.Acquire(Options{CollectReports: true})
		lane, _ := be.Join(input)
		for be.Running() > 0 {
			be.Tick()
		}
		for i, c := range input {
			eng.Step(int64(i), c)
		}
		if len(be.LaneReports(lane)) != len(want) || len(eng.Reports()) != len(want) {
			t.Fatalf("trial %d: batch %d / solo %d reports, want %d",
				trial, len(be.LaneReports(lane)), len(eng.Reports()), len(want))
		}
		eng.Release()
		be.Release()
	}
}

// TestStreamerCancelNoLeak drives a Streamer under an already-expired
// context: Write must return promptly with the context error, consuming
// no further symbols and leaving nothing running.
func TestStreamerCancelNoLeak(t *testing.T) {
	testleak.Check(t)
	net := leakNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStreamer(net)
	st.SetContext(ctx)
	if _, err := st.Write(leakInput(8192)); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	cancel()
	n, err := st.Write(leakInput(1 << 16))
	if err == nil {
		t.Fatal("expected context error after cancel")
	}
	if n == 1<<16 {
		t.Fatal("cancelled write consumed the whole buffer")
	}
	// Rebinding to a live context resumes the stream where it stopped.
	st.SetContext(context.Background())
	if _, err := st.Write(leakInput(4096)); err != nil {
		t.Fatalf("write after SetContext: %v", err)
	}
}
