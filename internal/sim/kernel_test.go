package sim

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// randomKernelNet builds a random network exercising every feature the
// kernels must agree on: self-loops, all-input starts, start-of-data
// starts, reporting states, and arbitrary (possibly cyclic) edges.
func randomKernelNet(r *rand.Rand) *automata.Network {
	nStates := 2 + r.Intn(20)
	m := automata.NewNFA()
	alphabet := []byte("abcd")
	for s := 0; s < nStates; s++ {
		var set symset.Set
		switch r.Intn(4) {
		case 0:
			set = symset.All()
		default:
			for k := 0; k <= r.Intn(3); k++ {
				set.Add(alphabet[r.Intn(len(alphabet))])
			}
		}
		start := automata.StartNone
		switch r.Intn(5) {
		case 0:
			start = automata.StartAllInput
		case 1:
			start = automata.StartOfData
		}
		m.Add(set, start, r.Intn(3) == 0)
	}
	if m.States[0].Start == automata.StartNone {
		m.States[0].Start = automata.StartAllInput
	}
	for k := 0; k < r.Intn(3*nStates); k++ {
		u := automata.StateID(r.Intn(nStates))
		v := automata.StateID(r.Intn(nStates))
		m.Connect(u, v) // u == v gives a self-loop
	}
	m.Dedup()
	return automata.NewNetwork(m)
}

// Property: the sparse-only, dense-only, and adaptive kernels produce
// identical report streams (same order, not just same multiset),
// identical ever-enabled sets, and identical report counts on randomized
// networks — and all agree with the naive reference simulator up to
// within-cycle order.
func TestPropKernelsIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	kernels := []Kernel{KernelSparse, KernelDense, KernelAuto}
	for trial := 0; trial < 80; trial++ {
		net := randomKernelNet(r)
		input := make([]byte, 1+r.Intn(120))
		alphabet := []byte("abcdx")
		for i := range input {
			input[i] = alphabet[r.Intn(len(alphabet))]
		}
		// A low threshold makes KernelAuto actually alternate between
		// passes on these small nets.
		threshold := 1 + r.Intn(4)
		results := make([]*Result, len(kernels))
		for ki, k := range kernels {
			results[ki] = Run(net, input, Options{
				CollectReports: true,
				TrackEnabled:   true,
				Kernel:         k,
				DenseThreshold: threshold,
			})
		}
		base := results[0]
		for ki, res := range results[1:] {
			if res.NumReports != base.NumReports {
				t.Fatalf("trial %d: %v reports %d, sparse %d",
					trial, kernels[ki+1], res.NumReports, base.NumReports)
			}
			if len(res.Reports) != len(base.Reports) {
				t.Fatalf("trial %d: %v collected %d, sparse %d",
					trial, kernels[ki+1], len(res.Reports), len(base.Reports))
			}
			for i := range res.Reports {
				if res.Reports[i] != base.Reports[i] {
					t.Fatalf("trial %d: %v report[%d] = %+v, sparse %+v",
						trial, kernels[ki+1], i, res.Reports[i], base.Reports[i])
				}
			}
			for s := 0; s < net.Len(); s++ {
				if res.EverEnabled.Get(s) != base.EverEnabled.Get(s) {
					t.Fatalf("trial %d: %v ever[%d] = %v, sparse %v",
						trial, kernels[ki+1], s, res.EverEnabled.Get(s), base.EverEnabled.Get(s))
				}
			}
		}
		// And the whole family agrees with the oracle as a multiset.
		want := naiveRun(net, input)
		if len(want) != len(base.Reports) {
			t.Fatalf("trial %d: engine %d reports, naive %d", trial, len(base.Reports), len(want))
		}
		counts := map[Report]int{}
		for _, rep := range want {
			counts[rep]++
		}
		for _, rep := range base.Reports {
			counts[rep]--
			if counts[rep] < 0 {
				t.Fatalf("trial %d: extra report %+v", trial, rep)
			}
		}
	}
}

// randomDAGNet builds a random acyclic network (edges only forward).
func randomDAGNet(r *rand.Rand, nfas int) *automata.Network {
	machines := make([]*automata.NFA, nfas)
	for u := range machines {
		n := 2 + r.Intn(8)
		m := automata.NewNFA()
		for s := 0; s < n; s++ {
			start := automata.StartNone
			if s == 0 {
				start = automata.StartAllInput
			}
			m.Add(symset.Single(byte('a'+r.Intn(4))), start, r.Intn(3) == 0)
		}
		for e := 0; e < 1+r.Intn(2*n); e++ {
			u := r.Intn(n - 1)
			v := u + 1 + r.Intn(n-u-1)
			m.Connect(automata.StateID(u), automata.StateID(v))
		}
		m.Dedup()
		machines[u] = m
	}
	return automata.NewNetwork(machines...)
}

// reportLess orders reports by (Pos, State) — the canonical stream order.
func reportLess(a, b Report) bool {
	return a.Pos < b.Pos || (a.Pos == b.Pos && a.State < b.State)
}

// Reports must come out sorted by (Pos, State): positions ascend by
// construction and the canonical within-cycle order ascends by state.
func TestReportsCanonicallyOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		net := randomKernelNet(r)
		input := make([]byte, 1+r.Intn(100))
		for i := range input {
			input[i] = byte('a' + r.Intn(5))
		}
		for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
			reps := Run(net, input, Options{CollectReports: true, Kernel: k, DenseThreshold: 2}).Reports
			for i := 1; i < len(reps); i++ {
				if reportLess(reps[i], reps[i-1]) {
					t.Fatalf("trial %d kernel %v: reports out of order at %d: %+v then %+v",
						trial, k, i, reps[i-1], reps[i])
				}
			}
		}
	}
}

// KernelAuto must actually use both passes when the frontier crosses the
// threshold, and the per-kernel step counters must account for every Step.
func TestAutoKernelSwitches(t *testing.T) {
	net := figure2()
	e := NewEngine(net, Options{Kernel: KernelAuto, DenseThreshold: 2})
	input := []byte("abcfacdcdf")
	for i, b := range input {
		e.Step(int64(i), b)
	}
	if e.DenseSteps()+e.SparseSteps() != int64(len(input)) {
		t.Fatalf("dense %d + sparse %d != %d steps", e.DenseSteps(), e.SparseSteps(), len(input))
	}
	if e.DenseSteps() == 0 || e.SparseSteps() == 0 {
		t.Fatalf("auto kernel never switched: dense %d, sparse %d", e.DenseSteps(), e.SparseSteps())
	}
}

// Engine.Step must not allocate in steady state, on any kernel.
func TestStepZeroAlloc(t *testing.T) {
	net := figure2()
	input := []byte("abcfacdcdfabcf")
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		e := AcquireEngine(net, Options{CollectReports: true, TrackEnabled: true, Kernel: k, DenseThreshold: 2})
		// Warm up: grow the frontier, report, and repBuf buffers to their
		// working size, then measure.
		for i, b := range input {
			e.Step(int64(i), b)
		}
		e.Reset()
		allocs := testing.AllocsPerRun(20, func() {
			e.Reset()
			for i, b := range input {
				e.Step(int64(i), b)
			}
		})
		e.Release()
		if allocs != 0 {
			t.Errorf("kernel %v: %v allocs per run, want 0", k, allocs)
		}
	}
}

// Race coverage for the pooled runtime: concurrent RunContext calls and
// HotStatesContext over one shared network (hence one shared image and
// engine pool). Run under -race in scripts/check.sh.
func TestPooledRuntimeConcurrentUse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	net := randomDAGNet(r, 4)
	input := make([]byte, 8192)
	for i := range input {
		input[i] = byte('a' + r.Intn(4))
	}
	want := Run(net, input, Options{CollectReports: true}).Reports
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(3)
		for i := 0; i < 2; i++ {
			go func() {
				defer wg.Done()
				res, err := RunContext(context.Background(), net, input, Options{CollectReports: true})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Reports) != len(want) {
					t.Errorf("serial: %d reports, want %d", len(res.Reports), len(want))
				}
			}()
		}
		go func() {
			defer wg.Done()
			if _, err := HotStatesContext(context.Background(), net, input); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHotStatesContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := figure2()
	input := make([]byte, 3*cancelCheckInterval)
	hot, err := HotStatesContext(ctx, net, input)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if hot == nil {
		t.Fatal("partial hot set is nil")
	}
	// All-input starts are hot by definition even in the partial set.
	if !hot.Get(0) {
		t.Error("all-input start not marked hot")
	}
}

func TestHotStatesMatchesTrackedRun(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		net := randomKernelNet(r)
		input := make([]byte, 1+r.Intn(200))
		for i := range input {
			input[i] = byte('a' + r.Intn(5))
		}
		hot := HotStates(net, input)
		res := Run(net, input, Options{TrackEnabled: true})
		for s := 0; s < net.Len(); s++ {
			if hot.Get(s) != res.EverEnabled.Get(s) {
				t.Fatalf("trial %d: HotStates[%d] = %v, Run says %v",
					trial, s, hot.Get(s), res.EverEnabled.Get(s))
			}
		}
	}
}

// The image is compiled once per network and shared: repeated engine
// construction and concurrent first use must yield one consistent image.
func TestImageCachedOnNetwork(t *testing.T) {
	net := figure2()
	img := ImageOf(net)
	if ImageOf(net) != img {
		t.Fatal("second ImageOf compiled a fresh image")
	}
	// Mutating paths invalidate the cache.
	net.InvalidateCaches()
	if got := ImageOf(net); got == img {
		t.Fatal("InvalidateCaches kept the stale image")
	}
	m := automata.NewNFA()
	m.Add(symset.Single('q'), automata.StartAllInput, true)
	prev := ImageOf(net)
	net.Append(m)
	if got := ImageOf(net); got == prev {
		t.Fatal("Append kept the stale image")
	}
	if got := ImageOf(net); got.n != net.Len() {
		t.Fatalf("image has %d states, network %d", ImageOf(net).n, net.Len())
	}
}
