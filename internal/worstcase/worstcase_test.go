package worstcase_test

import (
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/oracle"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
	"sparseap/internal/worstcase"
)

// chainNet is the saturating shape: an all-input start matching [a-z]
// feeding a chain of n [a-z] states (last one reports). Every chain
// state's predecessor fires on every lowercase byte, so all n states can
// be simultaneously enabled and the bound is exactly reachable.
func chainNet(n int) *automata.Network {
	nfa := automata.NewNFA()
	prev := nfa.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	for i := 0; i < n; i++ {
		s := nfa.Add(symset.Range('a', 'z'), automata.StartNone, i == n-1)
		nfa.Connect(prev, s)
		prev = s
	}
	return automata.NewNetwork(nfa)
}

func TestChainBoundTight(t *testing.T) {
	const n = 5
	a := worstcase.Analyze(chainNet(n), worstcase.Config{})
	if a.FrontierBound != n {
		t.Fatalf("FrontierBound = %d, want %d", a.FrontierBound, n)
	}
	if a.Trackable != n {
		t.Fatalf("Trackable = %d, want %d (all-input start must be excluded)", a.Trackable, n)
	}
	if a.ReportBound != 1 {
		t.Fatalf("ReportBound = %d, want 1", a.ReportBound)
	}
	w, r := a.Certify(worstcase.WitnessOptions{MaxLen: 64})
	if !r.Sound {
		t.Fatalf("replay violated the bound: peak %d > bound %d", r.PeakFrontier, a.FrontierBound)
	}
	if r.PeakFrontier != n {
		t.Fatalf("witness peak = %d, want %d (chain saturates)", r.PeakFrontier, n)
	}
	if r.Gap != 1.0 {
		t.Fatalf("gap = %v, want 1.0", r.Gap)
	}
	if w.PeakFrontier != r.PeakFrontier {
		t.Fatalf("model walk peak %d != engine replay peak %d", w.PeakFrontier, r.PeakFrontier)
	}
}

// TestDisjointPrefixes checks the per-symbol abstraction is strictly
// tighter than "all reachable states": two branches whose predecessors
// fire on disjoint symbols can never be enabled in the same cycle.
func TestDisjointPrefixes(t *testing.T) {
	nfa := automata.NewNFA()
	s1 := nfa.Add(symset.Single('a'), automata.StartAllInput, false)
	s2 := nfa.Add(symset.Single('c'), automata.StartAllInput, false)
	b1 := nfa.Add(symset.Single('b'), automata.StartNone, true)
	b2 := nfa.Add(symset.Single('d'), automata.StartNone, true)
	nfa.Connect(s1, b1)
	nfa.Connect(s2, b2)
	a := worstcase.Analyze(automata.NewNetwork(nfa), worstcase.Config{})
	if a.FrontierBound != 1 {
		t.Fatalf("FrontierBound = %d, want 1 (prefixes are disjoint)", a.FrontierBound)
	}
	if a.ReportBound != 1 {
		t.Fatalf("ReportBound = %d, want 1", a.ReportBound)
	}
	_, r := a.Certify(worstcase.WitnessOptions{MaxLen: 32})
	if !r.Sound || r.PeakFrontier != 1 {
		t.Fatalf("replay: sound=%v peak=%d, want sound peak 1", r.Sound, r.PeakFrontier)
	}
}

func TestStartOfDataWidth(t *testing.T) {
	nfa := automata.NewNFA()
	for i := 0; i < 3; i++ {
		nfa.Add(symset.Single(byte('x'+i)), automata.StartOfData, true)
	}
	a := worstcase.Analyze(automata.NewNetwork(nfa), worstcase.Config{})
	if a.StartWidth != 3 || a.FrontierBound != 3 {
		t.Fatalf("StartWidth=%d FrontierBound=%d, want 3/3", a.StartWidth, a.FrontierBound)
	}
	_, r := a.Certify(worstcase.WitnessOptions{MaxLen: 8})
	if !r.Sound {
		t.Fatalf("replay unsound: peak %d > bound %d", r.PeakFrontier, a.FrontierBound)
	}
	if r.PeakFrontier != 3 || r.PeakPos != -1 {
		t.Fatalf("peak=%d@%d, want the position-0 start-of-data frontier 3@-1", r.PeakFrontier, r.PeakPos)
	}
}

func TestNFABounds(t *testing.T) {
	a1 := automata.NewNFA()
	p := a1.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	for i := 0; i < 4; i++ {
		s := a1.Add(symset.Range('a', 'z'), automata.StartNone, false)
		a1.Connect(p, s)
		p = s
	}
	a2 := automata.NewNFA()
	s1 := a2.Add(symset.Single('a'), automata.StartAllInput, false)
	b1 := a2.Add(symset.Single('b'), automata.StartNone, true)
	a2.Connect(s1, b1)
	a := worstcase.Analyze(automata.NewNetwork(a1, a2), worstcase.Config{})
	if len(a.NFABound) != 2 || a.NFABound[0] != 4 || a.NFABound[1] != 1 {
		t.Fatalf("NFABound = %v, want [4 1]", a.NFABound)
	}
	// The app-level bound counts both NFAs in the same cycle when their
	// predecessors share symbols ('a' drives both).
	if a.FrontierBound != 5 {
		t.Fatalf("FrontierBound = %d, want 5", a.FrontierBound)
	}
}

func TestReportBoundFor(t *testing.T) {
	net := chainNet(6)
	a := worstcase.Analyze(net, worstcase.Config{})
	all, _ := a.ReportBoundFor(func(automata.StateID) bool { return true })
	if all != a.ReportBound {
		t.Fatalf("ReportBoundFor(all) = %d, want ReportBound %d", all, a.ReportBound)
	}
	none, _ := a.ReportBoundFor(func(automata.StateID) bool { return false })
	if none != 0 {
		t.Fatalf("ReportBoundFor(none) = %d, want 0", none)
	}
}

// TestAlphabetRestriction: narrowing the alphabet to symbols no state
// matches empties every bound.
func TestAlphabetRestriction(t *testing.T) {
	a := worstcase.Analyze(chainNet(4), worstcase.Config{Alphabet: symset.Range('0', '9')})
	if a.FrontierBound != 0 || a.ReportBound != 0 {
		t.Fatalf("bounds = %d/%d under a disjoint alphabet, want 0/0", a.FrontierBound, a.ReportBound)
	}
	w := a.Synthesize(worstcase.WitnessOptions{MaxLen: 16})
	if len(w.Input) != 0 {
		t.Fatalf("synthesized %d bytes from a dead alphabet, want none", len(w.Input))
	}
}

// TestSoundnessRandomNetworks fuzzes the core property on seeded random
// networks: no input — adversarial or random — may exceed the static
// frontier or per-cycle report bound.
func TestSoundnessRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		net := oracle.Network(rng, 80)
		a := worstcase.Analyze(net, worstcase.Config{})
		w, r := a.Certify(worstcase.WitnessOptions{MaxLen: 256})
		if !r.Sound {
			t.Fatalf("trial %d: witness replay violated bounds (peak %d > bound %d or reports %d > %d)",
				trial, r.PeakFrontier, a.FrontierBound, r.PeakCycleReports, a.ReportBound)
		}
		if w.PeakFrontier != r.PeakFrontier {
			t.Errorf("trial %d: model walk peak %d != engine peak %d — the synthesis model diverged from the engine",
				trial, w.PeakFrontier, r.PeakFrontier)
		}
		input := make([]byte, 512)
		for i := range input {
			input[i] = byte(rng.Intn(256))
		}
		if rr := a.Validate(input); !rr.Sound {
			t.Fatalf("trial %d: random input violated bounds (peak %d > bound %d)", trial, rr.PeakFrontier, a.FrontierBound)
		}
	}
}

// TestWitnessReplayEquivalence is the cross-kernel certificate property:
// the synthesized adversarial input must produce identical report
// streams through the sparse, dense and auto kernels, and never drive
// any of them past the static frontier bound.
func TestWitnessReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nets := []*automata.Network{chainNet(12)}
	for i := 0; i < 6; i++ {
		nets = append(nets, oracle.Network(rng, 60))
	}
	for i, net := range nets {
		a := worstcase.Analyze(net, worstcase.Config{})
		w, r := a.Certify(worstcase.WitnessOptions{MaxLen: 512})
		if !r.Sound {
			t.Fatalf("net %d: witness replay violated the static bounds", i)
		}
		if len(w.Input) == 0 {
			continue
		}
		want := sim.Run(net, w.Input, sim.Options{CollectReports: true, Kernel: sim.KernelAuto}).Reports
		for _, k := range []sim.Kernel{sim.KernelSparse, sim.KernelDense} {
			got := sim.Run(net, w.Input, sim.Options{CollectReports: true, Kernel: k}).Reports
			if !reportsEqual(want, got) {
				t.Fatalf("net %d: kernel %v report stream diverges from auto on the witness", i, k)
			}
		}
		// Step the engine by hand under each explicit kernel: the bound
		// must hold cycle by cycle, not just at the peak.
		for _, k := range []sim.Kernel{sim.KernelSparse, sim.KernelDense, sim.KernelAuto} {
			eng := sim.AcquireEngine(net, sim.Options{Kernel: k})
			for pos, b := range w.Input {
				eng.Step(int64(pos), b)
				if fl := eng.FrontierLen(); fl > a.FrontierBound {
					t.Fatalf("net %d: kernel %v frontier %d exceeds bound %d at pos %d", i, k, fl, a.FrontierBound, pos)
				}
			}
			eng.Release()
		}
	}
}

func reportsEqual(a, b []sim.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
