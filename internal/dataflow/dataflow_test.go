package dataflow

import (
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/graph"
	"sparseap/internal/oracle"
	"sparseap/internal/symset"
)

// chainNet builds start(a) -> mid(b) -> rep(c) with the given match sets.
func chainNet(a, b, c symset.Set) *automata.Network {
	m := automata.NewNFA()
	s0 := m.Add(a, automata.StartAllInput, false)
	s1 := m.Add(b, automata.StartNone, false)
	s2 := m.Add(c, automata.StartNone, true)
	m.Connect(s0, s1)
	m.Connect(s1, s2)
	return automata.NewNetwork(m)
}

func TestForwardChain(t *testing.T) {
	net := chainNet(symset.Single('a'), symset.Single('b'), symset.Single('c'))
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	for s := 0; s < 3; s++ {
		want := net.States[s].Match
		if !f.Fire[s].Equal(want) {
			t.Errorf("Fire[%d] = %s, want %s", s, f.Fire[s], want)
		}
		if !f.Live[s] {
			t.Errorf("Live[%d] = false, want true", s)
		}
	}
	// Each successor fires on its own match set, not on the symbols of
	// the predecessor that enables it.
	if !f.Fire[1].Equal(symset.Single('b')) {
		t.Errorf("Fire[1] = %s, want b (enabled by state 0's a)", f.Fire[1])
	}
	if !f.Fire[2].Equal(symset.Single('c')) {
		t.Errorf("Fire[2] = %s, want c (enabled by state 1's b)", f.Fire[2])
	}
}

func TestEmptySymsetBlocksPropagation(t *testing.T) {
	// The middle state matches nothing, so the tail can never be enabled.
	net := chainNet(symset.Single('a'), symset.Empty(), symset.Single('c'))
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	if !f.Fire[0].Equal(symset.Single('a')) {
		t.Errorf("Fire[0] = %s, want a", f.Fire[0])
	}
	for s := 1; s < 3; s++ {
		if !f.Fire[s].IsEmpty() {
			t.Errorf("Fire[%d] = %s, want empty", s, f.Fire[s])
		}
		if !f.Unreachable(automata.StateID(s)) {
			t.Errorf("Unreachable(%d) = false, want true", s)
		}
	}
	// The head fires but nothing downstream can report: dead.
	if f.Live[0] || !f.Dead(0) {
		t.Errorf("state 0: Live=%v Dead=%v, want false/true", f.Live[0], f.Dead(0))
	}
	if f.Live[0] || f.Live[1] || f.Live[2] {
		t.Error("no state should be live to a report")
	}
}

func TestAlphabetRestriction(t *testing.T) {
	// Under the DNA alphabet ACGT, a state matching only 'x' never fires.
	net := chainNet(symset.Single('A'), symset.Single('x'), symset.Single('C'))
	f := Analyze(net, graph.TopoOrder(net), symset.Of('A', 'C', 'G', 'T'))
	if !f.Fire[0].Equal(symset.Single('A')) {
		t.Errorf("Fire[0] = %s, want A", f.Fire[0])
	}
	if !f.Fire[1].IsEmpty() || !f.Fire[2].IsEmpty() {
		t.Errorf("Fire[1]=%s Fire[2]=%s, want both empty under ACGT", f.Fire[1], f.Fire[2])
	}

	// Under the unrestricted alphabet the same chain is fully live.
	f = Analyze(net, graph.TopoOrder(net), symset.Set{})
	if f.Fire[1].IsEmpty() || !f.Live[0] {
		t.Error("chain should be live under the full alphabet")
	}
}

func TestCycleFixpoint(t *testing.T) {
	// start(a) -> u(b) <-> v(c), v -> rep(d): the cycle must reach a
	// fixpoint where both members fire and are live.
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	u := m.Add(symset.Single('b'), automata.StartNone, false)
	v := m.Add(symset.Single('c'), automata.StartNone, false)
	rep := m.Add(symset.Single('d'), automata.StartNone, true)
	m.Connect(s0, u)
	m.Connect(u, v)
	m.Connect(v, u)
	m.Connect(v, rep)
	net := automata.NewNetwork(m)
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	for s := 0; s < 4; s++ {
		if f.Fire[s].IsEmpty() {
			t.Errorf("Fire[%d] empty, want nonempty", s)
		}
		if !f.Live[s] {
			t.Errorf("Live[%d] = false, want true", s)
		}
	}
	// u, enabled over both the start edge and the cycle edge, fires on
	// its own match set.
	if !f.Fire[u].Equal(symset.Single('b')) {
		t.Errorf("Fire[u] = %s, want b", f.Fire[u])
	}
}

func TestCycleWithNoReport(t *testing.T) {
	// A cycle that can fire but never reach a reporting state is dead.
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	u := m.Add(symset.Single('b'), automata.StartNone, false)
	m.Connect(s0, u)
	m.Connect(u, u)
	net := automata.NewNetwork(m)
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	if f.Fire[u].IsEmpty() {
		t.Error("cycle member should fire")
	}
	if f.Live[0] || f.Live[1] {
		t.Error("nothing should be live without a reporting state")
	}
	if !f.Dead(0) || !f.Dead(1) {
		t.Error("both states should be dead")
	}
}

func TestSelfLoopOnlyStart(t *testing.T) {
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, true)
	m.Connect(s0, s0)
	net := automata.NewNetwork(m)
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	// The state feeds itself: its fire set is its match set, once.
	if !f.Fire[0].Equal(symset.Single('a')) || !f.Live[0] {
		t.Errorf("self-loop start: Fire=%s Live=%v", f.Fire[0], f.Live[0])
	}
}

func TestStartOfDataFires(t *testing.T) {
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartOfData, false)
	s1 := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(s0, s1)
	net := automata.NewNetwork(m)
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	if f.Fire[0].IsEmpty() || f.Fire[1].IsEmpty() {
		t.Error("start-of-data chain should fire")
	}
}

func TestEmptyNetwork(t *testing.T) {
	net := &automata.Network{}
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	if len(f.Fire) != 0 || len(f.Live) != 0 {
		t.Error("empty network should produce empty fact slices")
	}
	if !f.LiveAlphabet().IsEmpty() {
		t.Error("empty network has an empty live alphabet")
	}
}

func TestFireProb(t *testing.T) {
	// Two starts matching disjoint singletons: live alphabet = 2 symbols,
	// each fires with probability 1/2.
	m := automata.NewNFA()
	m.Add(symset.Single('a'), automata.StartAllInput, true)
	m.Add(symset.Single('b'), automata.StartAllInput, true)
	net := automata.NewNetwork(m)
	f := Analyze(net, graph.TopoOrder(net), symset.Set{})
	if got := f.FireProb(0); got != 0.5 {
		t.Errorf("FireProb(0) = %v, want 0.5", got)
	}
	if got := f.LiveAlphabet(); !got.Equal(symset.Of('a', 'b')) {
		t.Errorf("LiveAlphabet = %s, want [ab]", got)
	}
}

func TestUnreachableBranchUnderAlphabet(t *testing.T) {
	// Two branches from one start; one branch is outside the alphabet and
	// everything behind it must be unreachable while the other stays live.
	m := automata.NewNFA()
	s0 := m.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	bad := m.Add(symset.Single('!'), automata.StartNone, false)
	badTail := m.Add(symset.Single('q'), automata.StartNone, true)
	good := m.Add(symset.Single('g'), automata.StartNone, true)
	m.Connect(s0, bad)
	m.Connect(bad, badTail)
	m.Connect(s0, good)
	net := automata.NewNetwork(m)
	f := Analyze(net, graph.TopoOrder(net), symset.Range('a', 'z'))
	if !f.Unreachable(bad) || !f.Unreachable(badTail) {
		t.Error("branch outside the alphabet should be unreachable")
	}
	if !f.Live[s0] || !f.Live[good] {
		t.Error("surviving branch should stay live")
	}
}

// TestFireProbProperties checks the three FireProb contracts over random
// networks: range [0,1], zero exactly on Unreachable states, and
// monotonicity under widening of a state's own match set.
func TestFireProbProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		net := oracle.Network(r, 30)
		f := Analyze(net, graph.TopoOrder(net), symset.Set{})
		for s := 0; s < net.Len(); s++ {
			id := automata.StateID(s)
			p := f.FireProb(id)
			if p < 0 || p > 1 {
				t.Fatalf("trial %d: FireProb(%d) = %g out of [0,1]", trial, s, p)
			}
			if (p == 0) != f.Unreachable(id) {
				t.Fatalf("trial %d: FireProb(%d) = %g but Unreachable = %v",
					trial, s, p, f.Unreachable(id))
			}
		}

		// Widen one random state's match set and re-analyze: that
		// state's own FireProb must not decrease. (Other states' values
		// may legitimately drop — the live-alphabet denominator grows —
		// so the contract is per widened state.)
		s := automata.StateID(r.Intn(net.Len()))
		before := f.FireProb(s)
		widened := net.Clone()
		widened.States[s].Match = widened.States[s].Match.Union(
			symset.Range(byte(r.Intn(128)), byte(128+r.Intn(128))))
		f2 := Analyze(widened, graph.TopoOrder(widened), symset.Set{})
		if after := f2.FireProb(s); after < before-1e-12 {
			t.Fatalf("trial %d: FireProb(%d) decreased under widening: %g -> %g",
				trial, s, before, after)
		}
	}
}
