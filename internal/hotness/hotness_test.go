package hotness

import (
	"math"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// chainNet builds start(a) -> mid(b) -> rep(c).
func chainNet(a, b, c symset.Set) *automata.Network {
	m := automata.NewNFA()
	s0 := m.Add(a, automata.StartAllInput, false)
	s1 := m.Add(b, automata.StartNone, false)
	s2 := m.Add(c, automata.StartNone, true)
	m.Connect(s0, s1)
	m.Connect(s1, s2)
	return automata.NewNetwork(m)
}

func TestActivityChain(t *testing.T) {
	// start matches 16 of the 21 live symbols, successor 4, tail 1.
	net := chainNet(symset.Range('a', 'p'), symset.Range('a', 'd'), symset.Single('z'))
	a := Analyze(net, Config{})
	// Live alphabet = a..p ∪ z = 17 symbols.
	q0, q1, q2 := 16.0/17, 4.0/17, 1.0/17
	want := []float64{q0, q0 * q1, q0 * q1 * q2}
	for s, w := range want {
		if math.Abs(a.Activity[s]-w) > 1e-12 {
			t.Errorf("Activity[%d] = %g, want %g", s, a.Activity[s], w)
		}
	}
	// Activity must decay strictly down this chain, and scores with it.
	if !(a.Activity[0] > a.Activity[1] && a.Activity[1] > a.Activity[2]) {
		t.Errorf("activity not decreasing: %v", a.Activity)
	}
	if !(a.Score[0] > a.Score[2]) {
		t.Errorf("score not decreasing head to tail: %v", a.Score)
	}
}

func TestActivityBounds(t *testing.T) {
	// A dense mesh with wide matchers: activity and score must stay in
	// [0,1] even when enabling mass saturates.
	m := automata.NewNFA()
	ids := make([]automata.StateID, 6)
	for i := range ids {
		ids[i] = m.Add(symset.Range(0, 200), automata.StartAllInput, i == 5)
	}
	for i := range ids {
		for j := range ids {
			if i != j {
				m.Connect(ids[i], ids[j])
			}
		}
	}
	a := Analyze(automata.NewNetwork(m), Config{})
	for s := range ids {
		if a.Activity[s] < 0 || a.Activity[s] > 1 {
			t.Errorf("Activity[%d] = %g out of [0,1]", s, a.Activity[s])
		}
		if a.Score[s] < 0 || a.Score[s] > 1 {
			t.Errorf("Score[%d] = %g out of [0,1]", s, a.Score[s])
		}
	}
	// Saturated mesh: every state should be predicted hot.
	if got := a.Hot().Count(); got != len(ids) {
		t.Errorf("Hot().Count() = %d, want %d", got, len(ids))
	}
}

func TestCyclicFixpointConverges(t *testing.T) {
	// Two-state cycle with q < 1 on each edge: the fixpoint is the
	// geometric series limit, not MaxIter divergence.
	m := automata.NewNFA()
	s0 := m.Add(symset.Range('a', 'h'), automata.StartAllInput, false) // q = 8/16
	s1 := m.Add(symset.Range('a', 'p'), automata.StartNone, true)      // q = 16/16
	m.Connect(s0, s1)
	m.Connect(s1, s0)
	a := Analyze(automata.NewNetwork(m), Config{})
	// act0 = min(1, 1 + act1)·q0 = q0 (enable clamps at 1).
	if math.Abs(a.Activity[s0]-0.5) > 1e-9 {
		t.Errorf("Activity[s0] = %g, want 0.5", a.Activity[s0])
	}
	// act1 = act0·1 = 0.5.
	if math.Abs(a.Activity[s1]-0.5) > 1e-9 {
		t.Errorf("Activity[s1] = %g, want 0.5", a.Activity[s1])
	}
}

func TestStartOfDataDrive(t *testing.T) {
	// A start-of-data head fires once per stream, so its expected
	// per-cycle activity is q/horizon, far below an all-input twin.
	build := func(kind automata.StartKind) *Analysis {
		m := automata.NewNFA()
		s0 := m.Add(symset.Range('a', 'p'), kind, false)
		s1 := m.Add(symset.Range('a', 'p'), automata.StartNone, true)
		m.Connect(s0, s1)
		return Analyze(automata.NewNetwork(m), Config{})
	}
	sod := build(automata.StartOfData)
	all := build(automata.StartAllInput)
	if sod.Activity[0] >= all.Activity[0]/100 {
		t.Errorf("start-of-data activity %g not ≪ all-input %g", sod.Activity[0], all.Activity[0])
	}
	// But over one horizon it still expects ~1 activation, so the head
	// should not be written off as cold.
	if raw := sod.Activity[0] * horizon; raw < 0.5 {
		t.Errorf("expected activations of the head = %g, want ≥ 0.5", raw)
	}
}

func TestLayersCoverHotStatesAndFloor(t *testing.T) {
	net := chainNet(symset.Range(0, 250), symset.Range(0, 250), symset.Range(0, 250))
	a := Analyze(net, Config{})
	k := a.Layers()
	if len(k) != 1 {
		t.Fatalf("Layers len = %d, want 1", len(k))
	}
	// Wide chain: everything hot, cut at the deepest layer.
	if k[0] != 3 {
		t.Errorf("k = %d, want 3", k[0])
	}

	// A narrow chain goes cold after the head, but the floor keeps k≥1.
	net = chainNet(symset.Single('a'), symset.Single('b'), symset.Single('c'))
	a = Analyze(net, Config{})
	if k := a.Layers(); k[0] < 1 {
		t.Errorf("k = %d, want ≥ 1", k[0])
	}
}

func TestEmptyNetworkAnalysis(t *testing.T) {
	net := &automata.Network{}
	a := Analyze(net, Config{})
	if a.HotFrac() != 0 {
		t.Errorf("HotFrac = %g, want 0", a.HotFrac())
	}
	if k := a.Layers(); len(k) != 0 {
		t.Errorf("Layers = %v, want empty", k)
	}
}

func TestResidualActivity(t *testing.T) {
	net := chainNet(symset.Range('a', 'p'), symset.Range('a', 'd'), symset.Single('z'))
	a := Analyze(net, Config{})
	all := a.ResidualActivity(0, 0)
	var want float64
	for _, v := range a.Activity {
		want += v
	}
	if math.Abs(all-want) > 1e-12 {
		t.Errorf("ResidualActivity(0) = %g, want total %g", all, want)
	}
	if r := a.ResidualActivity(0, 3); r != 0 {
		t.Errorf("ResidualActivity(k=max) = %g, want 0", r)
	}
	if r2 := a.ResidualActivity(0, 2); math.Abs(r2-a.Activity[2]) > 1e-12 {
		t.Errorf("ResidualActivity(k=2) = %g, want Activity[2] = %g", r2, a.Activity[2])
	}
}

func TestScoreMonotoneInThresholdSense(t *testing.T) {
	// Hot() is an upper set of the scores: every hot state scores at or
	// above the threshold, every cold one below it.
	net := chainNet(symset.Range('a', 'p'), symset.Range('a', 'd'), symset.Single('z'))
	a := Analyze(net, Config{})
	hot := a.Hot()
	for s := 0; s < net.Len(); s++ {
		if hot.Get(s) != (a.Score[s] >= threshold) {
			t.Errorf("state %d: hot = %v at score %g", s, hot.Get(s), a.Score[s])
		}
	}
}
