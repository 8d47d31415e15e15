package hotcold

import (
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/graph"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
)

func TestStrategyNames(t *testing.T) {
	names := map[Strategy]string{
		StrategyProfiled:        "profiled",
		StrategyFixedLayers:     "fixed-layers",
		StrategyNormalizedDepth: "normalized-depth",
		StrategyOracle:          "oracle",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy name empty")
	}
}

func TestLayersFixed(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcdef"), chainNFA("xy"))
	topo := graph.TopoOrder(net)
	k, err := Layers(net, topo, StrategyFixedLayers, StrategyInput{Param: 3})
	if err != nil {
		t.Fatal(err)
	}
	if k[0] != 3 || k[1] != 2 { // clamped to MaxTopo
		t.Fatalf("k = %v", k)
	}
}

func TestLayersNormalizedDepth(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcdefghij")) // MaxTopo 10
	topo := graph.TopoOrder(net)
	k, err := Layers(net, topo, StrategyNormalizedDepth, StrategyInput{Param: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if k[0] != 4 { // ceil(0.35*10)
		t.Fatalf("k = %v", k)
	}
}

func TestLayersOracleAndProfiled(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcd"))
	topo := graph.TopoOrder(net)
	prof := sim.HotStates(net, []byte("ab"))
	oracle := sim.HotStates(net, []byte("abcd"))
	kp, err := Layers(net, topo, StrategyProfiled, StrategyInput{ProfiledHot: prof})
	if err != nil {
		t.Fatal(err)
	}
	ko, err := Layers(net, topo, StrategyOracle, StrategyInput{OracleHot: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if kp[0] >= ko[0] {
		t.Fatalf("profiled k %d should be below oracle k %d here", kp[0], ko[0])
	}
}

func TestLayersErrors(t *testing.T) {
	net := automata.NewNetwork(chainNFA("ab"))
	topo := graph.TopoOrder(net)
	cases := []struct {
		s  Strategy
		in StrategyInput
	}{
		{StrategyProfiled, StrategyInput{}},
		{StrategyOracle, StrategyInput{}},
		{StrategyFixedLayers, StrategyInput{Param: 0}},
		{StrategyFixedLayers, StrategyInput{Param: -3}},
		{StrategyFixedLayers, StrategyInput{Param: 0.99}},
		{StrategyNormalizedDepth, StrategyInput{Param: 0}},
		{StrategyNormalizedDepth, StrategyInput{Param: -0.5}},
		{StrategyNormalizedDepth, StrategyInput{Param: 1.5}},
		// Empty hot vectors must error, not silently cut at layer 0: a
		// real profiling or oracle run always enables the start states.
		{StrategyProfiled, StrategyInput{ProfiledHot: bitvec.New(net.Len())}},
		{StrategyOracle, StrategyInput{OracleHot: bitvec.New(net.Len())}},
		{Strategy(99), StrategyInput{}},
	}
	for _, c := range cases {
		if _, err := Layers(net, topo, c.s, c.in); err == nil {
			t.Errorf("%v with %+v succeeded", c.s, c.in)
		}
	}
}

func TestFixedLayersKeepsStartsHot(t *testing.T) {
	// Start state with a predecessor cycle pushing its topo order deep:
	// a fixed layer-1 cut must still keep it hot.
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	b := m.Add(symset.Single('b'), automata.StartNone, false)
	s := m.Add(symset.Single('s'), automata.StartAllInput, false) // deep start
	r := m.Add(symset.Single('r'), automata.StartNone, true)
	m.Connect(a, b)
	m.Connect(b, s)
	m.Connect(s, r)
	net := automata.NewNetwork(m)
	topo := graph.TopoOrder(net)
	p, err := BuildWithStrategy(net, StrategyFixedLayers, StrategyInput{Param: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = topo
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !p.PredHot.Get(2) {
		t.Fatal("deep start state predicted cold under fixed cut")
	}
}

func TestBuildWithStrategyEndToEnd(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcdef"), chainNFA("uvwxyz"))
	for _, s := range []Strategy{StrategyFixedLayers, StrategyNormalizedDepth} {
		in := StrategyInput{Param: 2}
		if s == StrategyNormalizedDepth {
			in.Param = 0.4
		}
		p, err := BuildWithStrategy(net, s, in, Options{})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if p.Cold.Len() == 0 {
			t.Fatalf("%v: expected a cold fragment", s)
		}
	}
}

func TestLayersParamBoundaries(t *testing.T) {
	// Valid boundary params must succeed and produce in-range cuts.
	net := automata.NewNetwork(chainNFA("abcd"))
	topo := graph.TopoOrder(net)
	cases := []struct {
		s     Strategy
		param float64
	}{
		{StrategyFixedLayers, 1},
		{StrategyFixedLayers, 99}, // clamped to MaxPerNFA
		{StrategyNormalizedDepth, 1e-9},
		{StrategyNormalizedDepth, 1},
	}
	for _, c := range cases {
		k, err := Layers(net, topo, c.s, StrategyInput{Param: c.param})
		if err != nil {
			t.Errorf("%v Param=%g: %v", c.s, c.param, err)
			continue
		}
		for u, ku := range k {
			if ku < 1 || ku > topo.MaxPerNFA[u] {
				t.Errorf("%v Param=%g: k[%d]=%d out of [1,%d]",
					c.s, c.param, u, ku, topo.MaxPerNFA[u])
			}
		}
	}
}

func TestStrategyStaticLayers(t *testing.T) {
	// Static layers need no input vectors at all, stay in range, and are
	// SCC-aligned like every other behaviour-blind strategy.
	net := automata.NewNetwork(chainNFA("abcd"), chainNFA("xy"))
	topo := graph.TopoOrder(net)
	k, err := Layers(net, topo, StrategyStatic, StrategyInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(k) != net.NumNFAs() {
		t.Fatalf("len(k) = %d, want %d", len(k), net.NumNFAs())
	}
	for u, ku := range k {
		if ku < 1 || ku > topo.MaxPerNFA[u] {
			t.Errorf("k[%d] = %d out of [1,%d]", u, ku, topo.MaxPerNFA[u])
		}
	}
	if StrategyStatic.String() != "static" {
		t.Errorf("String() = %q", StrategyStatic.String())
	}
}

func TestBuildWithStrategyStatic(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcd"))
	p, err := BuildWithStrategy(net, StrategyStatic, StrategyInput{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
