package hotcold

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/graph"
	"sparseap/internal/oracle"
	"sparseap/internal/regexc"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
)

// chainNFA builds a linear NFA matching the given literal string.
func chainNFA(lit string) *automata.NFA {
	m := automata.NewNFA()
	prev := m.Add(symset.Single(lit[0]), automata.StartAllInput, len(lit) == 1)
	for i := 1; i < len(lit); i++ {
		cur := m.Add(symset.Single(lit[i]), automata.StartNone, i == len(lit)-1)
		m.Connect(prev, cur)
		prev = cur
	}
	return m
}

func TestProfileMarksEnabled(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcd"))
	hot := Profile(net, []byte("abx"))
	// a(start) hot, b hot (enabled after a), c hot (enabled after b), d cold.
	want := []bool{true, true, true, false}
	for i, w := range want {
		if hot.Get(i) != w {
			t.Errorf("hot[%d] = %v, want %v", i, hot.Get(i), w)
		}
	}
}

func TestQuality(t *testing.T) {
	pred := bitvec.New(4)
	act := bitvec.New(4)
	pred.Set(0)
	pred.Set(1) // predicted hot: 0,1
	act.Set(0)
	act.Set(2) // actually hot: 0,2
	c := Quality(pred, act)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Accuracy() != 0.5 || c.Recall() != 0.5 || c.Precision() != 0.5 {
		t.Fatalf("metrics = %v %v %v", c.Accuracy(), c.Recall(), c.Precision())
	}
}

func TestPartitionLayers(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcd"), chainNFA("xy"))
	topo := graph.TopoOrder(net)
	hot := bitvec.New(net.Len())
	hot.Set(0)
	hot.Set(1) // NFA 0: layers 1,2 hot
	hot.Set(4) // NFA 1: layer 1 hot
	k := PartitionLayers(net, topo, hot)
	if k[0] != 2 || k[1] != 1 {
		t.Fatalf("k = %v", k)
	}
	pred := PredictedHot(net, topo, k)
	want := []bool{true, true, false, false, true, false}
	for i, w := range want {
		if pred.Get(i) != w {
			t.Errorf("pred[%d] = %v, want %v", i, pred.Get(i), w)
		}
	}
}

func TestPartitionLayersDefensiveMinimum(t *testing.T) {
	net := automata.NewNetwork(chainNFA("ab"))
	topo := graph.TopoOrder(net)
	k := PartitionLayers(net, topo, bitvec.New(net.Len()))
	if k[0] != 1 {
		t.Fatalf("empty hot set k = %v, want layer 1", k)
	}
}

func TestBuildPartitionStructure(t *testing.T) {
	// abcd cut at layer 2: hot {a,b}, cold {c,d}, one intermediate for c.
	net := automata.NewNetwork(chainNFA("abcd"))
	topo := graph.TopoOrder(net)
	p, err := Build(net, topo, []int32{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.Hot.Len() != 3 { // a, b, c'
		t.Fatalf("hot states = %d, want 3", p.Hot.Len())
	}
	if p.Cold.Len() != 2 {
		t.Fatalf("cold states = %d, want 2", p.Cold.Len())
	}
	if p.NumIntermediate != 1 {
		t.Fatalf("intermediates = %d", p.NumIntermediate)
	}
	// The intermediate must mirror c's symbol set and translate to c.
	for iv, target := range p.Intermediate {
		if target != 2 {
			t.Errorf("translation target = %d, want 2", target)
		}
		if !p.Hot.States[iv].Match.Contains('c') {
			t.Error("intermediate symbol set wrong")
		}
	}
	orig, inter := p.ReportingStates()
	if orig != 0 || inter != 1 {
		t.Fatalf("reporting states = %d,%d", orig, inter)
	}
	if got := p.ResourceSaving(); got != 0.5 {
		t.Fatalf("resource saving = %v, want 0.5", got)
	}
}

func TestBuildSharedColdTargetDeduped(t *testing.T) {
	// Two hot states u1,u2 -> same cold v: one intermediate state only.
	m := automata.NewNFA()
	u1 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	u2 := m.Add(symset.Single('b'), automata.StartAllInput, false)
	v := m.Add(symset.Single('c'), automata.StartNone, false)
	w := m.Add(symset.Single('d'), automata.StartNone, true)
	m.Connect(u1, v)
	m.Connect(u2, v)
	m.Connect(v, w)
	net := automata.NewNetwork(m)
	topo := graph.TopoOrder(net)
	p, err := Build(net, topo, []int32{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumIntermediate != 1 {
		t.Fatalf("intermediates = %d, want 1 (dedup per target)", p.NumIntermediate)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSCCAtomicity(t *testing.T) {
	// Cycle spanning layers: the whole SCC must be on one side.
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	b := m.Add(symset.Single('b'), automata.StartNone, false)
	c := m.Add(symset.Single('c'), automata.StartNone, false)
	d := m.Add(symset.Single('d'), automata.StartNone, true)
	m.Connect(a, b)
	m.Connect(b, c)
	m.Connect(c, b) // SCC {b,c}
	m.Connect(c, d)
	net := automata.NewNetwork(m)
	topo := graph.TopoOrder(net)
	for k := int32(1); k <= topo.MaxPerNFA[0]; k++ {
		p, err := Build(net, topo, []int32{k}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestBuildWholeNFAHot(t *testing.T) {
	net := automata.NewNetwork(chainNFA("ab"))
	topo := graph.TopoOrder(net)
	p, err := Build(net, topo, []int32{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cold.Len() != 0 || p.NumIntermediate != 0 {
		t.Fatalf("expected empty cold side, got %d states %d intermediates", p.Cold.Len(), p.NumIntermediate)
	}
	if p.ResourceSaving() != 0 {
		t.Fatal("resource saving should be 0")
	}
}

func TestFillBatchesExtendsLayers(t *testing.T) {
	// Two NFAs of 4 states; hot layer 1 each; capacity 8 absorbs both NFAs
	// entirely (4+4 states, no intermediates once fully hot).
	net := automata.NewNetwork(chainNFA("abcd"), chainNFA("wxyz"))
	topo := graph.TopoOrder(net)
	p, err := Build(net, topo, []int32{1, 1}, Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.PredHot.Count() != 8 {
		t.Fatalf("filled hot count = %d, want 8", p.PredHot.Count())
	}
	if p.NumIntermediate != 0 {
		t.Fatalf("intermediates = %d, want 0 after full absorption", p.NumIntermediate)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFillBatchesAccountsForIntermediates(t *testing.T) {
	// Capacity 6: each NFA's BaseAP footprint is states+1 intermediate, so
	// fill must stop at k=2 per NFA (2 states + 1 intermediate each = 6),
	// NOT k=3 (which would need 3+1 per NFA = 8 > 6).
	net := automata.NewNetwork(chainNFA("abcd"), chainNFA("wxyz"))
	topo := graph.TopoOrder(net)
	p, err := Build(net, topo, []int32{1, 1}, Options{Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Hot.Len(); got > 6 {
		t.Fatalf("BaseAP footprint = %d states, exceeds capacity 6", got)
	}
	if p.PredHot.Count() != 4 || p.NumIntermediate != 2 {
		t.Fatalf("hot = %d, intermediates = %d", p.PredHot.Count(), p.NumIntermediate)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFillBatchesNoCapacityNoChange(t *testing.T) {
	net := automata.NewNetwork(chainNFA("abcd"))
	topo := graph.TopoOrder(net)
	p, err := Build(net, topo, []int32{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.K[0] != 1 || p.PredHot.Count() != 1 {
		t.Fatalf("layers changed without capacity: %v", p.K)
	}
}

func TestBuildLayerMismatch(t *testing.T) {
	net := automata.NewNetwork(chainNFA("ab"))
	topo := graph.TopoOrder(net)
	if _, err := Build(net, topo, []int32{1, 2}, Options{}); err == nil {
		t.Fatal("layer-count mismatch accepted")
	}
}

func TestConstrainedStates(t *testing.T) {
	// abcd with oracle hot {a,c}: topo partition must keep layers 1..3,
	// so b (cold) is constrained: 1/4.
	net := automata.NewNetwork(chainNFA("abcd"))
	topo := graph.TopoOrder(net)
	oracle := bitvec.New(4)
	oracle.Set(0)
	oracle.Set(2)
	if got := ConstrainedStates(net, topo, oracle); got != 0.25 {
		t.Fatalf("constrained = %v, want 0.25", got)
	}
	// Perfectly layered hot set: no constrained states.
	oracle2 := bitvec.New(4)
	oracle2.Set(0)
	oracle2.Set(1)
	if got := ConstrainedStates(net, topo, oracle2); got != 0 {
		t.Fatalf("constrained = %v, want 0", got)
	}
}

func TestModelSpeedup(t *testing.T) {
	// S=100, C=10: baseline 10 batches. p=0.5 -> 5 batches -> 2×.
	if got := ModelSpeedup(100, 10, 0.5); got != 2 {
		t.Fatalf("speedup = %v, want 2", got)
	}
	// p=1 would divide by zero batches; model clamps to one batch.
	if got := ModelSpeedup(100, 10, 1); got != 10 {
		t.Fatalf("speedup = %v, want 10", got)
	}
	if !math.IsNaN(ModelSpeedup(0, 10, 0.5)) || !math.IsNaN(ModelSpeedup(10, 10, -0.1)) {
		t.Fatal("invalid inputs not rejected")
	}
}

func TestBuildFromProfileEndToEnd(t *testing.T) {
	net, err := regexc.CompileAll([]string{"abcXYZ", "hello", "wor{2,4}ld"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abc abc hello hell abq")
	p, err := BuildFromProfile(net, input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.Cold.Len() == 0 {
		t.Fatal("expected some cold states for unmatched suffixes")
	}
	if p.PredHot.Count()+p.Cold.Len() != net.Len() {
		t.Fatal("hot+cold must cover the network")
	}
}

// Property: for random networks and random profiled-hot sets (closed under
// the "starts are hot" rule), the built partition always satisfies the
// invariants, and the hot set grows monotonically with k.
func TestPropPartitionInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		net := oracle.Network(r, 40)
		topo := graph.TopoOrder(net)
		// A hot set from a random input, with every start in it.
		input := oracle.Input(r, 1+r.Intn(50))
		hot := sim.HotStates(net, input)
		for s, st := range net.States {
			if st.Start != automata.StartNone {
				hot.Set(s)
			}
		}
		k := PartitionLayers(net, topo, hot)
		p, err := Build(net, topo, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// All truly hot states must be predicted hot (recall = 1 when the
		// profile equals the test input).
		hot.ForEach(func(s int) {
			if !p.PredHot.Get(s) {
				t.Fatalf("trial %d: hot state %d predicted cold", trial, s)
			}
		})
		// Monotonicity in k.
		k2 := append([]int32(nil), k...)
		for i := range k2 {
			k2[i]++
		}
		p2, err := Build(net, topo, k2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.PredHot.ForEach(func(s int) {
			if !p2.PredHot.Get(s) {
				t.Fatalf("trial %d: hot set not monotone in k", trial)
			}
		})
	}
}

// TestSuccessorListsDoNotAlias checks that a partition's successor lists
// are independent: appending to one state's Succ (as a caller extending
// the sub-network would) must leave every other state's list unchanged.
func TestSuccessorListsDoNotAlias(t *testing.T) {
	net := manySmallNFAs(1000)
	p, err := BuildWithStrategy(net, StrategyFixedLayers, StrategyInput{Param: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []*automata.Network{p.Hot, p.Cold} {
		want := make([][]automata.StateID, sub.Len())
		withSucc := 0
		for i, s := range sub.States {
			want[i] = append([]automata.StateID(nil), s.Succ...)
			if len(s.Succ) > 0 {
				withSucc++
			}
		}
		if withSucc < 2 {
			t.Fatalf("sub-network has %d states with successors; the check needs two", withSucc)
		}
		for i := range sub.States {
			succ := sub.States[i].Succ
			sub.States[i].Succ = append(succ, automata.StateID(1<<30))[:len(succ)]
		}
		for i, s := range sub.States {
			if !slices.Equal(s.Succ, want[i]) {
				t.Fatalf("state %d: Succ %v, want %v after appending to its neighbours", i, s.Succ, want[i])
			}
		}
	}
}
