package graph

import (
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/oracle"
	"sparseap/internal/symset"
)

// buildNet constructs a single-NFA network with n states and the given
// edges; state 0 is a start state.
func buildNet(n int, edges [][2]int) *automata.Network {
	m := automata.NewNFA()
	for i := 0; i < n; i++ {
		start := automata.StartNone
		if i == 0 {
			start = automata.StartAllInput
		}
		m.Add(symset.Single('a'), start, false)
	}
	for _, e := range edges {
		m.Connect(automata.StateID(e[0]), automata.StateID(e[1]))
	}
	return automata.NewNetwork(m)
}

func TestSCCChain(t *testing.T) {
	n := buildNet(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	r := SCC(n)
	if r.NumComps != 4 {
		t.Fatalf("NumComps = %d, want 4", r.NumComps)
	}
	seen := map[int32]bool{}
	for _, c := range r.Comp {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Fatalf("components not distinct: %v", r.Comp)
	}
}

func TestSCCCycle(t *testing.T) {
	// Figure 4 of the paper: S1->S2->S3->S6, S1->S4, S4<->S5, S5->S6.
	n := buildNet(6, [][2]int{{0, 1}, {1, 2}, {2, 5}, {0, 3}, {3, 4}, {4, 3}, {4, 5}})
	r := SCC(n)
	if r.NumComps != 5 {
		t.Fatalf("NumComps = %d, want 5", r.NumComps)
	}
	if r.Comp[3] != r.Comp[4] {
		t.Error("cycle states 3,4 in different components")
	}
	if r.Comp[0] == r.Comp[3] {
		t.Error("state 0 merged into cycle component")
	}
	if r.Size[r.Comp[3]] != 2 {
		t.Errorf("cycle component size = %d", r.Size[r.Comp[3]])
	}
}

func TestTopoOrderFigure4(t *testing.T) {
	// Paper Figure 4: topoorder(S1)=1, S2=2, S4=S5=2, S3=3, S6=4.
	n := buildNet(6, [][2]int{{0, 1}, {1, 2}, {2, 5}, {0, 3}, {3, 4}, {4, 3}, {4, 5}})
	tp := TopoOrder(n)
	want := []int32{1, 2, 3, 2, 2, 4}
	for s, w := range want {
		if tp.Order[s] != w {
			t.Errorf("Order[%d] = %d, want %d", s, tp.Order[s], w)
		}
	}
	if tp.MaxPerNFA[0] != 4 {
		t.Errorf("MaxPerNFA = %d, want 4", tp.MaxPerNFA[0])
	}
	// Normalized depths from the paper: S4,S5 -> 2/4 = 0.5.
	if d := tp.NormalizedDepth(n, 3); d != 0.5 {
		t.Errorf("NormalizedDepth(S4) = %v, want 0.5", d)
	}
	if d := tp.NormalizedDepth(n, 5); d != 1.0 {
		t.Errorf("NormalizedDepth(S6) = %v, want 1.0", d)
	}
}

func TestTopoOrderSelfLoop(t *testing.T) {
	// A self-loop is an SCC of size 1 but must not break ordering.
	n := buildNet(3, [][2]int{{0, 1}, {1, 1}, {1, 2}})
	tp := TopoOrder(n)
	if tp.Order[0] != 1 || tp.Order[1] != 2 || tp.Order[2] != 3 {
		t.Fatalf("orders = %v", tp.Order)
	}
}

func TestTopoOrderMultiNFA(t *testing.T) {
	m1 := automata.NewNFA()
	a := m1.Add(symset.Single('a'), automata.StartAllInput, false)
	b := m1.Add(symset.Single('b'), automata.StartNone, true)
	m1.Connect(a, b)
	m2 := automata.NewNFA()
	x := m2.Add(symset.Single('x'), automata.StartAllInput, false)
	y := m2.Add(symset.Single('y'), automata.StartNone, false)
	z := m2.Add(symset.Single('z'), automata.StartNone, true)
	m2.Connect(x, y)
	m2.Connect(y, z)
	n := automata.NewNetwork(m1, m2)
	tp := TopoOrder(n)
	if tp.MaxPerNFA[0] != 2 || tp.MaxPerNFA[1] != 3 {
		t.Fatalf("MaxPerNFA = %v", tp.MaxPerNFA)
	}
	if tp.Order[2] != 1 || tp.Order[4] != 3 {
		t.Fatalf("orders = %v", tp.Order)
	}
}

func TestBuckets(t *testing.T) {
	cases := []struct {
		d float64
		b DepthBucket
	}{
		{0.0, Shallow}, {0.29, Shallow}, {0.3, Medium}, {0.59, Medium},
		{0.6, Deep}, {1.0, Deep},
	}
	for _, c := range cases {
		if got := Bucket(c.d); got != c.b {
			t.Errorf("Bucket(%v) = %v, want %v", c.d, got, c.b)
		}
	}
	if Shallow.String() != "shallow" || Medium.String() != "medium" || Deep.String() != "deep" {
		t.Error("bucket names wrong")
	}
	if DepthBucket(9).String() != "unknown" {
		t.Error("unknown bucket name")
	}
}

func TestReachableFromStarts(t *testing.T) {
	// 0(start)->1->2, 3 unreachable island with edge 3->1.
	n := buildNet(4, [][2]int{{0, 1}, {1, 2}, {3, 1}})
	r := ReachableFromStarts(n)
	want := []bool{true, true, true, false}
	for i, w := range want {
		if r[i] != w {
			t.Errorf("reach[%d] = %v, want %v", i, r[i], w)
		}
	}
}

// Property: states in the same SCC are mutually reachable; states in
// different SCCs are not mutually reachable.
func TestPropSCCMutualReachability(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		net := oracle.Network(r, 50)
		nStates := net.Len()
		res := SCC(net)
		reach := make([][]bool, nStates)
		for s := 0; s < nStates; s++ {
			reach[s] = bfs(net, s)
		}
		for u := 0; u < nStates; u++ {
			for v := 0; v < nStates; v++ {
				mutual := reach[u][v] && reach[v][u]
				same := res.Comp[u] == res.Comp[v]
				if mutual != same {
					t.Fatalf("trial %d: states %d,%d mutual=%v sameComp=%v", trial, u, v, mutual, same)
				}
			}
		}
	}
}

func bfs(n *automata.Network, src int) []bool {
	seen := make([]bool, n.Len())
	seen[src] = true
	queue := []automata.StateID{automata.StateID(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range n.States[u].Succ {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// Property: topological order never decreases along any edge, and strictly
// increases across SCC boundaries.
func TestPropTopoMonotoneAlongEdges(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		net := oracle.Network(r, 50)
		nStates := net.Len()
		tp := TopoOrder(net)
		for u := 0; u < nStates; u++ {
			for _, v := range net.States[u].Succ {
				cu, cv := tp.SCC.Comp[u], tp.SCC.Comp[v]
				if cu == cv {
					if tp.Order[u] != tp.Order[int(v)] {
						t.Fatalf("same SCC, different order: %d vs %d", u, v)
					}
				} else if tp.Order[int(v)] <= tp.Order[u] {
					t.Fatalf("edge %d->%d not increasing: %d -> %d", u, v, tp.Order[u], tp.Order[int(v)])
				}
			}
		}
		// All orders are >= 1.
		for s, o := range tp.Order {
			if o < 1 {
				t.Fatalf("state %d has order %d", s, o)
			}
		}
	}
}

// Property: sum of SCC sizes equals the number of states.
func TestPropSCCSizesSum(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		net := oracle.Network(r, 50)
		nStates := net.Len()
		res := SCC(net)
		sum := int32(0)
		for _, s := range res.Size {
			sum += s
		}
		if int(sum) != nStates {
			t.Fatalf("sizes sum %d != %d states", sum, nStates)
		}
	}
}

func TestNormalizedDepthDegenerateLayer(t *testing.T) {
	// An NFA whose maximum order is 0 (a Topo over a degenerate or
	// hand-built layer map) must report full depth 1, not NaN: the old
	// 0/0 silently classified every such state as Deep via Bucket.
	net := buildNet(1, nil)
	tp := &Topo{
		Order:     []int32{0},
		MaxPerNFA: []int32{0},
		SCC:       SCC(net),
	}
	d := tp.NormalizedDepth(net, 0)
	if d != 1.0 {
		t.Fatalf("NormalizedDepth with MaxPerNFA=0 = %v, want 1.0", d)
	}
	if b := Bucket(d); b != Deep {
		t.Errorf("Bucket(%v) = %v, want Deep (by definition, not by NaN fallthrough)", d, b)
	}
}

// Property: descending component numbers are a topological order of the
// condensation — every cross-component edge goes from a higher number to
// a lower one — which is what lets an analysis walk them and find each
// component's predecessors final.
func TestPropCompOrderIsCondensationOrder(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 30; trial++ {
		net := oracle.Network(r, 50)
		comp := SCC(net).Comp
		for u := range net.States {
			for _, v := range net.States[u].Succ {
				if cu, cv := comp[u], comp[v]; cu < cv {
					t.Fatalf("trial %d: edge %d->%d goes from component %d to %d", trial, u, v, cu, cv)
				}
			}
		}
	}
}

// Property: Members partitions the states by component, each group in
// ascending ID order (the sweep order of cyclic components), and Cyclic
// marks exactly the components with a cycle.
func TestPropMembersPartitionStates(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 30; trial++ {
		net := oracle.Network(r, 50)
		nStates := net.Len()
		res := SCC(net)
		seen := make([]bool, nStates)
		for c := int32(0); c < int32(res.NumComps); c++ {
			ms := res.Members(c)
			if len(ms) != int(res.Size[c]) {
				t.Fatalf("trial %d: component %d has %d members, Size %d", trial, c, len(ms), res.Size[c])
			}
			cyclic := len(ms) > 1
			for i, s := range ms {
				if res.Comp[s] != c || seen[s] {
					t.Fatalf("trial %d: state %d misplaced in component %d", trial, s, c)
				}
				seen[s] = true
				if i > 0 && ms[i-1] >= s {
					t.Fatalf("trial %d: component %d members not ascending: %v", trial, c, ms)
				}
				for _, v := range net.States[s].Succ {
					if v == s {
						cyclic = true
					}
				}
			}
			if res.Cyclic[c] != cyclic {
				t.Fatalf("trial %d: Cyclic[%d] = %v, want %v", trial, c, res.Cyclic[c], cyclic)
			}
		}
		for s, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: state %d in no component", trial, s)
			}
		}
	}
}
