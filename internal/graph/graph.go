// Package graph implements the graph analyses the partitioner relies on:
// strongly connected components (Tarjan), the SCC condensation DAG, the
// layered topological order of Section III-A, and normalized depth.
//
// All functions operate on an automata.Network. Because edges never cross
// NFAs, per-NFA quantities (MaxTopo, normalized depth) fall out of one
// network-wide pass.
package graph

import (
	"sparseap/internal/automata"
)

// SCCResult holds the strongly connected components of a network.
type SCCResult struct {
	// Comp[s] is the component number of state s. Component numbers are
	// dense in [0, NumComps) and in reverse topological order: Tarjan
	// numbers a component after every component it reaches, so each edge
	// between components goes from a higher number to a lower one, and an
	// analysis that walks the numbers downward finds a component's
	// predecessors final when it gets there.
	Comp []int32
	// NumComps is the number of components.
	NumComps int
	// Size[c] is the number of states in component c.
	Size []int32
	// Cyclic[c] reports whether component c contains a cycle: more than
	// one state, or a single state with a self-loop. Fixpoint analyses
	// sweep such components repeatedly and visit every other state once.
	Cyclic []bool

	// States grouped by component: component c owns
	// members[memberStart[c]:memberStart[c+1]], in ascending state ID.
	members     []automata.StateID
	memberStart []int32
}

// Members returns the states of component c in ascending ID order — the
// order cyclic-component sweeps iterate in. The slice is shared; callers
// must not modify it.
func (r *SCCResult) Members(c int32) []automata.StateID {
	return r.members[r.memberStart[c]:r.memberStart[c+1]]
}

// SCC computes strongly connected components with an iterative Tarjan
// algorithm (the networks can be deep, so recursion is avoided).
func SCC(n *automata.Network) *SCCResult {
	nn := n.Len()
	const unvisited = -1
	index := make([]int32, nn)
	low := make([]int32, nn)
	comp := make([]int32, nn)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var (
		stack   []int32 // Tarjan stack: the visited states with no component yet
		counter int32
		ncomp   int32
	)
	// Explicit DFS stack: frame is (node, next successor index).
	type frame struct {
		v    int32
		succ int
	}
	var dfs []frame
	for root := 0; root < nn; root++ {
		if index[root] != unvisited {
			continue
		}
		dfs = append(dfs[:0], frame{v: int32(root)})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, int32(root))
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			succ := n.States[v].Succ
			if f.succ < len(succ) {
				w := int32(succ[f.succ])
				f.succ++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					dfs = append(dfs, frame{v: w})
				} else if comp[w] < 0 && index[w] < low[v] {
					low[v] = index[w] // w is still on the Tarjan stack
				}
				continue
			}
			// Post-visit of v.
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	// Sizes by counting; a component is cyclic when it has more than one
	// state or its one state loops on itself.
	sizes := make([]int32, ncomp)
	for _, c := range comp {
		sizes[c]++
	}
	cyclic := make([]bool, ncomp)
	for s, c := range comp {
		if sizes[c] > 1 || selfLoop(n, automata.StateID(s)) {
			cyclic[c] = true
		}
	}
	// Group states by component with a counting sort; scanning states in
	// ID order leaves each group ascending. low is free by now and holds
	// each group's next free slot.
	start := make([]int32, ncomp+1)
	for c, size := range sizes {
		start[c+1] = start[c] + size
	}
	members := make([]automata.StateID, nn)
	next := append(low[:0], start[:ncomp]...)
	for s, c := range comp {
		members[next[c]] = automata.StateID(s)
		next[c]++
	}
	return &SCCResult{
		Comp: comp, NumComps: int(ncomp), Size: sizes, Cyclic: cyclic,
		members: members, memberStart: start,
	}
}

// selfLoop reports whether state s has an edge to itself.
func selfLoop(n *automata.Network, s automata.StateID) bool {
	for _, v := range n.States[s].Succ {
		if v == s {
			return true
		}
	}
	return false
}

// Topo holds the layered topological order of a network's states.
type Topo struct {
	// Order[s] is topoorder(s): 1 for source layers, 1 + max over
	// predecessor layers otherwise. States in one SCC share an order.
	Order []int32
	// MaxPerNFA[i] is the maximum topological order within NFA i.
	MaxPerNFA []int32
	// SCC is the component decomposition the order was derived from.
	SCC *SCCResult

	// Predecessors as CSR: state s's are pred[predStart[s]:predStart[s+1]].
	pred      []automata.StateID
	predStart []int32
}

// Preds returns the predecessors of state s in ascending ID order, one
// entry per edge, cut from one array for the whole network. The slice is
// shared; callers must not modify it.
func (t *Topo) Preds(s automata.StateID) []automata.StateID {
	lo, hi := t.predStart[s], t.predStart[s+1]
	return t.pred[lo:hi:hi]
}

// TopoOrder computes the layered topological order of Section III-A: the
// network is condensed by SCC, and each condensation node's order is one
// more than the maximum order of its predecessors (sources have order 1).
// This equals the maximum number of matching steps from a source layer.
func TopoOrder(n *automata.Network) *Topo {
	nn := n.Len()
	t := &Topo{
		Order:     make([]int32, nn),
		MaxPerNFA: make([]int32, n.NumNFAs()),
		SCC:       SCC(n),
	}
	// Predecessors as CSR, in two walks over the edges. Walk 0 counts into
	// predStart[v+2]; after the prefix sum predStart[v+1] is where v's
	// list begins, and walk 1, filling through it, leaves it where v's
	// ends. Visiting sources in ascending ID leaves each list ascending.
	predStart := make([]int32, nn+2)
	for u := range n.States {
		for _, v := range n.States[u].Succ {
			predStart[v+2]++
		}
	}
	for v := 2; v < len(predStart); v++ {
		predStart[v] += predStart[v-1]
	}
	t.pred = make([]automata.StateID, predStart[nn+1])
	for u := range n.States {
		for _, v := range n.States[u].Succ {
			t.pred[predStart[v+1]] = automata.StateID(u)
			predStart[v+1]++
		}
	}
	t.predStart = predStart[:nn+1]
	// Longest-path layers, walking the components downward: every
	// predecessor outside component c is final, and one inside it still
	// reads 0, which bounds nothing.
	for c := int32(t.SCC.NumComps) - 1; c >= 0; c-- {
		ms := t.SCC.Members(c)
		o := int32(1)
		for _, s := range ms {
			for _, p := range t.Preds(s) {
				o = max(o, t.Order[p]+1)
			}
		}
		for _, s := range ms {
			t.Order[s] = o
			if nfa := n.NFAOf[s]; o > t.MaxPerNFA[nfa] {
				t.MaxPerNFA[nfa] = o
			}
		}
	}
	return t
}

// NormalizedDepth returns Order[s]/MaxPerNFA[nfa(s)] in (0, 1]. An NFA
// whose maximum order is 0 has a single (degenerate) layer; every state
// in it is defined to be at full depth 1 rather than NaN, which
// Bucket would otherwise silently classify as Deep.
func (t *Topo) NormalizedDepth(n *automata.Network, s automata.StateID) float64 {
	max := t.MaxPerNFA[n.NFAOf[s]]
	if max == 0 {
		return 1
	}
	return float64(t.Order[s]) / float64(max)
}

// DepthBucket classifies a normalized depth per Fig. 5: shallow [0, 0.3),
// medium [0.3, 0.6), deep [0.6, 1].
type DepthBucket int

const (
	// Shallow is normalized depth in [0, 0.3).
	Shallow DepthBucket = iota
	// Medium is normalized depth in [0.3, 0.6).
	Medium
	// Deep is normalized depth in [0.6, 1].
	Deep
)

// String names the bucket.
func (b DepthBucket) String() string {
	switch b {
	case Shallow:
		return "shallow"
	case Medium:
		return "medium"
	case Deep:
		return "deep"
	}
	return "unknown"
}

// Bucket classifies a normalized depth value.
func Bucket(d float64) DepthBucket {
	switch {
	case d < 0.3:
		return Shallow
	case d < 0.6:
		return Medium
	default:
		return Deep
	}
}

// ReachableFromStarts returns, per state, whether it is reachable from any
// start state of its NFA (start states are reachable from themselves).
func ReachableFromStarts(n *automata.Network) []bool {
	reach := make([]bool, n.Len())
	var queue []automata.StateID
	for s := 0; s < n.Len(); s++ {
		if n.States[s].Start != automata.StartNone {
			reach[s] = true
			queue = append(queue, automata.StateID(s))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range n.States[u].Succ {
			if !reach[v] {
				reach[v] = true
				queue = append(queue, v)
			}
		}
	}
	return reach
}
