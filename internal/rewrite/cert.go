package rewrite

import (
	"fmt"
	"sort"

	"sparseap/internal/automata"
	"sparseap/internal/graph"
	"sparseap/internal/symset"
)

// CertKind classifies one proof-carrying rewrite justification.
type CertKind uint8

const (
	// CertUnreachable justifies deleting a state that can never fire:
	// its match set misses the alphabet, or it is not a start state and
	// every predecessor is itself certified never-firing. The condition
	// is inductive over cycles, so the certified set is checkable in one
	// pass without re-running the dataflow analysis.
	CertUnreachable CertKind = iota
	// CertDead justifies deleting a state whose firing can never
	// contribute to a report: it does not report, and every successor is
	// certified dead or never-firing.
	CertDead
	// CertRedundantEdge justifies deleting one edge: its target is an
	// all-input start state (enabled every cycle regardless of the
	// edge), or the edge is a duplicate listing of an edge that is kept.
	CertRedundantEdge
	// CertSubsumed justifies deleting a non-reporting state u whose
	// behaviour a sibling v covers: whenever u fires, v fires too, and
	// everything u would enable, v enables.
	CertSubsumed
	// CertBisimClass asserts one equivalence class of a backward
	// bisimulation: all members are activated on exactly the same cycles
	// of every input, so one STE can stand for the whole class. The
	// checker verifies the stability of the full claimed partition.
	CertBisimClass
)

// String names the certificate kind.
func (k CertKind) String() string {
	switch k {
	case CertUnreachable:
		return "unreachable"
	case CertDead:
		return "dead"
	case CertRedundantEdge:
		return "redundant-edge"
	case CertSubsumed:
		return "subsumed"
	case CertBisimClass:
		return "bisim-class"
	}
	return fmt.Sprintf("CertKind(%d)", uint8(k))
}

// Cert is one machine-checkable justification, stated in the state IDs of
// the network the rewrite round consumed. CheckCerts re-verifies a round's
// certificate list against that network independently of the analyses
// that produced it.
type Cert struct {
	Kind CertKind
	// State is the deleted state (CertUnreachable, CertDead,
	// CertSubsumed); automata.None otherwise.
	State automata.StateID
	// Into is the covering sibling of a CertSubsumed deletion.
	Into automata.StateID
	// From/To identify the deleted edge of a CertRedundantEdge.
	From, To automata.StateID
	// Class lists the members of a CertBisimClass in ascending order.
	Class []automata.StateID
}

// String renders the certificate compactly.
func (c Cert) String() string {
	switch c.Kind {
	case CertRedundantEdge:
		return fmt.Sprintf("%s %d->%d", c.Kind, c.From, c.To)
	case CertSubsumed:
		return fmt.Sprintf("%s %d into %d", c.Kind, c.State, c.Into)
	case CertBisimClass:
		return fmt.Sprintf("%s %v", c.Kind, c.Class)
	}
	return fmt.Sprintf("%s %d", c.Kind, c.State)
}

// CheckCerts verifies every certificate in the list against the network
// it was issued for, under the given alphabet (empty = full). It is the
// independent half of the proof-carrying contract: the planner derives
// facts by fixpoint iteration, the checker re-verifies each claim with
// one local, inductive condition per certificate. An error means the
// certificate list does not justify the transformation.
func CheckCerts(net *automata.Network, certs []Cert, alphabet symset.Set) error {
	if alphabet.IsEmpty() {
		alphabet = symset.All()
	}
	n := net.Len()
	inRange := func(s automata.StateID) bool { return s >= 0 && int(s) < n }

	// Collect the deleted-state sets; membership feeds the inductive
	// conditions below.
	unreach := make(map[automata.StateID]bool)
	dead := make(map[automata.StateID]bool)
	removed := make(map[automata.StateID]bool) // unreach ∪ dead ∪ subsumed
	for _, c := range certs {
		switch c.Kind {
		case CertUnreachable, CertDead, CertSubsumed:
			if !inRange(c.State) {
				return fmt.Errorf("rewrite: cert %s: state out of range", c)
			}
			if removed[c.State] {
				return fmt.Errorf("rewrite: cert %s: state deleted twice", c)
			}
			removed[c.State] = true
			if c.Kind == CertUnreachable {
				unreach[c.State] = true
			}
			if c.Kind == CertDead {
				dead[c.State] = true
			}
		}
	}

	topo := graph.TopoOrder(net)
	dupBudget := make(map[[2]automata.StateID]int)
	classOf := make(map[automata.StateID]int) // state -> cert index of its class

	for i, c := range certs {
		switch c.Kind {
		case CertUnreachable:
			// Inductive never-fire condition: by induction over input
			// positions, no state satisfying it ever fires.
			st := &net.States[c.State]
			if st.Match.Intersect(alphabet).IsEmpty() {
				continue
			}
			if st.Start != automata.StartNone {
				return fmt.Errorf("rewrite: cert %s: start state with non-empty match", c)
			}
			for _, p := range topo.Preds(c.State) {
				if !unreach[p] {
					return fmt.Errorf("rewrite: cert %s: predecessor %d is not certified unreachable", c, p)
				}
			}

		case CertDead:
			// Inductive never-contributes condition: the state does not
			// report and can only enable states that are themselves
			// certified dead or never-firing.
			st := &net.States[c.State]
			if st.Report {
				return fmt.Errorf("rewrite: cert %s: reporting state", c)
			}
			for _, v := range st.Succ {
				if !dead[v] && !unreach[v] {
					return fmt.Errorf("rewrite: cert %s: successor %d is not certified dead or unreachable", c, v)
				}
			}

		case CertRedundantEdge:
			if !inRange(c.From) || !inRange(c.To) {
				return fmt.Errorf("rewrite: cert %s: endpoint out of range", c)
			}
			occ := 0
			for _, v := range net.States[c.From].Succ {
				if v == c.To {
					occ++
				}
			}
			if occ == 0 {
				return fmt.Errorf("rewrite: cert %s: edge does not exist", c)
			}
			if net.States[c.To].Start == automata.StartAllInput {
				continue // target enabled every cycle; the edge is a no-op
			}
			// Duplicate listing: at most occ-1 copies may be certified.
			e := [2]automata.StateID{c.From, c.To}
			dupBudget[e]++
			if dupBudget[e] > occ-1 {
				return fmt.Errorf("rewrite: cert %s: more duplicate-edge deletions than spare listings (%d of %d)", c, dupBudget[e], occ)
			}

		case CertSubsumed:
			if err := checkSubsumed(net, topo, alphabet, c, removed); err != nil {
				return err
			}

		case CertBisimClass:
			if len(c.Class) < 2 {
				return fmt.Errorf("rewrite: cert %s: class needs at least two members", c)
			}
			for _, s := range c.Class {
				if !inRange(s) {
					return fmt.Errorf("rewrite: cert %s: member out of range", c)
				}
				if _, dup := classOf[s]; dup {
					return fmt.Errorf("rewrite: cert %s: state %d appears in two classes", c, s)
				}
				classOf[s] = i
			}

		default:
			return fmt.Errorf("rewrite: unknown certificate kind %d", c.Kind)
		}
	}

	// Verify the claimed bisimulation partition is stable. States not
	// listed in any class are singletons; the check below is exactly the
	// stability condition of backward bisimulation — members of one class
	// agree on observation (match under the alphabet, start kind,
	// non-reporting) and on the set of predecessor classes, so they are
	// enabled, and therefore activated, on identical cycles. All-input
	// members are exempt from the predecessor condition: they are enabled
	// every cycle no matter what flows in.
	classID := func(s automata.StateID) int {
		if i, ok := classOf[s]; ok {
			return i
		}
		return len(certs) + int(s) // unique singleton id
	}
	predClasses := func(s automata.StateID) []int {
		set := make(map[int]struct{})
		for _, p := range topo.Preds(s) {
			if unreach[p] {
				continue // certified never-firing; cannot affect enabling
			}
			set[classID(p)] = struct{}{}
		}
		out := make([]int, 0, len(set))
		for c := range set {
			out = append(out, c)
		}
		sort.Ints(out)
		return out
	}
	for _, c := range certs {
		if c.Kind != CertBisimClass {
			continue
		}
		first := c.Class[0]
		f := &net.States[first]
		fMatch := f.Match.Intersect(alphabet)
		var fPreds []int
		if f.Start != automata.StartAllInput {
			fPreds = predClasses(first)
		}
		for _, s := range c.Class {
			st := &net.States[s]
			if st.Report {
				return fmt.Errorf("rewrite: cert %s: member %d reports; reporting states keep their identity", c, s)
			}
			if !st.Match.Intersect(alphabet).Equal(fMatch) {
				return fmt.Errorf("rewrite: cert %s: member %d match %s differs from %s", c, s, st.Match, f.Match)
			}
			if st.Start != f.Start {
				return fmt.Errorf("rewrite: cert %s: member %d start kind %s differs from %s", c, s, st.Start, f.Start)
			}
			if f.Start == automata.StartAllInput {
				continue
			}
			got := predClasses(s)
			if !equalInts(got, fPreds) {
				return fmt.Errorf("rewrite: cert %s: member %d predecessor classes %v differ from %v (partition not stable)", c, s, got, fPreds)
			}
		}
	}
	return nil
}

// checkSubsumed verifies one subsumption certificate: deleting u is safe
// because sibling v fires whenever u would, and enables everything u
// would. Self-references are compared under the substitution u ↦ v, which
// makes the condition inductive over input positions even through
// self-loops.
func checkSubsumed(net *automata.Network, topo *graph.Topo, alphabet symset.Set, c Cert, removed map[automata.StateID]bool) error {
	u, v := c.State, c.Into
	if v < 0 || int(v) >= net.Len() || u == v {
		return fmt.Errorf("rewrite: cert %s: bad subsumer", c)
	}
	if removed[v] {
		return fmt.Errorf("rewrite: cert %s: subsumer %d is itself deleted", c, v)
	}
	su, sv := &net.States[u], &net.States[v]
	if su.Report {
		return fmt.Errorf("rewrite: cert %s: reporting state", c)
	}
	if su.Start != automata.StartNone && su.Start != sv.Start {
		return fmt.Errorf("rewrite: cert %s: start kind %s not covered by %s", c, su.Start, sv.Start)
	}
	mu := su.Match.Intersect(alphabet)
	if !mu.Intersect(sv.Match).Equal(mu) {
		return fmt.Errorf("rewrite: cert %s: match %s not contained in %s", c, su.Match, sv.Match)
	}
	if !subsetSub(topo.Preds(u), topo.Preds(v), u, v) {
		return fmt.Errorf("rewrite: cert %s: predecessors not covered", c)
	}
	if !subsetSub(su.Succ, sv.Succ, u, v) {
		return fmt.Errorf("rewrite: cert %s: successors not covered", c)
	}
	return nil
}

// subsetSub reports whether every element of a, after substituting u with
// v, occurs in b.
func subsetSub(a, b []automata.StateID, u, v automata.StateID) bool {
	in := make(map[automata.StateID]struct{}, len(b))
	for _, x := range b {
		in[x] = struct{}{}
	}
	for _, x := range a {
		if x == u {
			x = v
		}
		if _, ok := in[x]; !ok {
			return false
		}
	}
	return true
}

// equalInts reports whether two sorted int slices are equal.
func equalInts(a, b []int) bool {
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
