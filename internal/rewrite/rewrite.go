// Package rewrite is a proof-carrying network rewriter over the facts of
// internal/dataflow. It shrinks an automata network without changing its
// report stream: dead and unreachable states are deleted, redundant edges
// pruned, subsumed siblings folded into the states that cover them, and
// backward-bisimilar states — including redundant start states across
// NFAs — merged onto one STE, with the merged footprint guarded against
// the half-core capacity so static savings translate into fewer batches
// rather than unplaceable mega-components.
//
// Every transformation carries a certificate (see Cert) stated against
// the network the round consumed, and CheckCerts re-verifies the full
// list with local inductive conditions before anything is applied. The
// rewriter iterates plan→check→apply rounds to a fixed point, so the
// result is idempotent: rewriting a rewritten network is a no-op.
package rewrite

import (
	"fmt"
	"slices"
	"sort"

	"sparseap/internal/automata"
	"sparseap/internal/dataflow"
	"sparseap/internal/graph"
	"sparseap/internal/symset"
)

// maxSubsumeGroup caps the sibling-group size the quadratic subsumption
// scan will consider; larger groups are handled by bisimulation merging.
const maxSubsumeGroup = 512

// Options configures one rewrite.
type Options struct {
	// Alphabet restricts the assumed input alphabet; transformations are
	// then only report-preserving for inputs drawn from it. Empty means
	// the full 256-symbol alphabet (always sound).
	Alphabet symset.Set
	// Capacity demotes merges that would fuse a weakly-connected
	// component beyond this many states, the AP half-core's STE count: a
	// merged component larger than that could not be placed in one batch,
	// which would cost more than the merge saves. Zero or negative means
	// unguarded.
	Capacity int
}

func (o Options) alphabet() symset.Set {
	if o.Alphabet.IsEmpty() {
		return symset.All()
	}
	return o.Alphabet
}

// NFADelta is the size change of one original NFA. States and edges of
// the rewritten network are attributed to the NFA that owned the merged
// class representative (for edges: the source's representative).
type NFADelta struct {
	NFA          int
	StatesBefore int
	StatesAfter  int
	EdgesBefore  int
	EdgesAfter   int
}

// Stats aggregates what the rewrite did across all rounds.
type Stats struct {
	StatesBefore, StatesAfter int
	EdgesBefore, EdgesAfter   int
	NFAsBefore, NFAsAfter     int
	// Unreachable, Dead and Subsumed count deleted states by certificate
	// kind; Merged counts states folded onto a class representative, of
	// which StartsFolded were redundant start states.
	Unreachable, Dead, Subsumed, Merged, StartsFolded int
	// EdgesPruned counts redundant-edge deletions (duplicates and edges
	// into all-input start states).
	EdgesPruned int
	// DemotedClasses counts bisimulation classes whose merge the
	// capacity guard reverted.
	DemotedClasses int
	// Rounds is the number of plan/apply rounds until the fixed point.
	Rounds int
	// PerNFA has one entry per original NFA, in order.
	PerNFA []NFADelta
}

// StatesRemoved returns the total state reduction.
func (s Stats) StatesRemoved() int { return s.StatesBefore - s.StatesAfter }

// Round records one applied rewrite round: the network it consumed and
// the certificates justifying its transformations against that network.
type Round struct {
	Input *automata.Network
	Certs []Cert
}

// Result is a completed rewrite.
type Result struct {
	// Net is the rewritten network. When no transformation applied it is
	// the input network itself.
	Net *automata.Network
	// OrigOf maps each rewritten state to the original state that became
	// its representative.
	OrigOf []automata.StateID
	// NewID maps each original state to its rewritten ID: deleted states
	// map to automata.None, merged states to their representative's ID.
	NewID []automata.StateID
	// Rounds holds the per-round certificates; Rounds[0].Input is the
	// original network. Empty when nothing applied.
	Rounds []Round
	Stats  Stats
}

// Changed reports whether the rewrite transformed the network at all.
func (r *Result) Changed() bool { return len(r.Rounds) > 0 }

// Check re-verifies every round's certificate list against that round's
// input network. It is exported so callers can audit a Result they did
// not produce; Rewrite already runs it before applying each round.
func (r *Result) Check(alphabet symset.Set) error {
	for i, rd := range r.Rounds {
		if err := CheckCerts(rd.Input, rd.Certs, alphabet); err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
	}
	return nil
}

// Rewrite shrinks the network to a fixed point under the given options.
// The input network is not modified. It returns an error if the network
// is structurally unsound (beyond missing start states, which are
// semantically just unreachable regions) or if a round's certificates
// fail verification — the proof-carrying contract means an unsound plan
// is rejected rather than applied.
func Rewrite(net *automata.Network, opts Options) (*Result, error) {
	for _, p := range net.StructuralProblems() {
		switch p.Kind {
		case automata.ProblemNoStart, automata.ProblemEmpty:
			// Tolerated: no-start NFAs are provably unreachable and get
			// deleted; empty networks pass through unchanged.
		default:
			return nil, fmt.Errorf("rewrite: network is structurally unsound: %s", p.Msg)
		}
	}
	res := &Result{Net: net}
	res.Stats.StatesBefore = net.Len()
	res.Stats.EdgesBefore = countEdges(net)
	res.Stats.NFAsBefore = net.NumNFAs()

	origOf := identity(net.Len())
	newID := identity(net.Len())
	cur := net
	// Each applied round strictly reduces states+edges, except at most
	// one round that only normalizes match sets under a restricted
	// alphabet — intersection is idempotent, so the round after it sees
	// no match change. The loop therefore terminates; the cap is a
	// safety net only.
	for round := 0; round < 1+net.Len()+countEdges(net); round++ {
		p := planRewrite(cur, opts)
		// The demoted count reflects the fixed point: classes that stay
		// claimed-but-unapplied because merging them would fuse an
		// oversized component. Every plan sees them again, so assign
		// rather than accumulate.
		res.Stats.DemotedClasses = p.demoted
		if p.empty() {
			break
		}
		if err := CheckCerts(cur, p.certs, opts.alphabet()); err != nil {
			return nil, fmt.Errorf("rewrite: round %d plan failed verification: %w", round+1, err)
		}
		next, roundOrig, roundNew := p.apply()
		res.Rounds = append(res.Rounds, Round{Input: cur, Certs: p.certs})
		p.tally(&res.Stats)
		// Compose the original↔rewritten maps through this round.
		composed := make([]automata.StateID, len(roundOrig))
		for i, prev := range roundOrig {
			composed[i] = origOf[prev]
		}
		origOf = composed
		for o := range newID {
			if newID[o] != automata.None {
				newID[o] = roundNew[newID[o]]
			}
		}
		cur = next
	}
	res.OrigOf = origOf
	res.Net = cur
	res.NewID = newID
	res.Stats.StatesAfter = cur.Len()
	res.Stats.EdgesAfter = countEdges(cur)
	res.Stats.NFAsAfter = cur.NumNFAs()
	res.Stats.Rounds = len(res.Rounds)
	res.Stats.PerNFA = perNFADeltas(net, res)
	return res, nil
}

func identity(n int) []automata.StateID {
	ids := make([]automata.StateID, n)
	for i := range ids {
		ids[i] = automata.StateID(i)
	}
	return ids
}

func countEdges(net *automata.Network) int {
	e := 0
	for i := range net.States {
		e += len(net.States[i].Succ)
	}
	return e
}

// perNFADeltas attributes the rewritten network's states and edges back
// to original NFA indices via the composed OrigOf map.
func perNFADeltas(orig *automata.Network, res *Result) []NFADelta {
	out := make([]NFADelta, orig.NumNFAs())
	for i := range out {
		out[i].NFA = i
		lo, hi := orig.NFAStates(i)
		out[i].StatesBefore = int(hi - lo)
		for s := lo; s < hi; s++ {
			out[i].EdgesBefore += len(orig.States[s].Succ)
		}
	}
	for k := range res.Net.States {
		nfa := orig.NFAOf[res.OrigOf[k]]
		out[nfa].StatesAfter++
		out[nfa].EdgesAfter += len(res.Net.States[k].Succ)
	}
	return out
}

// plan is one round's set of justified transformations against one
// network. All decisions are stated in that network's IDs so the
// certificate list is checkable against it alone.
type plan struct {
	net   *automata.Network
	opts  Options
	topo  *graph.Topo
	facts *dataflow.Facts

	removed    []bool               // unreachable ∪ dead ∪ subsumed
	removeKind []CertKind           // valid where removed
	mergeTo    []automata.StateID   // kept → class representative (self if unmerged)
	applied    [][]automata.StateID // merged classes: kept members, ascending; [0] is the representative
	demoted    int                  // classes reverted by the capacity guard
	certs      []Cert

	prunedEdges  int
	matchChanged bool
	startsFolded int
}

func (p *plan) empty() bool {
	for _, r := range p.removed {
		if r {
			return false
		}
	}
	return len(p.applied) == 0 && p.prunedEdges == 0 && !p.matchChanged
}

// tally folds this round's counters into the aggregate stats.
func (p *plan) tally(st *Stats) {
	for s, r := range p.removed {
		if !r {
			continue
		}
		switch p.removeKind[s] {
		case CertUnreachable:
			st.Unreachable++
		case CertDead:
			st.Dead++
		case CertSubsumed:
			st.Subsumed++
		}
	}
	for _, cl := range p.applied {
		st.Merged += len(cl) - 1
	}
	st.StartsFolded += p.startsFolded
	st.EdgesPruned += p.prunedEdges
}

// planRewrite derives one round of transformations: dataflow-driven
// deletions, subsumption, redundant-edge pruning, and capacity-guarded
// bisimulation merging, each emitting its certificate.
func planRewrite(net *automata.Network, opts Options) *plan {
	topo := graph.TopoOrder(net)
	p := &plan{
		net:        net,
		opts:       opts,
		topo:       topo,
		facts:      dataflow.Analyze(net, topo, opts.Alphabet),
		removed:    make([]bool, net.Len()),
		removeKind: make([]CertKind, net.Len()),
	}
	alpha := opts.alphabet()

	// Phase 1: dataflow deletions. Unreachable states never fire; dead
	// states fire but cannot contribute to a report (and are never
	// reporting, since a firing reporting state is live by definition).
	for s := 0; s < net.Len(); s++ {
		id := automata.StateID(s)
		switch {
		case p.facts.Unreachable(id):
			p.remove(id, CertUnreachable, automata.None)
		case p.facts.Dead(id):
			p.remove(id, CertDead, automata.None)
		}
	}

	// Phase 2: subsumption among the survivors.
	p.planSubsumption()

	// Phase 3: redundant edges among kept states — duplicates beyond the
	// first listing, and edges into all-input start states (those targets
	// are enabled every cycle regardless; the edge is a no-op).
	seen := make(map[automata.StateID]int)
	for u := 0; u < net.Len(); u++ {
		if p.removed[u] {
			continue
		}
		clear(seen)
		for _, v := range net.States[u].Succ {
			if p.removed[v] {
				continue // vanishes with its endpoint; needs no certificate
			}
			if net.States[v].Start == automata.StartAllInput {
				p.certs = append(p.certs, Cert{Kind: CertRedundantEdge, State: automata.None, From: automata.StateID(u), To: v})
				p.prunedEdges++
				continue
			}
			if seen[v]++; seen[v] > 1 {
				p.certs = append(p.certs, Cert{Kind: CertRedundantEdge, State: automata.None, From: automata.StateID(u), To: v})
				p.prunedEdges++
			}
		}
	}

	// Phase 4: bisimulation merging.
	p.mergeTo = identity(net.Len())
	p.planMerge()

	// Match normalization under a restricted alphabet is itself a
	// transformation; detect it so the fixed-point loop knows this round
	// changes the network even without deletions.
	if !alpha.Equal(symset.All()) {
		for s := 0; s < net.Len(); s++ {
			if !p.removed[s] && !net.States[s].Match.Intersect(alpha).Equal(net.States[s].Match) {
				p.matchChanged = true
				break
			}
		}
	}
	return p
}

func (p *plan) remove(s automata.StateID, kind CertKind, into automata.StateID) {
	p.removed[s] = true
	p.removeKind[s] = kind
	p.certs = append(p.certs, Cert{Kind: kind, State: s, Into: into})
}

// planSubsumption deletes kept states covered by a sibling: same
// predecessors (up to self-loops), match and successors contained in the
// sibling's under the u↦v substitution, start kind covered, and not
// reporting. Siblings are found by grouping on the exact predecessor set
// (excluding self), which makes the containment conditions local to
// small groups.
func (p *plan) planSubsumption() {
	net := p.net
	alpha := p.opts.alphabet()

	type member struct {
		id       automata.StateID
		succ     []automata.StateID // sorted, deduped
		selfPred bool
		selfSucc bool
	}
	groups := make(map[string][]member)
	keyBuf := make([]byte, 0, 64)
	order := make([]string, 0, 64)
	for s := 0; s < net.Len(); s++ {
		if p.removed[s] {
			continue
		}
		id := automata.StateID(s)
		m := member{id: id}
		keyBuf = keyBuf[:0]
		last := automata.None
		for _, q := range p.topo.Preds(id) { // ascending: a duplicate follows its first
			if q == id {
				m.selfPred = true
				continue
			}
			if q == last {
				continue
			}
			last = q
			keyBuf = append(keyBuf, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
		}
		for _, v := range net.States[s].Succ {
			if v == id {
				m.selfSucc = true
			}
			m.succ = append(m.succ, v)
		}
		sort.Slice(m.succ, func(a, b int) bool { return m.succ[a] < m.succ[b] })
		k := string(keyBuf)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], m)
	}

	contains := func(sorted []automata.StateID, x automata.StateID) bool {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
		return i < len(sorted) && sorted[i] == x
	}
	pinned := make(map[automata.StateID]bool) // used as a subsumer; must survive
	for _, k := range order {
		g := groups[k]
		if len(g) < 2 || len(g) > maxSubsumeGroup {
			continue
		}
		for i := range g {
			u := &g[i]
			su := &net.States[u.id]
			if su.Report || p.removed[u.id] || pinned[u.id] {
				continue
			}
			mu := su.Match.Intersect(alpha)
			for j := range g {
				v := &g[j]
				if i == j || p.removed[v.id] {
					continue
				}
				sv := &net.States[v.id]
				if su.Start != automata.StartNone && su.Start != sv.Start {
					continue
				}
				if !mu.Intersect(sv.Match).Equal(mu) {
					continue
				}
				// Self-references compare under the substitution u↦v.
				if u.selfPred && !v.selfPred {
					continue
				}
				ok := true
				for _, x := range u.succ {
					if x == u.id {
						x = v.id
					}
					if !contains(v.succ, x) && !(x == v.id && v.selfSucc) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				p.remove(u.id, CertSubsumed, v.id)
				pinned[v.id] = true
				break
			}
		}
	}
}

// planMerge partitions the network by backward bisimulation with three
// generalizations over the textbook refinement: matches compare under
// the alphabet, predecessors that provably never
// fire are ignored (they cannot affect enabling), and all-input start
// states are exempt from the predecessor condition entirely (they are
// enabled every cycle, which is what lets redundant start states fold
// across NFAs). Every multi-member class of the stable partition is
// emitted as a certificate; classes with ≥2 kept members become merges
// unless the capacity guard demotes them.
func (p *plan) planMerge() {
	net := p.net
	alpha := p.opts.alphabet()
	n := net.Len()
	if n == 0 {
		return
	}

	group := make([]int32, n)
	type initKey struct {
		match  symset.Set
		start  automata.StartKind
		unique int32 // state ID for reporting states, -1 otherwise
	}
	index := make(map[initKey]int32)
	var nGroups int32
	for s := 0; s < n; s++ {
		st := &net.States[s]
		k := initKey{match: st.Match.Intersect(alpha), start: st.Start, unique: -1}
		if st.Report {
			k.unique = int32(s)
		}
		g, ok := index[k]
		if !ok {
			g = nGroups
			nGroups++
			index[k] = g
		}
		group[s] = g
	}
	// One table, one spare group slice and one pair of key buffers serve
	// every refinement round: allocated per round they cost more than the
	// refinement itself.
	type refineKey struct {
		old   int32
		preds string
	}
	next := make(map[refineKey]int32, n)
	newGroup := make([]int32, n)
	var buf []int32
	var key []byte
	for {
		clear(next)
		var n2 int32
		for s := 0; s < n; s++ {
			rk := refineKey{old: group[s]}
			if net.States[s].Start != automata.StartAllInput {
				buf = buf[:0]
				for _, q := range p.topo.Preds(automata.StateID(s)) {
					if p.facts.Unreachable(q) {
						continue // never fires; cannot affect enabling
					}
					buf = append(buf, group[q])
				}
				slices.Sort(buf)
				key = key[:0]
				var last int32 = -1
				for _, g := range buf {
					if g == last {
						continue // sets, not multisets
					}
					last = g
					key = append(key, byte(g), byte(g>>8), byte(g>>16), byte(g>>24))
				}
				rk.preds = string(key)
			}
			g, ok := next[rk]
			if !ok {
				g = n2
				n2++
				next[rk] = g
			}
			newGroup[s] = g
		}
		if n2 == nGroups {
			break
		}
		group, newGroup = newGroup, group
		nGroups = n2
	}

	// Emit the full partition's multi-member classes as certificates —
	// the checker needs every non-singleton class to verify stability,
	// including classes of deleted states and classes the guard demotes.
	members := make([][]automata.StateID, nGroups)
	for s := 0; s < n; s++ {
		members[group[s]] = append(members[group[s]], automata.StateID(s))
	}
	var candidates [][]automata.StateID // kept members, ≥2, ascending
	for s := 0; s < n; s++ {            // first-member order, deterministic
		g := group[s]
		if members[g] == nil || members[g][0] != automata.StateID(s) || len(members[g]) < 2 {
			continue
		}
		p.certs = append(p.certs, Cert{Kind: CertBisimClass, State: automata.None, Class: members[g]})
		kept := make([]automata.StateID, 0, len(members[g]))
		for _, m := range members[g] {
			if !p.removed[m] {
				kept = append(kept, m)
			}
		}
		if len(kept) >= 2 {
			candidates = append(candidates, kept)
		}
	}
	p.applyGuard(candidates)
}

// applyGuard applies merge candidates subject to the capacity guard:
// a class whose kept members span multiple weakly-connected components
// is demoted when the component it would fuse exceeds the capacity,
// iterating until the surviving merges fuse nothing oversized. Classes
// internal to one component never change component sizes and are always
// applied.
func (p *plan) applyGuard(candidates [][]automata.StateID) {
	net := p.net
	limit := p.opts.Capacity

	// Weak components of the kept, pre-merge network (pruned edges
	// excluded — they will not exist in the output).
	origComp := p.weakComponents(func(s automata.StateID) automata.StateID { return s })
	fusing := make([]bool, len(candidates))
	for i, cl := range candidates {
		first := origComp[cl[0]]
		for _, m := range cl[1:] {
			if origComp[m] != first {
				fusing[i] = true
				break
			}
		}
	}

	active := make([]bool, len(candidates))
	for i := range active {
		active[i] = true
	}
	rep := make([]automata.StateID, net.Len())
	for {
		for i := range rep {
			rep[i] = automata.StateID(i)
		}
		for i, cl := range candidates {
			if !active[i] {
				continue
			}
			for _, m := range cl[1:] {
				rep[m] = cl[0]
			}
		}
		if limit <= 0 {
			break
		}
		comp := p.weakComponents(func(s automata.StateID) automata.StateID { return rep[s] })
		size := make(map[automata.StateID]int)
		for s := 0; s < net.Len(); s++ {
			if !p.removed[s] && rep[s] == automata.StateID(s) {
				size[comp[s]]++
			}
		}
		changed := false
		for i, cl := range candidates {
			if active[i] && fusing[i] && size[comp[cl[0]]] > limit {
				active[i] = false
				p.demoted++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i, cl := range candidates {
		if !active[i] {
			continue
		}
		p.applied = append(p.applied, cl)
		for _, m := range cl[1:] {
			p.mergeTo[m] = cl[0]
			if net.States[m].Start != automata.StartNone {
				p.startsFolded++
			}
		}
	}
}

// weakComponents computes weakly-connected components over kept states
// under the final edge rule (pruned all-input-target edges excluded),
// with states identified through the given representative map. The
// returned slice maps each kept state to its component root.
func (p *plan) weakComponents(rep func(automata.StateID) automata.StateID) []automata.StateID {
	net := p.net
	parent := make([]automata.StateID, net.Len())
	for i := range parent {
		parent[i] = automata.StateID(i)
	}
	var find func(automata.StateID) automata.StateID
	find = func(x automata.StateID) automata.StateID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b automata.StateID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for u := 0; u < net.Len(); u++ {
		if p.removed[u] {
			continue
		}
		for _, v := range net.States[u].Succ {
			if p.removed[v] || net.States[v].Start == automata.StartAllInput {
				continue
			}
			union(rep(automata.StateID(u)), rep(v))
		}
	}
	// Merged classes are one placement unit even without an edge.
	out := make([]automata.StateID, net.Len())
	for s := 0; s < net.Len(); s++ {
		if !p.removed[s] {
			union(rep(automata.StateID(s)), automata.StateID(s))
		}
	}
	for s := 0; s < net.Len(); s++ {
		out[s] = find(automata.StateID(s))
	}
	return out
}

// apply materializes the plan into a fresh network. Kept representatives
// are grouped into NFAs by weak connectivity, NFAs ordered by their
// smallest original state ID, states ascending within each NFA, edges
// deduplicated and sorted — the rebuild is fully deterministic, which is
// what makes the fixed point (and aplint -fix idempotence) testable.
func (p *plan) apply() (*automata.Network, []automata.StateID, []automata.StateID) {
	net := p.net
	alpha := p.opts.alphabet()
	comp := p.weakComponents(func(s automata.StateID) automata.StateID { return p.mergeTo[s] })

	emitted := func(s automata.StateID) bool {
		return !p.removed[s] && p.mergeTo[s] == s
	}
	// Assign NFA indices by first-seen component, scanning ascending.
	nfaOfComp := make(map[automata.StateID]int)
	var nfaStates [][]automata.StateID
	for s := 0; s < net.Len(); s++ {
		id := automata.StateID(s)
		if !emitted(id) {
			continue
		}
		c := comp[id]
		i, ok := nfaOfComp[c]
		if !ok {
			i = len(nfaStates)
			nfaOfComp[c] = i
			nfaStates = append(nfaStates, nil)
		}
		nfaStates[i] = append(nfaStates[i], id)
	}

	out := &automata.Network{Offsets: []automata.StateID{0}}
	newID := make([]automata.StateID, net.Len())
	for i := range newID {
		newID[i] = automata.None
	}
	var origOf []automata.StateID
	for i, states := range nfaStates {
		for _, s := range states {
			newID[s] = automata.StateID(len(out.States))
			st := net.States[s]
			st.Match = st.Match.Intersect(alpha)
			st.Succ = nil
			out.States = append(out.States, st)
			out.NFAOf = append(out.NFAOf, int32(i))
			origOf = append(origOf, s)
		}
		out.Offsets = append(out.Offsets, automata.StateID(len(out.States)))
	}
	// Edges: union the members' successors onto each representative,
	// skipping deleted endpoints and pruned all-input targets.
	edgeSets := make([]map[automata.StateID]struct{}, len(out.States))
	for u := 0; u < net.Len(); u++ {
		if p.removed[u] {
			continue
		}
		src := newID[p.mergeTo[u]]
		for _, v := range net.States[u].Succ {
			if p.removed[v] || net.States[v].Start == automata.StartAllInput {
				continue
			}
			dst := newID[p.mergeTo[v]]
			if edgeSets[src] == nil {
				edgeSets[src] = make(map[automata.StateID]struct{})
			}
			edgeSets[src][dst] = struct{}{}
		}
	}
	for k, set := range edgeSets {
		if len(set) == 0 {
			continue
		}
		succ := make([]automata.StateID, 0, len(set))
		for v := range set {
			succ = append(succ, v)
		}
		sort.Slice(succ, func(a, b int) bool { return succ[a] < succ[b] })
		out.States[k].Succ = succ
	}
	// Full original→new map: deleted → None, merged → representative.
	full := make([]automata.StateID, net.Len())
	for s := 0; s < net.Len(); s++ {
		if p.removed[s] {
			full[s] = automata.None
		} else {
			full[s] = newID[p.mergeTo[s]]
		}
	}
	return out, origOf, full
}
