// Package dataflow implements fixpoint abstract interpretation over
// automata networks using the 256-bit symbol-set lattice of
// internal/symset.
//
// The AP's premise — most STE capacity is provably wasted — has a static
// component: from symbol-set algebra alone, before any input is streamed,
// some states can be shown never to fire, and some firings can be shown
// never to contribute to a report. This package computes those facts:
//
//   - The forward pass derives, per state, the *fire set*: the subset of
//     the input alphabet on which the state can ever activate. The
//     abstraction is a join-semilattice of symbol sets (bottom = empty,
//     join = union) with the monotone transfer function
//
//     fire(s) = match(s) ∩ A  if s is a start state or ∃ p ∈ preds(s): fire(p) ≠ ∅
//     fire(s) = ∅             otherwise
//
//     A fire set only ever moves from ∅ to match(s) ∩ A, so the least
//     fixpoint is a reachability question: fire(s) = match(s) ∩ A exactly
//     for the states reachable from a start state along a path whose
//     states all have a non-empty match(s) ∩ A. One walk over the
//     successor lists, visiting each state at most once, finds them.
//
//   - The backward pass derives, per state, *liveness to report*: whether
//     an activation of the state can contribute, through some chain of
//     states that can all fire, to the activation of a reporting state.
//     Reporting states that can fire are live; a non-reporting state is
//     live iff it can fire and some successor is live.
//
// Everything downstream consumes these facts: the semantic lint analyzers
// (AP017, AP019–AP021) report them, and internal/rewrite's proof-carrying
// transformations are justified by them.
package dataflow

import (
	"sparseap/internal/automata"
	"sparseap/internal/graph"
	"sparseap/internal/symset"
)

// Facts holds the per-state results of the fixpoint analyses over one
// network. All slices are indexed by global state ID.
type Facts struct {
	// Net is the analyzed network.
	Net *automata.Network
	// Alphabet is the input alphabet the analysis assumed. Symbols
	// outside it are treated as never appearing in any input stream.
	Alphabet symset.Set
	// Fire[s] is the set of symbols state s can ever activate on:
	// match(s) ∩ Alphabet when s can be enabled, empty otherwise. A
	// state with an empty fire set provably never activates, never
	// reports, and never enables a successor.
	Fire []symset.Set
	// Live[s] reports whether an activation of s can contribute to a
	// report: s can fire, and s reports or some successor is live.
	Live []bool
	// Iterations counts the states the forward walk visited
	// (statistics; at most the number of states).
	Iterations int

	live symset.Set // union of every fire set, see LiveAlphabet
}

// Analyze runs both passes over the network under the given input
// alphabet. topo is graph.TopoOrder(net): the backward pass reads its
// predecessor lists. An empty alphabet means the full 256-symbol alphabet
// (the zero value is "no restriction", matching lint.Options).
func Analyze(net *automata.Network, topo *graph.Topo, alphabet symset.Set) *Facts {
	if alphabet.IsEmpty() {
		alphabet = symset.All()
	}
	f := &Facts{
		Net:      net,
		Alphabet: alphabet,
		Fire:     make([]symset.Set, net.Len()),
		Live:     make([]bool, net.Len()),
	}
	f.forward()
	f.backward(topo)
	return f
}

// forward computes Fire, and the live alphabet as its union, by a walk
// from the start states that enters every successor of a state that can
// fire, each state once.
func (f *Facts) forward() {
	n := f.Net
	seen := make([]bool, n.Len())
	var stack []automata.StateID
	for s := range n.States {
		if n.States[s].Start != automata.StartNone {
			seen[s] = true
			stack = append(stack, automata.StateID(s))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.Iterations++
		fire := n.States[u].Match.Intersect(f.Alphabet)
		if fire.IsEmpty() {
			continue // a state that cannot fire enables nothing
		}
		f.Fire[u] = fire
		f.live = f.live.Union(fire)
		for _, v := range n.States[u].Succ {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
}

// backward computes Live with a reverse reachability pass restricted to
// states that can fire: liveness propagates from firing reporting states
// through predecessors that can themselves fire.
func (f *Facts) backward(topo *graph.Topo) {
	n := f.Net
	var stack []automata.StateID
	for s := 0; s < n.Len(); s++ {
		if n.States[s].Report && !f.Fire[s].IsEmpty() {
			f.Live[s] = true
			stack = append(stack, automata.StateID(s))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range topo.Preds(u) {
			if !f.Live[p] && !f.Fire[p].IsEmpty() {
				f.Live[p] = true
				stack = append(stack, p)
			}
		}
	}
}

// Unreachable reports whether state s can never fire under the alphabet:
// its fire set is empty, either because its match set misses the alphabet
// or because no enabling chain from a start state exists.
func (f *Facts) Unreachable(s automata.StateID) bool { return f.Fire[s].IsEmpty() }

// Dead reports whether state s can fire but never contributes to any
// report: it is not reporting and no live successor exists.
func (f *Facts) Dead(s automata.StateID) bool {
	return !f.Fire[s].IsEmpty() && !f.Live[s]
}

// FireProb returns the uniform-symbol activation probability of state s
// relative to the live alphabet: |fire(s)| / |live|, where live is the
// union of all fire sets. It is the semantic refinement of the AP016
// report-density model — states that provably never fire contribute 0.
// It is also the static hotness analysis's q(s): the probability that one
// symbol drawn uniformly from the live alphabet lands in the fire set.
func (f *Facts) FireProb(s automata.StateID) float64 {
	live := f.LiveAlphabet().Len()
	if live == 0 {
		return 0
	}
	return float64(f.Fire[s].Len()) / float64(live)
}

// LiveAlphabet returns the union of every state's fire set: the symbols
// that can drive any activation at all. Analyze computes it once, so a
// per-state FireProb stays constant time.
func (f *Facts) LiveAlphabet() symset.Set { return f.live }
