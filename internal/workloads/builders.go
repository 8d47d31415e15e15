package workloads

import (
	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// chainNFA builds a linear homogeneous NFA from the given per-state symbol
// sets; the first state is a start of the given kind and the last state
// reports.
func chainNFA(sets []symset.Set, start automata.StartKind) *automata.NFA {
	m := automata.NewNFA()
	prev := m.Add(sets[0], start, len(sets) == 1)
	for i := 1; i < len(sets); i++ {
		cur := m.Add(sets[i], automata.StartNone, i == len(sets)-1)
		m.Connect(prev, cur)
		prev = cur
	}
	return m
}

// singles converts a byte string to singleton symbol sets.
func singles(lit []byte) []symset.Set {
	sets := make([]symset.Set, len(lit))
	for i, b := range lit {
		sets[i] = symset.Single(b)
	}
	return sets
}
