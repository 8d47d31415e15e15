// Package oracle is what the executors are tested against: Run, a
// set-based interpreter of a network that shares nothing with the compiled
// kernels, and Network and Input, one generator of the networks and inputs
// the tests draw, and Preds, the plain inversion of the successor lists
// that the predecessor lists built elsewhere are checked against. Only
// tests import it.
package oracle

import (
	"slices"

	"sparseap/internal/automata"
)

// Report is one report: the input position and the reporting state. It has
// the fields of sim.Report, so either converts to the other.
type Report struct {
	Pos   int64
	State automata.StateID
}

// Edit is an enable-bit operation made between two steps, before the symbol
// at At: Op 'e' enables S, 'd' disables it, 't' toggles it. An edit to an
// all-input start is a no-op, as it is on the engine.
type Edit struct {
	At int
	Op byte
	S  automata.StateID
}

// Result is what a run observes.
type Result struct {
	// Reports in (position, ascending state) order.
	Reports []Report
	// Ever marks the all-input starts with a non-empty symbol set, the
	// start-of-data states and every state an activation or an edit enabled.
	Ever []bool
	// Frontier is the number of dynamically enabled states after each
	// symbol: all-input starts are enabled by their kind and not counted.
	Frontier []int
}

// Preds inverts the successor lists: Preds(net)[v] lists every u with an
// edge u→v, once per listing, in ascending u.
func Preds(net *automata.Network) [][]automata.StateID {
	preds := make([][]automata.StateID, net.Len())
	for u := range net.States {
		for _, v := range net.States[u].Succ {
			preds[v] = append(preds[v], automata.StateID(u))
		}
	}
	return preds
}

// Reports is Run's reports as the caller's report type: sim.Report, or any
// other type with Report's fields.
func Reports[R ~struct {
	Pos   int64
	State automata.StateID
}](net *automata.Network, input []byte) []R {
	rs := Run(net, input).Reports
	out := make([]R, len(rs))
	for i, r := range rs {
		out[i] = R(r)
	}
	return out
}

// Run interprets net over input, making edits before the positions they
// name. It keeps the list of enabled states from one symbol to the next,
// with a mark per state against duplicates, and looks at every state of
// it, and at every all-input start, on every symbol.
func Run(net *automata.Network, input []byte, edits ...Edit) Result {
	res := Result{Ever: make([]bool, net.Len())}
	// on marks the states of enabled, next those of the list a step builds.
	on, next := make([]bool, net.Len()), make([]bool, net.Len())
	var starts, enabled []automata.StateID
	for s := range net.States {
		switch st := &net.States[s]; st.Start {
		case automata.StartAllInput:
			starts = append(starts, automata.StateID(s))
			res.Ever[s] = !st.Match.IsEmpty()
		case automata.StartOfData:
			res.Ever[s], on[s] = true, true
			enabled = append(enabled, automata.StateID(s))
		}
	}
	for i, b := range input {
		edited := false
		for _, ed := range edits {
			if ed.At == i && net.States[ed.S].Start != automata.StartAllInput {
				on[ed.S] = ed.Op == 'e' || ed.Op == 't' && !on[ed.S]
				res.Ever[ed.S] = res.Ever[ed.S] || on[ed.S]
				edited = true
			}
		}
		if edited {
			enabled = enabled[:0]
			for s, o := range on {
				if o {
					enabled = append(enabled, automata.StateID(s))
				}
			}
		}
		var succ, reporting []automata.StateID
		fire := func(s automata.StateID) {
			st := &net.States[s]
			if !st.Match.Contains(b) {
				return
			}
			if st.Report {
				reporting = append(reporting, s)
			}
			for _, v := range st.Succ {
				if !next[v] && net.States[v].Start != automata.StartAllInput {
					next[v] = true
					succ = append(succ, v)
				}
			}
		}
		for _, s := range starts {
			fire(s)
		}
		for _, s := range enabled {
			fire(s)
		}
		for _, s := range enabled {
			on[s] = false
		}
		on, next, enabled = next, on, succ
		slices.Sort(reporting)
		for _, s := range reporting {
			res.Reports = append(res.Reports, Report{int64(i), s})
		}
		for _, s := range enabled {
			res.Ever[s] = true
		}
		res.Frontier = append(res.Frontier, len(enabled))
	}
	return res
}
