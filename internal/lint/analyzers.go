package lint

import (
	"fmt"
	"sort"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// This file registers the network analyzers (AP001–AP010). Partition
// analyzers (AP011–AP015) live in partition.go.

func init() {
	Register(analyzerStructure)
	Register(analyzerNoStart)
	Register(analyzerEmptySymset)
	Register(analyzerDuplicateEdge)
	Register(analyzerUnreachable)
	Register(analyzerDeadEnd)
	Register(analyzerStartNoReport)
	Register(analyzerStartKind)
	Register(analyzerCapacity)
	Register(analyzerRedundant)
}

// problemDiags converts the shared automata.Problem findings with the given
// kinds into diagnostics for analyzer a.
func problemDiags(p *Pass, a *Analyzer, want func(automata.ProblemKind) bool) []Diagnostic {
	var out []Diagnostic
	for _, pr := range p.Problems() {
		if !want(pr.Kind) {
			continue
		}
		out = append(out, Diagnostic{
			Code: a.Code, Severity: a.Default,
			NFA: pr.NFA, State: pr.State, Msg: pr.Msg,
		})
	}
	return out
}

var analyzerStructure = &Analyzer{
	Code:    "AP001",
	Name:    "structure",
	Doc:     "network shape is broken: out-of-range or NFA-crossing successor, inconsistent offsets, empty network",
	Default: Error,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		return problemDiags(p, a, func(k automata.ProblemKind) bool {
			return k != automata.ProblemNoStart
		})
	},
}

var analyzerNoStart = &Analyzer{
	Code:    "AP002",
	Name:    "no-start",
	Doc:     "an NFA has no start state and can never be enabled",
	Default: Error,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		ds := problemDiags(p, a, func(k automata.ProblemKind) bool {
			return k == automata.ProblemNoStart
		})
		for i := range ds {
			ds[i].Fix = "mark at least one state all-input or start-of-data"
		}
		return ds
	},
}

var analyzerEmptySymset = &Analyzer{
	Code:    "AP003",
	Name:    "empty-symset",
	Doc:     "a state's symbol set matches no input symbol, so it can never fire",
	Default: Error,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		for s := range p.Net.States {
			if p.Net.States[s].Match.IsEmpty() {
				out = append(out, p.stateDiag(a, Error, automata.StateID(s),
					"empty symbol set: the state can never match",
					"remove the state or give it a non-empty symbol set"))
			}
		}
		return out
	},
}

var analyzerDuplicateEdge = &Analyzer{
	Code:    "AP004",
	Name:    "duplicate-edge",
	Doc:     "the same activate-on-match edge is listed more than once (ambiguous duplicate activation)",
	Default: Warning,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		seen := make(map[automata.StateID]int)
		for u := range p.Net.States {
			succ := p.Net.States[u].Succ
			if len(succ) < 2 {
				continue
			}
			clear(seen)
			for _, v := range succ {
				seen[v]++
			}
			for _, v := range succ {
				if c := seen[v]; c > 1 {
					out = append(out, p.stateDiag(a, Warning, automata.StateID(u),
						fmt.Sprintf("edge to state %d listed %d times", v, c),
						"call Dedup() after building the automaton"))
					seen[v] = 0 // report each duplicate target once
				}
			}
		}
		return out
	},
}

var analyzerUnreachable = &Analyzer{
	Code:       "AP005",
	Name:       "unreachable",
	Doc:        "a state is unreachable from every start state of its NFA and wastes an STE",
	Default:    Warning,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		reach := p.Reach()
		for s := range p.Net.States {
			if !reach[s] {
				out = append(out, p.stateDiag(a, Warning, automata.StateID(s),
					"unreachable from any start state",
					"run apopt (removes unreachable states)"))
			}
		}
		return out
	},
}

var analyzerDeadEnd = &Analyzer{
	Code:       "AP006",
	Name:       "dead-end",
	Doc:        "a non-reporting state cannot reach any reporting state and can never contribute to a match",
	Default:    Warning,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		co := p.CoReach()
		for s := range p.Net.States {
			if !co[s] {
				out = append(out, p.stateDiag(a, Warning, automata.StateID(s),
					"no reporting state is reachable from this state",
					"run apopt (removes dead ends)"))
			}
		}
		return out
	},
}

var analyzerStartNoReport = &Analyzer{
	Code:       "AP007",
	Name:       "start-no-report",
	Doc:        "a start state cannot reach any reporting state: the whole pattern anchored there can never match",
	Default:    Warning,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		co := p.CoReach()
		for s := range p.Net.States {
			if p.Net.States[s].Start != automata.StartNone && !co[s] {
				out = append(out, p.stateDiag(a, Warning, automata.StateID(s),
					fmt.Sprintf("%s start state cannot reach any reporting state", p.Net.States[s].Start),
					"add a report-on-match marker or remove the dead pattern"))
			}
		}
		return out
	},
}

var analyzerStartKind = &Analyzer{
	Code:    "AP008",
	Name:    "start-kind",
	Doc:     "start-kind misuse: an invalid kind value, or one NFA mixing all-input and start-of-data starts",
	Default: Warning,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		n := p.Net
		kinds := make([]uint8, n.NumNFAs()) // bit 0: all-input, bit 1: start-of-data
		for s := range n.States {
			k := n.States[s].Start
			switch k {
			case automata.StartNone:
			case automata.StartAllInput, automata.StartOfData:
				if int(s) < len(n.NFAOf) {
					if nfa := int(n.NFAOf[s]); nfa >= 0 && nfa < len(kinds) {
						if k == automata.StartAllInput {
							kinds[nfa] |= 1
						} else {
							kinds[nfa] |= 2
						}
					}
				}
			default:
				out = append(out, p.stateDiag(a, Error, automata.StateID(s),
					fmt.Sprintf("invalid start kind %d", uint8(k)),
					"use StartNone, StartAllInput or StartOfData"))
			}
		}
		for i, b := range kinds {
			if b == 3 {
				out = append(out, nfaDiag(a, Warning, i,
					"NFA mixes all-input and start-of-data start states; its matches depend on position in a way profiling cannot see",
					"split the NFA or unify its start kinds"))
			}
		}
		return out
	},
}

var analyzerCapacity = &Analyzer{
	Code:    "AP009",
	Name:    "capacity",
	Doc:     "an NFA holds more states than an AP half-core; NFA-granularity batching cannot place it",
	Default: Error,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		cap := p.Opts.Capacity
		if cap <= 0 {
			return nil
		}
		var out []Diagnostic
		for i := 0; i < p.Net.NumNFAs(); i++ {
			if sz := p.Net.NFASize(i); sz > cap {
				out = append(out, nfaDiag(a, Error, i,
					fmt.Sprintf("NFA has %d states, exceeding half-core capacity %d", sz, cap),
					"split the pattern or raise -capacity"))
			}
		}
		return out
	},
}

var analyzerRedundant = &Analyzer{
	Code:       "AP010",
	Name:       "redundant-state",
	Doc:        "two non-reporting states are structurally identical (same symbol set, start kind, predecessors and successors) — bisimulation-lite duplicates",
	Default:    Info,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		n := p.Net
		topo := p.Topo()
		// Key each non-reporting state by (match, start, sorted preds,
		// sorted succs); states sharing a key are enabled on exactly the
		// same cycles and activate exactly the same targets, so one STE
		// could stand for all of them. This is one refinement step of the
		// full backward bisimulation in rewrite.Rewrite — precise
		// (no false positives) but not exhaustive.
		type key struct {
			match      symset.Set
			start      automata.StartKind
			pred, succ string
		}
		idList := func(ids []automata.StateID) string {
			s := append([]automata.StateID(nil), ids...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			b := make([]byte, 0, 4*len(s))
			var last automata.StateID = automata.None
			for _, v := range s {
				if v == last {
					continue
				}
				last = v
				b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			return string(b)
		}
		first := make(map[key]automata.StateID)
		var out []Diagnostic
		for s := range n.States {
			st := &n.States[s]
			if st.Report {
				continue
			}
			k := key{match: st.Match, start: st.Start,
				pred: idList(topo.Preds(automata.StateID(s))), succ: idList(st.Succ)}
			if f, dup := first[k]; dup {
				out = append(out, p.stateDiag(a, Info, automata.StateID(s),
					fmt.Sprintf("structurally identical to state %d", f),
					"run apopt (merges equivalent states)"))
			} else {
				first[k] = automata.StateID(s)
			}
		}
		return out
	},
}
