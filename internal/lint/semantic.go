// Semantic analyzers AP017 and AP019–AP021: findings derived from the
// dataflow fixpoint facts (internal/dataflow), as opposed to the purely
// structural checks of AP001–AP010. AP018 (subsumed sibling) and AP022
// (oversized NFA that fits after a rewrite) are retired and never reused:
// what a rewrite would save is the rewriter's to report (aplint -diff,
// apopt -diff), so a lint run never executes it. Where a structural
// analyzer already owns a finding, the semantic one excludes it: AP017
// skips what AP005 flags (structurally unreachable) and what AP003 flags
// (empty symbol set), reporting only states that look fine syntactically
// but provably never fire.
package lint

import (
	"fmt"

	"sparseap/internal/automata"
)

func init() {
	Register(analyzerSemUnreachable)
	Register(analyzerDeadReport)
	Register(analyzerSymbolEmptyEdge)
	Register(analyzerCutCost)
}

var analyzerSemUnreachable = &Analyzer{
	Code:       "AP017",
	Name:       "sem-unreachable",
	Doc:        "a state is structurally reachable but provably never fires under the assumed alphabet (no enabling chain carries a matching symbol)",
	Default:    Warning,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		facts := p.Facts()
		reach := p.Reach()
		var out []Diagnostic
		for s := 0; s < p.Net.Len(); s++ {
			id := automata.StateID(s)
			st := &p.Net.States[s]
			if st.Report || !reach[s] || !facts.Unreachable(id) {
				continue // reporting states are AP019's; AP005 owns structural
			}
			if st.Match.Intersect(facts.Alphabet).IsEmpty() {
				continue // AP003 (or an alphabet-empty match) owns this state
			}
			out = append(out, p.stateDiag(a, a.Default, id,
				"state can never fire: no predecessor can deliver a matching symbol under the assumed alphabet",
				"delete it with aplint -fix"))
		}
		return out
	},
}

var analyzerDeadReport = &Analyzer{
	Code:       "AP019",
	Name:       "dead-reporting-state",
	Doc:        "a reporting state provably never fires under the assumed alphabet, so the report it stands for can never be emitted",
	Default:    Warning,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		facts := p.Facts()
		reach := p.Reach()
		var out []Diagnostic
		for s := 0; s < p.Net.Len(); s++ {
			id := automata.StateID(s)
			st := &p.Net.States[s]
			if !st.Report || !reach[s] || !facts.Unreachable(id) {
				continue
			}
			if st.Match.Intersect(facts.Alphabet).IsEmpty() {
				continue // AP003 owns empty symbol sets
			}
			out = append(out, p.stateDiag(a, a.Default, id,
				"reporting state can never fire: its report is unsatisfiable under the assumed alphabet",
				"check the pattern, or delete it with aplint -fix"))
		}
		return out
	},
}

var analyzerSymbolEmptyEdge = &Analyzer{
	Code:       "AP020",
	Name:       "symbol-empty-transition",
	Doc:        "a transition targets a state whose symbol set is disjoint from the assumed alphabet; the edge can never activate its target",
	Default:    Warning,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		facts := p.Facts()
		var out []Diagnostic
		for u := 0; u < p.Net.Len(); u++ {
			if facts.Unreachable(automata.StateID(u)) {
				continue // the source never fires; AP017/AP005 own it
			}
			seen := make(map[automata.StateID]bool)
			for _, v := range p.Net.States[u].Succ {
				st := &p.Net.States[v]
				if st.Match.IsEmpty() || !st.Match.Intersect(facts.Alphabet).IsEmpty() {
					continue // empty matches are AP003's; firable targets are fine
				}
				if seen[v] {
					continue
				}
				seen[v] = true
				out = append(out, p.stateDiag(a, a.Default, automata.StateID(u),
					fmt.Sprintf("transition to state %d is symbol-empty: the target matches no symbol of the assumed alphabet", v),
					"prune it with aplint -fix"))
			}
		}
		return out
	},
}

var analyzerCutCost = &Analyzer{
	Code:       "AP021",
	Name:       "cut-cost",
	Doc:        "estimated cheapest layer cut of an oversized NFA, from the forward fire-set facts: the expected boundary crossings per symbol any partition of it must pay",
	Default:    Info,
	NeedsSound: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		if p.Opts.Capacity <= 0 {
			return nil
		}
		facts := p.Facts()
		topo := p.Topo()
		var out []Diagnostic
		for i := 0; i < p.Net.NumNFAs(); i++ {
			if p.Net.NFASize(i) <= p.Opts.Capacity {
				continue // fits whole; no cut needed (AP009 flags the rest)
			}
			maxLayer := int(topo.MaxPerNFA[i])
			if maxLayer < 2 {
				continue // single layer: no cut exists
			}
			// cost(ℓ) = Σ FireProb(u) over edges u→v with
			// order(u) < ℓ ≤ order(v); accumulate each edge onto its
			// layer range with a difference array, then prefix-sum.
			diff := make([]float64, maxLayer+2)
			lo, hi := p.Net.NFAStates(i)
			for u := lo; u < hi; u++ {
				pu := facts.FireProb(u)
				if pu == 0 {
					continue
				}
				for _, v := range p.Net.States[u].Succ {
					l1, l2 := int(topo.Order[u])+1, int(topo.Order[v])
					if l1 > l2 {
						continue // back edge: crosses no forward cut
					}
					diff[l1] += pu
					diff[l2+1] -= pu
				}
			}
			best := -1.0
			bestLayer := 0
			cost := 0.0
			for l := 2; l <= maxLayer; l++ { // cuts strictly inside the NFA
				cost += diff[l]
				if best < 0 || cost < best {
					best, bestLayer = cost, l
				}
			}
			if best < 0 {
				continue
			}
			out = append(out, nfaDiag(a, a.Default, i,
				fmt.Sprintf("NFA exceeds capacity %d (%d states); cheapest layer cut (before layer %d) costs ≈%.4f expected crossings/symbol",
					p.Opts.Capacity, p.Net.NFASize(i), bestLayer, best), ""))
		}
		return out
	},
}
