package lint

import (
	"fmt"
	"sort"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/graph"
	"sparseap/internal/symset"
)

// PartitionInfo is the lint-facing view of a hot/cold partition (Section
// IV-C). It mirrors the fields of hotcold.Partition; hotcold constructs it
// (Partition.LintInfo) because this package cannot import hotcold without
// creating an import cycle — hotcold.CheckInvariants is a thin wrapper over
// RunPartition.
type PartitionInfo struct {
	// Net is the original, unpartitioned network.
	Net *automata.Network
	// Topo is the topological analysis the partition was derived from.
	Topo *graph.Topo
	// PredHot marks the predicted-hot original states.
	PredHot *bitvec.Vec
	// Hot is the BaseAP-mode network (hot fragments + intermediates).
	Hot *automata.Network
	// HotOrig maps hot-network IDs to original IDs (None = intermediate).
	HotOrig []automata.StateID
	// Intermediate maps hot-network intermediate reporting states to the
	// original cold state each stands for.
	Intermediate map[automata.StateID]automata.StateID
	// Cold is the SpAP-mode network.
	Cold *automata.Network
	// ColdOrig maps cold-network IDs to original IDs.
	ColdOrig []automata.StateID
	// ColdID maps original IDs to cold-network IDs (None when hot).
	ColdID []automata.StateID
}

// DefaultReportBudget is the intermediate-report density — reports per
// input symbol — above which a partition is considered storm-prone: PEN's
// measured density of ~2.6 sits orders of magnitude above it while every
// healthy suite application stays below ~0.06. It is the shared threshold
// of the AP016 analyzer (static prediction) and the spap runtime guard
// (dynamic watchdog); lint owns it so both layers agree without an import
// cycle.
const DefaultReportBudget = 0.15

// This file registers the partition analyzers (AP011–AP015 and the AP016
// report-density heuristic), which verify the structural guarantees of
// Section IV-C that the BaseAP/SpAP executor relies on.

func init() {
	Register(analyzerColdHotEdge)
	Register(analyzerSCCSplit)
	Register(analyzerColdStart)
	Register(analyzerIntermediate)
	Register(analyzerFragmentMaps)
	Register(analyzerReportDensity)
}

// analyzerReportDensity (AP016) statically predicts a partition's
// intermediate-report density and warns when it exceeds the report budget
// the runtime guard enforces dynamically. Profiling-input replay cannot
// predict storms — by hot-set monotonicity the profiling input produces
// zero intermediate reports — so the heuristic is structural: activation
// probability is propagated through the hot network in topological order
// under a uniform-symbol model over the live alphabet (the union of the
// hot states' match sets; symbols no state matches cannot drive
// activations and would only dilute the estimate):
//
//	p_act(s) = p_en(s) * |Match(s)| / |alphabet|
//	p_en(s)  = 1 for start states, else min(1, sum of parent p_act)
//
// The predicted density is the sum of p_act over the intermediate
// reporting states, in expected reports per input symbol. Storm-prone
// partitions (PEN-like cores whose cut sits below a high-fanout choke
// point) land orders of magnitude above the budget; healthy suite
// partitions land well below it.
var analyzerReportDensity = &Analyzer{
	Code:           "AP016",
	Name:           "report-density",
	Doc:            "the predicted intermediate-report density exceeds the report budget: the partition is storm-prone and SpAP-mode enable stalls may erase the speedup",
	Default:        Warning,
	NeedsPartition: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		pi := p.Part
		var alphabet symset.Set
		for i := range pi.Hot.States {
			alphabet = alphabet.Union(pi.Hot.States[i].Match)
		}
		live := alphabet.Len()
		if live == 0 {
			return nil
		}
		n := pi.Hot.Len()
		topo := graph.TopoOrder(pi.Hot)
		order := make([]automata.StateID, n)
		for i := range order {
			order[i] = automata.StateID(i)
		}
		sort.Slice(order, func(i, j int) bool {
			return topo.Order[order[i]] < topo.Order[order[j]]
		})
		enAcc := make([]float64, n) // sum of parent p_act, before capping
		pAct := make([]float64, n)
		for _, s := range order {
			st := pi.Hot.States[s]
			pEn := enAcc[s]
			if pEn > 1 {
				pEn = 1
			}
			if st.Start != automata.StartNone {
				pEn = 1
			}
			pAct[s] = pEn * float64(st.Match.Len()) / float64(live)
			for _, t := range st.Succ {
				enAcc[t] += pAct[s]
			}
		}
		density := 0.0
		for iv := range pi.Intermediate {
			density += pAct[iv]
		}
		if density <= DefaultReportBudget {
			return nil
		}
		return []Diagnostic{{Code: a.Code, Severity: Warning,
			NFA: -1, State: automata.None,
			Msg: fmt.Sprintf("predicted intermediate-report density %.3f reports/symbol exceeds the %.2f budget (%d intermediates, %d-symbol live alphabet)",
				density, DefaultReportBudget, len(pi.Intermediate), live),
			Fix: "widen the partition layer k, raise the profiling fraction, or execute under the adaptive guard (RunGuarded)"}}
	},
}

var analyzerColdHotEdge = &Analyzer{
	Code:           "AP011",
	Name:           "cold-hot-edge",
	Doc:            "an original edge runs from a predicted-cold state to a predicted-hot one, violating the unidirectional cut",
	Default:        Error,
	NeedsPartition: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		pi := p.Part
		for u := 0; u < pi.Net.Len(); u++ {
			if pi.PredHot.Get(u) {
				continue
			}
			for _, v := range pi.Net.States[u].Succ {
				if pi.PredHot.Get(int(v)) {
					out = append(out, p.stateDiag(a, Error, automata.StateID(u),
						fmt.Sprintf("cold->hot edge %d->%d crosses the partition cut backwards", u, v),
						"partition at topological layers so the cut is unidirectional"))
				}
			}
		}
		return out
	},
}

var analyzerSCCSplit = &Analyzer{
	Code:           "AP012",
	Name:           "scc-split",
	Doc:            "a strongly connected component is split across the hot/cold boundary; SCCs must land on one side atomically",
	Default:        Error,
	NeedsPartition: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		pi := p.Part
		scc := pi.Topo.SCC
		side := make(map[int32]bool)
		seen := make(map[int32]bool)
		flagged := make(map[int32]bool)
		for s := 0; s < pi.Net.Len(); s++ {
			c := scc.Comp[s]
			hot := pi.PredHot.Get(s)
			switch {
			case !seen[c]:
				seen[c] = true
				side[c] = hot
			case side[c] != hot && !flagged[c]:
				flagged[c] = true
				out = append(out, p.stateDiag(a, Error, automata.StateID(s),
					fmt.Sprintf("SCC %d (size %d) is split across the partition", c, scc.Size[c]),
					"cut at a topological layer of the SCC condensation"))
			}
		}
		return out
	},
}

var analyzerColdStart = &Analyzer{
	Code:           "AP013",
	Name:           "cold-start",
	Doc:            "a start state is predicted cold: the cold network would be self-enabled, which the SpAP jump operation forbids",
	Default:        Error,
	NeedsPartition: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		pi := p.Part
		for s := 0; s < pi.Net.Len(); s++ {
			if pi.Net.States[s].Start != automata.StartNone && !pi.PredHot.Get(s) {
				out = append(out, p.stateDiag(a, Error, automata.StateID(s),
					"start state predicted cold",
					"start states are always enabled; keep every layer-1 state hot"))
			}
		}
		// Defense in depth: the materialized cold network must agree.
		for c := range pi.Cold.States {
			if pi.Cold.States[c].Start != automata.StartNone {
				d := Diagnostic{Code: a.Code, Severity: Error,
					NFA: -1, State: automata.None,
					Msg: fmt.Sprintf("cold-network state %d is self-enabled", c)}
				if c < len(pi.ColdOrig) {
					d.Msg += fmt.Sprintf(" (original state %d)", pi.ColdOrig[c])
				}
				out = append(out, d)
			}
		}
		return out
	},
}

var analyzerIntermediate = &Analyzer{
	Code:           "AP014",
	Name:           "intermediate",
	Doc:            "an intermediate reporting state is inconsistent with the cold target it stands for (symbol set, report flag, successors, or translation)",
	Default:        Error,
	NeedsPartition: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		pi := p.Part
		bad := func(iv automata.StateID, msg string) {
			out = append(out, Diagnostic{Code: a.Code, Severity: Error,
				NFA: -1, State: automata.None,
				Msg: fmt.Sprintf("intermediate state %d %s", iv, msg)})
		}
		for iv, target := range pi.Intermediate {
			if int(iv) >= pi.Hot.Len() {
				bad(iv, fmt.Sprintf("outside the hot network (%d states)", pi.Hot.Len()))
				continue
			}
			st := pi.Hot.States[iv]
			if !st.Report {
				bad(iv, "is not a reporting state")
			}
			if len(st.Succ) != 0 {
				bad(iv, fmt.Sprintf("has %d successors; intermediates must be sinks", len(st.Succ)))
			}
			if int(target) >= pi.Net.Len() {
				bad(iv, fmt.Sprintf("targets state %d outside the network", target))
				continue
			}
			if !st.Match.Equal(pi.Net.States[target].Match) {
				bad(iv, fmt.Sprintf("symbol set %s differs from target %d's %s",
					st.Match, target, pi.Net.States[target].Match))
			}
			if pi.PredHot.Get(int(target)) {
				bad(iv, fmt.Sprintf("targets predicted-hot state %d; intermediates stand for cold states", target))
			} else if pi.ColdID[target] == automata.None {
				bad(iv, fmt.Sprintf("target %d is missing from the cold fragment", target))
			}
		}
		return out
	},
}

var analyzerFragmentMaps = &Analyzer{
	Code:           "AP015",
	Name:           "fragment-maps",
	Doc:            "the hot/cold fragment maps (HotOrig, ColdOrig, ColdID) are not mutually consistent bijections",
	Default:        Error,
	NeedsPartition: true,
	Run: func(p *Pass, a *Analyzer) []Diagnostic {
		var out []Diagnostic
		pi := p.Part
		netDiag := func(msg string) {
			out = append(out, Diagnostic{Code: a.Code, Severity: Error,
				NFA: -1, State: automata.None, Msg: msg})
		}
		if len(pi.HotOrig) != pi.Hot.Len() {
			netDiag(fmt.Sprintf("HotOrig has %d entries for %d hot states", len(pi.HotOrig), pi.Hot.Len()))
			return out
		}
		if len(pi.ColdOrig) != pi.Cold.Len() {
			netDiag(fmt.Sprintf("ColdOrig has %d entries for %d cold states", len(pi.ColdOrig), pi.Cold.Len()))
			return out
		}
		if len(pi.ColdID) != pi.Net.Len() {
			netDiag(fmt.Sprintf("ColdID has %d entries for %d original states", len(pi.ColdID), pi.Net.Len()))
			return out
		}
		hotCount := 0
		for h, g := range pi.HotOrig {
			if g == automata.None {
				if _, ok := pi.Intermediate[automata.StateID(h)]; !ok {
					netDiag(fmt.Sprintf("hot state %d has no original and no translation entry", h))
				}
				continue
			}
			hotCount++
			if int(g) >= pi.Net.Len() {
				netDiag(fmt.Sprintf("hot state %d maps to out-of-range original %d", h, g))
				continue
			}
			if !pi.PredHot.Get(int(g)) {
				netDiag(fmt.Sprintf("hot fragment contains predicted-cold original %d", g))
			}
		}
		if hotCount != pi.PredHot.Count() {
			netDiag(fmt.Sprintf("hot fragment has %d originals, but %d states are predicted hot",
				hotCount, pi.PredHot.Count()))
		}
		for c, g := range pi.ColdOrig {
			if int(g) >= pi.Net.Len() {
				netDiag(fmt.Sprintf("cold state %d maps to out-of-range original %d", c, g))
				continue
			}
			if pi.PredHot.Get(int(g)) {
				netDiag(fmt.Sprintf("cold fragment contains predicted-hot original %d", g))
			}
			if pi.ColdID[g] != automata.StateID(c) {
				netDiag(fmt.Sprintf("ColdID inverse broken: ColdID[%d]=%d, want %d", g, pi.ColdID[g], c))
			}
		}
		return out
	},
}
