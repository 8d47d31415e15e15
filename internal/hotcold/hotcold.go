// Package hotcold implements the paper's software contribution (Sections
// III and IV): profiling-based hot/cold state prediction, the
// topological-order partitioning of each NFA at its partition layer k_U,
// intermediate reporting states for mis-prediction handling, the
// batch-filling optimization, and the analytic performance model.
package hotcold

import (
	"fmt"
	"math"
	"sort"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/graph"
	"sparseap/internal/metrics"
	"sparseap/internal/sim"
)

// Profile runs the network over a profiling input and returns the
// ever-enabled (hot) state set — the compile-time step of Section IV-A.
func Profile(net *automata.Network, input []byte) *bitvec.Vec {
	return sim.HotStates(net, input)
}

// Quality compares a predicted hot set against the actual hot set under the
// testing input, treating hot as positive (Section IV-A).
func Quality(predicted, actual *bitvec.Vec) metrics.Confusion {
	var c metrics.Confusion
	n := actual.Len()
	for s := 0; s < n; s++ {
		switch {
		case predicted.Get(s) && actual.Get(s):
			c.TP++
		case predicted.Get(s) && !actual.Get(s):
			c.FP++
		case !predicted.Get(s) && actual.Get(s):
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// PartitionLayers computes k_U for every NFA: the maximum topological order
// of any profiled-hot state in the NFA (Section IV-B). Every NFA has at
// least one hot state (its start states are enabled by definition), so
// k_U >= 1.
func PartitionLayers(net *automata.Network, topo *graph.Topo, hot *bitvec.Vec) []int32 {
	k := make([]int32, net.NumNFAs())
	hot.ForEach(func(s int) {
		nfa := net.NFAOf[s]
		if topo.Order[s] > k[nfa] {
			k[nfa] = topo.Order[s]
		}
	})
	for i := range k {
		if k[i] == 0 {
			k[i] = 1 // defensive: never strand an NFA without its start layer
		}
	}
	return k
}

// PredictedHot returns the predicted hot set for the given partition
// layers: state s is predicted hot iff topoorder(s) <= k of its NFA.
func PredictedHot(net *automata.Network, topo *graph.Topo, k []int32) *bitvec.Vec {
	v := bitvec.New(net.Len())
	for s := 0; s < net.Len(); s++ {
		if topo.Order[s] <= k[net.NFAOf[s]] {
			v.Set(s)
		}
	}
	return v
}

// Partition is the compiled artifact of Section IV-C: the original network
// split into a hot network (predicted hot states plus intermediate
// reporting states) and a cold network (predicted cold states), with the
// translation table connecting them.
type Partition struct {
	// Net is the original network.
	Net *automata.Network
	// Topo is the topological analysis the partition was derived from.
	Topo *graph.Topo
	// K[i] is the partition layer of NFA i.
	K []int32
	// PredHot marks the predicted hot original states.
	PredHot *bitvec.Vec

	// Hot is the network configured in BaseAP mode: hot fragments plus
	// one intermediate reporting state per distinct cut-edge target.
	Hot *automata.Network
	// HotOrig maps hot-network IDs to original IDs; intermediate
	// reporting states map to automata.None.
	HotOrig []automata.StateID
	// Intermediate maps a hot-network intermediate reporting state to
	// the original (cold) state it stands for — the translation table of
	// Figure 7.
	Intermediate map[automata.StateID]automata.StateID

	// Cold is the network configured in SpAP mode (may be empty).
	Cold *automata.Network
	// ColdOrig maps cold-network IDs to original IDs.
	ColdOrig []automata.StateID
	// ColdID maps original IDs to cold-network IDs (None when hot).
	ColdID []automata.StateID

	// NumIntermediate counts the added intermediate reporting states.
	NumIntermediate int
}

// Options configures partition construction.
type Options struct {
	// Capacity, when positive, enables the Section IV-B optimization:
	// partition layers are incremented to fill each BaseAP batch up to
	// this capacity.
	Capacity int
}

// Build constructs the partition of net at the given layers. The layers
// slice is not retained; the partition stores its own (possibly extended)
// copy.
func Build(net *automata.Network, topo *graph.Topo, k []int32, opts Options) (*Partition, error) {
	if len(k) != net.NumNFAs() {
		return nil, fmt.Errorf("hotcold: %d layers for %d NFAs", len(k), net.NumNFAs())
	}
	kk := append([]int32(nil), k...)
	if opts.Capacity > 0 {
		fillBatches(net, topo, kk, opts.Capacity)
	}
	p := &Partition{Net: net, Topo: topo, K: kk}
	p.PredHot = PredictedHot(net, topo, kk)
	p.buildNetworks()
	return p, nil
}

// BuildFromProfile is the end-to-end compile flow: profile, choose layers,
// and build the partition.
func BuildFromProfile(net *automata.Network, profInput []byte, opts Options) (*Partition, error) {
	topo := graph.TopoOrder(net)
	hot := Profile(net, profInput)
	k := PartitionLayers(net, topo, hot)
	return Build(net, topo, k, opts)
}

// buildNetworks materializes Hot (with intermediates) and Cold. A first
// pass numbers every state and counts states and edges, so the second
// fills arrays allocated at their exact size: each successor list is a
// capacity-capped window of one array per sub-network, so appending to
// one state's list can never overwrite the next state's.
func (p *Partition) buildNetworks() {
	net := p.Net
	hotNet := &automata.Network{Offsets: make([]automata.StateID, 1, net.NumNFAs()+1)}
	coldNet := &automata.Network{Offsets: make([]automata.StateID, 1, net.NumNFAs()+1)}
	// hotID[g] is g's hot-network ID when g is hot, the ID of the
	// intermediate reporting state standing for g when g is the target of
	// a cut edge, and None otherwise.
	hotID := make([]automata.StateID, net.Len())
	p.ColdID = make([]automata.StateID, net.Len())
	var nHot, nCold, hotEdges, coldEdges int
	for nfa := 0; nfa < net.NumNFAs(); nfa++ {
		lo, hi := net.NFAStates(nfa)
		hotFirst, coldFirst := nHot, nCold
		for g := lo; g < hi; g++ {
			if p.PredHot.Get(int(g)) {
				hotID[g], p.ColdID[g] = automata.StateID(nHot), automata.None
				nHot++
				hotEdges += len(net.States[g].Succ)
			} else {
				hotID[g], p.ColdID[g] = automata.None, automata.StateID(nCold)
				nCold++
				coldEdges += len(net.States[g].Succ)
			}
		}
		// Cut edges (hot source, cold target: the cut is unidirectional)
		// get one intermediate reporting state per distinct target, after
		// the NFA's hot states. A hot state keeps its out-degree: its cut
		// edges are redirected, not added.
		for g := lo; g < hi; g++ {
			if !p.PredHot.Get(int(g)) {
				continue
			}
			for _, v := range net.States[g].Succ {
				if hotID[v] == automata.None {
					hotID[v] = automata.StateID(nHot)
					nHot++
					p.NumIntermediate++
				}
			}
		}
		if nHot > hotFirst {
			hotNet.Offsets = append(hotNet.Offsets, automata.StateID(nHot))
		}
		if nCold > coldFirst {
			coldNet.Offsets = append(coldNet.Offsets, automata.StateID(nCold))
		}
	}

	hotNet.States = make([]automata.State, nHot)
	coldNet.States = make([]automata.State, nCold)
	p.HotOrig = make([]automata.StateID, nHot)
	p.ColdOrig = make([]automata.StateID, nCold)
	p.Intermediate = make(map[automata.StateID]automata.StateID, p.NumIntermediate)
	hotSucc := make([]automata.StateID, hotEdges)
	coldSucc := make([]automata.StateID, coldEdges)
	for g := range net.States {
		s := net.States[g]
		if p.PredHot.Get(g) {
			// Hot targets and cut targets alike are found through hotID.
			s.Succ, hotSucc = window(s.Succ, hotSucc, hotID)
			hotNet.States[hotID[g]] = s
			p.HotOrig[hotID[g]] = automata.StateID(g)
			continue
		}
		s.Succ, coldSucc = window(s.Succ, coldSucc, p.ColdID)
		coldNet.States[p.ColdID[g]] = s
		p.ColdOrig[p.ColdID[g]] = automata.StateID(g)
		if iv := hotID[g]; iv != automata.None {
			hotNet.States[iv] = automata.State{
				Match:  s.Match,
				Report: true,
				Name:   "im:" + s.Name,
			}
			p.HotOrig[iv] = automata.None
			p.Intermediate[iv] = automata.StateID(g)
		}
	}
	hotNet.NFAOf = nfaOf(hotNet.Offsets)
	coldNet.NFAOf = nfaOf(coldNet.Offsets)
	p.Hot = hotNet
	p.Cold = coldNet
}

// window translates succ through id into the front of free and returns the
// translated list, capped at its length, and the rest of free. An empty
// list stays nil.
func window(succ, free, id []automata.StateID) (list, rest []automata.StateID) {
	if len(succ) == 0 {
		return nil, free
	}
	list = free[:len(succ):len(succ)]
	for i, v := range succ {
		list[i] = id[v]
	}
	return list, free[len(succ):]
}

// nfaOf expands a network's Offsets into its NFAOf table.
func nfaOf(offsets []automata.StateID) []int32 {
	nfa := make([]int32, offsets[len(offsets)-1])
	for i := 1; i < len(offsets); i++ {
		for s := offsets[i-1]; s < offsets[i]; s++ {
			nfa[s] = int32(i - 1)
		}
	}
	return nfa
}

// fillBatches implements the optimization of Section IV-B: after packing
// predicted hot fragments into batches, each batch's slack is consumed by
// incrementing the partition layers of its NFAs, pulling subsequent layers
// of predicted cold states in.
//
// Fragment sizes are exact BaseAP-mode footprints: the states with
// topological order <= k plus the intermediate reporting states the cut at
// k introduces — otherwise filled batches overshoot the capacity once the
// intermediates are added and BaseAP mode needs an extra configuration.
func fillBatches(net *automata.Network, topo *graph.Topo, k []int32, capacity int) {
	// Per-NFA layer tables, so an increment's cost is O(1). Each table is
	// one flat array; NFA u's window in it starts at base[u] and has a slot
	// per layer plus one.
	nu := net.NumNFAs()
	base := make([]int, nu+1)
	for u := 0; u < nu; u++ {
		base[u+1] = base[u] + int(topo.MaxPerNFA[u]) + 1
	}
	cum := make([]int32, base[nu])   // cum[base[u]+d] = #states at order <= d
	inter := make([]int32, base[nu]) // inter[base[u]+d-1] = #intermediates when k=d
	for s := 0; s < net.Len(); s++ {
		cum[base[net.NFAOf[s]]+int(topo.Order[s])]++
	}
	// A state v needs an intermediate exactly when some predecessor sits at
	// or below the cut while v is above it: for k in [minPredOrder(v),
	// order(v)-1]. Accumulate as difference arrays, then prefix-sum both
	// tables window by window.
	for v := 0; v < net.Len(); v++ {
		ov := topo.Order[v]
		mn := int32(-1)
		for _, p := range topo.Preds(automata.StateID(v)) {
			if op := topo.Order[p]; op < ov && (mn == -1 || op < mn) {
				mn = op
			}
		}
		if mn == -1 {
			continue
		}
		b := base[net.NFAOf[v]]
		inter[b+int(mn)-1]++
		inter[b+int(ov)-1]--
	}
	for u := 0; u < nu; u++ {
		for i := base[u] + 1; i < base[u+1]; i++ {
			cum[i] += cum[i-1]
			inter[i] += inter[i-1]
		}
	}
	// frag(u, d) = states in layers 1..d plus intermediates at cut d.
	frag := func(u int, d int32) int {
		f := int(cum[base[u]+int(d)])
		if d < topo.MaxPerNFA[u] { // no intermediates at the full depth
			f += int(inter[base[u]+int(d)-1])
		}
		return f
	}
	size := make([]int, net.NumNFAs())
	for u := range size {
		size[u] = frag(u, k[u])
	}
	// First-fit-decreasing packing of the fragments.
	order := make([]int, net.NumNFAs())
	for i := range order {
		order[i] = i
	}
	// Stable, so equal-sized fragments keep NFA order and K is reproducible.
	sort.SliceStable(order, func(i, j int) bool { return size[order[i]] > size[order[j]] })
	type batch struct {
		nfas []int
		used int
	}
	var batches []batch
	for _, u := range order {
		if size[u] > capacity {
			// A fragment can exceed capacity only via a giant SCC; it
			// gets its own batch and is handled by the executor.
			batches = append(batches, batch{nfas: []int{u}, used: size[u]})
			continue
		}
		placed := false
		for bi := range batches {
			if batches[bi].used+size[u] <= capacity {
				batches[bi].nfas = append(batches[bi].nfas, u)
				batches[bi].used += size[u]
				placed = true
				break
			}
		}
		if !placed {
			batches = append(batches, batch{nfas: []int{u}, used: size[u]})
		}
	}
	// Grow layers round-robin within each batch while slack remains.
	for bi := range batches {
		b := &batches[bi]
		progress := true
		for progress {
			progress = false
			for _, u := range b.nfas {
				if k[u] >= topo.MaxPerNFA[u] {
					continue
				}
				delta := frag(u, k[u]+1) - frag(u, k[u])
				if delta <= 0 {
					k[u]++
					progress = true
					continue
				}
				if b.used+delta > capacity {
					continue
				}
				k[u]++
				b.used += delta
				progress = true
			}
		}
	}
}

// ResourceSaving returns p = (states not configured in BaseAP mode)/S —
// Figure 10b. Intermediate states are excluded from the numerator; they are
// reported separately (Figure 12).
func (p *Partition) ResourceSaving() float64 {
	s := p.Net.Len()
	return float64(s-p.PredHot.Count()) / float64(s)
}

// ReportingStates returns the number of original reporting states in the
// hot network and the number of intermediate reporting states (Figure 12).
func (p *Partition) ReportingStates() (original, intermediate int) {
	for i, s := range p.Hot.States {
		if !s.Report {
			continue
		}
		if p.HotOrig[i] == automata.None {
			intermediate++
		} else {
			original++
		}
	}
	return original, intermediate
}

// ConstrainedStates measures the Figure 8 quantity: the fraction of all
// states that a *perfect* topological-order partition (oracle hot set)
// configures on the AP even though they are truly cold — the price of the
// SCC and layer-granularity constraints versus cutting arbitrary edges.
func ConstrainedStates(net *automata.Network, topo *graph.Topo, oracleHot *bitvec.Vec) float64 {
	k := PartitionLayers(net, topo, oracleHot)
	pred := PredictedHot(net, topo, k)
	constrained := 0
	for s := 0; s < net.Len(); s++ {
		if pred.Get(s) && !oracleHot.Get(s) {
			constrained++
		}
	}
	return float64(constrained) / float64(net.Len())
}

// ModelSpeedup is the analytic model of Section III-C: the batch-count
// ratio ceil(S/C) / ceil((1-p)S/C) for resource saving p.
func ModelSpeedup(states, capacity int, p float64) float64 {
	if states <= 0 || capacity <= 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	base := math.Ceil(float64(states) / float64(capacity))
	kept := math.Ceil((1 - p) * float64(states) / float64(capacity))
	if kept == 0 {
		kept = 1
	}
	return base / kept
}
