// Pairwise simultaneity: the anti-chain refinement of the frontier bound.
//
// The per-symbol sets F_b know which states *some* input can enable, but
// not which states one input can enable *together*. Within one NFA that
// is answerable exactly and cheaply: a pair (u, v) is simultaneously
// enabled at some cycle iff both are start-of-data states (cycle 0), or
// predecessors p_u, p_v exist that activate in the same cycle on the
// same symbol — p_u = p_v, or b ∈ Fire[p_u] ∩ Fire[p_v] with (p_u, p_v)
// itself simultaneously enabled (all-input starts are enabled in every
// cycle, so they pair with anything enabled). That is reachability in
// the two-state product automaton, computed by a worklist over the
// pair lattice.
//
// Any concrete frontier restricted to one NFA is then a clique in the
// simultaneity graph, so its size is bounded by the graph's degeneracy
// plus one — the anti-chain cap C_i. Summing min(|F_b ∩ NFA_i|, C_i)
// over NFAs tightens the per-symbol count wherever states are mutually
// exclusive (mismatch-counting automata, sliding alignments) in a way
// no per-state analysis can see.
//
// Pairs never cross NFAs (cross-NFA exclusivity would need a quadratic
// global product; the per-NFA sum is sound without it), and NFAs larger
// than maxPairStates skip the refinement (their cap is their size).
package worstcase

import (
	"math/bits"

	"sparseap/internal/automata"
)

// maxPairStates is the largest NFA (in states) the pairwise
// simultaneity fixpoint runs on. The suite's largest NFA is ~2.1k
// states (Snort_L, CAV4k groups); the quadratic pair bitmap for 4096
// states is 2 MiB — past that the refinement is skipped, not the
// analysis: a larger NFA keeps its unrefined cap, never unsound, only
// looser.
const maxPairStates = 4096

// pairAnalysis computes CliqueCap[i] for every NFA: a sound upper bound
// on the number of NFA-i states any single cycle can have enabled at
// once. NFAs above maxPairStates (or with no trackable states) get their
// trackable size — the refinement never loosens anything.
func (a *Analysis) pairAnalysis() {
	net := a.Net
	a.CliqueCap = make([]int, net.NumNFAs())
	// Scratch reused across NFAs: the m×m bitmap, the packed u*m+v
	// worklist, the NFA's tracked successors as CSR over its local IDs,
	// its seeds and the degeneracy pass' bucket queue.
	var (
		simul      []uint64
		queue      []int32
		succStart  []int32
		succFlat   []automata.StateID
		sod, allIn []automata.StateID
		peel       peeler
	)
	for i := range a.CliqueCap {
		lo, hi := net.NFAStates(i)
		m := int(hi - lo)
		trackable := 0
		for s := lo; s < hi; s++ {
			if net.States[s].Start != automata.StartAllInput {
				trackable++
			}
		}
		a.CliqueCap[i] = trackable
		if m < 2 || m > maxPairStates || trackable < 2 {
			continue
		}
		words := (m*m + 63) / 64
		if cap(simul) < words {
			simul = make([]uint64, words)
		}
		simul = simul[:words]
		clearWords(simul)
		queue = queue[:0]

		mark := func(u, v automata.StateID) {
			// Track only distinct same-NFA pairs of frontier-trackable
			// states; store both orientations so rows double as
			// adjacency for the degeneracy pass.
			if u == v || v < lo || v >= hi || u < lo || u >= hi {
				return
			}
			lu, lv := int(u-lo), int(v-lo)
			if lu > lv {
				lu, lv = lv, lu
			}
			k := lu*m + lv
			if simul[k>>6]&(1<<(uint(k)&63)) != 0 {
				return
			}
			simul[k>>6] |= 1 << (uint(k) & 63)
			k2 := lv*m + lu
			simul[k2>>6] |= 1 << (uint(k2) & 63)
			queue = append(queue, int32(k))
		}
		// Tracked successors leave out edges into all-input starts,
		// mirroring the compiled image: those targets never occupy the
		// frontier.
		succStart = append(succStart[:0], 0)
		succFlat = succFlat[:0]
		for s := lo; s < hi; s++ {
			for _, v := range net.States[s].Succ {
				if net.States[v].Start != automata.StartAllInput {
					succFlat = append(succFlat, v)
				}
			}
			succStart = append(succStart, int32(len(succFlat)))
		}
		succOf := func(s automata.StateID) []automata.StateID {
			return succFlat[succStart[s-lo]:succStart[s-lo+1]]
		}

		// Seeds. (1) Start-of-data states are jointly enabled at cycle 0.
		sod, allIn = sod[:0], allIn[:0]
		for s := lo; s < hi; s++ {
			switch net.States[s].Start {
			case automata.StartOfData:
				sod = append(sod, s)
			case automata.StartAllInput:
				allIn = append(allIn, s)
			}
		}
		for x := 0; x < len(sod); x++ {
			for y := x + 1; y < len(sod); y++ {
				mark(sod[x], sod[y])
			}
		}
		// (2) One activation enables every successor of the firing state
		// at once.
		for s := lo; s < hi; s++ {
			if a.Facts.Fire[s].IsEmpty() {
				continue
			}
			succ := succOf(s)
			for x := 0; x < len(succ); x++ {
				for y := x + 1; y < len(succ); y++ {
					mark(succ[x], succ[y])
				}
			}
		}
		// (3) All-input starts are enabled in every cycle, so whenever
		// any state q fires on a symbol they also match, both firings
		// happen in the same cycle.
		for _, ai := range allIn {
			fa := a.Facts.Fire[ai]
			if fa.IsEmpty() {
				continue
			}
			sa := succOf(ai)
			for q := lo; q < hi; q++ {
				if q == ai || fa.Intersect(a.Facts.Fire[q]).IsEmpty() {
					continue
				}
				for _, u := range sa {
					for _, v := range succOf(q) {
						mark(u, v)
					}
				}
			}
		}

		// Propagate: a simultaneously enabled pair that shares a firing
		// symbol activates together, jointly enabling succ × succ.
		for len(queue) > 0 {
			k := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			p := lo + automata.StateID(int(k)/m)
			q := lo + automata.StateID(int(k)%m)
			if a.Facts.Fire[p].Intersect(a.Facts.Fire[q]).IsEmpty() {
				continue
			}
			for _, u := range succOf(p) {
				for _, v := range succOf(q) {
					mark(u, v)
				}
			}
		}
		if c := peel.degeneracy(simul, m) + 1; c < a.CliqueCap[i] {
			a.CliqueCap[i] = c
		}
	}
}

// peeler is the array bucket queue of Matula and Beck, kept as scratch
// across the NFAs of one analysis: vert lists the vertices ordered by
// current degree, bin[d] is where degree d's run starts in vert, and
// pos[v] is v's index in vert.
type peeler struct {
	deg, bin, pos, vert []int32
}

// degeneracy peels minimum-degree vertices off the m-vertex graph whose
// adjacency rows are the m×m bitmap, returning the largest min-degree
// seen — any clique has size at most degeneracy+1. Every min-degree
// peeling order yields the same value, the graph's largest core number.
func (pl *peeler) degeneracy(adj []uint64, m int) int {
	if cap(pl.deg) < m {
		pl.deg, pl.bin = make([]int32, m), make([]int32, m)
		pl.pos, pl.vert = make([]int32, m), make([]int32, m)
	}
	deg, pos, vert := pl.deg[:m], pl.pos[:m], pl.vert[:m]
	maxDeg := int32(0)
	for v := range deg {
		deg[v] = int32(countRange(adj, v*m, (v+1)*m))
		maxDeg = max(maxDeg, deg[v])
	}
	// Counting sort of the vertices by degree (a vertex has at most m-1
	// neighbours, so bin fits in m slots).
	bin := pl.bin[:maxDeg+1]
	clear(bin)
	for _, d := range deg {
		bin[d]++
	}
	start := int32(0)
	for d, n := range bin {
		bin[d] = start
		start += n
	}
	for v, d := range deg {
		pos[v] = bin[d]
		vert[pos[v]] = int32(v)
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	// Peel in vert order. A live neighbour u of higher degree loses one:
	// it swaps with the first vertex of its degree run, and the run's
	// start moves past it into the run below.
	k := int32(0)
	for _, v := range vert {
		dv := deg[v]
		k = max(k, dv)
		base := int(v) * m
		for w := base >> 6; w <= (base+m-1)>>6; w++ {
			for word := adj[w]; word != 0; word &= word - 1 {
				u := (w<<6 | bits.TrailingZeros64(word)) - base
				if u < 0 || u >= m || deg[u] <= dv {
					continue
				}
				du, pu := deg[u], pos[u]
				pw := bin[du]
				if x := vert[pw]; int(x) != u {
					pos[u], pos[x] = pw, pu
					vert[pu], vert[pw] = x, int32(u)
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return int(k)
}
