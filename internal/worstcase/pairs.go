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
	var simul []uint64 // m×m bitmap, reused across NFAs
	var queue []int32  // packed u*m+v worklist, reused
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
		// trackedSucc filters edges into all-input starts, mirroring the
		// compiled image: those targets never occupy the frontier.
		trackedSucc := func(s automata.StateID) []automata.StateID {
			succ := net.States[s].Succ
			for _, v := range succ {
				if net.States[v].Start == automata.StartAllInput {
					goto filter
				}
			}
			return succ
		filter:
			out := make([]automata.StateID, 0, len(succ))
			for _, v := range succ {
				if net.States[v].Start != automata.StartAllInput {
					out = append(out, v)
				}
			}
			return out
		}
		succOf := make([][]automata.StateID, m)
		for s := lo; s < hi; s++ {
			succOf[s-lo] = trackedSucc(s)
		}

		// Seeds. (1) Start-of-data states are jointly enabled at cycle 0.
		var sod []automata.StateID
		var allIn []automata.StateID
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
			succ := succOf[s-lo]
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
			sa := succOf[ai-lo]
			for q := lo; q < hi; q++ {
				if q == ai || fa.Intersect(a.Facts.Fire[q]).IsEmpty() {
					continue
				}
				for _, u := range sa {
					for _, v := range succOf[q-lo] {
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
			for _, u := range succOf[p-lo] {
				for _, v := range succOf[q-lo] {
					mark(u, v)
				}
			}
		}
		if c := degeneracy(simul, m) + 1; c < a.CliqueCap[i] {
			a.CliqueCap[i] = c
		}
	}
}

// degeneracy peels minimum-degree vertices off the m-vertex graph whose
// adjacency rows are the m×m bitmap, returning the largest min-degree
// seen — any clique has size at most degeneracy+1.
func degeneracy(adj []uint64, m int) int {
	deg := make([]int, m)
	for v := 0; v < m; v++ {
		deg[v] = countBits(adj, v*m, (v+1)*m)
	}
	// Bucket queue over degrees.
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v, d := range deg {
		buckets[d] = append(buckets[d], int32(v))
	}
	removed := make([]bool, m)
	k, left, cur := 0, m, 0
	for left > 0 {
		if cur > maxDeg {
			break
		}
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		v := int(buckets[cur][len(buckets[cur])-1])
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			continue // stale bucket entry; the live one sits in a lower bucket
		}
		removed[v] = true
		left--
		if cur > k {
			k = cur
		}
		// Decrement live neighbors and re-bucket them.
		base := v * m
		for w := base >> 6; w <= (base+m-1)>>6; w++ {
			word := adj[w]
			if word == 0 {
				continue
			}
			for word != 0 {
				bit := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				u := bit - base
				if u < 0 || u >= m || removed[u] {
					continue
				}
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], int32(u))
				if deg[u] < cur {
					cur = deg[u]
				}
			}
		}
	}
	return k
}

// countBits counts the set bits of the bitmap in bit interval [lo, hi).
func countBits(bm []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		return bits.OnesCount64(bm[loW] & loMask & hiMask)
	}
	cnt := bits.OnesCount64(bm[loW] & loMask)
	for w := loW + 1; w < hiW; w++ {
		cnt += bits.OnesCount64(bm[w])
	}
	return cnt + bits.OnesCount64(bm[hiW]&hiMask)
}
