// Package worstcase bounds the worst-case dynamic behaviour of an
// automata network — frontier width and report density per cycle —
// statically, and synthesizes concrete adversarial inputs certifying how
// tight those bounds are.
//
// Everything the execution layers size reactively (the dense-kernel
// crossover, hot/cold partition widening, guard trips, serve admission)
// is driven by frontier density, yet the hotness analysis (internal/
// hotness) is an *expected*-activity model and RunGuarded trips only
// after density has already blown the budget. This package supplies the
// missing sound guarantee: an upper bound no input can exceed, plus a
// witness input showing how much of the bound is actually reachable.
//
// # The abstraction
//
// A concrete frontier is the set of dynamically enabled (non-all-input)
// states after some input prefix. Exact worst-case width is the maximum
// over all reachable frontiers — PSPACE-hard in general (the frontier
// powerset is the subset-construction state space). The analysis
// over-approximates with three cooperating counting abstractions, each
// sound on its own; the published bound is their minimum.
//
// Layer 1 — per-symbol sets. Every state in one concrete frontier was
// enabled by the same last symbol b (the engine enables exactly the
// successors of the states that activated on b), so
//
//	F_b = { v : some predecessor p of v can activate on b } ⊇ any
//	      frontier whose last symbol was b,
//
// and max(|startsOfData|, max_b |F_b|) bounds every reachable frontier
// width. "Can activate on b" is the dataflow fixpoint's fire set
// (b ∈ Fire[p], internal/dataflow): the 256-bit symset lattice already
// iterated to fixpoint over the SCC condensation, so p is known to be
// enable-reachable and b within the configured alphabet. Soundness is
// inductive on the input length: the frontier at position 0 is exactly
// the start-of-data set, and a step on b maps a frontier inside ∪F into
// succ(activated) ⊆ F_b.
//
// Layer 2 — pairwise simultaneity (pairs.go). F_b unions states that
// *some* input reaches, not states *one* input reaches together. Exact
// product-reachability over same-NFA state pairs marks which pairs can
// ever be enabled in the same cycle; any frontier restricted to NFA i
// is then a clique in that graph, capped by its degeneracy + 1 = C_i
// (the anti-chain cap). The refined per-symbol count is
//
//	max_b Σ_i min(|F_b ∩ states(i)|, C_i),
//
// which collapses mutually-exclusive shapes (mismatch counters, sliding
// alignments) no per-state analysis can separate.
//
// Layer 3 — bigram counting. A frontier whose last two symbols were
// a then b satisfies frontier ⊆ succ((F_a ∪ allInputStarts) ∩ fire_b):
// the previous frontier sat inside F_a, only its members (plus the
// always-enabled all-input starts) that fire on b activate, and the new
// frontier is exactly their successors. Maximizing the successor count
// over all (a, b) — with the start-of-data row standing in for F_a on
// the first two cycles — bounds every frontier of length ≥ 1, and
// typically collapses literal-rule families where F_b conflates
// positions that no single preceding symbol can co-activate. The same
// pass bounds report density: cycle reports = |activated ∩ reporters| ≤
// max_{a,b} |(F_a ∪ allInput) ∩ fire_b ∩ reporters|.
//
// The bounds hold for every input over the configured alphabet (the
// default full alphabet bounds every input unconditionally) on a
// fault-free engine; fault injection can enable arbitrary states.
//
// # The certificate
//
// An upper bound alone cannot tell "provably narrow" from "loose
// analysis". Synthesize (witness.go) builds a portfolio of concrete
// inputs against the compiled sim.Image — greedy next-frontier ascent,
// deterministic pseudo-random and sweep streams, hybrids, plus any
// caller-provided seed inputs — and keeps the one whose modelled peak
// is highest; Validate replays it through the real engine. The replayed
// peak is a constructive lower bound on the true worst case, so the
// pair brackets it:
//
//	witness peak ≤ true worst case ≤ FrontierBound
//
// and Gap = FrontierBound / witness peak measures the analysis' slack —
// the apopt certificate discipline applied to bounds instead of
// rewrites. Consumers act only in the sound direction: admission and
// guard pre-flight trust the upper bound; "hopeless" classifications
// trust only the witness.
package worstcase

import (
	"math/bits"

	"sparseap/internal/automata"
	"sparseap/internal/dataflow"
	"sparseap/internal/graph"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
)

// Config parameterizes Analyze.
type Config struct {
	// Alphabet is the assumed input alphabet; the zero value means the
	// full 256-symbol alphabet, under which the bounds hold for every
	// input. A narrower alphabet tightens the bounds but they then only
	// cover inputs drawn from it.
	Alphabet symset.Set
	// Facts, when non-nil, reuses an existing dataflow fixpoint (it must
	// have been computed over the same network and alphabet).
	Facts *dataflow.Facts
	// NoGram disables the k-gram suffix refinement (layer 3) — the
	// symbol-sequence sweep is the most expensive layer; callers that
	// only need a cheap sound bound can skip it.
	NoGram bool
	// GramBudget caps the layer-3 sweep's work in word-visits (0 means
	// DefaultGramBudget). A level that exhausts the budget is discarded,
	// so a smaller budget only loosens the bound, never unsounds it.
	GramBudget int64
}

// Analysis holds the worst-case bounds of one network.
type Analysis struct {
	// Net is the analyzed network.
	Net *automata.Network
	// Facts is the dataflow fixpoint the bounds were derived from.
	Facts *dataflow.Facts

	// FrontierBound is a sound upper bound on the number of dynamically
	// enabled (frontier-tracked) states after any input prefix over the
	// alphabet: max(StartWidth, min(BoundPair, BoundGram)).
	FrontierBound int
	// PeakSymbol is the last symbol of the binding bound's worst cycle
	// (meaningless when StartWidth dominates).
	PeakSymbol byte
	// Bound1 is the unrefined layer-1 bound max_b |F_b| — retained so
	// diagnostics can show how much the refinements bought.
	Bound1 int
	// BoundPair is the layer-2 bound: max_b Σ_i min(|F_b ∩ NFA_i|, C_i).
	BoundPair int
	// BoundGram is the layer-3 k-gram bound (== BoundPair when the pass
	// was skipped or never improved on it).
	BoundGram int
	// StartWidth is the frontier width at position 0: the number of
	// start-of-data states (all-input starts are never frontier-tracked).
	StartWidth int
	// Trackable is the number of states that can ever appear in a
	// frontier: all states minus all-input starts.
	Trackable int
	// NFABound[i] bounds the frontier share of NFA i in any single
	// cycle: its start-of-data width and max_b min(|F_b ∩ NFA_i|, C_i).
	NFABound []int
	// CliqueCap[i] is the anti-chain cap C_i of NFA i: no cycle can have
	// more of its states enabled at once (its trackable size when the
	// pairwise refinement was skipped).
	CliqueCap []int

	// ReportBound is a sound upper bound on the reports any single cycle
	// can emit.
	ReportBound int
	// ReportSymbol is the symbol attaining ReportBound (lowest byte).
	ReportSymbol byte

	// frontier[b] is the F_b bitmap (words-long rows over one backing
	// array); fire[b] is the bitmap of states with b in their fire set
	// (nil when NoGram). Retained for ReportBoundFor and synthesis.
	frontier [256][]uint64
	fire     [256][]uint64
	words    int
	// rawCnt[b] = |F_b|, cached for the bigram pass' skip tests.
	rawCnt [256]int
	// srcs, allIn and maxDeg are what the bigram and k-gram passes read
	// besides the rows above, built once by startRows (nil when NoGram).
	srcs   [][]uint64
	allIn  []uint64
	maxDeg int
	// gramBudget is the layer-3 work cap (Config.GramBudget or default).
	gramBudget int64
}

// Analyze computes the worst-case bounds of net under cfg.
func Analyze(net *automata.Network, cfg Config) *Analysis {
	facts := cfg.Facts
	if facts == nil {
		facts = dataflow.Analyze(net, graph.TopoOrder(net), cfg.Alphabet)
	}
	n := net.Len()
	words := (n + 63) / 64
	a := &Analysis{
		Net:        net,
		Facts:      facts,
		NFABound:   make([]int, net.NumNFAs()),
		words:      words,
		gramBudget: cfg.GramBudget,
	}
	if a.gramBudget <= 0 {
		a.gramBudget = DefaultGramBudget
	}
	backing := make([]uint64, 256*words)
	for b := 0; b < 256; b++ {
		a.frontier[b] = backing[b*words : (b+1)*words : (b+1)*words]
	}

	// Populate F_b (and the fire bitmaps for the bigram pass): for every
	// state p that can activate on b, mark each compiled successor
	// (edges into all-input starts are excluded — the engine never
	// tracks those states in the frontier).
	var fireBacking []uint64
	if !cfg.NoGram {
		fireBacking = make([]uint64, 256*words)
		for b := 0; b < 256; b++ {
			a.fire[b] = fireBacking[b*words : (b+1)*words : (b+1)*words]
		}
	}
	for p := 0; p < n; p++ {
		fire := facts.Fire[p]
		if fire.IsEmpty() {
			continue
		}
		if fireBacking != nil {
			setColumn(&a.fire, fire, p)
		}
		for _, v := range net.States[p].Succ {
			if net.States[v].Start != automata.StartAllInput {
				setColumn(&a.frontier, fire, int(v))
			}
		}
	}

	// Start-of-data states form the position-0 frontier.
	for s := 0; s < n; s++ {
		switch net.States[s].Start {
		case automata.StartOfData:
			a.StartWidth++
			a.Trackable++
		case automata.StartNone:
			a.Trackable++
		}
	}

	// Layer 2: pairwise simultaneity → per-NFA anti-chain caps.
	a.pairAnalysis()

	// Count the rows: raw layer-1 peak and the C_i-capped layer-2 peak.
	for b := 0; b < 256; b++ {
		a.rawCnt[b] = popcount(a.frontier[b])
		if a.rawCnt[b] > a.Bound1 {
			a.Bound1 = a.rawCnt[b]
		}
	}
	pairSym := byte(0)
	for i := range a.NFABound {
		lo, hi := net.NFAStates(i)
		sod := 0
		for s := lo; s < hi; s++ {
			if net.States[s].Start == automata.StartOfData {
				sod++
			}
		}
		a.NFABound[i] = sod
	}
	for b := 0; b < 256; b++ {
		if a.rawCnt[b] == 0 {
			continue
		}
		sum := 0
		for i := range a.NFABound {
			lo, hi := net.NFAStates(i)
			cnt := countRange(a.frontier[b], int(lo), int(hi))
			if cnt > a.CliqueCap[i] {
				cnt = a.CliqueCap[i]
			}
			sum += cnt
			if cnt > a.NFABound[i] {
				a.NFABound[i] = cnt
			}
		}
		if sum > a.BoundPair {
			a.BoundPair = sum
			pairSym = byte(b)
		}
	}

	// Layer 3: bigram counting, aborted as soon as it provably cannot
	// improve on BoundPair.
	a.BoundGram = a.BoundPair
	a.PeakSymbol = pairSym
	if !cfg.NoGram {
		a.startRows()
		if bg, sym, improved := a.kgramFrontier(); improved {
			a.BoundGram = bg
			a.PeakSymbol = sym
		}
	}
	a.FrontierBound = a.BoundGram
	if a.StartWidth > a.FrontierBound {
		a.FrontierBound = a.StartWidth
	}

	a.ReportBound, a.ReportSymbol = a.ReportBoundFor(func(automata.StateID) bool { return true })
	return a
}

// k-gram refinement parameters: the suffix DFS deepens K = 2..maxGram
// while each completed level still improves the bound and the word-visit
// budget lasts.
const (
	maxGram = 8
	// DefaultGramBudget is the default layer-3 work cap in word-visits
	// (roughly nanoseconds): generous enough for the suite's largest
	// image to finish several levels.
	DefaultGramBudget = 1 << 30
)

// kgram is the state of one k-gram refinement (layer 3).
//
// For a suffix σ = s1..sK, define X_0 = (any possible prior frontier)
// and X_j = succ((X_{j-1} ∪ allInput) ∩ fire_{s_j}). Every frontier of
// an input ending in σ is contained in X_K — the K = 1 instance is
// exactly F_b and K = 2 the bigram bound — so max over σ of the
// C_i-capped count of X_K bounds every input of length ≥ K. Shorter
// inputs are covered by the start-anchored variant Y_0 = startsOfData,
// whose nodes count at every depth < K. Deeper K only tightens: X_K(σ)
// ⊆ X_{K-1}(σ without its first symbol).
//
// The DFS prunes a subtree when its growth cap — childCap ≤
// min(|F_b|, |act|·D) inflated by f(x) = (x+A)·D per remaining step,
// where A is the largest per-symbol all-input activation count and D
// the largest tracked out-degree — cannot beat the best leaf found so
// far. The cap bounds every count in the subtree and pruning happens
// only at cap ≤ best ≤ final best, so the final maximum is unaffected:
// standard branch-and-bound, soundness included.
type kgram struct {
	a         *Analysis
	img       *sim.Image
	order     []byte // live symbols, descending |F_b|
	amax      int    // A: max_b |allInput ∩ fire_b|; D is a.maxDeg
	budget    int64
	best      int
	bestSym   byte
	threshold int // current working bound; best reaching it aborts the run
	aborted   bool
	exhausted bool
	act       []uint64
	depth     [][]uint64 // per-depth child-set scratch
}

// kgramFrontier runs the iterative-deepening refinement and returns the
// tightest completed bound below BoundPair (improved == false when no
// level improved on it).
func (a *Analysis) kgramFrontier() (bound int, sym byte, improved bool) {
	if a.BoundPair == 0 {
		return 0, 0, false
	}
	kg := &kgram{
		a:         a,
		img:       a.image(),
		budget:    a.gramBudget,
		threshold: a.BoundPair,
		act:       make([]uint64, a.words),
		depth:     make([][]uint64, maxGram+1),
	}
	for i := range kg.depth {
		kg.depth[i] = make([]uint64, a.words)
	}
	for b := 0; b < 256; b++ {
		if a.rawCnt[b] > 0 || anyWord(a.fire[b]) {
			kg.order = append(kg.order, byte(b))
		}
		if n := countAnd(a.allIn, a.fire[b]); n > kg.amax {
			kg.amax = n
		}
	}
	sortByRawCntDesc(kg.order, &a.rawCnt)

	for K := 2; K <= maxGram; K++ {
		kg.best, kg.bestSym, kg.aborted = 0, 0, false
		// X-tree: depth-1 children are the F_b rows themselves (X_1 = F_b
		// for any prior frontier), so start the recursion there.
		for _, b := range kg.order {
			if a.rawCnt[b] == 0 {
				continue
			}
			kg.dfs(a.frontier[b], a.rawCnt[b], 1, K, false, b)
			if kg.aborted || kg.exhausted {
				break
			}
		}
		// Y-tree: start-anchored chains cover inputs shorter than K.
		if !kg.aborted && !kg.exhausted {
			kg.dfs(a.srcs[0], a.StartWidth, 0, K, true, 0)
		}
		if kg.exhausted || kg.aborted || kg.best >= kg.threshold {
			break
		}
		bound, sym, improved = kg.best, kg.bestSym, true
		kg.threshold = kg.best
		if kg.best == 0 {
			break
		}
	}
	return bound, sym, improved
}

// dfs explores suffix extensions of the set x (count xcnt) at the given
// depth. Anchored nodes (Y-tree) record at every depth ≥ 1; unanchored
// leaves record at depth == K exactly.
func (kg *kgram) dfs(x []uint64, xcnt, depthIdx, K int, anchored bool, lastSym byte) {
	a := kg.a
	if anchored && depthIdx >= 1 {
		kg.record(x, xcnt, lastSym)
	} else if !anchored && depthIdx == K {
		kg.record(x, xcnt, lastSym)
		return
	}
	if kg.aborted || kg.exhausted {
		return
	}
	if anchored && depthIdx >= K-1 {
		return // longer anchored inputs are covered by the X-tree
	}
	rem := K - depthIdx - 1 // steps remaining below the child
	if anchored {
		rem = K - depthIdx - 2
	}
	for _, b := range kg.order {
		fire := a.fire[b]
		// Immediate child cap, before paying for the AND.
		if kg.grow(min(xcnt, a.rawCnt[b]), 1+max(rem, 0)) <= kg.best {
			continue
		}
		actN := 0
		for w := range kg.act {
			word := (x[w] | a.allIn[w]) & fire[w]
			kg.act[w] = word
			actN += bits.OnesCount64(word)
		}
		kg.budget -= int64(a.words)
		if kg.budget < 0 {
			kg.exhausted = true
			return
		}
		if actN == 0 {
			continue
		}
		childCap := actN * a.maxDeg
		if a.rawCnt[b] < childCap {
			childCap = a.rawCnt[b]
		}
		if kg.grow(childCap, max(rem, 0)) <= kg.best {
			continue
		}
		child := kg.depth[depthIdx+1]
		ccnt := scatterCount(kg.img, kg.act, child)
		kg.budget -= int64(actN + ccnt + 1)
		if ccnt == 0 {
			continue
		}
		kg.dfs(child, ccnt, depthIdx+1, K, anchored, b)
		if kg.aborted || kg.exhausted {
			return
		}
	}
}

// grow applies the per-step growth cap f(x) = (x + A)·D r times.
func (kg *kgram) grow(x, r int) int {
	for t := 0; t < r; t++ {
		if x > kg.threshold { // already past any useful comparison
			return x
		}
		x = (x + kg.amax) * kg.a.maxDeg
	}
	return x
}

// record counts a node set against the best leaf, applying the per-NFA
// clique caps only when the raw count is in contention.
func (kg *kgram) record(x []uint64, raw int, sym byte) {
	if raw <= kg.best {
		return
	}
	a := kg.a
	capped := 0
	for i := range a.CliqueCap {
		lo, hi := a.Net.NFAStates(i)
		cnt := countRange(x, int(lo), int(hi))
		if cnt > a.CliqueCap[i] {
			cnt = a.CliqueCap[i]
		}
		capped += cnt
	}
	if capped > kg.best {
		kg.best, kg.bestSym = capped, sym
		if kg.best >= kg.threshold {
			kg.aborted = true
		}
	}
}

func sortByRawCntDesc(order []byte, rawCnt *[256]int) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && rawCnt[order[j]] > rawCnt[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// setColumn sets state s's bit in the row of every symbol of syms,
// walking the set's words in place.
func setColumn(rows *[256][]uint64, syms symset.Set, s int) {
	sw, sb := s>>6, uint64(1)<<(uint(s)&63)
	for w, word := range syms {
		for ; word != 0; word &= word - 1 {
			rows[w<<6|bits.TrailingZeros64(word)][sw] |= sb
		}
	}
}

// countAnd counts the set bits of a AND b.
func countAnd(a, b []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

// reportBound bounds the reports of any single cycle against mask (the
// reporting states under consideration). Without bigram rows it is the
// layer-1 count max_b |{s ∈ mask : b ∈ Fire[s]}| (a state reporting in
// a cycle that read b activated on b); with them, the strictly tighter
// max over (src, b) of |(src ∪ allInput) ∩ fire_b ∩ mask|, where src
// ranges over the start row and every F_a — the start row covers the
// first cycle, F_a every later one.
func (a *Analysis) reportBound(mask []uint64) (bound int, sym byte) {
	if a.fire[0] == nil {
		var cnt [256]int
		for s := 0; s < a.Net.Len(); s++ {
			if mask[s>>6]&(1<<(uint(s)&63)) == 0 {
				continue
			}
			for w, word := range a.Facts.Fire[s] {
				for ; word != 0; word &= word - 1 {
					cnt[w<<6|bits.TrailingZeros64(word)]++
				}
			}
		}
		for b := 0; b < 256; b++ {
			if cnt[b] > bound {
				bound, sym = cnt[b], byte(b)
			}
		}
		return bound, sym
	}
	for b := 0; b < 256; b++ {
		fire := a.fire[b]
		if !anyWord(fire) {
			continue
		}
		for _, src := range a.srcs {
			cnt := 0
			for w := range fire {
				cnt += bits.OnesCount64((src[w] | a.allIn[w]) & fire[w] & mask[w])
			}
			if cnt > bound {
				bound, sym = cnt, byte(b)
			}
		}
	}
	return bound, sym
}

// startRows builds the source rows of the bigram sweep — the
// start-of-data row (srcs[0], the k-gram pass' anchor) followed by every
// non-empty F_a — plus the all-input start row (ORed into every source:
// those states are enabled in every cycle) and the largest tracked
// out-degree.
func (a *Analysis) startRows() {
	net := a.Net
	sod := make([]uint64, a.words)
	allIn := make([]uint64, a.words)
	maxDeg := 0
	for s := 0; s < net.Len(); s++ {
		switch net.States[s].Start {
		case automata.StartOfData:
			sod[s>>6] |= 1 << (uint(s) & 63)
		case automata.StartAllInput:
			allIn[s>>6] |= 1 << (uint(s) & 63)
		}
		deg := 0
		for _, v := range net.States[s].Succ {
			if net.States[v].Start != automata.StartAllInput {
				deg++
			}
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	srcs := [][]uint64{sod}
	for b := 0; b < 256; b++ {
		if a.rawCnt[b] > 0 {
			srcs = append(srcs, a.frontier[b])
		}
	}
	a.srcs, a.allIn, a.maxDeg = srcs, allIn, maxDeg
}

// FrontierFraction is FrontierBound over the trackable state count — the
// fraction of the network an adversarial input could light up at once.
func (a *Analysis) FrontierFraction() float64 {
	if a.Trackable == 0 {
		return 0
	}
	return float64(a.FrontierBound) / float64(a.Trackable)
}

// ReportBoundFor recomputes the per-cycle report bound counting only the
// reporting states selected by include — spap's pre-flight bounds
// intermediate reports (cut stand-ins) separately from original ones.
// States that provably never activate are left out whatever include
// says: they cannot contribute to any cycle's report count.
func (a *Analysis) ReportBoundFor(include func(automata.StateID) bool) (bound int, sym byte) {
	mask := make([]uint64, a.words)
	for s := 0; s < a.Net.Len(); s++ {
		if a.Net.States[s].Report && !a.Facts.Fire[s].IsEmpty() && include(automata.StateID(s)) {
			mask[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	return a.reportBound(mask)
}

// countRange counts the set bits of row in the state interval [lo, hi).
func countRange(row []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		return bits.OnesCount64(row[loW] & loMask & hiMask)
	}
	cnt := bits.OnesCount64(row[loW] & loMask)
	for w := loW + 1; w < hiW; w++ {
		cnt += bits.OnesCount64(row[w])
	}
	return cnt + bits.OnesCount64(row[hiW]&hiMask)
}
