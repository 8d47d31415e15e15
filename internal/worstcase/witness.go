// Adversarial witness synthesis and engine replay.
//
// Synthesize builds a portfolio of deterministic candidate inputs
// against the compiled execution image (sim.Image) — the same CSR
// successors and per-symbol transposed bitmaps the engine executes — and
// keeps the one whose modelled peak objective is highest:
//
//   - greedy ascent: at each position, exactly evaluate the top-K bytes
//     by activation count and pick the one maximizing the next frontier
//     (strongest on literal-rule shapes where one byte lights a family);
//   - deterministic pseudo-random and sweep streams over the live
//     alphabet at full length (strongest on saturating shapes that
//     accumulate width over thousands of positions);
//   - hybrids: the best stream truncated at its peak, extended by a
//     greedy tail;
//   - caller-provided seeds (apstat passes the app's nominal input so
//     the witness provably dominates the random baseline), also
//     greedy-extended.
//
// The result is a concrete input whose replayed peak frontier is a
// constructive lower bound on the true worst case; Validate replays it
// through a real pooled engine and checks the analysis bounds held on
// every cycle.
package worstcase

import (
	"math/bits"

	"sparseap/internal/automata"
	"sparseap/internal/sim"
)

// Defaults for WitnessOptions.
const (
	// DefaultWitnessLen bounds the synthesized input length: long enough
	// for activation to propagate through any suite NFA's depth several
	// times over, short enough that synthesis stays in the tens of
	// milliseconds at suite scale.
	DefaultWitnessLen = 2048
	// DefaultTopK is how many candidate bytes get an exact next-frontier
	// evaluation per greedy position (candidates are pre-ranked by
	// activation count, which needs only a word-parallel AND).
	DefaultTopK = 8
	// DefaultPatience stops a greedy walk after this many positions
	// without a new peak — saturating networks hit their plateau in a
	// depth or two, and pushing further only pads the input.
	DefaultPatience = 256
	// greedyBudget caps the positions any single greedy walk spends:
	// greedy evaluates every live byte per position, so its cost per
	// position dwarfs the stream strategies', and its wins come early.
	greedyBudget = 2048
)

// Deterministic xorshift64* seeds for the pseudo-random streams.
const (
	streamSeedA = 0x9e3779b97f4a7c15
	streamSeedB = 0xd1b54a32d192ed03
)

// WitnessOptions configures Synthesize.
type WitnessOptions struct {
	// MaxLen bounds the synthesized input length (DefaultWitnessLen when
	// zero or negative).
	MaxLen int
	// TopK is the number of exact next-frontier evaluations per greedy
	// position (DefaultTopK when zero or negative).
	TopK int
	// Patience stops a greedy walk after this many positions without
	// peak improvement (DefaultPatience when zero or negative).
	Patience int
	// Target, when non-empty, switches the objective from frontier width
	// to per-cycle activations of these states (spap's pre-flight
	// maximizes intermediate-report density).
	Target []automata.StateID
	// Seeds are caller-provided candidate inputs evaluated alongside the
	// synthesized strategies (truncated to MaxLen); the witness is the
	// best of all candidates, so passing a measured-hot input guarantees
	// the witness is at least as adversarial.
	Seeds [][]byte
}

// Witness is a synthesized adversarial input and the peaks its model
// walk predicted. Replay through Validate for engine-certified numbers.
type Witness struct {
	// Input is the synthesized byte stream.
	Input []byte
	// PeakFrontier is the widest frontier of the walk; PeakPos is the
	// position whose step produced it (-1: the position-0 start-of-data
	// frontier was never exceeded).
	PeakFrontier int
	PeakPos      int64
	// PeakReports is the largest single-cycle report count of the walk;
	// TotalReports sums all cycles.
	PeakReports  int
	TotalReports int64
	// PeakTarget / TotalTarget are the per-cycle peak and the sum of
	// target-state activations (Target mode only).
	PeakTarget  int
	TotalTarget int64
}

// walker steps the frontier model over the compiled image; it mirrors
// the engine exactly (the soundness tests assert model peak == engine
// peak), so modelled candidate scores are replay-accurate.
type walker struct {
	img        *sim.Image
	words      int
	cur        []uint64
	act        []uint64
	next       []uint64
	reportMask []uint64
	targetMask []uint64
	liveBytes  []byte
}

func (a *Analysis) image() *sim.Image {
	return sim.ImageOf(a.Net)
}

func (a *Analysis) newWalker(target []automata.StateID) *walker {
	img := a.image()
	words := img.Words()
	wk := &walker{
		img:        img,
		words:      words,
		cur:        make([]uint64, words),
		act:        make([]uint64, words),
		next:       make([]uint64, words),
		reportMask: img.ReportMask(),
	}
	if len(target) > 0 {
		wk.targetMask = make([]uint64, words)
		for _, s := range target {
			wk.targetMask[s>>6] |= 1 << (uint32(s) & 63)
		}
	}
	// Candidate bytes: symbols inside the alphabet that activate at
	// least one state (frontier-driven or all-input start). Anything
	// else fires nothing and can only shrink the frontier.
	for b := 0; b < 256; b++ {
		if !a.Facts.Alphabet.Contains(byte(b)) {
			continue
		}
		if anyWord(img.SymMaskRow(byte(b))) || anyWord(img.StartMaskRow(byte(b))) {
			wk.liveBytes = append(wk.liveBytes, byte(b))
		}
	}
	return wk
}

// reset restores the position-0 frontier and returns its width.
func (wk *walker) reset() int {
	clearWords(wk.cur)
	for _, s := range wk.img.StartsOfData() {
		wk.cur[s>>6] |= 1 << (uint32(s) & 63)
	}
	return popcount(wk.cur)
}

// probe fills act with the states firing on b from the current frontier
// and returns (activation count, target activations) without advancing.
func (wk *walker) probe(b byte) (actN, tgt int) {
	sym, start := wk.img.SymMaskRow(b), wk.img.StartMaskRow(b)
	for i := range wk.act {
		word := wk.cur[i]&sym[i] | start[i]
		wk.act[i] = word
		actN += bits.OnesCount64(word)
		if wk.targetMask != nil {
			tgt += bits.OnesCount64(word & wk.targetMask[i])
		}
	}
	return actN, tgt
}

// scatterN expands act into next through the compiled successor lists
// and returns the next frontier width (no commit).
func (wk *walker) scatterN() int {
	return scatterCount(wk.img, wk.act, wk.next)
}

// step commits symbol b: probe, scatter, swap frontiers. Returns the
// next frontier width, the cycle's report count, and the cycle's target
// activations.
func (wk *walker) step(b byte) (nextN, rep, tgt int) {
	_, tgt = wk.probe(b)
	nextN = wk.scatterN()
	for i, word := range wk.act {
		rep += bits.OnesCount64(word & wk.reportMask[i])
	}
	wk.cur, wk.next = wk.next, wk.cur
	return nextN, rep, tgt
}

// scatterCount expands the act bitmap through img's filtered successor
// lists into next (cleared first) and returns the resulting bit count.
func scatterCount(img *sim.Image, act, next []uint64) int {
	clearWords(next)
	n := 0
	for i, word := range act {
		base := automata.StateID(i << 6)
		for word != 0 {
			s := base + automata.StateID(bits.TrailingZeros64(word))
			word &= word - 1
			for _, v := range img.Successors(s) {
				vw, vb := v>>6, uint64(1)<<(uint32(v)&63)
				if next[vw]&vb == 0 {
					next[vw] |= vb
					n++
				}
			}
		}
	}
	return n
}

// walkResult accumulates one candidate's input and modelled peaks.
type walkResult struct {
	input    []byte
	peakF    int
	peakPos  int64
	peakRep  int
	totalRep int64
	peakTgt  int
	totalTgt int64
}

func (r *walkResult) objective(targetMode bool) int {
	if targetMode {
		return r.peakTgt
	}
	return r.peakF
}

// record folds one committed step into the result; returns true when
// the objective reached stopAt (> 0).
func (r *walkResult) record(pos int, nextN, rep, tgt int, targetMode bool, stopAt int) (improved, stop bool) {
	r.totalRep += int64(rep)
	if rep > r.peakRep {
		r.peakRep = rep
	}
	if nextN > r.peakF {
		r.peakF = nextN
		r.peakPos = int64(pos)
		improved = !targetMode
	}
	r.totalTgt += int64(tgt)
	if tgt > r.peakTgt {
		r.peakTgt = tgt
		if targetMode {
			improved = true
		}
	}
	stop = stopAt > 0 && r.objective(targetMode) >= stopAt
	return improved, stop
}

// runFixed extends res by n bytes drawn from gen, stepping the walker
// from its current state. Stops early when stopAt is reached.
func runFixed(wk *walker, res *walkResult, n int, gen func(i int) byte, targetMode bool, stopAt int) (stopped bool) {
	for i := 0; i < n; i++ {
		b := gen(i)
		pos := len(res.input)
		nextN, rep, tgt := wk.step(b)
		res.input = append(res.input, b)
		if _, stop := res.record(pos, nextN, rep, tgt, targetMode, stopAt); stop {
			return true
		}
	}
	return false
}

// runGreedy extends res by up to budget greedily chosen bytes: rank the
// live bytes by the activation-count proxy, exactly evaluate the top-K,
// commit the best. Ties break toward the lowest byte. Gives up after
// patience positions without a peak improvement, truncating the tail.
func runGreedy(wk *walker, res *walkResult, budget, topK, patience int, targetMode bool, stopAt int) (stopped bool) {
	top := make([]cand, 0, topK)
	lastImprove := len(res.input) - 1
	floor := len(res.input)
	for i := 0; i < budget; i++ {
		pos := len(res.input)
		top = top[:0]
		for _, b := range wk.liveBytes {
			n, tgt := wk.probe(b)
			if n == 0 {
				continue
			}
			key := n
			if targetMode {
				key = tgt
			}
			j := len(top)
			for j > 0 && keyOf(top[j-1], targetMode) < key {
				j--
			}
			if j < topK {
				if len(top) < topK {
					top = append(top, cand{})
				}
				copy(top[j+1:], top[j:])
				top[j] = cand{b: b, act: n, tgt: tgt}
			}
		}
		if len(top) == 0 {
			break // frontier is dead and no start state fires: no byte does anything
		}
		// Exact evaluation of the finalists: pick the byte whose step
		// yields the widest next frontier (target activations dominate in
		// Target mode); ties break to the lowest byte, which the proxy
		// ranking already ordered first among equals.
		best, bestNext, bestTgt, bestAct := top[0], -1, -1, -1
		for _, c := range top {
			wk.probe(c.b)
			nxt := wk.scatterN()
			better := false
			if targetMode {
				better = c.tgt > bestTgt || (c.tgt == bestTgt && nxt > bestNext)
			} else {
				better = nxt > bestNext || (nxt == bestNext && c.act > bestAct)
			}
			if better {
				best, bestNext, bestTgt, bestAct = c, nxt, c.tgt, c.act
			}
		}
		nextN, rep, tgt := wk.step(best.b)
		res.input = append(res.input, best.b)
		improved, stop := res.record(pos, nextN, rep, tgt, targetMode, stopAt)
		if stop {
			return true
		}
		if improved {
			lastImprove = pos
		} else if pos-lastImprove >= patience {
			cut := lastImprove + 1
			if cut < floor {
				cut = floor
			}
			res.input = res.input[:cut]
			break
		}
	}
	return false
}

func keyOf(c cand, target bool) int {
	if target {
		return c.tgt
	}
	return c.act
}

// cand is the candidate-byte record of the greedy loop.
type cand struct {
	b   byte
	act int
	tgt int
}

// Synthesize builds the candidate portfolio and returns the best
// witness. The walk is fully deterministic (fixed stream seeds, ties
// break toward the lowest byte), so repeated runs agree byte-for-byte.
// Without Target it stops as soon as a walk's frontier reaches
// FrontierBound: the bound is sound, so no input can go wider.
func (a *Analysis) Synthesize(opts WitnessOptions) *Witness {
	maxLen := opts.MaxLen
	if maxLen <= 0 {
		maxLen = DefaultWitnessLen
	}
	topK := opts.TopK
	if topK <= 0 {
		topK = DefaultTopK
	}
	patience := opts.Patience
	if patience <= 0 {
		patience = DefaultPatience
	}
	targetMode := len(opts.Target) > 0
	stopAt := 0 // 0: exhaust the portfolio
	if !targetMode {
		stopAt = a.FrontierBound
	}

	wk := a.newWalker(opts.Target)
	startW := wk.reset()
	fresh := func() *walkResult {
		wk.reset()
		return &walkResult{peakF: startW, peakPos: -1}
	}

	var best *walkResult
	consider := func(r *walkResult) (stop bool) {
		if best == nil || r.objective(targetMode) > best.objective(targetMode) ||
			(r.objective(targetMode) == best.objective(targetMode) && len(r.input) < len(best.input)) {
			best = r
		}
		return stopAt > 0 && best.objective(targetMode) >= stopAt
	}
	finish := func() *Witness {
		return &Witness{
			Input:        best.input,
			PeakFrontier: best.peakF,
			PeakPos:      best.peakPos,
			PeakReports:  best.peakRep,
			TotalReports: best.totalRep,
			PeakTarget:   best.peakTgt,
			TotalTarget:  best.totalTgt,
		}
	}
	best = &walkResult{peakF: startW, peakPos: -1}
	if len(wk.liveBytes) == 0 {
		return finish()
	}

	gBudget := maxLen
	if gBudget > greedyBudget {
		gBudget = greedyBudget
	}

	// 1. Greedy ascent from the start frontier.
	g := fresh()
	if runGreedy(wk, g, gBudget, topK, patience, targetMode, stopAt); consider(g) {
		return finish()
	}

	// 2. Deterministic streams at full length: a cyclic sweep of the
	// live alphabet and two xorshift64* byte streams mapped onto it.
	live := wk.liveBytes
	var bestStream *walkResult
	streams := []func(i int) byte{
		func(i int) byte { return live[i%len(live)] },
		streamGen(streamSeedA, live),
		streamGen(streamSeedB, live),
	}
	for _, gen := range streams {
		r := fresh()
		stopped := runFixed(wk, r, maxLen, gen, targetMode, stopAt)
		if bestStream == nil || r.objective(targetMode) > bestStream.objective(targetMode) {
			bestStream = r
		}
		if consider(r); stopped {
			return finish()
		}
	}

	// 3. Hybrids: truncate a strong prefix at its peak and extend it
	// with a greedy tail — streams build width, greedy spends it.
	hybrid := func(prefix []byte) bool {
		r := fresh()
		if runFixed(wk, r, len(prefix), func(i int) byte { return prefix[i] }, targetMode, stopAt) {
			return consider(r)
		}
		tail := maxLen - len(r.input)
		if tail > greedyBudget {
			tail = greedyBudget
		}
		if tail > 0 {
			runGreedy(wk, r, tail, topK, patience, targetMode, stopAt)
		}
		return consider(r)
	}
	if bestStream != nil && bestStream.peakPos >= 0 {
		if hybrid(bestStream.input[:bestStream.peakPos+1]) {
			return finish()
		}
	}

	// 4. Caller seeds, plus a greedy extension of the best seed.
	var bestSeed *walkResult
	for _, seed := range opts.Seeds {
		if len(seed) > maxLen {
			seed = seed[:maxLen]
		}
		r := fresh()
		stopped := runFixed(wk, r, len(seed), func(i int) byte { return seed[i] }, targetMode, stopAt)
		if bestSeed == nil || r.objective(targetMode) > bestSeed.objective(targetMode) {
			bestSeed = r
		}
		if consider(r); stopped {
			return finish()
		}
	}
	if bestSeed != nil && bestSeed.peakPos >= 0 {
		if hybrid(bestSeed.input[:bestSeed.peakPos+1]) {
			return finish()
		}
	}
	return finish()
}

// streamGen returns a deterministic xorshift64* byte stream mapped onto
// the live alphabet.
func streamGen(seed uint64, live []byte) func(i int) byte {
	x := seed
	return func(int) byte {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return live[int((x*0x2545f4914f6cdd1d)>>33)%len(live)]
	}
}

// Replay is the engine-certified result of running an input.
type Replay struct {
	// PeakFrontier is the widest frontier the engine reached; PeakPos is
	// the position whose Step produced it (-1 when the position-0
	// start-of-data frontier was never exceeded).
	PeakFrontier int
	PeakPos      int64
	// PeakCycleReports is the largest single-cycle report count;
	// TotalReports sums every cycle.
	PeakCycleReports int
	TotalReports     int64
	// Sound is true iff every cycle respected both static bounds
	// (frontier ≤ FrontierBound, cycle reports ≤ ReportBound).
	Sound bool
	// Gap is FrontierBound / max(1, PeakFrontier): how loose the static
	// bound is relative to what this input demonstrates.
	Gap float64
}

// Validate replays input through a real pooled engine and checks the
// analysis' bounds held on every cycle. A Sound == false result is an
// analysis bug, not an input property.
func (a *Analysis) Validate(input []byte) *Replay {
	r := &Replay{PeakPos: -1, Sound: true}
	eng := sim.AcquireEngine(a.Net, sim.Options{})
	defer eng.Release()
	cycleReports := 0
	eng.OnReport = func(pos int64, s automata.StateID) { cycleReports++ }
	r.PeakFrontier = eng.FrontierLen()
	if r.PeakFrontier > a.FrontierBound {
		r.Sound = false
	}
	for pos, b := range input {
		cycleReports = 0
		eng.Step(int64(pos), b)
		fl := eng.FrontierLen() // a bit test per pending start-plan state: read once
		if fl > r.PeakFrontier {
			r.PeakFrontier = fl
			r.PeakPos = int64(pos)
		}
		if cycleReports > r.PeakCycleReports {
			r.PeakCycleReports = cycleReports
		}
		r.TotalReports += int64(cycleReports)
		if fl > a.FrontierBound || cycleReports > a.ReportBound {
			r.Sound = false
		}
	}
	r.Gap = float64(a.FrontierBound) / float64(max(1, r.PeakFrontier))
	return r
}

// Certify is the one-call bound-plus-certificate pipeline: synthesize a
// witness under opts and validate it on the real engine.
func (a *Analysis) Certify(opts WitnessOptions) (*Witness, *Replay) {
	w := a.Synthesize(opts)
	return w, a.Validate(w.Input)
}

func anyWord(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

func clearWords(ws []uint64) {
	for i := range ws {
		ws[i] = 0
	}
}
