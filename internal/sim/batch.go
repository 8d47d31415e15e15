// Multi-stream bit-sliced batch execution.
//
// The AP's core economy is that one resident automaton image serves many
// independent input streams, yet a solo Engine walks the compiled image
// once per stream. BatchEngine runs up to 64 streams in lockstep against
// one Image by bit-slicing stream lanes: the frontier is transposed from
// "one bitmap per stream" into one lane word per state — curLane[s] is a
// 64-bit mask of the lanes in which state s is enabled — plus a union
// bitmap over states enabled in any lane. Per symbol position the kernel
// then touches each image cache line once for the whole batch:
//
//   - the CSR successor list of an activated state is walked once and
//     applied to the full activated-lane mask with a single OR per
//     successor, instead of once per stream;
//   - a state's 4 contiguous match words are loaded once and tested
//     against every distinct symbol the batch is reading this cycle;
//   - the dense pass scans the union frontier bitmap once per distinct
//     symbol (lanes reading the same byte share the scan), instead of
//     once per stream.
//
// Lanes are fully independent: distinct inputs, lengths, and join times.
// A late-arriving stream joins an empty lane mid-batch, a finished lane
// retires without stalling the rest, and each lane's report stream —
// lane-local positions, canonical ascending-state order within a cycle —
// is bit-identical to a solo Run over the same input (property-tested in
// batch_test.go).
//
// Like the solo engine the batch kernel is direction-optimizing per
// cycle: a sparse walk of the union frontier list while it is small, the
// word-parallel union pass when it is large. The crossover scales with
// the cycle's symbol diversity — the dense pass re-scans the union once
// per distinct byte read this cycle (and re-enumerates broad-symbol-class
// states under each of them), while the sparse walk enumerates each
// frontier state exactly once however many distinct bytes are in flight —
// so dense must clear denseCut × distinct-symbols to pay. The union pass
// scatters per activated state, so its denseCut is 2 × words, the
// crossover the solo engine had before its dense pass learned to shift.
// See DESIGN.md §13.
package sim

import (
	"math/bits"

	"sparseap/internal/automata"
)

// MaxLanes is the lane capacity of a BatchEngine: one bit per lane in a
// machine word.
const MaxLanes = 64

// BatchOptions configures a batch run.
type BatchOptions struct {
	// CollectReports retains each lane's reports (LaneReports). Ignored
	// when the engine's OnReport callback is set.
	CollectReports bool
	// Kernel selects the per-cycle step strategy (default KernelAuto).
	Kernel Kernel
	// DenseThreshold overrides the union-frontier length at which
	// KernelAuto switches to the dense pass; 0 uses 2 × bitmap words.
	DenseThreshold int
}

// batchLane is the per-stream state of one lane.
type batchLane struct {
	input      []byte
	pos        int64 // lane-local position of the next symbol
	reports    []Report
	numReports int64
	running    bool
	done       bool // finished, reports readable until Free
}

// cycleSym is one distinct input byte read by the batch this cycle and
// the mask of lanes reading it.
type cycleSym struct {
	b     byte
	lanes uint64
}

// BatchEngine executes up to MaxLanes independent input streams in
// lockstep over one shared Image. All mutable state is engine-local; any
// number of batch and solo engines may run concurrently over one image.
// Tick performs no allocation in steady state.
type BatchEngine struct {
	img *Image

	// curLane[s] is the lane-transposed frontier: bit L set iff state s
	// is enabled in lane L for the current cycle. nxtLane is the
	// next-cycle side; the two swap every Tick and the consumed side is
	// scrubbed back to all-zero during the pass.
	curLane []uint64
	nxtLane []uint64

	// unionCur is the state-word bitmap of states enabled in any lane
	// (bit s of word s>>6 set iff curLane[s] != 0), with curLen its
	// population count; frontier caches it as a list, valid only when
	// curListValid — the same lazy-list protocol as the solo engine.
	unionCur     []uint64
	unionNxt     []uint64
	curLen       int
	nxtLen       int
	frontier     []automata.StateID
	next         []automata.StateID
	curListValid bool
	buildNext    bool

	// Per-cycle scratch: actLane[s] accumulates the lanes in which s was
	// activated this cycle (merged across distinct symbols), actList the
	// touched states, repBuf the activated reporting states.
	actLane []uint64
	actList []automata.StateID
	repBuf  []automata.StateID

	// cycleSyms lists the distinct bytes read this cycle; symLanes is the
	// 256-entry dedup table, cleared back to zero through cycleSyms.
	cycleSyms []cycleSym
	symLanes  [256]uint64

	lanes        [MaxLanes]batchLane
	runningMask  uint64
	occupiedMask uint64 // running or done (slot not joinable)

	kernel        Kernel
	denseCut      int
	reportsWanted bool

	denseTicks  int64
	sparseTicks int64
	ticks       int64

	// OnReport, when non-nil, receives every report instead of the
	// per-lane report lists: lane index, lane-local position, state.
	OnReport func(lane int, pos int64, s automata.StateID)
}

// AcquireBatch returns a pooled batch engine over the image, reset and
// configured with opts. Release it when done; batch engines never escape
// to a different image's pool.
func (img *Image) AcquireBatch(opts BatchOptions) *BatchEngine {
	be, _ := img.batchPool.Get().(*BatchEngine)
	if be == nil {
		be = &BatchEngine{
			img:      img,
			curLane:  make([]uint64, img.n),
			nxtLane:  make([]uint64, img.n),
			actLane:  make([]uint64, img.n),
			unionCur: make([]uint64, img.words),
			unionNxt: make([]uint64, img.words),
		}
	}
	be.configure(opts)
	return be
}

// AcquireBatchEngine returns a pooled batch engine for net (compiling the
// shared image on first use).
func AcquireBatchEngine(net *automata.Network, opts BatchOptions) *BatchEngine {
	return ImageOf(net).AcquireBatch(opts)
}

// Release returns the engine to its image's pool, scrubbing every
// run-scoped hook and lane buffer. The engine, and any slice previously
// obtained from it (LaneReports), must not be used afterwards.
func (be *BatchEngine) Release() {
	be.OnReport = nil
	for l := range be.lanes {
		ln := &be.lanes[l]
		ln.input = nil
		if cap(ln.reports) > maxPooledReportCap {
			ln.reports = nil
		} else {
			ln.reports = ln.reports[:0]
		}
		ln.numReports = 0
		ln.pos = 0
		ln.running, ln.done = false, false
	}
	be.runningMask, be.occupiedMask = 0, 0
	be.img.batchPool.Put(be)
}

// configure applies opts to a fresh or pooled engine and resets it.
func (be *BatchEngine) configure(opts BatchOptions) {
	be.reportsWanted = opts.CollectReports
	be.kernel = opts.Kernel
	be.denseCut = opts.DenseThreshold
	if be.denseCut <= 0 {
		be.denseCut = max(2*be.img.words, minDenseCut)
	}
	be.OnReport = nil
	be.denseTicks, be.sparseTicks, be.ticks = 0, 0, 0
	be.Reset()
}

// Reset clears all dynamic state: every lane is freed and the frontier
// emptied. (Lane buffers are retained for reuse.)
func (be *BatchEngine) Reset() {
	be.clearCur()
	for w := range be.unionNxt {
		be.unionNxt[w] = 0
	}
	// nxtLane entries are only ever set under a unionNxt bit, which the
	// swap-and-scrub protocol clears; after clearCur of both sides the
	// arrays are all-zero. Scrub defensively anyway so Reset recovers
	// from any state.
	for s := range be.nxtLane {
		be.nxtLane[s] = 0
	}
	be.next = be.next[:0]
	be.nxtLen = 0
	be.buildNext = true
	be.actList = be.actList[:0]
	be.repBuf = be.repBuf[:0]
	for l := range be.lanes {
		ln := &be.lanes[l]
		ln.input = nil
		ln.pos = 0
		ln.reports = ln.reports[:0]
		ln.numReports = 0
		ln.running, ln.done = false, false
	}
	be.runningMask, be.occupiedMask = 0, 0
}

// clearCur scrubs the current frontier side back to all-zero.
func (be *BatchEngine) clearCur() {
	for w, uw := range be.unionCur {
		if uw == 0 {
			continue
		}
		be.unionCur[w] = 0
		base := w << 6
		for uw != 0 {
			be.curLane[base|bits.TrailingZeros64(uw)] = 0
			uw &= uw - 1
		}
	}
	be.frontier = be.frontier[:0]
	be.curLen = 0
	be.curListValid = true
}

// Join attaches input to a free lane and returns its index; ok is false
// when all MaxLanes lanes are occupied. Joining is legal at any point
// between Ticks — a late stream starts at its own position 0 while the
// rest of the batch is mid-flight. An empty input completes immediately:
// the lane is returned already retired (Done reports true) and emits no
// reports.
func (be *BatchEngine) Join(input []byte) (int, bool) {
	free := ^be.occupiedMask
	if free == 0 {
		return -1, false
	}
	l := bits.TrailingZeros64(free)
	ln := &be.lanes[l]
	ln.input = input
	ln.pos = 0
	ln.reports = ln.reports[:0]
	ln.numReports = 0
	be.occupiedMask |= 1 << uint(l)
	if len(input) == 0 {
		ln.running, ln.done = false, true
		return l, true
	}
	ln.running, ln.done = true, false
	be.runningMask |= 1 << uint(l)
	laneBit := uint64(1) << uint(l)
	for _, s := range be.img.startsOfData {
		be.enableLane(s, laneBit)
	}
	return l, true
}

// Retire cancels a running lane early (deadline, disconnect): its enable
// bits are withdrawn from the frontier and the lane moves to done with
// the reports accumulated so far. Retiring a lane never perturbs the
// other lanes' streams.
func (be *BatchEngine) Retire(lane int) {
	ln := &be.lanes[lane]
	if !ln.running {
		return
	}
	laneBit := uint64(1) << uint(lane)
	for w, uw := range be.unionCur {
		base := w << 6
		for m := uw; m != 0; m &= m - 1 {
			s := base | bits.TrailingZeros64(m)
			if be.curLane[s]&laneBit == 0 {
				continue
			}
			be.curLane[s] &^= laneBit
			if be.curLane[s] == 0 {
				be.unionCur[w] &^= 1 << uint(s&63)
				be.curLen--
				be.curListValid = false // the list cache is now stale
			}
		}
	}
	ln.running, ln.done = false, true
	be.runningMask &^= laneBit
}

// Free releases a done (or running: it is retired first) lane slot for
// reuse by a later Join. The lane's reports become invalid.
func (be *BatchEngine) Free(lane int) {
	ln := &be.lanes[lane]
	if ln.running {
		be.Retire(lane)
	}
	ln.input = nil
	ln.reports = ln.reports[:0]
	ln.numReports = 0
	ln.pos = 0
	ln.done = false
	be.occupiedMask &^= 1 << uint(lane)
}

// Running returns the number of lanes still consuming input.
func (be *BatchEngine) Running() int { return bits.OnesCount64(be.runningMask) }

// RunningMask returns the bitmask of lanes still consuming input.
func (be *BatchEngine) RunningMask() uint64 { return be.runningMask }

// FreeLanes returns the number of joinable lane slots.
func (be *BatchEngine) FreeLanes() int { return MaxLanes - bits.OnesCount64(be.occupiedMask) }

// Done reports whether the lane has finished (input exhausted or
// retired); its reports stay readable until Free.
func (be *BatchEngine) Done(lane int) bool { return be.lanes[lane].done }

// LanePos returns the lane-local position of the next symbol the lane
// will consume (== symbols consumed so far).
func (be *BatchEngine) LanePos(lane int) int64 { return be.lanes[lane].pos }

// LaneReports returns the lane's collected reports (valid until the lane
// is freed or the engine released).
func (be *BatchEngine) LaneReports(lane int) []Report { return be.lanes[lane].reports }

// LaneNumReports returns the lane's total report count.
func (be *BatchEngine) LaneNumReports(lane int) int64 { return be.lanes[lane].numReports }

// DenseTicks returns how many Ticks ran the dense union pass.
func (be *BatchEngine) DenseTicks() int64 { return be.denseTicks }

// SparseTicks returns how many Ticks ran the sparse union walk.
func (be *BatchEngine) SparseTicks() int64 { return be.sparseTicks }

// Ticks returns the total lockstep cycles executed.
func (be *BatchEngine) Ticks() int64 { return be.ticks }

// enableLane enables state s in the lanes of mask for the current cycle
// (Join-time start-of-data activation). All-input starts are never
// tracked in the frontier, exactly as in the solo engine.
func (be *BatchEngine) enableLane(s automata.StateID, mask uint64) {
	w, m := int(s)>>6, uint64(1)<<(uint(s)&63)
	if be.img.allInput[w]&m != 0 {
		return
	}
	if be.curLane[s] == 0 {
		be.unionCur[w] |= m
		be.curLen++
		if be.curListValid {
			be.frontier = append(be.frontier, s)
		}
	}
	be.curLane[s] |= mask
}

// materializeFrontier rebuilds the union frontier list from the bitmap
// (ascending state order) after a dense pass or a Retire left it stale.
func (be *BatchEngine) materializeFrontier() {
	f := be.frontier[:0]
	for w, word := range be.unionCur {
		base := w << 6
		for word != 0 {
			f = append(f, automata.StateID(base|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	be.frontier = f
	be.curListValid = true
}

// Tick advances every running lane by one symbol and returns the mask of
// lanes that finished on this cycle (their last symbol consumed). It
// returns retired == 0 and advances nothing once no lane is running;
// callers loop `for be.Running() > 0 { be.Tick() }`.
func (be *BatchEngine) Tick() (retired uint64) {
	if be.runningMask == 0 {
		return 0
	}
	be.ticks++

	// Bucket the running lanes by the byte each is reading: lanes that
	// share a byte share all per-symbol image traffic below.
	syms := be.cycleSyms[:0]
	for m := be.runningMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		ln := &be.lanes[l]
		b := ln.input[ln.pos]
		if be.symLanes[b] == 0 {
			syms = append(syms, cycleSym{b: b})
		}
		be.symLanes[b] |= 1 << uint(l)
	}
	for i := range syms {
		syms[i].lanes = be.symLanes[syms[i].b]
		be.symLanes[syms[i].b] = 0
	}
	be.cycleSyms = syms

	// The dense pass costs one union scan per distinct symbol, so its
	// crossover point scales with the cycle's symbol diversity.
	if be.kernel == KernelDense ||
		(be.kernel == KernelAuto && be.curLen >= be.denseCut*len(syms)) {
		be.tickDense(syms)
	} else {
		be.tickSparse(syms)
	}
	return be.finishTick(syms)
}

// tickSparse consumes the union frontier state by state: the state's 4
// contiguous match words are loaded once and tested against each of the
// (≤ running lanes) distinct bytes of the cycle — the per-lane sparse
// fallback; with one running lane it degenerates to exactly the solo
// sparse walk's one test per state.
func (be *BatchEngine) tickSparse(syms []cycleSym) {
	be.sparseTicks++
	if !be.curListValid {
		be.materializeFrontier()
	}
	be.buildNext = true
	img := be.img
	for _, s := range be.frontier {
		lanesEn := be.curLane[s]
		be.curLane[s] = 0
		be.unionCur[int(s)>>6] &^= 1 << (uint(s) & 63)
		base := int(s) << 2
		var am uint64
		for _, cs := range syms {
			if img.match[base|int(cs.b>>6)]&(1<<(cs.b&63)) != 0 {
				am |= cs.lanes
			}
		}
		if am &= lanesEn; am != 0 {
			be.accumulate(s, am)
		}
	}
	be.frontier = be.frontier[:0]
	be.curLen = 0
	for _, cs := range syms {
		for _, s := range img.startAct[cs.b] {
			be.accumulate(s, cs.lanes)
		}
	}
}

// tickDense runs the word-parallel union pass once per distinct byte:
// candidate states are (unionFrontier AND symMask[b]) OR startMask[b],
// found 64 states per instruction, and each candidate contributes its
// enabled-lane mask restricted to the lanes reading b. The consumed
// frontier side is scrubbed in one final union walk.
func (be *BatchEngine) tickDense(syms []cycleSym) {
	be.denseTicks++
	be.buildNext = false
	img := be.img
	for _, cs := range syms {
		sm := img.symMask[cs.b]
		stm := img.startMask[cs.b]
		lm := cs.lanes
		for w, uw := range be.unionCur {
			cand := uw&sm[w] | stm[w]
			if cand == 0 {
				continue
			}
			ai := img.allInput[w]
			base := w << 6
			for cand != 0 {
				bit := cand & -cand
				s := automata.StateID(base | bits.TrailingZeros64(cand))
				cand &= cand - 1
				var am uint64
				if ai&bit != 0 {
					am = lm // all-input start: enabled in every lane
				} else {
					am = be.curLane[s] & lm
				}
				if am != 0 {
					be.accumulate(s, am)
				}
			}
		}
	}
	be.clearCur()
	be.curListValid = false // finishTick's swap decides validity
}

// accumulate merges an activation of state s in lanes am into the cycle's
// activated set. First touch registers the state (and, if it reports, a
// report-buffer entry); later touches from other symbols OR in their
// disjoint lane masks.
func (be *BatchEngine) accumulate(s automata.StateID, am uint64) {
	if be.actLane[s] == 0 {
		be.actList = append(be.actList, s)
		if be.img.report[int(s)>>6]&(1<<(uint(s)&63)) != 0 {
			be.repBuf = append(be.repBuf, s)
		}
	}
	be.actLane[s] |= am
}

// finishTick emits the cycle's reports in canonical order, scatters the
// activated states' successors once for the whole batch, advances lane
// positions, and swaps the frontier sides. Lanes that consumed their last
// symbol retire: their reports for this cycle are emitted but their
// successor activations are masked out, exactly as a solo run ends.
func (be *BatchEngine) finishTick(syms []cycleSym) (retired uint64) {
	// Lanes whose current symbol is their last.
	for m := be.runningMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		ln := &be.lanes[l]
		if ln.pos+1 >= int64(len(ln.input)) {
			retired |= 1 << uint(l)
		}
	}
	surviving := be.runningMask &^ retired

	// Reports: ascending state order within the cycle; each lane's stream
	// picks out its subsequence, so every lane sees the canonical solo
	// order. repBuf is near-sorted (dense candidates ascend per symbol),
	// so the insertion sort is cheap and allocation-free.
	if rb := be.repBuf; len(rb) > 0 {
		for i := 1; i < len(rb); i++ {
			for j := i; j > 0 && rb[j] < rb[j-1]; j-- {
				rb[j], rb[j-1] = rb[j-1], rb[j]
			}
		}
		for _, s := range rb {
			for am := be.actLane[s]; am != 0; am &= am - 1 {
				l := bits.TrailingZeros64(am)
				ln := &be.lanes[l]
				ln.numReports++
				if be.OnReport != nil {
					be.OnReport(l, ln.pos, s)
				} else if be.reportsWanted {
					ln.reports = append(ln.reports, Report{Pos: ln.pos, State: s})
				}
			}
		}
		be.repBuf = rb[:0]
	}

	// Scatter: one CSR walk per activated state for the whole batch.
	// Successors of a retiring lane's final symbol would feed a cycle
	// that lane never runs, so its bits are dropped here.
	img := be.img
	nxt := be.nxtLane
	for _, s := range be.actList {
		am := be.actLane[s] & surviving
		be.actLane[s] = 0
		if am == 0 {
			continue
		}
		for _, v := range img.succ[img.succOff[s]:img.succOff[s+1]] {
			if nxt[v] == 0 {
				w := int(v) >> 6
				be.unionNxt[w] |= 1 << (uint(v) & 63)
				be.nxtLen++
				if be.buildNext {
					be.next = append(be.next, v)
				}
			}
			nxt[v] |= am
		}
	}
	be.actList = be.actList[:0]

	// Advance and retire lanes.
	for m := be.runningMask; m != 0; m &= m - 1 {
		be.lanes[bits.TrailingZeros64(m)].pos++
	}
	for m := retired; m != 0; m &= m - 1 {
		ln := &be.lanes[bits.TrailingZeros64(m)]
		ln.running, ln.done = false, true
	}
	be.runningMask = surviving

	// Swap the frontier sides. The consumed side was scrubbed to zero
	// during the pass, so it becomes a clean next side.
	be.curLane, be.nxtLane = be.nxtLane, be.curLane
	be.unionCur, be.unionNxt = be.unionNxt, be.unionCur
	be.curLen, be.nxtLen = be.nxtLen, 0
	be.frontier, be.next = be.next, be.frontier
	be.next = be.next[:0]
	be.curListValid = be.buildNext
	return retired
}

// RunBatch executes every input as one lane of a batch engine and returns
// the per-input results in input order — the drop-in batched counterpart
// of calling Run once per input. Inputs beyond MaxLanes are scheduled
// onto lanes as earlier streams retire, so any number of streams runs in
// one image walk pipeline.
func RunBatch(net *automata.Network, inputs [][]byte, opts BatchOptions) []*Result {
	be := AcquireBatchEngine(net, opts)
	defer be.Release()
	results := make([]*Result, len(inputs))
	laneOf := make(map[int]int, MaxLanes) // lane -> input index
	nextInput := 0
	finish := func(lane int) {
		idx := laneOf[lane]
		res := &Result{
			NumReports: be.LaneNumReports(lane),
			Symbols:    be.LanePos(lane),
		}
		if opts.CollectReports {
			res.Reports = append([]Report(nil), be.LaneReports(lane)...)
		}
		results[idx] = res
		delete(laneOf, lane)
		be.Free(lane)
	}
	for nextInput < len(inputs) || be.Running() > 0 {
		for nextInput < len(inputs) {
			lane, ok := be.Join(inputs[nextInput])
			if !ok {
				break
			}
			laneOf[lane] = nextInput
			nextInput++
			if be.Done(lane) { // empty input: completes without ticking
				finish(lane)
			}
		}
		if be.Running() == 0 {
			continue
		}
		ret := be.Tick()
		for m := ret; m != 0; m &= m - 1 {
			finish(bits.TrailingZeros64(m))
		}
	}
	return results
}
