// Package sim implements a functional simulator for homogeneous NFAs — the
// role VASim plays in the paper.
//
// Execution follows the AP semantics of Section II: each cycle the enabled
// states whose symbol set contains the current input symbol are *activated*;
// activated reporting states emit a report; the successors of activated
// states are *enabled* for the next cycle. All-input start states are
// enabled every cycle; start-of-data start states only at position 0.
//
// The hot path is a direction-optimizing kernel over a compiled network
// image (see compile.go): while the frontier is small, a sparse walk costs
// O(frontier) with contiguous match-word loads; when it crosses an adaptive
// threshold, a word-parallel dense pass ANDs the frontier bitmap against
// the symbol's transposed match bitmap, activating 64 states per
// instruction, and enables their successors 64 per shift (the shift-and
// step of bit-parallel NFA engines) — the same sparse/dense switch
// direction-optimizing BFS applies to its frontier. The sparse walk's cost
// tracks the enabled set, never the network (critical for networks with
// 10^5 states, of which most are cold). What the all-input starts enabled
// on the previous symbol is most of that set and never enters it: between
// two sparse steps it stays the image's per-symbol start plan, the pending
// plan, and the next step tests it in place against its symbol's row. A run
// of symbols that can do nothing but swap one pending plan for the next —
// nothing explicit enabled, no plan state matching — is not stepped at all:
// Skip crosses it at one bit of the image's quiet table a symbol.
//
// Reports within a cycle are emitted in canonical ascending-state order,
// so every kernel — sparse, dense, adaptive, and the multi-stream batch
// engine — produces bit-identical report streams.
package sim

import (
	"context"
	"math/bits"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/checkpoint"
)

// cancelCheckInterval is how many symbols an execution loop processes
// between context polls. At the modeled 7.5 ns cycle this is ~30 µs of
// simulated stream — far below one batch — so every entry point returns
// well within a batch of cancellation while keeping the common path free
// of per-symbol select overhead.
const cancelCheckInterval = 4096

// cancelled polls ctx without blocking.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Report is one match: reporting state s activated at input position Pos.
type Report struct {
	Pos   int64
	State automata.StateID
}

// Kernel selects the per-cycle step strategy.
type Kernel int

const (
	// KernelAuto switches per cycle: sparse walk while the frontier and
	// the symbol's start activations are both below the dense threshold,
	// word-parallel dense pass otherwise. The default.
	KernelAuto Kernel = iota
	// KernelSparse always walks the frontier list.
	KernelSparse
	// KernelDense always runs the word-parallel bitmap pass.
	KernelDense
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelSparse:
		return "sparse"
	case KernelDense:
		return "dense"
	}
	return "unknown"
}

// Engine executes a network over an input stream one symbol per Step.
// Engines are built over a shared read-only Image; all mutable state is
// engine-local, so any number of engines may run concurrently over one
// network. Engine.Step performs no allocation in steady state (after the
// frontier and report buffers have grown to their working size).
type Engine struct {
	img *Image

	// The frontier is an explicit part and a pending one. The explicit
	// part's authoritative representation is the bitmap cur plus the
	// population count curLen; the sparse list frontier is a cache of
	// it, valid only when curListValid. A sparse pass builds next-cycle
	// lists eagerly so steady-state sparse walks never scan the bitmap; a
	// dense pass skips list maintenance entirely — enabling a state is
	// then one bit-set — and the list is materialized from the bitmap
	// only when the kernel switches back to sparse.
	frontier     []automata.StateID
	cur          []uint64
	curLen       int
	curListValid bool
	next         []automata.StateID
	nxt          []uint64
	nxtLen       int
	// The pending part is img.startNext[pend], the start plan of the symbol
	// the last sparse step read: what the all-input starts enabled on that
	// cycle. It is never copied into cur; the next sparse step tests it
	// where it lies. pendLen is its length, and 0 when nothing is pending
	// (after Reset, Restore, a dense step or settle; pend then means
	// nothing). The two parts may overlap: a state the walk enabled can be
	// in the plan as well. Reads (FrontierLen, FrontierEmpty, Snapshot)
	// answer for the union and change nothing; whatever edits the frontier
	// or reads cur as the whole of it settles the plan first.
	pend    byte
	pendLen int

	ever    *bitvec.Vec // ever-enabled set (nil unless tracking)
	everBuf *bitvec.Vec // retained across pooled reuse

	kernel Kernel
	// denseCut is the image's; only in-package tests set another, to get
	// dense steps out of networks a few states wide.
	denseCut int

	reportsWanted bool
	reports       []Report
	// repBuf collects the reporting states activated in the current
	// cycle; finishStep sorts it (canonical ascending-state order) and
	// flushes it to reports / OnReport.
	repBuf     []automata.StateID
	numReports int64

	denseSteps  int64
	sparseSteps int64

	// OnReport, when non-nil, is invoked for every activated reporting
	// state instead of appending to the internal report list.
	OnReport func(pos int64, s automata.StateID)
}

// Options configures a run.
type Options struct {
	// TrackEnabled records the ever-enabled (hot) state set.
	TrackEnabled bool
	// CollectReports appends each report to Result.Reports. Ignored when
	// the engine's OnReport callback is set.
	CollectReports bool
	// Kernel selects the step strategy (default KernelAuto).
	Kernel Kernel
}

// Result summarizes a Run.
type Result struct {
	// Reports holds the collected reports in emission order.
	Reports []Report
	// NumReports counts all reports, collected or not.
	NumReports int64
	// EverEnabled is the hot-state set (nil unless requested).
	EverEnabled *bitvec.Vec
	// Symbols is the number of input symbols processed.
	Symbols int64
	// Resumed reports whether the run continued from a stored checkpoint.
	Resumed bool
	// ResumePos is the input position execution restarted from (0 when
	// not resumed).
	ResumePos int64
	// Recovered reports whether the latest checkpoint slot was corrupt
	// and the run fell back to the previous good one.
	Recovered bool
	// Saves counts the checkpoints persisted during this call.
	Saves int64
}

// NewEngine builds a fresh engine for net with the given options. The
// compiled image is shared (and cached on the network); only the dynamic
// state is per-engine. Prefer AcquireEngine/Release for repeated runs.
func NewEngine(net *automata.Network, opts Options) *Engine {
	e := newEngine(ImageOf(net))
	e.configure(opts)
	return e
}

func newEngine(img *Image) *Engine {
	return &Engine{
		img: img,
		cur: make([]uint64, img.words),
		nxt: make([]uint64, img.words),
	}
}

// configure applies opts to a fresh or pooled engine and resets it.
func (e *Engine) configure(opts Options) {
	e.reportsWanted = opts.CollectReports
	e.kernel = opts.Kernel
	e.denseCut = e.img.denseCut
	if opts.TrackEnabled {
		if e.everBuf == nil {
			e.everBuf = bitvec.New(e.img.n)
		}
		e.ever = e.everBuf
	} else {
		e.ever = nil
	}
	e.OnReport = nil
	e.denseSteps, e.sparseSteps = 0, 0
	e.Reset()
}

// Reset clears all dynamic state and re-enables start-of-data states for
// position 0. Ever-enabled tracking and report counts are also reset.
func (e *Engine) Reset() {
	if e.curListValid && e.curLen == len(e.frontier) {
		for _, s := range e.frontier {
			e.cur[int(s)>>6] &^= 1 << (uint(s) & 63)
		}
	} else {
		for w := range e.cur {
			e.cur[w] = 0
		}
	}
	e.frontier = e.frontier[:0]
	e.curLen = 0
	e.curListValid = true
	e.pendLen = 0 // the pending plan was never in cur: nothing to clear
	// Between Steps the next-cycle side is always empty; clear it anyway
	// so Reset recovers from any state.
	for w := range e.nxt {
		e.nxt[w] = 0
	}
	e.next = e.next[:0]
	e.nxtLen = 0
	if e.ever != nil {
		e.ever.Reset()
		// All-input starts are enabled on every cycle, hence hot by
		// definition (assuming a non-empty input).
		for _, s := range e.img.allInputHot {
			e.ever.Set(int(s))
		}
	}
	for _, s := range e.img.startsOfData {
		e.enableCur(s)
	}
	e.reports = e.reports[:0]
	e.repBuf = e.repBuf[:0]
	e.numReports = 0
}

// enableCur adds s to the frontier consumed by the next Step.
func (e *Engine) enableCur(s automata.StateID) {
	w, m := int(s)>>6, uint64(1)<<(uint(s)&63)
	if e.img.allInput[w]&m != 0 {
		return // always enabled; never tracked in the frontier
	}
	if e.cur[w]&m == 0 {
		e.cur[w] |= m
		e.curLen++
		if e.curListValid {
			e.frontier = append(e.frontier, s)
		}
		if e.ever != nil {
			e.ever.Set(int(s))
		}
	}
}

// materializeFrontier rebuilds the sparse frontier list from the bitmap
// (ascending state order) after a dense pass left the list stale.
func (e *Engine) materializeFrontier() {
	f := e.frontier[:0]
	for w, word := range e.cur {
		base := w << 6
		for word != 0 {
			f = append(f, automata.StateID(base|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	e.frontier = f
	e.curListValid = true
}

// pending returns the pending start plan (empty when none is).
func (e *Engine) pending() []automata.StateID {
	return e.img.startNext[e.pend][:e.pendLen]
}

// settle moves the pending plan into the explicit frontier — the bitmap,
// and the list while it is valid — for the callers that edit the frontier
// or read cur as the whole of it. The sparse step that left the plan
// pending has already marked it ever-enabled.
func (e *Engine) settle() {
	for _, v := range e.pending() {
		w, m := int(v)>>6, uint64(1)<<(uint(v)&63)
		if e.cur[w]&m == 0 {
			e.cur[w] |= m
			e.curLen++
			if e.curListValid {
				e.frontier = append(e.frontier, v)
			}
		}
	}
	e.pendLen = 0
}

// EnableState enables s for the next Step call. This is the SpAP "enable"
// operation (Section V-B). Like every edit of the frontier it settles a
// pending start plan first, at a bit test per plan state; the engines SpAP
// enables into run the cold network, which has no all-input start and so
// never a plan.
func (e *Engine) EnableState(s automata.StateID) {
	e.settle()
	e.enableCur(s)
}

// DisableState removes s from the frontier consumed by the next Step. It
// models the destructive half of a transient enable-bit flip (soft error);
// all-input start states cannot be disabled, matching the hardware where
// their enable line is hard-wired. The frontier is compacted lazily, so
// the call is O(frontier) only when s was actually enabled.
func (e *Engine) DisableState(s automata.StateID) {
	e.settle()
	w, m := int(s)>>6, uint64(1)<<(uint(s)&63)
	if e.cur[w]&m == 0 {
		return
	}
	e.cur[w] &^= m
	e.curLen--
	if !e.curListValid {
		return // the bitmap is authoritative; no list to compact
	}
	for i, f := range e.frontier {
		if f == s {
			last := len(e.frontier) - 1
			e.frontier[i] = e.frontier[last]
			e.frontier = e.frontier[:last]
			return
		}
	}
}

// ToggleState flips the enable bit of s: enabled states are disabled and
// vice versa — the SpAP-model view of a transient enable-bit flip.
func (e *Engine) ToggleState(s automata.StateID) {
	e.settle()
	if e.cur[int(s)>>6]&(1<<(uint(s)&63)) != 0 {
		e.DisableState(s)
		return
	}
	e.enableCur(s)
}

// FrontierEmpty reports whether no state is dynamically enabled. For a
// network with no all-input start states this is the SpAP jump condition.
func (e *Engine) FrontierEmpty() bool { return e.curLen+e.pendLen == 0 }

// FrontierLen returns the number of dynamically enabled states: the
// explicit ones plus the pending plan's, less those in both. It costs a bit
// test per pending state.
func (e *Engine) FrontierLen() int {
	n := e.curLen + e.pendLen
	for _, v := range e.pending() {
		if e.cur[int(v)>>6]&(1<<(uint(v)&63)) != 0 {
			n--
		}
	}
	return n
}

// HasAllInputStarts reports whether any state is an all-input start (such
// states are enabled every cycle and preclude the jump optimization).
func (e *Engine) HasAllInputStarts() bool { return e.img.hasAllInput }

// Step processes one input symbol at position pos, dispatching to the
// sparse or dense kernel per the configured strategy. KernelAuto prices
// the sparse walk in activations: the frontier is about as long as the
// number of activations that enabled it, which is about what this cycle's
// will be, and every all-input start sym fires is one for certain. The
// frontier's length is taken as explicit plus pending: a state in both
// counts twice, which is what it would cost the walk. The dense pass reads
// the bitmap alone, so the pending plan is settled into it first.
func (e *Engine) Step(pos int64, sym byte) {
	if e.kernel == KernelDense ||
		(e.kernel == KernelAuto && max(e.curLen+e.pendLen, int(e.img.startCount[sym].starts)) >= e.denseCut) {
		if e.pendLen != 0 {
			e.curListValid = false // the dense pass keeps no list: settle bits only
			e.settle()
		}
		e.stepDense(pos, sym)
	} else {
		e.stepSparse(pos, sym)
	}
}

// stepSparse consumes the frontier in its two parts. What the all-input
// starts enable and report on a cycle is decided by the symbol alone, so
// Compile worked it out (startNext, startRep), and what they enabled on the
// last cycle is the pending plan: it is tested where it lies, one bit of
// sym's row of symMask per entry, ascending through the row, and only the
// few entries that match activate. An entry that is also in cur is left to
// the walk, which reaches it. Then the explicit frontier is walked state by
// state: one contiguous match-word load and test per enabled state. This
// symbol's plan is not installed anywhere: it is marked ever-enabled when
// tracking and left pending for the next step, so the next frontier the
// step builds — list and bitmap, eagerly, predicting the next cycle stays
// sparse — holds the activations' successors alone. The start reports go in
// after the walk's, which keeps the cycle's reports nearly sorted for
// flushReports.
func (e *Engine) stepSparse(pos int64, sym byte) {
	e.sparseSteps++
	if !e.curListValid {
		e.materializeFrontier() // the previous cycle ran dense
	}
	img := e.img
	if e.pendLen != 0 {
		cur, row := e.cur, img.symMask[sym][:len(e.cur)]
		for _, v := range e.pending() {
			w, m := int(v)>>6, uint64(1)<<(uint(v)&63)
			if row[w]&m != 0 && cur[w]&m == 0 {
				e.activate(v)
			}
		}
	}

	mw := int(sym >> 6)
	mb := uint64(1) << (sym & 63)
	for _, s := range e.frontier {
		e.cur[int(s)>>6] &^= 1 << (uint(s) & 63)
		if img.match[int(s)<<2|mw]&mb != 0 {
			e.activate(s)
		}
	}
	e.frontier = e.frontier[:0]
	e.curLen = 0
	if e.ever != nil {
		for _, v := range img.startNext[sym] {
			e.ever.Set(int(v))
		}
	}
	// Few symbols fire a reporting start; an append of nothing still costs
	// its call and three stores on every step.
	if rep := img.startRep[sym]; len(rep) != 0 {
		e.repBuf = append(e.repBuf, rep...)
	}
	e.pend, e.pendLen = sym, int(img.startCount[sym].plan)
	e.finishStep(pos, true)
}

// stepDense consumes the frontier bitmap word-parallel, one sweep of all
// its words per shift class and no list of the live ones: whether a word
// has anything in it is a coin toss on the workloads that run dense, and a
// sweep that does not ask has no branch to miss. The first sweep activates
// — a word's activated set is (frontier AND symMask[sym]) OR startMask[sym]
// — and follows class 0 in the same breath: the activated sources in the
// class's mask rotate up by its delta, the bits that stay inside the word
// land in nxt, and those that wrapped ride to the next word in a register.
// Only a word with an activated exception or reporting state in it
// (slowMask) leaves the loop, for denseSlow. Each further class is the same
// carry loop over the activated words (shiftSweep), and one last pass
// counts the next frontier and clears the consumed one. A step costs
// O(words × classes + activated exceptions + reports); it predicts the next
// cycle stays dense and keeps no frontier list. On an image without
// classes the first sweep only activates, and every state with a successor
// is an exception.
func (e *Engine) stepDense(pos int64, sym byte) {
	e.denseSteps++
	img := e.img
	cur, nxt := e.cur, e.nxt[:len(e.cur)]
	sm := img.symMask[sym][:len(cur)]
	stm := img.startMask[sym][:len(cur)]
	slow := img.slowMask[:len(cur)]

	if len(img.shift) == 0 {
		for w, cw := range cur {
			if act := cw&sm[w] | stm[w]; act&slow[w] != 0 {
				e.denseSlow(w, act)
			}
		}
	} else {
		mask, d := img.shiftMask[:len(cur)], img.shift[0]
		keep := ^uint64(0) << (d & 63)
		carry := uint64(0)
		for w, cw := range cur {
			act := cw&sm[w] | stm[w]
			cur[w] = act
			r := bits.RotateLeft64(act&mask[w], int(d))
			nxt[w] |= r&keep | carry
			carry = r &^ keep
			if act&slow[w] != 0 {
				e.denseSlow(w, act)
			}
		}
		for k := 1; k < len(img.shift); k++ {
			shiftSweep(cur, nxt, img.shiftMask[k*len(cur):][:len(cur)], img.shift[k])
		}
	}

	// The count is a pass of its own, in a register: counting the bits
	// where they are set costs the chains more than this pass does.
	n := 0
	for w, x := range nxt {
		n += bits.OnesCount64(x)
		cur[w] = 0
	}
	e.nxtLen = n
	if e.ever != nil {
		ever := e.ever.Words()
		for w, x := range nxt {
			ever[w] |= x
		}
	}
	e.frontier = e.frontier[:0]
	e.curLen = 0
	e.finishStep(pos, false)
}

// denseSlow finishes a word of the dense pass's first sweep that has an
// activated exception or reporting state in it. An exception enables its
// successors a bitmap word at a time out of its slot, and both pairs of the
// slot are read whether the second holds anything or not: no branch asks
// how many successors a state has. The bits do not go to nxt one state at
// a time either — neighbouring exceptions enable into the same word (19 in
// 20 on the Hamming and Levenshtein grids), and an OR into memory that
// waits for the previous state's OR into the same word is what a scatter
// per state costs — but gather in two registers, one per pair, each
// written out when its word changes. The few exceptions whose successors
// span more than two words go on through their overflow pairs. Reporting
// states come out ascending, as flushReports wants them.
func (e *Engine) denseSlow(w int, act uint64) {
	img := e.img
	nxt := e.nxt
	base := w << 6
	var w0, w1 uint32
	var b0, b1 uint64
	for x := act & img.excMask[w]; x != 0; x &= x - 1 {
		sl := &img.excSlots[img.slotOff[base|bits.TrailingZeros64(x)]]
		if sl.word[0] != w0 {
			nxt[w0] |= b0
			w0, b0 = sl.word[0], 0
		}
		b0 |= sl.bits[0]
		if sl.word[1] != w1 {
			nxt[w1] |= b1
			w1, b1 = sl.word[1], 0
		}
		b1 |= sl.bits[1]
	}
	nxt[w0] |= b0
	nxt[w1] |= b1
	if img.ovfMask != nil {
		for x := act & img.ovfMask[w]; x != 0; x &= x - 1 {
			sl := &img.excSlots[img.slotOff[base|bits.TrailingZeros64(x)]]
			for _, p := range img.excOvf[sl.ovf:sl.ovfEnd] {
				nxt[p.word] |= p.bits
			}
		}
	}
	for x := act & img.report[w]; x != 0; x &= x - 1 {
		e.repBuf = append(e.repBuf, automata.StateID(base|bits.TrailingZeros64(x)))
	}
}

// shiftSweep enables the successors one shift class carries: in every
// word, the activated sources in mask move up by d, and the bits that
// cross bit 63 are carried into the next word. Nothing is carried out of
// the last word: a source's target is a state. It is a loop of its own,
// one class at a time, so that the shift count, the keep mask and the
// carry stay in registers.
func shiftSweep(act, nxt, mask []uint64, d uint8) {
	nxt = nxt[:len(act)]
	mask = mask[:len(act)]
	keep := ^uint64(0) << (d & 63)
	carry := uint64(0)
	for w, a := range act {
		r := bits.RotateLeft64(a&mask[w], int(d))
		nxt[w] |= r&keep | carry
		carry = r &^ keep
	}
}

// activate buffers a report for s (if it reports) and enables its
// successors for the next cycle, appending the newly enabled ones to the
// next frontier list. The image's CSR successor lists already exclude
// all-input start targets. Only the sparse step's frontier states, pending
// and explicit, activate one by one; the starts go through the symbol's
// plan.
func (e *Engine) activate(s automata.StateID) {
	img := e.img
	if img.report[int(s)>>6]&(1<<(uint(s)&63)) != 0 {
		e.repBuf = append(e.repBuf, s)
	}
	succ := img.succ[img.succOff[s]:img.succOff[s+1]]
	nxt := e.nxt
	n := e.nxtLen
	next := e.next
	if e.ever == nil {
		for _, v := range succ {
			w, m := int(v)>>6, uint64(1)<<(uint(v)&63)
			if nxt[w]&m == 0 {
				nxt[w] |= m
				n++
				next = append(next, v)
			}
		}
	} else {
		for _, v := range succ {
			w, m := int(v)>>6, uint64(1)<<(uint(v)&63)
			if nxt[w]&m == 0 {
				nxt[w] |= m
				n++
				next = append(next, v)
				e.ever.Set(int(v))
			}
		}
	}
	e.next = next
	e.nxtLen = n
}

// finishStep flushes the cycle's buffered reports in canonical order and
// swaps the frontiers. The caller has already consumed the current side;
// listBuilt says whether it kept the next frontier's list as well as its
// bitmap.
func (e *Engine) finishStep(pos int64, listBuilt bool) {
	if len(e.repBuf) > 0 {
		e.flushReports(pos)
	}
	e.frontier, e.next = e.next, e.frontier
	e.cur, e.nxt = e.nxt, e.cur
	e.curLen, e.nxtLen = e.nxtLen, 0
	e.curListValid = listBuilt
}

// flushReports emits the cycle's reports in ascending state order. The
// dense pass produces repBuf already sorted and the sparse walk nearly
// so; an insertion sort makes the canonical order allocation-free.
func (e *Engine) flushReports(pos int64) {
	rb := e.repBuf
	for i := 1; i < len(rb); i++ {
		for j := i; j > 0 && rb[j] < rb[j-1]; j-- {
			rb[j], rb[j-1] = rb[j-1], rb[j]
		}
	}
	for _, s := range rb {
		e.numReports++
		if e.OnReport != nil {
			e.OnReport(pos, s)
		} else if e.reportsWanted {
			e.reports = append(e.reports, Report{Pos: pos, State: s})
		}
	}
	e.repBuf = rb[:0]
}

// Reports returns the collected reports (valid until the next Reset,
// Restore, or Release).
func (e *Engine) Reports() []Report { return e.reports }

// NumReports returns the total number of reports emitted since Reset.
func (e *Engine) NumReports() int64 { return e.numReports }

// EverEnabled returns the hot-state set, or nil if tracking was off.
func (e *Engine) EverEnabled() *bitvec.Vec { return e.ever }

// DenseSteps returns how many Step calls ran the dense kernel since the
// engine was configured.
func (e *Engine) DenseSteps() int64 { return e.denseSteps }

// SparseSteps returns how many Step calls ran the sparse kernel since the
// engine was configured.
func (e *Engine) SparseSteps() int64 { return e.sparseSteps }

// Run executes net over input and returns the result summary.
func Run(net *automata.Network, input []byte, opts Options) *Result {
	res, _ := RunContext(context.Background(), net, input, opts, nil)
	return res
}

// RunContext is Run with cancellation and, when ck is non-nil, durable
// checkpoints: a pooled engine runs input through Engine.execute, which
// polls ctx every cancelCheckInterval symbols, captures a snapshot every
// ck.Every symbols and resumes from the newest valid one. On cancellation
// or an injected crash the partial result (Symbols records how far it got)
// is returned with the error. The result is nil only when the stored
// checkpoint cannot be loaded or does not fit net.
func RunContext(ctx context.Context, net *automata.Network, input []byte, opts Options, ck *checkpoint.Runner) (*Result, error) {
	e := AcquireEngine(net, opts)
	defer e.Release()
	return e.execute(ctx, input, ck)
}

// HotStates runs net over input and returns the ever-enabled set. This is
// the profiling primitive of Section IV-A.
func HotStates(net *automata.Network, input []byte) *bitvec.Vec {
	return Run(net, input, Options{TrackEnabled: true}).EverEnabled
}
