// Compiled network images.
//
// The Engine does not walk automata.Network directly: per-frontier-state
// work there costs a pointer chase into a 70-odd-byte State struct, a
// symset method call, and a second random access per successor to check
// the target's start kind. Compile flattens everything the hot loop needs
// into a handful of contiguous arrays — CSR successor lists, state-major
// match words, per-symbol transposed match/start bitmaps, the shift-class
// masks of the dense pass and the (word, bits) slots of the states no class
// carries, the per-symbol start plans of the sparse walk and the table of
// symbol pairs it need not step (skip.go), and report/start flag words —
// built once per Network and shared read-only by every engine over it
// (serial runs, streaming sessions, spap's hot and cold executors,
// profiling).
//
// The image also owns the engine pool: engines are keyed by network
// identity through the image they were built for, so steady-state
// execution (repeated profiling, spap batches, serve sessions) allocates
// nothing.
package sim

import (
	"math/bits"
	"sync"

	"sparseap/internal/automata"
)

// Shift-and decomposition of the successor relation (see DESIGN.md §2). An
// edge s → s+d with d in [0, 63] can be followed for 64 sources at once by
// shifting the activated word left by d; Compile gives a delta a shift
// class when it carries at least 1/shiftClassShare of the edges, up to
// maxShiftClasses of them. A state all of whose edges fall in classes is
// enabled through the shifts alone; a state with any other edge (backward,
// longer than a word, rare) is an exception and enables its whole
// successor list out of its slot (buildExcSlots). A class costs a sweep of
// the bitmap, so a delta with a handful of edges is cheaper to leave to
// the slots than to mask, and classes that leave much to the slots cost
// their sweeps on top of them: unless the classes together leave at most
// 1/shiftScatterShare of the edges, the image gets none. 1/32 is where
// Fermi's self-loops and +13 edges become classes and its dense step
// halves; the grids (HM, LV) stop short of 90 % and run faster with every
// state in a slot. The sweeps behind both constants are in CHANGES.md.
const (
	maxShiftClasses   = 8
	shiftClassShare   = 32
	shiftScatterShare = 10
)

// Dense-kernel crossover (see DESIGN.md §3). A dense step sweeps every
// bitmap word once per shift class (the first sweep activates as well) and
// once more to count the next frontier; a sparse step pays a scattered
// match-word load per frontier state and, more, list upkeep for every
// successor an activation enables.
// KernelAuto therefore compares max(frontier length, starts the symbol
// activates) with denseCut: the frontier is about as long as the number
// of activations that enabled it, which is about what this step's will
// be, and the starts are activations for certain (RF2's frontier dips
// under a start storm of 370 a symbol). Adding the two instead counts
// the cold applications' starts twice and sent the 47-word hot fragments
// SpAP cuts out of DS and Snort to a dense pass slower than their walk.
// Swept on the ledger's panels and on those fragments, 5/8 of the words
// costs either side least, and each further class is one more sweep,
// hence words × (4 + classes) / 8; no other constant serves PEN and the
// fragments both better (the sweeps are in CHANGES.md). The floor keeps
// tiny frontiers on the sparse walk even for sub-1024-state networks
// where a word scan is nearly free.
const minDenseCut = 16

// wordBits is a set of states within one bitmap word.
type wordBits struct {
	bits uint64
	word uint32
}

// excSlot is an exception's successor set by bitmap word. The first two
// words' worth sit in the slot itself and the dense pass reads both pairs
// without asking how many there are: an unused second pair holds no bits
// and names the word the slot before it names there, so that it does not
// end a run of states enabling into one word (denseSlow gathers a run in a
// register). What is left, on the few states flagged in ovfMask, is
// excOvf[ovf:ovfEnd].
type excSlot struct {
	bits        [2]uint64
	word        [2]uint32
	ovf, ovfEnd uint32
}

// The two records' sizes in memory, for Footprint.
const (
	wordBitsBytes = 16
	excSlotBytes  = 32
)

// Image is the compiled, read-only execution layout of a Network. All
// fields are immutable after Compile; one image is shared by any number
// of concurrent engines.
type Image struct {
	net   *automata.Network
	n     int // number of states
	words int // ceil(n/64): length of every state-indexed bitmap

	// CSR successor arrays: successors of state s are
	// succ[succOff[s]:succOff[s+1]]. Edges into all-input start states
	// are filtered out at compile time (such states are enabled every
	// cycle and never tracked in the frontier), so the scatter loop
	// needs no per-target start-kind check.
	succOff []uint32
	succ    []automata.StateID

	// Shift classes of the dense pass. shift[k] is class k's delta;
	// shiftMask holds one bitmap per class, class-major: bit s of
	// shiftMask[k*words:] is set iff s is not an exception and has the
	// edge s → s+shift[k]. excMask marks the exceptions: the states with
	// at least one edge no class carries, which the dense pass enables
	// through their slot instead.
	shift     []uint8
	shiftMask []uint64
	excMask   []uint64

	// The exceptions' successors, packed for the dense pass: exception s
	// enables excSlots[slotOff[s]]. slotOff has an entry per state so that
	// the slot is one load away (ranking s in excMask by popcount costs
	// more than the ORs it feeds); both are nil on an image without
	// exceptions. ovfMask marks the exceptions whose successors lie in more
	// than two bitmap words, whose slots go on in excOvf, and is nil when
	// there are none. slowMask is excMask | report, the one test the sweep
	// makes of an activated word before it leaves the fast path, and
	// aliases report on an image without exceptions.
	slotOff  []uint32
	excSlots []excSlot
	excOvf   []wordBits
	ovfMask  []uint64
	slowMask []uint64

	// match holds the 256-bit symbol set of each state as 4 contiguous
	// words: state s matches symbol b iff
	// match[s*4+b/64] has bit b%64 set. State-major so the sparse walk
	// touches one cache line per frontier state.
	match []uint64

	// symMask[b] is the transpose of match: bit s of word s/64 is set
	// iff state s matches symbol b. The dense kernel ANDs it against
	// the frontier bitmap to activate 64 states per instruction.
	symMask [256][]uint64
	// startMask[b] marks the all-input start states activated by symbol
	// b. All 256 rows alias one zero row when the network has no
	// all-input starts.
	startMask [256][]uint64

	// report and allInput flag words: bit s set iff state s reports /
	// is an all-input start.
	report   []uint64
	allInput []uint64

	// The start plan of symbol b: everything the all-input starts do on a
	// cycle that reads b, which b alone decides. startNext[b] lists,
	// ascending and without duplicates, the states the starts b activates
	// enable (the union of their succ lists); startRep[b] lists, ascending,
	// those of the starts that report. The sparse step never activates the
	// starts one by one, and never copies startNext[b] either: it leaves it
	// pending and the next sparse step tests it where it lies (Engine.pend).
	// Each table's 256 rows share one backing array.
	startNext [256][]automata.StateID
	startRep  [256][]automata.StateID
	// startCount[b] holds what KernelAuto's rule reads of symbol b, side by
	// side so that the dispatch touches one cache line of a 2 KiB array and
	// no slice header out of a 6 KiB table: starts is the number of
	// all-input starts b activates (the rule's start term on the step that
	// reads b), plan is len(startNext[b]) (the pending part of the frontier
	// on the step after).
	startCount [256]struct{ starts, plan uint32 }
	// quiet says when a symbol can do nothing but re-arm the start plan
	// (skip.go): bit b of row p is set iff an engine whose explicit
	// frontier is empty and whose pending plan is startNext[p] takes the
	// sparse step on b, activates nothing and reports nothing. Row 256 is
	// for no plan pending. Nil without all-input starts. Behind a pointer:
	// 8 KiB more in the struct itself moved what is allocated after it, and
	// the ledger's forced-dense and batch rows with it (DESIGN.md §2).
	quiet *[257][4]uint64
	// allInputHot lists all-input starts with a non-empty symbol set;
	// they are enabled every cycle, hence ever-enabled by definition.
	allInputHot []automata.StateID
	// startsOfData lists start-of-data states (enabled at position 0).
	startsOfData []automata.StateID
	hasAllInput  bool

	// denseCut is the default frontier length (or number of starts the
	// symbol activates) at which KernelAuto switches from the sparse walk
	// to the dense pass.
	denseCut int

	// pool recycles the engines built over this image.
	pool sync.Pool
}

// Compile flattens net into an execution image. The image references the
// network's structure as of this call; mutate the network only through
// Append, which clears the cache, or on a Clone.
func Compile(net *automata.Network) *Image {
	n := net.Len()
	words := (n + 63) / 64
	img := &Image{
		net:     net,
		n:       n,
		words:   words,
		succOff: make([]uint32, n+1),
		match:   make([]uint64, 4*n),
		report:  make([]uint64, words),
	}
	img.allInput = make([]uint64, words)

	edges := 0
	for s := range net.States {
		st := &net.States[s]
		copy(img.match[4*s:4*s+4], st.Match[:])
		bit := uint64(1) << (uint(s) & 63)
		if st.Report {
			img.report[s>>6] |= bit
		}
		switch st.Start {
		case automata.StartAllInput:
			img.hasAllInput = true
			img.allInput[s>>6] |= bit
		case automata.StartOfData:
			img.startsOfData = append(img.startsOfData, automata.StateID(s))
		}
		for _, v := range st.Succ {
			if net.States[v].Start != automata.StartAllInput {
				edges++
			}
		}
	}

	img.succ = make([]automata.StateID, 0, edges)
	var byDelta [64]int
	for s := range net.States {
		img.succOff[s] = uint32(len(img.succ))
		for _, v := range net.States[s].Succ {
			if net.States[v].Start != automata.StartAllInput {
				img.succ = append(img.succ, v)
				if d := uint32(v) - uint32(s); d < 64 {
					byDelta[d]++
				}
			}
		}
	}
	img.succOff[n] = uint32(len(img.succ))
	img.buildShiftClasses(byDelta)

	// Transpose the match matrix into per-symbol bitmaps. One backing
	// array keeps the 256 rows contiguous.
	symBacking := make([]uint64, 256*words)
	for b := 0; b < 256; b++ {
		img.symMask[b] = symBacking[b*words : (b+1)*words : (b+1)*words]
	}
	for s := 0; s < n; s++ {
		sw, sb := s>>6, uint64(1)<<(uint(s)&63)
		for w := 0; w < 4; w++ {
			word := img.match[4*s+w]
			for word != 0 {
				b := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				img.symMask[b][sw] |= sb
			}
		}
	}

	// Before the start plans: the quiet table is built with them, from it.
	img.denseCut = max(img.words*(4+len(img.shift))/8, minDenseCut)

	zeroRow := make([]uint64, words)
	for b := range img.startMask {
		img.startMask[b] = zeroRow
	}
	if img.hasAllInput {
		// startAct[b] lists, ascending, the all-input starts symbol b
		// activates: what the start plans are built from.
		var startAct [256][]automata.StateID
		startBacking := make([]uint64, 256*words)
		for b := 0; b < 256; b++ {
			img.startMask[b] = startBacking[b*words : (b+1)*words : (b+1)*words]
		}
		for s := 0; s < n; s++ {
			if net.States[s].Start != automata.StartAllInput {
				continue
			}
			sw, sb := s>>6, uint64(1)<<(uint(s)&63)
			empty := true
			for w := 0; w < 4; w++ {
				word := img.match[4*s+w]
				if word != 0 {
					empty = false
				}
				for word != 0 {
					b := w<<6 | bits.TrailingZeros64(word)
					word &= word - 1
					startAct[b] = append(startAct[b], automata.StateID(s))
					img.startCount[b].starts++
					img.startMask[b][sw] |= sb
				}
			}
			if !empty {
				img.allInputHot = append(img.allInputHot, automata.StateID(s))
			}
		}
		img.buildStartPlans(&startAct)
	}

	return img
}

// buildShiftClasses picks the shift classes from the per-delta edge
// counts and fills their source masks and excMask.
func (img *Image) buildShiftClasses(byDelta [64]int) {
	edges := len(img.succ)
	floor := max((edges+shiftClassShare-1)/shiftClassShare, 1)
	var shift []uint8
	carried := 0
	for len(shift) < maxShiftClasses {
		best := -1
		for d, c := range byDelta {
			if c >= floor && (best < 0 || c > byDelta[best]) {
				best = d
			}
		}
		if best < 0 {
			break
		}
		carried += byDelta[best]
		byDelta[best] = 0
		shift = append(shift, uint8(best))
	}
	if (edges-carried)*shiftScatterShare <= edges {
		img.shift = shift
	}
	var classOf [64]int
	for d := range classOf {
		classOf[d] = -1
	}
	for k, d := range img.shift {
		classOf[d] = k
	}
	img.shiftMask = make([]uint64, img.words*len(img.shift))
	img.excMask = make([]uint64, img.words)
states:
	for s := 0; s < img.n; s++ {
		sw, sb := s>>6, uint64(1)<<(uint(s)&63)
		list := img.succ[img.succOff[s]:img.succOff[s+1]]
		for _, v := range list {
			if d := uint32(v) - uint32(s); d >= 64 || classOf[d] < 0 {
				img.excMask[sw] |= sb
				continue states
			}
		}
		for _, v := range list {
			img.shiftMask[classOf[uint32(v)-uint32(s)]*img.words+sw] |= sb
		}
	}
	img.buildExcSlots()
}

// buildExcSlots packs every exception's successor list by bitmap word into
// its slot, and past the slot's two pairs into excOvf, and derives ovfMask
// and slowMask. A state's words are taken in the order its list first
// reaches them, through a scratch bitmap that the same walk clears, so the
// cost is the exceptions' edges whatever the network's width.
func (img *Image) buildExcSlots() {
	img.slowMask = img.report
	exceptions := 0
	for _, x := range img.excMask {
		exceptions += bits.OnesCount64(x)
	}
	if exceptions == 0 {
		return
	}
	img.slotOff = make([]uint32, img.n)
	img.excSlots = make([]excSlot, 0, exceptions)
	img.slowMask = make([]uint64, img.words)
	seen := make([]uint64, img.words)
	var touched []uint32
	pad := uint32(0) // the last slot's second word
	for w, exc := range img.excMask {
		img.slowMask[w] = exc | img.report[w]
		for x := exc; x != 0; x &= x - 1 {
			s := w<<6 | bits.TrailingZeros64(x)
			touched = touched[:0]
			for _, v := range img.succ[img.succOff[s]:img.succOff[s+1]] {
				vw := uint32(v) >> 6
				if seen[vw] == 0 {
					touched = append(touched, vw)
				}
				seen[vw] |= 1 << (uint(v) & 63)
			}
			slot := excSlot{word: [2]uint32{1: pad}, ovf: uint32(len(img.excOvf))}
			for i, vw := range touched {
				if i < len(slot.word) {
					slot.word[i], slot.bits[i] = vw, seen[vw]
				} else {
					img.excOvf = append(img.excOvf, wordBits{bits: seen[vw], word: vw})
				}
				seen[vw] = 0
			}
			slot.ovfEnd = uint32(len(img.excOvf))
			if slot.ovfEnd > slot.ovf {
				if img.ovfMask == nil {
					img.ovfMask = make([]uint64, img.words)
				}
				img.ovfMask[w] |= x & -x
			}
			pad = slot.word[1]
			img.slotOff[s] = uint32(len(img.excSlots))
			img.excSlots = append(img.excSlots, slot)
		}
	}
}

// buildStartPlans fills startNext (its lengths go beside the start counts
// in startCount) and startRep from startAct, the all-input starts each
// symbol activates: per symbol, the successors of the starts it activates
// are collected in a scratch bitmap and read back in ascending order,
// which also drops the duplicates. Only the span of words the symbol
// touched is read and cleared, so the cost is the starts' edges plus that
// span, not a sort. The quiet table is built from the finished plans.
func (img *Image) buildStartPlans(startAct *[256][]automata.StateID) {
	enables, reports := 0, 0
	for _, s := range img.allInputHot {
		fires := 0
		for _, m := range img.match[4*s : 4*s+4] {
			fires += bits.OnesCount64(m)
		}
		enables += fires * int(img.succOff[s+1]-img.succOff[s])
		if img.report[int(s)>>6]&(1<<(uint(s)&63)) != 0 {
			reports += fires
		}
	}
	// Exact but for the duplicates: starts one symbol activates seldom
	// share a successor.
	next := make([]automata.StateID, 0, enables)
	rep := make([]automata.StateID, 0, reports)
	seen := make([]uint64, img.words)
	for b := range startAct {
		nextFrom, repFrom := len(next), len(rep)
		lo, hi := img.words, -1
		for _, s := range startAct[b] {
			if img.report[int(s)>>6]&(1<<(uint(s)&63)) != 0 {
				rep = append(rep, s)
			}
			for _, v := range img.succ[img.succOff[s]:img.succOff[s+1]] {
				w := int(v) >> 6
				seen[w] |= 1 << (uint(v) & 63)
				lo, hi = min(lo, w), max(hi, w)
			}
		}
		for w := lo; w <= hi; w++ {
			for x := seen[w]; x != 0; x &= x - 1 {
				next = append(next, automata.StateID(w<<6|bits.TrailingZeros64(x)))
			}
			seen[w] = 0
		}
		img.startNext[b] = next[nextFrom:len(next):len(next)]
		img.startCount[b].plan = uint32(len(next) - nextFrom)
		img.startRep[b] = rep[repFrom:len(rep):len(rep)]
	}
	img.buildQuiet()
}

// Footprint estimates the resident bytes of the compiled image: the CSR
// successor arrays, the state-major match words, the 256 transposed
// symbol bitmaps, the shift-class and exception masks, the exceptions'
// slots with their offsets, overflow pairs and masks, the flag words, the
// start plans, their counts and the quiet table. A serving process admits
// sessions against a memory budget, and the images — shared across every
// tenant streaming the same application — are the dominant resident term.
func (img *Image) Footprint() int64 {
	b := int64(len(img.succOff))*4 + int64(len(img.succ))*4
	b += int64(len(img.match)) * 8
	b += 256 * int64(img.words) * 8 // symMask
	if img.hasAllInput {
		b += 256 * int64(img.words) * 8 // startMask (aliases one row otherwise)
		b += int64(len(img.quiet)) * 32 // built with the start plans
	} else {
		b += int64(img.words) * 8
	}
	b += int64(len(img.shift)) + int64(len(img.shiftMask))*8 + int64(len(img.excMask))*8
	b += int64(len(img.slotOff))*4 + int64(len(img.excSlots))*excSlotBytes
	b += int64(len(img.excOvf))*wordBitsBytes + int64(len(img.ovfMask))*8
	if img.excSlots != nil {
		b += int64(len(img.slowMask)) * 8 // aliases report otherwise
	}
	b += 2 * int64(img.words) * 8 // report + allInput
	for sym := range img.startNext {
		b += int64(len(img.startNext[sym])+len(img.startRep[sym])) * 4
	}
	b += int64(len(img.startCount)) * 8
	b += int64(len(img.allInputHot)+len(img.startsOfData)) * 4
	return b
}

// EngineFootprint estimates the per-engine dynamic bytes: two frontier
// bitmaps and, in the worst case, two full sparse frontier lists. The
// admission controller charges this per live session on top of the shared
// image.
func (img *Image) EngineFootprint() int64 {
	return img.EngineFootprintBounded(img.n)
}

// EngineFootprintBounded is EngineFootprint under a certified frontier
// bound: the bitmaps are words-sized regardless, but the sparse frontier
// lists only ever grow to the largest frontier the engine observes, so a
// sound worst-case width from internal/worstcase caps them. The admission
// controller charges this instead of the nominal full-state estimate when
// a bound is available.
func (img *Image) EngineFootprintBounded(bound int) int64 {
	if bound < 0 || bound > img.n {
		bound = img.n
	}
	return 2*int64(img.words)*8 + 2*int64(bound)*4
}

// Read-only structural accessors for static analyses (internal/worstcase
// walks the image to synthesize adversarial inputs). All returned slices
// alias the image's immutable arrays and must not be mutated.

// Words returns the length of every state-indexed bitmap (ceil(n/64)).
func (img *Image) Words() int { return img.words }

// SymMaskRow returns the transposed match bitmap for symbol b: bit s set
// iff state s matches b.
func (img *Image) SymMaskRow(b byte) []uint64 { return img.symMask[b] }

// StartMaskRow returns the all-input start states activated by symbol b
// as a bitmap (a shared zero row when the network has none).
func (img *Image) StartMaskRow(b byte) []uint64 { return img.startMask[b] }

// ReportMask returns the reporting-state flag words.
func (img *Image) ReportMask() []uint64 { return img.report }

// Successors returns state s's compiled successor list with edges into
// all-input start states already filtered out — exactly the states the
// engine would enable when s activates.
func (img *Image) Successors(s automata.StateID) []automata.StateID {
	return img.succ[img.succOff[s]:img.succOff[s+1]]
}

// StartsOfData lists the start-of-data states (enabled at position 0).
func (img *Image) StartsOfData() []automata.StateID { return img.startsOfData }

// ImageOf returns net's cached execution image, compiling and caching it
// on first use. Safe for concurrent callers: a rare duplicate compile is
// benign (both images are equivalent and read-only; last store wins).
func ImageOf(net *automata.Network) *Image {
	if img, ok := net.ExecImage().(*Image); ok && img != nil && img.n == net.Len() {
		return img
	}
	img := Compile(net)
	net.StoreExecImage(img)
	return img
}

// Acquire returns a pooled engine over the image, reset and configured
// with opts. Release it when done to make its buffers reusable; engines
// never escape to a different image's pool.
func (img *Image) Acquire(opts Options) *Engine {
	e, _ := img.pool.Get().(*Engine)
	if e == nil {
		e = newEngine(img)
	}
	e.configure(opts)
	return e
}

// AcquireEngine returns a pooled engine for net (compiling the shared
// image on first use). The caller must not use the engine, or any slice
// obtained from it (Reports, EverEnabled), after Release.
func AcquireEngine(net *automata.Network, opts Options) *Engine {
	return ImageOf(net).Acquire(opts)
}

// maxPooledReportCap bounds the report-slice capacity a pooled engine
// retains: one report-dense run (a PEN-style storm collects tens of
// thousands of reports) must not pin a huge backing array in the pool for
// the rest of the process. 1<<14 reports is 256 KiB — big enough that
// steady-state runs never reallocate, small enough to keep pooled.
const maxPooledReportCap = 1 << 14

// Release returns the engine to its image's pool, scrubbing every
// run-scoped hook first: the report callback and the ever-enabled view. A
// recycled engine must behave exactly like a fresh one — in particular it
// must not deliver reports to a dead consumer. The engine, and any slice
// previously obtained from it, must not be used afterwards.
func (e *Engine) Release() {
	e.OnReport = nil
	e.ever = nil
	if cap(e.reports) > maxPooledReportCap {
		e.reports = nil
	} else {
		e.reports = e.reports[:0]
	}
	e.numReports = 0
	e.img.pool.Put(e)
}
