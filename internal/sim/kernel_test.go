package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"sparseap/internal/automata"
	"sparseap/internal/oracle"
	"sparseap/internal/symset"
)

// withCut sets the frontier length at which e's adaptive kernel goes
// dense; 0 keeps the image's compiled cut.
func withCut(e *Engine, threshold int) *Engine {
	if threshold > 0 {
		e.denseCut = threshold
	}
	return e
}

// kernelRun is one engine of checkKernels on its way through the input,
// held to the oracle.
type kernelRun struct {
	t       testing.TB
	name    string
	e       *Engine
	input   []byte
	edits   []oracle.Edit
	want    oracle.Result
	tracked bool
}

// edit makes the edits due before symbol i.
func (r *kernelRun) edit(i int) {
	for _, ed := range r.edits {
		if ed.At != i {
			continue
		}
		switch ed.Op {
		case 'e':
			r.e.EnableState(ed.S)
		case 'd':
			r.e.DisableState(ed.S)
		case 't':
			r.e.ToggleState(ed.S)
		}
	}
}

// step runs symbol i and reads the frontier every way there is: its length
// and emptiness must be the oracle's.
func (r *kernelRun) step(i int) {
	r.t.Helper()
	e := r.e
	e.Step(int64(i), r.input[i])
	if e.FrontierLen() != r.want.Frontier[i] || e.FrontierEmpty() != (r.want.Frontier[i] == 0) {
		r.t.Fatalf("%s: frontier after symbol %d has %d states (empty %v), the oracle's %d", r.name, i, e.FrontierLen(), e.FrontierEmpty(), r.want.Frontier[i])
	}
	// The sparse step's activations dedupe against the next side alone: it
	// must be empty between steps.
	left := uint64(0)
	for _, x := range e.nxt {
		left |= x
	}
	if len(e.next) != 0 || e.nxtLen != 0 || left != 0 {
		r.t.Fatalf("%s: next side not empty after symbol %d: list %d, count %d, bitmap %x", r.name, i, len(e.next), e.nxtLen, e.nxt)
	}
}

// finished holds the collected reports to reports, and the report count and
// the ever-enabled set to the whole run's.
func (r *kernelRun) finished(reports []oracle.Report) {
	r.t.Helper()
	e := r.e
	got := e.Reports()
	if len(got) != len(reports) || e.NumReports() != int64(len(r.want.Reports)) {
		r.t.Fatalf("%s: %d reports collected of %d, %d counted of %d", r.name, len(got), len(reports), e.NumReports(), len(r.want.Reports))
	}
	for i := range got {
		if got[i] != Report(reports[i]) {
			r.t.Fatalf("%s: report[%d] = %+v, the oracle's %+v", r.name, i, got[i], reports[i])
		}
	}
	if !r.tracked {
		return
	}
	for s, hot := range r.want.Ever {
		if e.EverEnabled().Get(s) != hot {
			r.t.Fatalf("%s: ever[%d] = %v, the oracle says %v", r.name, s, !hot, hot)
		}
	}
}

// sameState reports whether two snapshots describe one engine state, kernel
// counters aside: everything a slot written by one kernel hands an engine
// running another.
func sameState(a, b *Snapshot) bool {
	return a.N == b.N && a.Pos == b.Pos && a.FrontierLen == b.FrontierLen && a.NumReports == b.NumReports &&
		slices.Equal(a.Frontier, b.Frontier) && slices.Equal(a.Ever, b.Ever) && (a.Ever == nil) == (b.Ever == nil)
}

// checkKernels runs the sparse-only, dense-only and adaptive kernels over
// input, each with and without ever-enabled tracking (the untracked arm is
// the one sim.Run, spap and serve execute), and holds each to oracle.Run:
// the same frontier length after every symbol, the same reports in the same
// order, the same report count and the same ever-enabled set. edits are made
// between steps on both sides.
//
// Snapshots do not say which kernel took them. After every symbol the three
// kernels' snapshots agree on everything but the kernel counters — the
// dense kernel never has a start plan pending, so its bitmap is the settled
// one — and the snapshot each takes half way (after that position's edits)
// is restored, once the runs have finished, into the engines of all three
// kernels: every tail must come out the same again.
//
// Reads are reads. Beside each run, which reads the frontier and snapshots
// after every step, a second engine takes the same steps and edits and
// looks at nothing until the end: same reports, same final state, same
// count of dense and sparse steps.
//
// A fourth arm, checkSkip, consumes the input through Skip.
func checkKernels(t testing.TB, net *automata.Network, input []byte, threshold int, edits ...oracle.Edit) {
	t.Helper()
	want := oracle.Run(net, input, edits...)
	checkSkip(t, net, input, want, edits)
	cut := len(input) / 2
	kernels := []Kernel{KernelSparse, KernelDense, KernelAuto}
	for _, tracked := range []bool{true, false} {
		start := func(k Kernel, what string) *kernelRun {
			e := withCut(NewEngine(net, Options{CollectReports: true, TrackEnabled: tracked, Kernel: k}), threshold)
			return &kernelRun{t, fmt.Sprintf("%v tracked=%v%s", k, tracked, what), e, input, edits, want, tracked}
		}
		var after []*Snapshot // the first kernel's snapshot after each symbol
		var halfway []*Snapshot
		var runs []*kernelRun
		for ki, k := range kernels {
			r, quiet := start(k, ""), start(k, " unread")
			runs = append(runs, r)
			var snap *Snapshot
			for i := range input {
				r.edit(i)
				quiet.edit(i)
				if i == cut {
					halfway = append(halfway, r.e.Snapshot(nil, int64(i)))
				}
				r.step(i)
				quiet.e.Step(int64(i), input[i])
				snap = r.e.Snapshot(nil, int64(i+1))
				if ki == 0 {
					after = append(after, snap)
				} else if !sameState(after[i], snap) {
					t.Fatalf("%s: snapshot after symbol %d is %+v, %v's %+v", r.name, i, snap, kernels[0], after[i])
				}
			}
			r.finished(want.Reports)
			quiet.finished(want.Reports)
			if last := quiet.e.Snapshot(nil, int64(len(input))); snap != nil && (!sameState(last, snap) ||
				last.DenseSteps != snap.DenseSteps || last.SparseSteps != snap.SparseSteps) {
				t.Fatalf("%s: ends at %+v, the run that read after every step at %+v", quiet.name, last, snap)
			}
		}
		for si, snap := range halfway {
			if !sameState(snap, halfway[0]) {
				t.Fatalf("tracked=%v: %v's snapshot at %d is %+v, %v's %+v", tracked, kernels[si], cut, snap, kernels[0], halfway[0])
			}
			// Into the engines that ran, each as the last tail left it:
			// Restore replaces whatever is there and drops the collected
			// reports; the tail must replay.
			for ki, r := range runs {
				r.name = fmt.Sprintf("%v tracked=%v restored from %v", kernels[ki], tracked, kernels[si])
				if err := r.e.Restore(snap); err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				for i := cut; i < len(input); i++ {
					if i > cut {
						r.edit(i)
					}
					r.step(i)
				}
				r.finished(want.Reports[snap.NumReports:])
			}
		}
	}
}

// checkSkip holds Skip to the oracle like a kernel. On every kernel, tracked
// and not, at the image's own cut (the table is built from it), an engine
// consumes the input through Skip over windows of drawn length 1 to 9 —
// cut short, as the loops that own a stream cut theirs, at the next
// position with an edit or the half-way snapshot due — and steps the symbol
// Skip would not take. Against oracle.Run: the same reports in order, the
// same ever-enabled set, the same frontier length after every call, and
// after every symbol Skip crossed nothing but that symbol's start plan.
// Against an engine that steps every symbol: the same Snapshot, counters
// included, after every call. Only the untracked sparse and adaptive
// engines may skip at all. The half-way snapshot is restored at the end and
// the tail consumed the same way again.
func checkSkip(t testing.TB, net *automata.Network, input []byte, want oracle.Result, edits []oracle.Edit) {
	t.Helper()
	img := ImageOf(net)
	cut := len(input) / 2
	draw := rand.New(rand.NewSource(int64(len(input))<<16 | int64(net.Len())))
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		for _, tracked := range []bool{true, false} {
			opts := Options{CollectReports: true, TrackEnabled: tracked, Kernel: k}
			r := &kernelRun{t, fmt.Sprintf("%v tracked=%v skipping", k, tracked), NewEngine(net, opts), input, edits, want, tracked}
			ref := &kernelRun{t, fmt.Sprintf("%v tracked=%v stepping", k, tracked), NewEngine(net, opts), input, edits, want, tracked}
			var halfway *Snapshot
			consume := func(from int, ref *kernelRun) {
				for i := from; i < len(input); {
					if ref != nil || i > from {
						r.edit(i)
					}
					if ref != nil {
						ref.edit(i)
						if i == cut {
							halfway = r.e.Snapshot(nil, int64(i))
						}
					}
					end := min(len(input), i+1+draw.Intn(9))
					if i < cut {
						end = min(end, cut)
					}
					for _, ed := range edits {
						if ed.At > i {
							end = min(end, ed.At)
						}
					}
					n := r.e.Skip(input[:end], i)
					if n != 0 && (tracked || k == KernelDense) {
						t.Fatalf("%s: Skip took %d symbols at %d", r.name, n, i)
					}
					for j := i; j < i+n; j++ {
						if plan := len(img.startNext[input[j]]); want.Frontier[j] != plan {
							t.Fatalf("%s: Skip at %d crossed symbol %d, which leaves %d states enabled; its plan has %d", r.name, i, j, want.Frontier[j], plan)
						}
					}
					if n == 0 {
						r.step(i)
						n = 1
					} else if last := want.Frontier[i+n-1]; r.e.FrontierLen() != last || r.e.FrontierEmpty() != (last == 0) {
						t.Fatalf("%s: frontier after Skip to %d has %d states (empty %v), the oracle's %d", r.name, i+n, r.e.FrontierLen(), r.e.FrontierEmpty(), last)
					}
					i += n
					if ref == nil {
						continue
					}
					for j := i - n; j < i; j++ {
						ref.e.Step(int64(j), input[j])
					}
					if got, stepped := r.e.Snapshot(nil, int64(i)), ref.e.Snapshot(nil, int64(i)); !reflect.DeepEqual(got, stepped) {
						t.Fatalf("%s: snapshot at %d is %+v, stepping every symbol %+v", r.name, i, got, stepped)
					}
				}
			}
			consume(0, ref)
			r.finished(want.Reports)
			if halfway == nil {
				continue // no input
			}
			r.name += ", restored"
			if err := r.e.Restore(halfway); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			consume(cut, nil)
			r.finished(want.Reports[halfway.NumReports:])
		}
	}
}

// chainNet builds n states in a row, s → s+1, all matching 'a'; state 0
// is a start-of-data state and the last state reports.
func chainNet(n int) *automata.NFA {
	m := automata.NewNFA()
	for s := 0; s < n; s++ {
		start := automata.StartNone
		if s == 0 {
			start = automata.StartOfData
		}
		m.Add(symset.Single('a'), start, s == n-1)
		if s > 0 {
			m.Connect(automata.StateID(s-1), automata.StateID(s))
		}
	}
	return m
}

// The dense pass moves enable bits by word shifts, and an exception's by
// the (word, bits) pairs of its slot, so every way an edge can sit relative
// to a word boundary, and every way a successor list can fill a slot, is
// pinned here by hand, each cell with the shift classes and the number of
// exceptions Compile must give it, and how many of those overflow their
// slot — a cell whose image came out without its class or its overflow
// would test nothing.
func TestDenseShiftCells(t *testing.T) {
	as := func(n int) []byte { return []byte(strings.Repeat("a", n)) }
	type cell struct {
		build      func() (*automata.NFA, []byte)
		shift      []uint8
		exceptions int
		overflow   int
	}
	chain := func(n int) cell {
		return cell{func() (*automata.NFA, []byte) { return chainNet(n), as(n + 2) }, []uint8{1}, 0, 0}
	}
	// lastBit is a chain of n with an edge s → s+63 wherever there is room:
	// both classes have a source at bit 63 of every word that has a state
	// 63 (or 1) further on, and the last word's mask holds none that has
	// not, so no sweep carries anything out of the bitmap, or into the
	// sweep after it.
	lastBit := func(n int) cell {
		return cell{func() (*automata.NFA, []byte) {
			m := chainNet(n)
			for s := 0; s+63 < n; s++ {
				m.Connect(automata.StateID(s), automata.StateID(s+63))
			}
			return m, as(n + 2)
		}, []uint8{1, 63}, 0, 0}
	}
	connect := func(m *automata.NFA, from int, to ...int) {
		for _, v := range to {
			m.Connect(automata.StateID(from), automata.StateID(v))
		}
	}
	cells := map[string]cell{
		// One activation walks a chain across bit 63 → 64 and 127 → 128,
		// on networks that end exactly on a word boundary and one past it.
		"chain64": chain(64), "chain65": chain(65), "chain128": chain(128), "chain129": chain(129), "chain193": chain(193),
		// The longest delta a class can have: all but one bit spill.
		"delta63": {func() (*automata.NFA, []byte) {
			m := chainNet(200)
			for s := 0; s+63 < 200; s += 3 {
				m.Connect(automata.StateID(s), automata.StateID(s+63))
			}
			return m, as(40)
		}, []uint8{1, 63}, 0, 0},
		// Self-loops: a class with delta 0 spills nothing.
		"delta0": {func() (*automata.NFA, []byte) {
			m := chainNet(130)
			for s := 0; s < 130; s += 2 {
				m.Connect(automata.StateID(s), automata.StateID(s))
			}
			return m, as(140)
		}, []uint8{1, 0}, 0, 0},
		// Backward edges, edges a word or more long and short ones too
		// rare for a class make their source an exception, scattered
		// whole, among +1 states that go through the shift.
		"exceptions": {func() (*automata.NFA, []byte) {
			m := chainNet(300)
			for s := 40; s < 300; s += 40 {
				m.Connect(automata.StateID(s), automata.StateID(s-5))
				if s+70 < 300 {
					m.Connect(automata.StateID(s), automata.StateID(s+70))
					m.Connect(automata.StateID(s), automata.StateID(s+64))
				}
			}
			m.Connect(2, 11)
			m.Connect(62, 71)
			return m, as(120)
		}, []uint8{1}, 9, 0},
		// Classes that would leave a quarter of the edges to the scatter
		// are not worth their passes: every state with a successor is an
		// exception and the dense pass is a plain scatter.
		"noClasses": {func() (*automata.NFA, []byte) {
			m := chainNet(200)
			for s := 0; s+70 < 200; s += 2 {
				m.Connect(automata.StateID(s), automata.StateID(s+70))
			}
			return m, as(100)
		}, nil, 199, 0},
		// An edge into an all-input start is dropped at compile time; its
		// source must not come back through the +1 class mask and enable
		// the start as if it were an ordinary state.
		"intoAllInput": {func() (*automata.NFA, []byte) {
			m := chainNet(100)
			for _, s := range []int{1, 63, 64, 70} {
				m.States[s].Start = automata.StartAllInput
			}
			m.States[70].Match = symset.Single('b')
			return m, []byte(strings.Repeat("aaabaaaab", 9))
		}, []uint8{1}, 0, 0},
		// One exception whose successors lie in seven words, three below its
		// own and three above: two pairs in the slot, five in the overflow
		// list, among +1 states that go through the shift.
		"hub": {func() (*automata.NFA, []byte) { return hubNet(), as(452) }, []uint8{1}, 1, 1},
		// Exactly two target words, so both pairs and no overflow: 60 sits
		// in the lower of its two (58 and 61 beside it, 70 in the next),
		// 130 in the upper (100 in the one before, 131 beside it).
		"twoWords": {func() (*automata.NFA, []byte) {
			m := chainNet(200)
			connect(m, 60, 58, 70)
			connect(m, 130, 100)
			return m, as(202)
		}, []uint8{1}, 2, 0},
		// Exceptions whose successors all lie in one word leave their second
		// pair unused, and the first of them has no slot before it to name
		// a word for it: the pair names word 0 and must put nothing there.
		// State 0 is an ordinary state nothing enables, and reports, so a
		// bit astray in word 0 shows in the frontier and in the reports.
		"emptySlot": {func() (*automata.NFA, []byte) {
			m := automata.NewNFA()
			m.Add(symset.Single('a'), automata.StartNone, true)
			for s := 1; s < 200; s++ {
				start := automata.StartNone
				if s == 1 {
					start = automata.StartOfData
				}
				m.Add(symset.Single('a'), start, s == 199)
				if s > 1 {
					connect(m, s-1, s)
				}
			}
			connect(m, 100, 90)
			connect(m, 150, 140)
			return m, as(202)
		}, []uint8{1}, 2, 0},
		// Forty successors in one word are one pair, not forty edges.
		"fanInWord": {func() (*automata.NFA, []byte) {
			m := chainNet(450)
			for v := 70; v < 110; v++ {
				connect(m, 191, v)
			}
			return m, as(452)
		}, []uint8{1}, 1, 0},
		"lastBit128": lastBit(128), "lastBit129": lastBit(129),
	}
	for name, c := range cells {
		t.Run(name, func(t *testing.T) {
			m, input := c.build()
			m.Dedup()
			net := automata.NewNetwork(m)
			img := ImageOf(net)
			exceptions, overflow := 0, 0
			for _, x := range img.excMask {
				exceptions += bits.OnesCount64(x)
			}
			for _, x := range img.ovfMask {
				overflow += bits.OnesCount64(x)
			}
			if !reflect.DeepEqual(img.shift, c.shift) || exceptions != c.exceptions || len(img.excSlots) != exceptions || overflow != c.overflow {
				t.Fatalf("compiled to classes %v with %d exceptions in %d slots, %d overflowing; want %v with %d, %d overflowing",
					img.shift, exceptions, len(img.excSlots), overflow, c.shift, c.exceptions, c.overflow)
			}
			if name == "fanInWord" {
				if sl := img.excSlots[img.slotOff[191]]; bits.OnesCount64(sl.bits[0])+bits.OnesCount64(sl.bits[1]) != 41 || len(img.excOvf) != 0 {
					t.Fatalf("191's 41 successors compiled to slot %+v and %d overflow pairs", sl, len(img.excOvf))
				}
			}
			checkKernels(t, net, input, 2)
		})
	}
}

// hubNet is a chain of 450 whose state 200 also enables three states in
// words below its own and three above: with 201, seven words.
func hubNet() *automata.NFA {
	m := chainNet(450)
	for _, v := range []int{10, 70, 140, 269, 330, 440} {
		m.Connect(200, automata.StateID(v))
	}
	return m
}

// planNet builds a network from one spec per state: its symbol set as a
// string, then flags — '*' all-input start, '^' start-of-data start, '!'
// reports — and edges as (from, to) pairs.
func planNet(states []string, edges ...[2]int) *automata.NFA {
	m := automata.NewNFA()
	for _, spec := range states {
		var set symset.Set
		start, report := automata.StartNone, false
		for _, c := range []byte(spec) {
			switch c {
			case '*':
				start = automata.StartAllInput
			case '^':
				start = automata.StartOfData
			case '!':
				report = true
			default:
				set.Add(c)
			}
		}
		m.Add(set, start, report)
	}
	for _, e := range edges {
		m.Connect(automata.StateID(e[0]), automata.StateID(e[1]))
	}
	return m
}

// The sparse step leaves pending, per symbol, a start plan Compile worked
// out — what the all-input starts enable — and reports the starts of them
// that report. Each cell here is one way a plan can meet the rest of a
// cycle, or wait between two, pinned with the plan symbol 'a' must compile
// to — a cell whose image came out with another plan would test nothing —
// and run on all three kernels, tracked and untracked, against the oracle.
func TestStartPlanCells(t *testing.T) {
	type ids = []automata.StateID
	cells := map[string]struct {
		m         *automata.NFA
		input     string
		next, rep ids // startNext['a'], startRep['a']
		threshold int
		edits     []oracle.Edit
	}{
		// Two starts one symbol fires share a successor: the plan holds it
		// once, so it is enabled and counted once.
		"sharedSuccessor": {planNet([]string{"a*", "ab*", "c!", "c"}, [2]int{0, 2}, [2]int{1, 2}, [2]int{1, 3}),
			"acbcxacab", ids{2, 3}, nil, 2, nil},
		// A frontier activation enables a state the plan already holds:
		// the walk's bit test finds the plan's bit.
		"planAndFrontier": {planNet([]string{"a*", "a", "b!"}, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 2}),
			"aabaaab", ids{1, 2}, nil, 2, nil},
		// A reporting start between a lower and a higher reporting frontier
		// state, all three activated by one symbol: startRep goes in after
		// the walk's reports and the cycle still comes out ascending.
		"reportOrder": {planNet([]string{"a!", "a*!", "a!"}, [2]int{1, 2}, [2]int{1, 0}),
			"aaxa", ids{0, 2}, ids{1}, 2, nil},
		// Edges into all-input starts and self-loops on them are dropped
		// at compile time: an empty plan on a start that still reports.
		"filteredEdges": {planNet([]string{"a*!", "b*!"}, [2]int{0, 0}, [2]int{0, 1}, [2]int{1, 0}),
			"abbaab", nil, ids{0}, 2, nil},
		// An edge into a start-of-data state is an ordinary edge.
		"intoStartOfData": {planNet([]string{"a*", "b^!"}, [2]int{0, 1}),
			"babbab", ids{1}, nil, 2, nil},
		// 'x' fires no start while the frontier is busy.
		"noStartFires": {planNet([]string{"a*", "x", "xb!"}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 2}),
			"axxbxaxb", ids{1}, nil, 2, nil},
		// No all-input start at all: every plan is empty.
		"noAllInput": {chainNet(5), "aaaaaaa", nil, nil, 2, nil},
		// The frontier edited between two sparse steps: a plan state
		// enabled by hand before the plan enables it again, one the plan
		// enabled disabled, toggles both ways, edits to a start (no-ops).
		"edits": {planNet([]string{"a*", "ab*!", "ab", "ab!", "b!", "x"}, [2]int{0, 2}, [2]int{1, 3}, [2]int{2, 4}, [2]int{3, 4}, [2]int{3, 5}),
			"aababaxab", ids{2, 3}, ids{1}, 2, []oracle.Edit{
				{At: 1, Op: 'd', S: 2}, {At: 1, Op: 'e', S: 4}, {At: 2, Op: 't', S: 3}, {At: 2, Op: 't', S: 5}, {At: 4, Op: 'e', S: 2},
				{At: 4, Op: 'e', S: 0}, {At: 4, Op: 'd', S: 1}, {At: 4, Op: 't', S: 1}, {At: 6, Op: 'd', S: 3}, {At: 6, Op: 'd', S: 3},
			}},
		// 'c' fires three starts, enough for KernelAuto to run one dense
		// step between two sparse ones: the list is rebuilt from the
		// bitmap, walked, and the step's plan left pending behind it.
		"denseBetween": {planNet([]string{"a*", "c*", "c*!", "c*", "ac", "ac!"}, [2]int{0, 4}, [2]int{1, 4}, [2]int{2, 5}, [2]int{3, 5}, [2]int{4, 5}, [2]int{5, 4}),
			"acacaacca", ids{4}, nil, 3, nil},
		// Nothing is enabled but what the start enabled one symbol ago: the
		// explicit side is empty and the frontier is not.
		"onlyPending": {planNet([]string{"a*", "b!"}, [2]int{0, 1}),
			"aabxab", ids{1}, nil, 2, nil},
		// The second 'a' activates 1 out of the pending plan, which enables
		// 2, which the plan the same symbol leaves pending holds as well: a
		// frontier of two that the rule takes for three, so the third step
		// runs dense and settles a plan with a state already in the bitmap.
		"pendingIntoDense": {planNet([]string{"a*", "a", "ab!"}, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 2}),
			"aaabaab", ids{1, 2}, nil, 3, nil},
		// 'c' fires three starts and runs dense; the 'a' after it walks a
		// list rebuilt from the bitmap, and the self-loop on 4 enables a
		// state of the plan that step leaves pending.
		"denseIntoPending": {planNet([]string{"a*", "c*", "c*", "c*!", "a", "b!"}, [2]int{0, 4}, [2]int{1, 4}, [2]int{2, 5}, [2]int{3, 5}, [2]int{4, 4}),
			"cacabab", ids{4}, nil, 3, nil},
		// A plan pending when the engine is reset or goes back to the pool.
		"resetWithPending": {planNet([]string{"a*", "b!"}, [2]int{0, 1}),
			"abab", ids{1}, nil, 2, nil},
	}
	// What some cells pin beyond the reference run, on an engine of their own.
	steps := func(e *Engine, input string) {
		for i, b := range []byte(input) {
			e.Step(int64(i), b)
		}
	}
	// overlapRun steps a KernelAuto engine through input and returns which
	// kernel ran each step and after which steps a state was both explicit
	// and pending (FrontierLen below the two parts' sum).
	overlapRun := func(net *automata.Network, input string, threshold int) (ran string, overlaps []int) {
		e := withCut(NewEngine(net, Options{Kernel: KernelAuto}), threshold)
		for i, b := range []byte(input) {
			dense := e.DenseSteps()
			e.Step(int64(i), b)
			ran += string("sd"[e.DenseSteps()-dense])
			if e.FrontierLen() < e.curLen+e.pendLen {
				overlaps = append(overlaps, i)
			}
		}
		return ran, overlaps
	}
	extras := map[string]func(t *testing.T, net *automata.Network, input string, threshold int){
		"onlyPending": func(t *testing.T, net *automata.Network, _ string, _ int) {
			e := NewEngine(net, Options{Kernel: KernelSparse})
			steps(e, "a")
			if e.curLen != 0 || e.FrontierEmpty() || e.FrontierLen() != len(e.img.startNext['a']) {
				t.Fatalf("after 'a': %d explicit states, FrontierEmpty %v, FrontierLen %d; want 0, false, the plan's %d",
					e.curLen, e.FrontierEmpty(), e.FrontierLen(), len(e.img.startNext['a']))
			}
		},
		"pendingIntoDense": func(t *testing.T, net *automata.Network, input string, threshold int) {
			ran, overlaps := overlapRun(net, input, threshold)
			if !strings.HasPrefix(ran, "ssd") || !slices.Contains(overlaps, 1) {
				t.Fatalf("kernels ran %s with overlaps after %v; want a dense step after two sparse ones, the second leaving an overlap", ran, overlaps)
			}
		},
		"denseIntoPending": func(t *testing.T, net *automata.Network, input string, threshold int) {
			ran, overlaps := overlapRun(net, input, threshold)
			if !strings.HasPrefix(ran, "dsd") || !slices.Contains(overlaps, 1) {
				t.Fatalf("kernels ran %s with overlaps after %v; want a sparse step between two dense ones, leaving an overlap", ran, overlaps)
			}
		},
		"resetWithPending": func(t *testing.T, net *automata.Network, _ string, _ int) {
			// 'b' right after the reset reports iff the plan 'a' left is
			// still pending.
			want := Run(net, []byte("bab"), Options{CollectReports: true}).Reports
			fresh := func(e *Engine, how string) {
				t.Helper()
				if !e.FrontierEmpty() || e.FrontierLen() != 0 {
					t.Fatalf("%s: frontier of %d, want none", how, e.FrontierLen())
				}
				steps(e, "bab")
				if !slices.Equal(e.Reports(), want) {
					t.Fatalf("%s: reports %v, a fresh engine's %v", how, e.Reports(), want)
				}
			}
			for _, k := range []Kernel{KernelSparse, KernelAuto} {
				opts := Options{CollectReports: true, Kernel: k}
				e := NewEngine(net, opts)
				steps(e, "a")
				if e.pendLen == 0 {
					t.Fatalf("%v: no plan pending after 'a'", k)
				}
				e.Reset()
				fresh(e, fmt.Sprintf("%v after Reset", k))

				e = AcquireEngine(net, opts)
				steps(e, "a")
				e.Release()
				e = AcquireEngine(net, opts) // the same engine, unless the pool dropped it
				fresh(e, fmt.Sprintf("%v after Release and Acquire", k))
				e.Release()
			}
		},
	}
	for name, c := range cells {
		t.Run(name, func(t *testing.T) {
			c.m.Dedup()
			net := automata.NewNetwork(c.m)
			img := ImageOf(net)
			if !slices.Equal(img.startNext['a'], c.next) || !slices.Equal(img.startRep['a'], c.rep) {
				t.Fatalf("'a' compiled to plan %v reporting %v, want %v reporting %v", img.startNext['a'], img.startRep['a'], c.next, c.rep)
			}
			for b := range img.startNext {
				if !img.hasAllInput && (len(img.startNext[b]) != 0 || len(img.startRep[b]) != 0 || img.startCount[b].starts != 0) {
					t.Fatalf("symbol %d has a plan on a network without all-input starts", b)
				}
				starts := 0
				for _, x := range img.startMask[b] {
					starts += bits.OnesCount64(x)
				}
				if sc := img.startCount[b]; int(sc.starts) != starts || int(sc.plan) != len(img.startNext[b]) {
					t.Fatalf("symbol %d: startCount %+v, %d starts in the mask and %d plan states listed", b, sc, starts, len(img.startNext[b]))
				}
			}
			checkKernels(t, net, []byte(c.input), c.threshold, c.edits...)
			if name == "denseBetween" {
				e := withCut(NewEngine(net, Options{Kernel: KernelAuto}), c.threshold)
				var ran []byte
				for i, b := range []byte(c.input) {
					dense := e.DenseSteps()
					e.Step(int64(i), b)
					ran = append(ran, "sd"[e.DenseSteps()-dense])
				}
				if !strings.Contains(string(ran), "sds") {
					t.Fatalf("kernels ran %s; want a dense step between two sparse ones", ran)
				}
			}
			if extra := extras[name]; extra != nil {
				extra(t, net, c.input, c.threshold)
			}
		})
	}
}

// reportLess orders reports by (Pos, State) — the canonical stream order.
func reportLess(a, b Report) bool {
	return a.Pos < b.Pos || (a.Pos == b.Pos && a.State < b.State)
}

// Reports must come out sorted by (Pos, State): positions ascend by
// construction and the canonical within-cycle order ascends by state.
func TestReportsCanonicallyOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		net := oracle.Network(r, 24)
		input := oracle.Input(r, 1+r.Intn(100))
		for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
			e := withCut(NewEngine(net, Options{CollectReports: true, Kernel: k}), 2)
			for i, b := range input {
				e.Step(int64(i), b)
			}
			reps := e.Reports()
			for i := 1; i < len(reps); i++ {
				if reportLess(reps[i], reps[i-1]) {
					t.Fatalf("trial %d kernel %v: reports out of order at %d: %+v then %+v",
						trial, k, i, reps[i-1], reps[i])
				}
			}
		}
	}
}

// KernelAuto must run the dense pass on exactly the steps whose frontier,
// or whose symbol's count of all-input starts, reaches the threshold, and
// the sparse walk on the others.
func TestAutoKernelSwitches(t *testing.T) {
	// Three one-state patterns on 'x' and one on 'y' next to Figure 2:
	// an 'x' fires three starts whatever the frontier holds.
	m := automata.NewNFA()
	for _, sym := range []byte("xxxy") {
		m.Add(symset.Single(sym), automata.StartAllInput, true)
	}
	net := figure2()
	net.Append(m)
	starts := map[byte]int{'a': 1, 'x': 3, 'y': 1}
	e := withCut(NewEngine(net, Options{Kernel: KernelAuto}), 2)
	input := []byte("abcfxyacdcdfyx")
	wantDense, byFrontier, byStarts := int64(0), 0, 0
	for i, b := range input {
		switch {
		case e.FrontierLen() >= 2:
			wantDense++
			byFrontier++
		case starts[b] >= 2:
			wantDense++
			byStarts++
		}
		e.Step(int64(i), b)
	}
	if e.DenseSteps() != wantDense || e.SparseSteps() != int64(len(input))-wantDense {
		t.Fatalf("dense %d, sparse %d steps; the rule asks for %d dense of %d",
			e.DenseSteps(), e.SparseSteps(), wantDense, len(input))
	}
	if byFrontier == 0 || byStarts == 0 || e.SparseSteps() == 0 {
		t.Fatalf("input exercises %d frontier switches, %d start switches, %d sparse steps; want all three",
			byFrontier, byStarts, e.SparseSteps())
	}
	// The quiet table is built from the image's cut, so an engine whose cut
	// a test overrode must not skip even what is quiet under both.
	quiet := []byte("zzzz")
	for _, cut := range []int{0, 2} {
		e := withCut(NewEngine(net, Options{Kernel: KernelAuto}), cut)
		e.Step(0, 'z') // the start-of-data state dies
		if n, want := e.Skip(quiet, 0), map[int]int{0: len(quiet), 2: 0}[cut]; n != want {
			t.Fatalf("cut override %d: Skip took %d of %q, want %d", cut, n, quiet, want)
		}
	}
}

// The quiet table against the step it stands for. For every symbol pair
// whose bit is set, an engine with nothing explicitly enabled and the first
// symbol's plan pending — no plan at all for row 256 — that steps the
// second takes the sparse kernel, reports nothing, and is left with nothing
// enabled but the second symbol's plan. Where the network has no all-input
// start there is no table and nothing is skipped; a plan as long as the cut
// leaves no symbol quiet.
func TestQuietTableCells(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	// One start whose plan of twenty reaches the cut of a one-word image:
	// no symbol matches a state of it but 'b', and none is quiet after 'a'.
	fan, edges := []string{"a*"}, [][2]int(nil)
	for v := 1; v <= 20; v++ {
		fan, edges = append(fan, "b"), append(edges, [2]int{0, v})
	}
	nets := []*automata.Network{figure2(), automata.NewNetwork(chainNet(70)), automata.NewNetwork(planNet(fan, edges...))}
	for trial := 0; trial < 24; trial++ {
		nets = append(nets, oracle.Network(r, 24), oracle.Network(r))
	}
	set, longPlans := 0, 0
	for ni, net := range nets {
		img := ImageOf(net)
		if img.quiet == nil {
			if img.hasAllInput || NewEngine(net, Options{}).Skip([]byte("zz"), 0) != 0 {
				t.Fatalf("net %d: no quiet table; all-input starts %v", ni, img.hasAllInput)
			}
			continue
		}
		e := NewEngine(net, Options{Kernel: KernelAuto})
		for p := range img.quiet {
			plan := 0
			if p < 256 {
				plan = len(img.startNext[p])
			}
			if plan >= img.denseCut {
				longPlans++
				if img.quiet[p] != [4]uint64{} {
					t.Fatalf("net %d: plan of %d states under a cut of %d, but row %d is %x", ni, plan, img.denseCut, p, img.quiet[p])
				}
			}
			for b := 0; b < 256; b++ {
				if img.quiet[p][b>>6]&(1<<(b&63)) == 0 {
					continue
				}
				set++
				e.Reset()
				for _, s := range img.startsOfData {
					e.DisableState(s)
				}
				e.pend, e.pendLen = byte(p), plan
				dense := e.DenseSteps()
				e.Step(0, byte(b))
				if e.DenseSteps() != dense || e.NumReports() != 0 || e.curLen != 0 ||
					e.pendLen != len(img.startNext[b]) || (e.pendLen != 0 && e.pend != byte(b)) {
					t.Fatalf("net %d: (%d, %d) is quiet, but the step ran %d dense, reported %d, left %d explicit and plan %d of %d states",
						ni, p, b, e.DenseSteps()-dense, e.NumReports(), e.curLen, e.pend, e.pendLen)
				}
			}
		}
	}
	if set == 0 || longPlans == 0 {
		t.Fatalf("%d quiet pairs stepped, %d plans at or over their cut; want both", set, longPlans)
	}
}

// Engine.Step must not allocate in steady state, on any kernel, tracked or
// not — neither on Figure 2, nor where twelve reporting starts fire on every
// symbol and leave a plan of twelve pending, nor where the dense pass takes
// exceptions through their slots and one of them through its overflow
// pairs — and neither must settling
// that plan: a toggle before the fourth symbol moves it into the bitmap and
// the list, and on Figure 2 the adaptive kernel settles on its way into
// every dense step.
func TestStepZeroAlloc(t *testing.T) {
	var specs []string
	var edges [][2]int
	for c := 0; c < 12; c++ {
		specs = append(specs, "ab*!", "a!", "b!")
		edges = append(edges, [2]int{3 * c, 3*c + 1}, [2]int{3*c + 1, 3*c + 2})
	}
	nets := []struct {
		net       *automata.Network
		input     string
		threshold int
	}{
		{figure2(), "abcfacdcdfabcf", 2},
		// A cut no frontier here reaches: auto takes the sparse walk too.
		{automata.NewNetwork(planNet(specs, edges...)), "abbabaabxabab", 100},
		// TestDenseShiftCells' hub: the 201st symbol activates an exception
		// that overflows its slot, and its last successor leads to the
		// reporting state.
		{automata.NewNetwork(hubNet()), strings.Repeat("a", 220), 2},
	}
	for _, n := range nets {
		input := []byte(n.input)
		for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
			for _, tracked := range []bool{true, false} {
				e := withCut(AcquireEngine(n.net, Options{CollectReports: true, TrackEnabled: tracked, Kernel: k}), n.threshold)
				// Warm up: grow the frontier, report, and repBuf buffers to
				// their working size, then measure.
				run := func() {
					e.Reset()
					for i, b := range input {
						if i == 3 {
							e.ToggleState(1)
						}
						e.Step(int64(i), b)
					}
				}
				run()
				allocs := testing.AllocsPerRun(20, run)
				e.Release()
				if allocs != 0 {
					t.Errorf("%d states, kernel %v, tracked %v: %v allocs per run, want 0", n.net.Len(), k, tracked, allocs)
				}
			}
		}
	}
}

// Race coverage for the pooled runtime: concurrent RunContext calls, with
// and without ever-enabled tracking, over one shared network (hence one
// shared image and engine pool). Run under -race in scripts/check.sh.
func TestPooledRuntimeConcurrentUse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	net := oracle.Network(r, 64)
	input := oracle.Input(r, 8192)
	want := oracle.Run(net, input)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(3)
		for i := 0; i < 3; i++ {
			go func(tracked bool) {
				defer wg.Done()
				res, err := RunContext(context.Background(), net, input, Options{CollectReports: true, TrackEnabled: tracked})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Reports) != len(want.Reports) {
					t.Errorf("%d reports, want %d", len(res.Reports), len(want.Reports))
				}
				for s, on := range want.Ever {
					if tracked && res.EverEnabled.Get(s) != on {
						t.Errorf("ever[%d] = %v, want %v", s, !on, on)
					}
				}
			}(i == 2)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHotStatesMatchesTrackedRun(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		net := oracle.Network(r, 24)
		input := oracle.Input(r, 1+r.Intn(200))
		hot, want := HotStates(net, input), oracle.Run(net, input).Ever
		for s := 0; s < net.Len(); s++ {
			if hot.Get(s) != want[s] {
				t.Fatalf("trial %d: HotStates[%d] = %v, the oracle says %v", trial, s, hot.Get(s), want[s])
			}
		}
	}
}

// The image is compiled once per network and shared: repeated engine
// construction and concurrent first use must yield one consistent image.
func TestImageCachedOnNetwork(t *testing.T) {
	net := figure2()
	img := ImageOf(net)
	if ImageOf(net) != img {
		t.Fatal("second ImageOf compiled a fresh image")
	}
	// Append invalidates the cache.
	m := automata.NewNFA()
	m.Add(symset.Single('q'), automata.StartAllInput, true)
	prev := ImageOf(net)
	net.Append(m)
	if got := ImageOf(net); got == prev {
		t.Fatal("Append kept the stale image")
	}
	if got := ImageOf(net); got.n != net.Len() {
		t.Fatalf("image has %d states, network %d", ImageOf(net).n, net.Len())
	}
}

// serve admits images and sessions against Footprint and EngineFootprint,
// so both must count every array the image and the engine hold: the sums
// here are taken over the slices themselves, length times element size.
func TestFootprintsCountEveryArray(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nets := map[string]*automata.Network{
		"figure2":    figure2(),
		"noAllInput": automata.NewNetwork(chainNet(193)),
		"hub":        automata.NewNetwork(hubNet()),
	}
	for i := 0; i < 8; i++ {
		nets[fmt.Sprint("drawn", i)] = oracle.Network(r)
	}
	for name, net := range nets {
		img := Compile(net)
		if len(img.shiftMask) != img.words*len(img.shift) || len(img.excMask) != img.words {
			t.Errorf("%s: %d classes over %d words, but %d mask words and %d exception words",
				name, len(img.shift), img.words, len(img.shiftMask), len(img.excMask))
		}
		want := 4*len(img.succOff) + 4*len(img.succ) + 8*len(img.match) +
			1*len(img.shift) + 8*len(img.shiftMask) + 8*len(img.excMask) +
			4*len(img.slotOff) + int(unsafe.Sizeof(excSlot{}))*len(img.excSlots) +
			int(unsafe.Sizeof(wordBits{}))*len(img.excOvf) + 8*len(img.ovfMask) +
			8*len(img.report) + 8*len(img.allInput) +
			4*len(img.allInputHot) + 4*len(img.startsOfData) +
			int(unsafe.Sizeof(img.startCount))
		// The quiet table is built with the start plans, 257 rows of 32 bytes.
		if (img.quiet != nil) != img.hasAllInput {
			t.Errorf("%s: all-input starts %v, quiet table %v", name, img.hasAllInput, img.quiet != nil)
		} else if img.quiet != nil {
			want += 8224
		}
		for b := range img.symMask {
			want += 8*len(img.symMask[b]) + 4*len(img.startNext[b]) + 4*len(img.startRep[b])
			// Without all-input starts the 256 start rows are one zero row.
			if img.hasAllInput || b == 0 {
				want += 8 * len(img.startMask[b])
			}
		}
		// Without exceptions the slow-path mask is the report words again.
		if len(img.excSlots) != 0 {
			want += 8 * len(img.slowMask)
		} else if &img.slowMask[0] != &img.report[0] || img.slotOff != nil || img.ovfMask != nil {
			t.Errorf("%s: no exception, but arrays for them", name)
		}
		if name == "hub" && len(img.excOvf) == 0 {
			t.Errorf("%s: no slot overflows", name)
		}
		if got := img.Footprint(); got != int64(want) {
			t.Errorf("%s: Footprint() = %d, the arrays hold %d bytes", name, got, want)
		}
		e := newEngine(img)
		wantEngine := 8*len(e.cur) + 8*len(e.nxt) + 2*4*img.n
		if got := img.EngineFootprint(); got != int64(wantEngine) {
			t.Errorf("%s: EngineFootprint() = %d, a full engine holds %d bytes", name, got, wantEngine)
		}
		if got, want := img.EngineFootprintBounded(3), int64(wantEngine-2*4*(img.n-3)); got != want {
			t.Errorf("%s: EngineFootprintBounded(3) = %d, want %d", name, got, want)
		}
	}
}
