package sim

import (
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// figure2 builds the paper's Figure 2 NFA accepting a((bc)|(cd)+)f.
// States: S1=a(start) S2=b S3=c S4=c S5=d S6=f(report).
func figure2() *automata.Network {
	m := automata.NewNFA()
	s1 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	s2 := m.Add(symset.Single('b'), automata.StartNone, false)
	s3 := m.Add(symset.Single('c'), automata.StartNone, false)
	s4 := m.Add(symset.Single('c'), automata.StartNone, false)
	s5 := m.Add(symset.Single('d'), automata.StartNone, false)
	s6 := m.Add(symset.Single('f'), automata.StartNone, true)
	m.Connect(s1, s2)
	m.Connect(s1, s4)
	m.Connect(s2, s3)
	m.Connect(s3, s6)
	m.Connect(s4, s5)
	m.Connect(s5, s4) // (cd)+ loop
	m.Connect(s5, s6)
	return automata.NewNetwork(m)
}

func TestFigure2MatchABCF(t *testing.T) {
	res := Run(figure2(), []byte("abcf"), Options{CollectReports: true, TrackEnabled: true})
	if res.NumReports != 1 {
		t.Fatalf("NumReports = %d, want 1", res.NumReports)
	}
	r := res.Reports[0]
	if r.Pos != 3 || r.State != 5 {
		t.Fatalf("report = %+v, want pos 3 state 5", r)
	}
	// Hot states: S1 (start), S2,S4 (after a), S3 (after b), S6 (after c).
	// S5 is never enabled: S4 matched 'c' only at pos 1? No: S4 enabled at
	// pos 1 with symbol 'b' -> no match; so S5 stays cold... but S3 matched
	// 'c' at pos 2 enabling S6. Check exact set.
	want := map[int]bool{0: true, 1: true, 2: true, 3: true, 5: true}
	for s := 0; s < 6; s++ {
		if res.EverEnabled.Get(s) != want[s] {
			t.Errorf("EverEnabled[%d] = %v, want %v", s, res.EverEnabled.Get(s), want[s])
		}
	}
}

func TestFigure2MatchACDCDF(t *testing.T) {
	res := Run(figure2(), []byte("acdcdf"), Options{CollectReports: true})
	if res.NumReports != 1 {
		t.Fatalf("NumReports = %d, want 1", res.NumReports)
	}
	if res.Reports[0].Pos != 5 {
		t.Fatalf("report pos = %d, want 5", res.Reports[0].Pos)
	}
}

func TestFigure2NoMatch(t *testing.T) {
	res := Run(figure2(), []byte("abdf"), Options{CollectReports: true})
	if res.NumReports != 0 {
		t.Fatalf("NumReports = %d, want 0", res.NumReports)
	}
}

func TestAllInputStartMatchesEveryOccurrence(t *testing.T) {
	// Single reporting start state accepting 'x': reports at every x.
	m := automata.NewNFA()
	m.Add(symset.Single('x'), automata.StartAllInput, true)
	net := automata.NewNetwork(m)
	res := Run(net, []byte("xaxxbx"), Options{CollectReports: true})
	if res.NumReports != 4 {
		t.Fatalf("NumReports = %d, want 4", res.NumReports)
	}
	wantPos := []int64{0, 2, 3, 5}
	for i, r := range res.Reports {
		if r.Pos != wantPos[i] {
			t.Errorf("report %d pos = %d, want %d", i, r.Pos, wantPos[i])
		}
	}
}

func TestStartOfDataOnlyPositionZero(t *testing.T) {
	// start-of-data 'a' -> report 'b': matches only "ab" at the start.
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartOfData, false)
	b := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(a, b)
	net := automata.NewNetwork(m)
	if got := Run(net, []byte("abab"), Options{}).NumReports; got != 1 {
		t.Fatalf("reports = %d, want 1", got)
	}
	if got := Run(net, []byte("xaba"), Options{}).NumReports; got != 0 {
		t.Fatalf("reports = %d, want 0 (not anchored at 0)", got)
	}
}

func TestSelfLoopDotStar(t *testing.T) {
	// a .* b : a(start) -> loop(*) -> b(report), loop self-loops.
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	loop := m.Add(symset.All(), automata.StartNone, false)
	b := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(a, loop)
	m.Connect(loop, loop)
	m.Connect(loop, b)
	net := automata.NewNetwork(m)
	res := Run(net, []byte("a..b..b"), Options{CollectReports: true})
	// b matchable at every b after first a: positions 3 and 6.
	if res.NumReports != 2 {
		t.Fatalf("reports = %d, want 2", res.NumReports)
	}
}

func TestEngineResetClearsState(t *testing.T) {
	net := figure2()
	e := NewEngine(net, Options{CollectReports: true, TrackEnabled: true})
	for i, b := range []byte("abcf") {
		e.Step(int64(i), b)
	}
	if e.NumReports() != 1 {
		t.Fatalf("first run reports = %d", e.NumReports())
	}
	e.Reset()
	if e.NumReports() != 0 || len(e.Reports()) != 0 {
		t.Error("Reset did not clear reports")
	}
	if !e.FrontierEmpty() {
		t.Error("Reset left frontier nonempty")
	}
	for i, b := range []byte("abcf") {
		e.Step(int64(i), b)
	}
	if e.NumReports() != 1 {
		t.Fatalf("second run reports = %d", e.NumReports())
	}
}

func TestEnableStateInjection(t *testing.T) {
	// Network with no starts reachable: inject enable manually.
	m := automata.NewNFA()
	a := m.Add(symset.Single('z'), automata.StartAllInput, false) // unrelated start
	c := m.Add(symset.Single('c'), automata.StartNone, false)
	d := m.Add(symset.Single('d'), automata.StartNone, true)
	m.Connect(a, c)
	m.Connect(c, d)
	net := automata.NewNetwork(m)
	e := NewEngine(net, Options{CollectReports: true})
	e.EnableState(1) // enable 'c' state for position 0
	input := []byte("cd")
	for i, b := range input {
		e.Step(int64(i), b)
	}
	if e.NumReports() != 1 {
		t.Fatalf("reports = %d, want 1", e.NumReports())
	}
	if e.Reports()[0].Pos != 1 {
		t.Fatalf("report pos = %d, want 1", e.Reports()[0].Pos)
	}
}

func TestOnReportCallback(t *testing.T) {
	var got []Report
	e := NewEngine(figure2(), Options{})
	e.OnReport = func(pos int64, s automata.StateID) {
		got = append(got, Report{Pos: pos, State: s})
	}
	for i, b := range []byte("abcf") {
		e.Step(int64(i), b)
	}
	if len(got) != 1 || got[0].Pos != 3 {
		t.Fatalf("callback reports = %+v", got)
	}
	if len(e.Reports()) != 0 {
		t.Error("reports also collected despite callback")
	}
}

func TestHasAllInputStarts(t *testing.T) {
	if !NewEngine(figure2(), Options{}).HasAllInputStarts() {
		t.Error("figure2 should have all-input starts")
	}
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartOfData, false)
	b := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(a, b)
	if NewEngine(automata.NewNetwork(m), Options{}).HasAllInputStarts() {
		t.Error("start-of-data-only network reports all-input starts")
	}
}

// naiveResult is what the reference simulator observes: the reports in
// (position, ascending state) order, the ever-enabled set as the engine
// defines it (all-input starts with a non-empty symbol set, start-of-data
// states, and every other state some activation enabled), and the number
// of dynamically enabled states after each symbol.
type naiveResult struct {
	reports  []Report
	ever     []bool
	frontier []int
}

// frontierEdit is an enable-bit operation made between two steps, before
// symbol at: op 'e' is EnableState(s), 'd' DisableState(s), 't'
// ToggleState(s).
type frontierEdit struct {
	at int
	op byte
	s  automata.StateID
}

// naiveRun is an O(states × symbols) reference simulator used as an oracle.
// All-input starts are enabled by their kind, never through the enabled
// set, so an edit to one is the no-op it is on the engine.
func naiveRun(net *automata.Network, input []byte, edits ...frontierEdit) naiveResult {
	res := naiveResult{ever: make([]bool, net.Len())}
	enabled := make([]bool, net.Len())
	for s := range net.States {
		switch st := &net.States[s]; st.Start {
		case automata.StartAllInput:
			res.ever[s] = !st.Match.IsEmpty()
		case automata.StartOfData:
			res.ever[s] = true
			enabled[s] = true
		}
	}
	for i := range input {
		for _, ed := range edits {
			if ed.at != i || net.States[ed.s].Start == automata.StartAllInput {
				continue
			}
			switch ed.op {
			case 'e':
				enabled[ed.s] = true
			case 'd':
				enabled[ed.s] = false
			case 't':
				enabled[ed.s] = !enabled[ed.s]
			}
			if enabled[ed.s] {
				res.ever[ed.s] = true
			}
		}
		next := make([]bool, net.Len())
		for s := 0; s < net.Len(); s++ {
			en := enabled[s] || net.States[s].Start == automata.StartAllInput
			if !en || !net.States[s].Match.Contains(input[i]) {
				continue
			}
			if net.States[s].Report {
				res.reports = append(res.reports, Report{Pos: int64(i), State: automata.StateID(s)})
			}
			for _, v := range net.States[s].Succ {
				next[v] = true
			}
		}
		enabled = next
		n := 0
		for s, en := range enabled {
			if en && net.States[s].Start != automata.StartAllInput {
				res.ever[s] = true
				n++
			}
		}
		res.frontier = append(res.frontier, n)
	}
	return res
}

// Property: the optimized engine agrees with the naive reference simulator
// on random networks and inputs.
func TestPropAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	alphabet := []byte("abcd")
	for trial := 0; trial < 60; trial++ {
		nStates := 2 + r.Intn(12)
		m := automata.NewNFA()
		for s := 0; s < nStates; s++ {
			var set symset.Set
			for k := 0; k <= r.Intn(3); k++ {
				set.Add(alphabet[r.Intn(len(alphabet))])
			}
			start := automata.StartNone
			switch r.Intn(5) {
			case 0:
				start = automata.StartAllInput
			case 1:
				start = automata.StartOfData
			}
			m.Add(set, start, r.Intn(3) == 0)
		}
		// Ensure at least one start.
		if m.States[0].Start == automata.StartNone {
			m.States[0].Start = automata.StartAllInput
		}
		nEdges := r.Intn(2 * nStates)
		for k := 0; k < nEdges; k++ {
			m.Connect(automata.StateID(r.Intn(nStates)), automata.StateID(r.Intn(nStates)))
		}
		m.Dedup()
		net := automata.NewNetwork(m)
		input := make([]byte, 1+r.Intn(40))
		for i := range input {
			input[i] = alphabet[r.Intn(len(alphabet))]
		}
		got := Run(net, input, Options{CollectReports: true}).Reports
		want := naiveRun(net, input).reports
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d reports, want %d", trial, len(got), len(want))
		}
		// Compare as sets keyed by (pos,state); order within a position may
		// differ between the two simulators.
		mk := func(rs []Report) map[Report]int {
			m := map[Report]int{}
			for _, r := range rs {
				m[r]++
			}
			return m
		}
		gm, wm := mk(got), mk(want)
		for k, v := range wm {
			if gm[k] != v {
				t.Fatalf("trial %d: report %+v count %d, want %d", trial, k, gm[k], v)
			}
		}
	}
}

// Property: ever-enabled under a prefix is a subset of ever-enabled under
// the full input (hot-set monotonicity, invariant 7 in DESIGN.md).
func TestPropHotSetMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	net := figure2()
	for trial := 0; trial < 40; trial++ {
		input := make([]byte, 2+r.Intn(60))
		alphabet := []byte("abcdf")
		for i := range input {
			input[i] = alphabet[r.Intn(len(alphabet))]
		}
		cut := 1 + r.Intn(len(input)-1)
		hotPrefix := HotStates(net, input[:cut])
		hotFull := HotStates(net, input)
		hotPrefix.ForEach(func(i int) {
			if !hotFull.Get(i) {
				t.Fatalf("trial %d: state %d hot under prefix but not full input", trial, i)
			}
		})
	}
}
