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
	if !Compile(figure2()).hasAllInput {
		t.Error("figure2 should have all-input starts")
	}
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartOfData, false)
	b := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(a, b)
	if Compile(automata.NewNetwork(m)).hasAllInput {
		t.Error("start-of-data-only network reports all-input starts")
	}
}

// Property: ever-enabled under a prefix is a subset of ever-enabled under
// the full input (hot-set monotonicity, DESIGN.md §4).
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
