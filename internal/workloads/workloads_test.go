package workloads

import (
	"testing"

	"sparseap/internal/graph"
	"sparseap/internal/sim"
)

// fastCfg generates small instances for unit tests.
func fastCfg() Config {
	return Config{InputLen: 4096, Divisor: 64, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	if err := checkRegistry(); err != nil {
		t.Fatal(err)
	}
	if len(Names()) != 26 {
		t.Fatalf("Names() = %d entries, want 26", len(Names()))
	}
	if len(HighMediumNames()) != 16 || len(LowNames()) != 10 || len(HighNames()) != 11 {
		t.Fatal("group name lists have wrong sizes")
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("NoSuchApp", fastCfg()); err == nil {
		t.Fatal("unknown app built")
	}
}

// TestBuildRejectsNegativeDivisor: a negative divisor once floored every
// NFA count at 1 and built a 1-NFA app; 0 still means the default 8.
func TestBuildRejectsNegativeDivisor(t *testing.T) {
	if _, err := Build("HM", Config{InputLen: 4096, Divisor: -8}); err == nil {
		t.Fatal("Build accepted divisor -8")
	}
	def, err := Build("HM", Config{InputLen: 4096})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Build("HM", Config{InputLen: 4096, Divisor: 8})
	if err != nil {
		t.Fatal(err)
	}
	if def.Net.Len() != eight.Net.Len() {
		t.Fatalf("divisor 0 built %d states, divisor 8 %d", def.Net.Len(), eight.Net.Len())
	}
}

// TestBuildRejectsNegativeInputLen: a negative input length is an error,
// not a default.
func TestBuildRejectsNegativeInputLen(t *testing.T) {
	if _, err := Build("HM", Config{InputLen: -1, Divisor: 64}); err == nil {
		t.Fatal("Build accepted input length -1")
	}
}

func TestBuildAllValidAndGrouped(t *testing.T) {
	apps, err := BuildAll(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 26 {
		t.Fatalf("built %d apps", len(apps))
	}
	groups := map[string]Group{
		"CAV4k": High, "SPM": High, "Brill": Medium, "PEN": Medium,
		"TCP": Low, "LV": Low,
	}
	for _, a := range apps {
		if a.Net.Len() == 0 || len(a.Input) != 4096 {
			t.Errorf("%s: states=%d inputLen=%d", a.Abbr, a.Net.Len(), len(a.Input))
		}
		if g, ok := groups[a.Abbr]; ok && a.Group != g {
			t.Errorf("%s: group = %v, want %v", a.Abbr, a.Group, g)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, abbr := range []string{"CAV", "HM", "Snort", "SPM", "LV"} {
		a1, err := Build(abbr, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Build(abbr, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		if a1.Net.Len() != a2.Net.Len() {
			t.Errorf("%s: nondeterministic state count %d vs %d", abbr, a1.Net.Len(), a2.Net.Len())
		}
		for i := range a1.Input {
			if a1.Input[i] != a2.Input[i] {
				t.Errorf("%s: nondeterministic input at %d", abbr, i)
				break
			}
		}
		for s := 0; s < a1.Net.Len(); s++ {
			if !a1.Net.States[s].Match.Equal(a2.Net.States[s].Match) {
				t.Errorf("%s: nondeterministic symbol set at state %d", abbr, s)
				break
			}
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	cfg1, cfg2 := fastCfg(), fastCfg()
	cfg2.Seed = 8
	a1, _ := Build("CAV", cfg1)
	a2, _ := Build("CAV", cfg2)
	same := true
	for i := range a1.Input {
		if i < len(a2.Input) && a1.Input[i] != a2.Input[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestStartOfDataApps(t *testing.T) {
	for _, abbr := range Names() {
		a, err := Build(abbr, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		wantSOD := abbr == "SPM" || abbr == "Fermi"
		if a.StartOfData != wantSOD {
			t.Errorf("%s: StartOfData = %v, want %v", abbr, a.StartOfData, wantSOD)
		}
		if wantSOD && !a.Net.ComputeStats().StartOfData {
			t.Errorf("%s: network has no start-of-data states", abbr)
		}
	}
}

func TestERHasGiantSCC(t *testing.T) {
	a, err := Build("ER", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	scc := graph.SCC(a.Net)
	maxSize := int32(0)
	for _, s := range scc.Size {
		if s > maxSize {
			maxSize = s
		}
	}
	// Ring of 92 states per NFA must be one SCC.
	if maxSize < 90 {
		t.Fatalf("largest ER SCC = %d, want ring-sized (>=90)", maxSize)
	}
}

func TestLVHasLargeSCCs(t *testing.T) {
	a, err := Build("LV", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	scc := graph.SCC(a.Net)
	maxSize := int32(0)
	for _, s := range scc.Size {
		if s > maxSize {
			maxSize = s
		}
	}
	if maxSize < 20 {
		t.Fatalf("largest LV SCC = %d, want insertion-ring sized", maxSize)
	}
}

func TestHammingBMIAShape(t *testing.T) {
	m := BMIA([]byte("abcdefgh"), 2) // l=8, d=2
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// States: match sum_{i=1..8} min(i,3) = 1+2+3*6 = 21;
	// mismatch sum_{i=1..8} min(i,2) = 1+2*7 = 15. Total 36.
	if m.Len() != 36 {
		t.Fatalf("BMIA states = %d, want 36", m.Len())
	}
	starts, reports := 0, 0
	for _, s := range m.States {
		if s.Start != 0 {
			starts++
		}
		if s.Report {
			reports++
		}
	}
	if starts != 2 { // match(1,0) and mism(1,1)
		t.Fatalf("BMIA starts = %d, want 2", starts)
	}
	if reports != 5 { // i=8: match j=0..2 (3), mismatch j=1..2 (2)
		t.Fatalf("BMIA reports = %d, want 5", reports)
	}
}

func TestHammingAcceptsWithinDistance(t *testing.T) {
	p := []byte("abcdefgh")
	m := BMIA(p, 2)
	run := func(s []byte) int64 {
		return sim.Run(netOf(m), s, sim.Options{}).NumReports
	}
	if run(p) == 0 {
		t.Error("exact pattern not accepted")
	}
	mut1 := append([]byte(nil), p...)
	mut1[3] = 'X'
	if run(mut1) == 0 {
		t.Error("distance-1 string not accepted")
	}
	mut3 := append([]byte(nil), p...)
	mut3[1], mut3[3], mut3[5] = 'X', 'Y', 'Z'
	if run(mut3) != 0 {
		t.Error("distance-3 string accepted with d=2")
	}
}

func TestSPMAnchoredSemantics(t *testing.T) {
	m := spmNFA([]byte("ab"))
	// "a" then later "b" anywhere matches; order must hold.
	if sim.Run(netOf(m), []byte("xxaxxbxx"), sim.Options{}).NumReports == 0 {
		t.Error("gapped sequence not accepted")
	}
	if sim.Run(netOf(m), []byte("bxxa"), sim.Options{}).NumReports != 0 {
		t.Error("out-of-order sequence accepted")
	}
}

func TestFermiAnchored(t *testing.T) {
	a, err := Build("Fermi", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.Net.States {
		if a.Net.States[s].Start == 1 { // StartAllInput
			t.Fatal("Fermi must not contain all-input starts")
		}
	}
}

func TestPENPhasedInput(t *testing.T) {
	a, err := Build("PEN", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The quiet preamble must enable almost nothing beyond the starts;
	// the body must enable much more.
	pre := a.Input[:len(a.Input)/50]
	hotPre := sim.HotStates(a.Net, pre).Count()
	hotFull := sim.HotStates(a.Net, a.Input).Count()
	if hotFull < 4*hotPre {
		t.Fatalf("PEN phases indistinct: preamble hot %d vs full hot %d", hotPre, hotFull)
	}
}

func TestConfigOptimize(t *testing.T) {
	cfg := fastCfg()
	raw, err := Build("Snort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Optimize = true
	opt, err := Build("Snort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Net.Len() >= raw.Net.Len() {
		t.Fatalf("Optimize did not shrink Snort: %d vs %d states", opt.Net.Len(), raw.Net.Len())
	}
	if problems := opt.Net.StructuralProblems(); len(problems) != 0 {
		t.Fatalf("optimized network is unsound: %v", problems)
	}
	// The rewriter certifies report-stream equivalence; here just check
	// the per-position report counts survive the round trip.
	rawRes := sim.Run(raw.Net, raw.Input, sim.Options{CollectReports: true})
	optRes := sim.Run(opt.Net, opt.Input, sim.Options{CollectReports: true})
	if len(rawRes.Reports) != len(optRes.Reports) {
		t.Fatalf("report counts diverge: raw %d vs optimized %d", len(rawRes.Reports), len(optRes.Reports))
	}
}
