package exp

import (
	"math"
	"strings"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/workloads"
)

// testSuite builds a small-scale suite: 1/64 of the paper with 8 KiB
// inputs and a 375-STE half-core (24K/64).
func testSuite() *Suite {
	wl := workloads.Config{InputLen: 8192, Divisor: 64, Seed: 3}
	return NewSuite(wl, ap.DefaultConfig().WithCapacity(375))
}

func TestFig1(t *testing.T) {
	s := testSuite()
	r, err := Fig1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 26 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i-1].HotFrac > r.Rows[i].HotFrac {
			t.Fatal("rows not sorted by hot fraction")
		}
	}
	if r.AvgColdFrac <= 0.2 || r.AvgColdFrac >= 0.95 {
		t.Fatalf("avg cold fraction = %v, implausible", r.AvgColdFrac)
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestFig5(t *testing.T) {
	s := testSuite()
	r, err := Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hot) != 26 || len(r.Cold) != 26 {
		t.Fatal("wrong row counts")
	}
	for _, row := range r.Hot {
		sum := row.Shallow + row.Medium + row.Deep
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: hot fractions sum to %v", row.Abbr, sum)
		}
	}
	// The key claim: depth correlates negatively with hotness.
	if r.AvgCorrelation >= 0 {
		t.Fatalf("avg correlation = %v, want negative", r.AvgCorrelation)
	}
	r.Render()
}

func TestTable1(t *testing.T) {
	s := testSuite()
	r, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Recall must be monotone nondecreasing in profile size (hot-set
	// monotonicity), and high at 50%.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Recall < r.Rows[i-1].Recall-1e-9 {
			t.Fatalf("recall not monotone: %+v", r.Rows)
		}
	}
	if r.Rows[3].Recall < 0.75 {
		t.Fatalf("recall at 50%% = %v, implausibly low", r.Rows[3].Recall)
	}
	if r.Rows[1].Accuracy < 0.5 {
		t.Fatalf("accuracy at 1%% = %v", r.Rows[1].Accuracy)
	}
	r.Render()
}

func TestFig8(t *testing.T) {
	s := testSuite()
	r, err := Fig8(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 26 {
		t.Fatal("wrong row count")
	}
	byApp := map[string]float64{}
	for _, row := range r.Rows {
		if row.Constrained < 0 || row.Constrained > 1 {
			t.Fatalf("%s: constrained = %v", row.Abbr, row.Constrained)
		}
		byApp[row.Abbr] = row.Constrained
	}
	// ER and LV must stand out (giant SCCs), as in the paper.
	if byApp["ER"] < 2*r.Avg && byApp["LV"] < 2*r.Avg {
		t.Fatalf("ER=%v LV=%v not outliers vs avg %v", byApp["ER"], byApp["LV"], r.Avg)
	}
	r.Render()
}

func TestFig10AndTable4(t *testing.T) {
	s := testSuite()
	r, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 16 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byApp := map[string]Fig10Row{}
	for _, row := range r.Rows {
		byApp[row.Abbr] = row
	}
	// CAV4k must show a large speedup; ER and RF1 none.
	if byApp["CAV4k"].SpAP1 < 3 {
		t.Errorf("CAV4k speedup = %v, want large", byApp["CAV4k"].SpAP1)
	}
	for _, app := range []string{"ER", "RF1"} {
		v := byApp[app].SpAP1
		if v < 0.95 || v > 1.6 {
			t.Errorf("%s speedup = %v, want ~1", app, v)
		}
	}
	if r.GeoSpAP1 < 1.0 {
		t.Errorf("geomean SpAP 1%% = %v, want > 1", r.GeoSpAP1)
	}
	r.Render()

	t4, err := Table4(s)
	if err != nil {
		t.Fatal(err)
	}
	byT4 := map[string]Table4Row{}
	for _, row := range t4.Rows {
		byT4[row.Abbr] = row
	}
	// Consistency: BaseAP executions never exceed baseline executions.
	for _, row := range t4.Rows {
		if row.BaseAPExecutions > row.BaselineExecutions {
			t.Errorf("%s: BaseAP %d > baseline %d", row.Abbr, row.BaseAPExecutions, row.BaselineExecutions)
		}
		if row.IntermediateReports == 0 && row.SpAPExecutions != 0 {
			t.Errorf("%s: SpAP ran without reports", row.Abbr)
		}
	}
	// ER and RF1 keep all states: no SpAP work at all.
	for _, app := range []string{"ER", "RF1", "RF2"} {
		if byT4[app].SpAPExecutions != 0 {
			t.Errorf("%s: SpAP executions = %d, want 0", app, byT4[app].SpAPExecutions)
		}
	}
	t4.Render()
}

func TestFig11(t *testing.T) {
	s := testSuite()
	r, err := Fig11(s, []int{94, 188, 375, 766})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatal("wrong row count")
	}
	// At the half-core size the scheme must improve performance/STE.
	if r.Rows[2].ImprovePct <= 0 {
		t.Errorf("improvement at half-core = %v%%", r.Rows[2].ImprovePct)
	}
	// Larger APs have lower baseline perf/STE (underutilization).
	if r.Rows[3].BaselineMean >= r.Rows[0].BaselineMean {
		t.Errorf("baseline perf/STE not decreasing with size: %+v", r.Rows)
	}
	r.Render()
}

func TestFig12(t *testing.T) {
	s := testSuite()
	r, err := Fig12(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 16 {
		t.Fatal("wrong row count")
	}
	for _, row := range r.Rows {
		if row.Baseline == 0 {
			t.Errorf("%s: no baseline reporting states", row.Abbr)
		}
		if row.True01 > row.Baseline {
			t.Errorf("%s: more true reporting states than baseline", row.Abbr)
		}
	}
	r.Render()
}

func TestFig13(t *testing.T) {
	s := testSuite()
	r, err := Fig13(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Low.Rows) != 10 || len(r.High.Rows) != 11 {
		t.Fatalf("rows = %d/%d", len(r.Low.Rows), len(r.High.Rows))
	}
	if r.Low.Capacity != s.AP.Capacity/2 {
		t.Fatal("low capacity wrong")
	}
	r.Render()
}

func TestTable2(t *testing.T) {
	s := testSuite()
	r, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 26 {
		t.Fatal("wrong row count")
	}
	for _, row := range r.Rows {
		if row.States <= 0 || row.NFAs <= 0 || row.MaxTopo <= 0 || row.RStates <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	r.Render()
}

func TestSuiteCaching(t *testing.T) {
	s := testSuite()
	a1, err := s.App("CAV")
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := s.App("CAV")
	if a1 != a2 {
		t.Fatal("App not cached")
	}
	h1 := a1.FullHot()
	h2 := a1.FullHot()
	if h1 != h2 {
		t.Fatal("FullHot not cached")
	}
	p1, err := a1.Partition(0.01, 375)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := a1.Partition(0.01, 375)
	if p1 != p2 {
		t.Fatal("Partition not cached")
	}
}

func TestProfileInputBounds(t *testing.T) {
	s := testSuite()
	a, err := s.App("Brill")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.ProfileInput(0.5)); n != len(a.App.Input)/2 {
		t.Fatalf("50%% profile len = %d", n)
	}
	if n := len(a.ProfileInput(0.9)); n != len(a.App.Input)/2 {
		t.Fatalf("oversized profile not clamped to first half: %d", n)
	}
	if len(a.ProfileInput(0.0000001)) < 1 {
		t.Fatal("empty profile")
	}
	// Start-of-data app: test input is the whole input.
	f, err := s.App("Fermi")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TestInput()) != len(f.App.Input) {
		t.Fatal("Fermi test input must be the entire input")
	}
}
