package exp

import (
	"strings"
	"testing"

	"sparseap/internal/hotcold"
	"sparseap/internal/spap"
)

func TestPredictSmallSuite(t *testing.T) {
	s := testSuite()
	r, err := Predict(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 26 {
		t.Fatalf("rows = %d, want the whole suite", len(r.Rows))
	}
	if !r.ReportsIdentical {
		t.Fatal("report streams diverged across strategies — partitioning changed semantics")
	}
	for _, row := range r.Rows {
		for name, v := range map[string]float64{
			"static": row.Static, "profiled": row.Profiled, "fixed": row.Fixed,
			"normdepth": row.NormDepth, "oracle": row.Oracle,
		} {
			if v <= 0 {
				t.Errorf("%s: %s speedup = %v, want > 0", row.Abbr, name, v)
			}
		}
		if row.PredHotFrac < 0 || row.PredHotFrac > 1 {
			t.Errorf("%s: PredHotFrac = %v", row.Abbr, row.PredHotFrac)
		}
		if row.ProfHotFrac < 0 || row.ProfHotFrac > 1 {
			t.Errorf("%s: ProfHotFrac = %v", row.Abbr, row.ProfHotFrac)
		}
	}
	if r.GeoStatic <= 0 || r.GeoProfiled <= 0 {
		t.Fatalf("geomeans: static %v profiled %v", r.GeoStatic, r.GeoProfiled)
	}
	// The prediction gate: a partition that reads the automaton's symbol
	// sets must not lose to the one that reads only its depth. Cycle
	// counts, so the comparison is deterministic (1.64 vs 1.12 here).
	if r.GeoStatic < r.GeoNormDepth {
		t.Fatalf("static geomean speedup %.3f below the normalized-depth baseline's %.3f",
			r.GeoStatic, r.GeoNormDepth)
	}
	// Profiling must not lose to the behaviour-blind fixed cut on the
	// whole (1.63 vs 1.42 here).
	if r.GeoProfiled < r.GeoFixed*0.9 {
		t.Fatalf("profiled geomean %.3f not competitive with the fixed cut's %.3f", r.GeoProfiled, r.GeoFixed)
	}
	if r.WithinProfiled < 0 || r.WithinProfiled > len(r.Rows) {
		t.Fatalf("WithinProfiled = %d", r.WithinProfiled)
	}
	out := r.Render()
	if !strings.Contains(out, "Prediction") || !strings.Contains(out, "geomean") ||
		!strings.Contains(out, "geomean (H+M)") {
		t.Fatal("render missing title or a geomean row")
	}
	if !strings.Contains(out, "report streams identical") {
		t.Fatal("render should state the report streams were identical")
	}
}

// TestOraclePartitionNoIntermediateReports: the oracle partition keeps
// every state the test input enables hot, so it never mis-predicts. It is
// not an upper bound on speedup (it keeps every test-hot state where the
// profiled cut goes lower and pays cheap jump-handled crossings), only on
// prediction quality.
func TestOraclePartitionNoIntermediateReports(t *testing.T) {
	s := testSuite()
	a, err := s.App("Brill")
	if err != nil {
		t.Fatal(err)
	}
	p, err := hotcold.BuildWithStrategy(a.App.Net, hotcold.StrategyOracle,
		hotcold.StrategyInput{OracleHot: a.TestHot()}, hotcold.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := spap.RunBaseAPSpAP(p, a.TestInput(), s.AP, spap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if run.IntermediateReports != 0 {
		t.Fatalf("oracle partition produced %d intermediate reports", run.IntermediateReports)
	}
}
