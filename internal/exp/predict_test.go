package exp

import (
	"strings"
	"testing"
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
	if r.WithinProfiled < 0 || r.WithinProfiled > len(r.Rows) {
		t.Fatalf("WithinProfiled = %d", r.WithinProfiled)
	}
	out := r.Render()
	if !strings.Contains(out, "Prediction") || !strings.Contains(out, "geomean") {
		t.Fatal("render missing title or geomean row")
	}
	if !strings.Contains(out, "report streams identical") {
		t.Fatal("render should state the report streams were identical")
	}
}
