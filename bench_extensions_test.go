package sparseap_test

import (
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/exp"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

// Ablation benches for the design choices DESIGN.md calls out: the value
// of profiling vs behaviour-blind partitioning and the excluded
// output-reporting overhead.

func BenchmarkAblationPartitionStrategies(b *testing.B) {
	s := benchSuite()
	var profiled, fixed, oracle float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Ablation(s)
		if err != nil {
			b.Fatal(err)
		}
		profiled, fixed, oracle = res.GeoProfiled, res.GeoFixed, res.GeoOracle
	}
	b.ReportMetric(profiled, "geoProfiled")
	b.ReportMetric(fixed, "geoFixedCut")
	b.ReportMetric(oracle, "geoOracle")
}

// BenchmarkAblationOutputOverhead quantifies the report-output stalls the
// paper excludes from its evaluation (Section VI-B), over PEN's dense
// report stream.
func BenchmarkAblationOutputOverhead(b *testing.B) {
	app, err := workloads.Build("PEN", workloads.Config{InputLen: 16384, Divisor: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res := sim.Run(app.Net, app.Input, sim.Options{CollectReports: true})
	positions := make([]int64, len(res.Reports))
	for i, r := range res.Reports {
		positions[i] = r.Pos
	}
	model := ap.DefaultOutputModel()
	var overhead int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overhead = model.Overhead(positions)
	}
	b.ReportMetric(float64(overhead), "outputStallCycles")
	b.ReportMetric(float64(len(positions)), "reports")
}
