package exp

import (
	"fmt"
	"hash/fnv"

	"sparseap/internal/bitvec"
	"sparseap/internal/hotcold"
	"sparseap/internal/metrics"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/workloads"
)

// PredictRow compares the profile-free static hotness partitioning
// against the paper's profiled scheme, the behaviour-blind baselines and
// the oracle bound for one application (BaseAP/SpAP speedups over the
// baseline AP).
type PredictRow struct {
	Abbr string
	// Speedups per strategy.
	Static    float64
	Profiled  float64
	Fixed     float64
	NormDepth float64
	Oracle    float64
	// PredHotFrac is the static analysis's predicted hot fraction;
	// ProfHotFrac the 1%-profiled one — how far apart the two pictures
	// of the application are.
	PredHotFrac float64
	ProfHotFrac float64
	// WithinProfiled reports Static ≥ (1 - PredictTolerance) × Profiled.
	WithinProfiled bool
	// ReportsIdentical reports that every strategy's execution produced
	// the same final report multiset (partitioning never changes
	// semantics).
	ReportsIdentical bool
}

// PredictTolerance is the per-application acceptance band: the static
// strategy counts as matching the profiled one when its speedup is within
// 10% of it.
const PredictTolerance = 0.10

// PredictResult is the profile-free prediction study: can a purely static
// analysis of the automata replace the paper's 1% profiling run?
type PredictResult struct {
	Capacity   int
	FixedParam float64
	DepthParam float64
	Rows       []PredictRow
	// Geomeans over the row set.
	GeoStatic, GeoProfiled, GeoFixed, GeoNormDepth, GeoOracle float64
	// WithinProfiled counts rows whose static speedup is within
	// PredictTolerance of the profiled one.
	WithinProfiled int
	// ReportsIdentical is the conjunction over all rows.
	ReportsIdentical bool
}

// reportDigest returns an order-independent digest of a report multiset:
// the sum of per-report FNV hashes. Strategies emit reports in different
// orders (SpAP batches replay per partition), so the digest must be
// commutative; summing 64-bit hashes keeps collisions negligible for the
// comparison "five executions of the same network agree".
func reportDigest(res *spap.Result) uint64 {
	var sum uint64
	var buf [12]byte
	for _, r := range res.Reports {
		buf[0] = byte(r.Pos)
		buf[1] = byte(r.Pos >> 8)
		buf[2] = byte(r.Pos >> 16)
		buf[3] = byte(r.Pos >> 24)
		buf[4] = byte(r.Pos >> 32)
		buf[5] = byte(r.Pos >> 40)
		buf[6] = byte(r.Pos >> 48)
		buf[7] = byte(r.Pos >> 56)
		buf[8] = byte(r.State)
		buf[9] = byte(r.State >> 8)
		buf[10] = byte(r.State >> 16)
		buf[11] = byte(r.State >> 24)
		h := fnv.New64a()
		h.Write(buf[:])
		sum += h.Sum64()
	}
	// Fold in the count so an empty multiset and a hash-cancelling pair
	// (astronomically unlikely, but free to exclude) differ.
	return sum ^ uint64(len(res.Reports))<<1
}

// Predict runs the five partition strategies over the given applications
// (nil = the whole 26-application suite). The fixed cut uses 4 layers and
// the normalized-depth cut 0.3 (the paper's "shallow" boundary); profiled
// uses the paper's 1% prefix. Beside the static prediction, the table is
// the partition-strategy study: how much of SpAP's speedup the profiling
// information buys over the topological cut alone, and how close either
// comes to the oracle.
func Predict(s *Suite, names []string) (*PredictResult, error) {
	if names == nil {
		names = allNames()
	}
	apps, err := s.Apps(names)
	if err != nil {
		return nil, err
	}
	res := &PredictResult{
		Capacity:         s.AP.Capacity,
		FixedParam:       4,
		DepthParam:       0.3,
		ReportsIdentical: true,
	}
	for _, a := range apps {
		base, err := a.BaselineCycles(s.AP.Capacity)
		if err != nil {
			return nil, err
		}
		row := PredictRow{Abbr: a.Abbr(), ReportsIdentical: true}

		run := func(st hotcold.Strategy, in hotcold.StrategyInput) (float64, *spap.Result, error) {
			p, err := hotcold.BuildWithStrategy(a.App.Net, st, in, hotcold.Options{Capacity: s.AP.Capacity})
			if err != nil {
				return 0, nil, fmt.Errorf("%s/%v: %w", a.Abbr(), st, err)
			}
			r, err := spap.RunBaseAPSpAP(p, a.TestInput(), s.AP, spap.Options{CollectReports: true})
			if err != nil {
				return 0, nil, fmt.Errorf("%s/%v: %w", a.Abbr(), st, err)
			}
			if st == hotcold.StrategyStatic {
				row.PredHotFrac = float64(p.PredHot.Count()) / float64(a.App.Net.Len())
			}
			return float64(base) / float64(r.TotalCycles), r, nil
		}

		var digests []uint64
		collect := func(sp *float64, st hotcold.Strategy, in hotcold.StrategyInput) error {
			v, r, err := run(st, in)
			if err != nil {
				return err
			}
			*sp = v
			digests = append(digests, reportDigest(r))
			return nil
		}
		if err := collect(&row.Static, hotcold.StrategyStatic, hotcold.StrategyInput{}); err != nil {
			return nil, err
		}
		if err := collect(&row.Profiled, hotcold.StrategyProfiled,
			hotcold.StrategyInput{ProfiledHot: profiledHot(a, 0.01)}); err != nil {
			return nil, err
		}
		if err := collect(&row.Fixed, hotcold.StrategyFixedLayers,
			hotcold.StrategyInput{Param: res.FixedParam}); err != nil {
			return nil, err
		}
		if err := collect(&row.NormDepth, hotcold.StrategyNormalizedDepth,
			hotcold.StrategyInput{Param: res.DepthParam}); err != nil {
			return nil, err
		}
		if err := collect(&row.Oracle, hotcold.StrategyOracle,
			hotcold.StrategyInput{OracleHot: a.TestHot()}); err != nil {
			return nil, err
		}
		prof := profiledHot(a, 0.01)
		row.ProfHotFrac = float64(prof.Count()) / float64(a.App.Net.Len())
		for _, d := range digests[1:] {
			if d != digests[0] {
				row.ReportsIdentical = false
				res.ReportsIdentical = false
			}
		}
		row.WithinProfiled = row.Static >= (1-PredictTolerance)*row.Profiled
		if row.WithinProfiled {
			res.WithinProfiled++
		}
		res.Rows = append(res.Rows, row)
	}
	res.GeoStatic, res.GeoProfiled, res.GeoFixed, res.GeoNormDepth, res.GeoOracle = geomeans(res.Rows)
	return res, nil
}

// geomeans returns the static, profiled, fixed, normalized-depth and
// oracle geomean speedups over rows.
func geomeans(rows []PredictRow) (static, profiled, fixed, normDepth, oracle float64) {
	var gs, gp, gf, gn, go_ []float64
	for _, row := range rows {
		gs = append(gs, row.Static)
		gp = append(gp, row.Profiled)
		gf = append(gf, row.Fixed)
		gn = append(gn, row.NormDepth)
		go_ = append(go_, row.Oracle)
	}
	return metrics.GeoMean(gs), metrics.GeoMean(gp), metrics.GeoMean(gf), metrics.GeoMean(gn), metrics.GeoMean(go_)
}

// profiledHot returns the hot set a profiling prefix enables.
func profiledHot(a *AppData, frac float64) *bitvec.Vec {
	return sim.HotStates(a.App.Net, a.ProfileInput(frac))
}

// allNames returns the full Table II application list.
func allNames() []string { return workloads.Names() }

// Render formats the prediction study table.
func (r *PredictResult) Render() string {
	t := metrics.NewTable("App", "Static", "Profiled 1%", fmt.Sprintf("Fixed k=%.0f", r.FixedParam),
		fmt.Sprintf("Depth %.1f", r.DepthParam), "Oracle", "±10% prof")
	for _, row := range r.Rows {
		mark := ""
		if row.WithinProfiled {
			mark = "yes"
		}
		t.AddRowf(row.Abbr, row.Static, row.Profiled, row.Fixed, row.NormDepth, row.Oracle, mark)
	}
	t.AddRowf("geomean", r.GeoStatic, r.GeoProfiled, r.GeoFixed, r.GeoNormDepth, r.GeoOracle,
		fmt.Sprintf("%d/%d", r.WithinProfiled, len(r.Rows)))
	id := "identical"
	if !r.ReportsIdentical {
		id = "DIVERGED"
	}
	return fmt.Sprintf("Prediction: static vs profiled partitioning, BaseAP/SpAP speedup (capacity %d; report streams %s)\n%s%s",
		r.Capacity, id, t, r.renderHighMedium())
}

// renderHighMedium formats the geomeans over the rows of the high+medium
// applications, the set Figure 10 evaluates, or nothing when no row is
// one of them.
func (r *PredictResult) renderHighMedium() string {
	hm := map[string]bool{}
	for _, n := range workloads.HighMediumNames() {
		hm[n] = true
	}
	var rows []PredictRow
	within := 0
	for _, row := range r.Rows {
		if hm[row.Abbr] {
			rows = append(rows, row)
			if row.WithinProfiled {
				within++
			}
		}
	}
	if len(rows) == 0 {
		return ""
	}
	s, p, f, n, o := geomeans(rows)
	return fmt.Sprintf("geomean (H+M)  %.2f  %.2f  %.2f  %.2f  %.2f  %d/%d\n", s, p, f, n, o, within, len(rows))
}
