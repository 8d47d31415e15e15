package exp

import (
	"context"
	"fmt"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/fault"
	"sparseap/internal/metrics"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/workloads"
)

// ResilienceRow compares one application's BaseAP/SpAP speedup with and
// without the adaptive guard at 1% profiling.
type ResilienceRow struct {
	Abbr      string
	Unguarded float64
	Guarded   float64
	// Trips / BatchFallbacks / Fallback record what the guard did; all zero
	// and false on healthy applications (where the two speedups are
	// identical by construction).
	Trips          int
	BatchFallbacks int
	Fallback       bool
}

// FaultTrial is one cell of the fault-injection sweep.
type FaultTrial struct {
	Abbr string
	Seed int64
	Kind string
	// Faults counts injected stuck faults; Dropped counts lost queue
	// entries (drop trials).
	Faults  int
	Dropped int64
	// OK means the trial behaved as modeled: stuck trials restore report
	// equivalence after spare-STE repair; drop trials complete and account
	// their losses.
	OK bool
}

// ResilienceResult is the guarded-execution study plus the deterministic
// fault-injection sweep.
type ResilienceResult struct {
	Capacity                 int
	Rows                     []ResilienceRow
	GeoUnguarded, GeoGuarded float64
	Trials                   []FaultTrial
}

// faultSweepApps are the applications the fault sweep exercises; seeds run
// 1..faultSweepSeeds and each (app, seed) runs every fault kind.
var faultSweepApps = []string{"Fermi", "HM", "PEN", "Snort"}

const faultSweepSeeds = 3

// Resilience runs the guarded executor against the plain one over the
// high+medium applications at 1% profiling, then sweeps stuck-fault repair
// and report-drop trials over a fixed app × seed grid. The guard must be
// transparent on healthy applications (identical speedups) and lift
// storm-prone ones (PEN) back toward 1×.
func Resilience(s *Suite) (*ResilienceResult, error) {
	apps, err := s.Apps(workloads.HighMediumNames())
	if err != nil {
		return nil, err
	}
	res := &ResilienceResult{Capacity: s.AP.Capacity}
	cfg := s.AP.WithCapacity(s.AP.Capacity)
	var gu, gg []float64
	for _, a := range apps {
		base, err := a.BaselineCycles(s.AP.Capacity)
		if err != nil {
			return nil, err
		}
		plain, err := a.RunBaseAPSpAP(0.01, s.AP.Capacity)
		if err != nil {
			return nil, err
		}
		p, err := a.Partition(0.01, s.AP.Capacity)
		if err != nil {
			return nil, err
		}
		guarded, err := spap.RunGuarded(context.Background(), p, a.TestInput(), cfg, spap.DefaultGuard(), spap.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: guarded: %w", a.Abbr(), err)
		}
		row := ResilienceRow{
			Abbr:           a.Abbr(),
			Unguarded:      metrics.Speedup(base, plain.TotalCycles),
			Guarded:        metrics.Speedup(base, guarded.TotalCycles),
			Trips:          guarded.Guard.Trips,
			BatchFallbacks: guarded.Guard.BatchFallbacks,
			Fallback:       guarded.Guard.FallbackBaseline,
		}
		res.Rows = append(res.Rows, row)
		gu = append(gu, row.Unguarded)
		gg = append(gg, row.Guarded)
	}
	res.GeoUnguarded = metrics.GeoMean(gu)
	res.GeoGuarded = metrics.GeoMean(gg)

	for _, name := range faultSweepApps {
		a, err := s.App(name)
		if err != nil {
			return nil, err
		}
		for seed := int64(1); seed <= faultSweepSeeds; seed++ {
			st, err := stuckTrial(a, cfg, seed)
			if err != nil {
				return nil, err
			}
			res.Trials = append(res.Trials, st)
			dt, err := dropTrial(a, s, cfg, seed)
			if err != nil {
				return nil, err
			}
			res.Trials = append(res.Trials, dt)
		}
	}
	return res, nil
}

// stuckTrial injects ~20 stuck-off and ~5 stuck-on faults, repairs them via
// spare-STE remapping, and checks the repaired network reproduces the
// fault-free report stream exactly.
func stuckTrial(a *AppData, cfg ap.Config, seed int64) (FaultTrial, error) {
	tr := FaultTrial{Abbr: a.Abbr(), Seed: seed, Kind: "stuck"}
	n := a.App.Net.Len()
	plan := fault.Plan{Seed: seed,
		StuckOffRate: fault.RateForCount(20, n),
		StuckOnRate:  fault.RateForCount(5, n)}
	inj := fault.New(plan).InjectStuck(a.App.Net)
	tr.Faults = len(inj.Faults)
	repaired, _, err := inj.Repair(cfg, inj.MinSparesPerBlock(cfg))
	if err != nil {
		return tr, fmt.Errorf("%s seed %d: %w", a.Abbr(), seed, err)
	}
	input := a.TestInput()
	tr.OK = reportHash(repaired, input) == reportHash(a.App.Net, input)
	return tr, nil
}

// dropTrial runs the guarded executor with a 5% report-drop injector; the
// run must complete, and any lost queue entries must be accounted.
func dropTrial(a *AppData, s *Suite, cfg ap.Config, seed int64) (FaultTrial, error) {
	tr := FaultTrial{Abbr: a.Abbr(), Seed: seed, Kind: "drop"}
	p, err := a.Partition(0.01, s.AP.Capacity)
	if err != nil {
		return tr, err
	}
	inj := fault.New(fault.Plan{Seed: seed, ReportDropRate: 0.05})
	res, err := spap.RunGuarded(context.Background(), p, a.TestInput(), cfg, spap.DefaultGuard(), spap.Options{Faults: inj})
	if err != nil {
		return tr, fmt.Errorf("%s seed %d: %w", a.Abbr(), seed, err)
	}
	tr.Dropped = res.Fault.DroppedReports
	tr.OK = true
	return tr, nil
}

// reportHash folds a network's full report stream (order-sensitive, which
// is deterministic under the engine semantics) into one word, so multi-
// million-report streams compare without being materialized.
func reportHash(net *automata.Network, input []byte) uint64 {
	h := uint64(1469598103934665603)
	e := sim.AcquireEngine(net, sim.Options{})
	defer e.Release()
	e.OnReport = func(pos int64, st automata.StateID) {
		h = (h * 1099511628211) ^ uint64(pos)<<21 ^ uint64(st)
	}
	e.Run(0, input)
	return h
}

// Render formats the resilience study.
func (r *ResilienceResult) Render() string {
	t := metrics.NewTable("App", "Unguarded", "Guarded", "Trips", "BatchFB", "Fallback")
	for _, row := range r.Rows {
		t.AddRow(row.Abbr,
			fmt.Sprintf("%.2f", row.Unguarded), fmt.Sprintf("%.2f", row.Guarded),
			fmt.Sprint(row.Trips), fmt.Sprint(row.BatchFallbacks), fmt.Sprint(row.Fallback))
	}
	t.AddRow("geomean", fmt.Sprintf("%.2f", r.GeoUnguarded), fmt.Sprintf("%.2f", r.GeoGuarded), "", "", "")
	t2 := metrics.NewTable("App", "Seed", "Kind", "#Faults", "#Dropped", "OK")
	for _, tr := range r.Trials {
		t2.AddRow(tr.Abbr, fmt.Sprint(tr.Seed), tr.Kind,
			fmt.Sprint(tr.Faults), fmt.Sprint(tr.Dropped), fmt.Sprint(tr.OK))
	}
	return fmt.Sprintf("Resilience: BaseAP/SpAP speedup with the adaptive guard (1%% profiling, capacity %d)\n%s\nFault-injection sweep (stuck: repair equivalence; drop: 5%% queue loss)\n%s",
		r.Capacity, t, t2)
}
