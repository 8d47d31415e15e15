package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

// loadClients is the closed-loop client count of every serve workload. It
// is a constant, not nproc, so two machines run the same traffic; nproc
// only has to be at least this large.
const loadClients = 2

// slices is how many equal parts a serve window is cut into; the window's
// throughput is the quiet quartile of theirs.
const slices = 12

// quiet is the quantile the ledger reads every figure at: the lower
// quartile of an operation class's times, of the set-ups' times and of the
// reference's times, and the upper quartile of the slices' throughputs. The
// host disturbs the box in bursts that slow some operations and speed none
// up, and with two clients an operation's time also depends on which one
// runs beside it, so a median jumps between modes from run to run; the
// quiet quartile, the median of the undisturbed half, holds still and still
// moves with every change to the program.
const quiet = 0.25

// config is what one run of one workload is parameterised by. Only seed
// and window come from the command line; the generator scale is lowered by
// the smoke test alone.
type config struct {
	seed     int64
	window   time.Duration
	warmup   time.Duration
	setups   int // set-ups timed per run at least; setup_s is their quiet quartile
	divisor  int
	inputLen int
	scratch  string // directory for checkpoint stores, inside the checkout
}

// wantSetup reports whether a run should time one more set-up: setups of
// them at least, and up to three times as many while they are cheap, since
// a set-up of a tenth of a second is the noisiest thing the ledger times.
func (c config) wantSetup(done int, spent time.Duration) bool {
	return done < c.setups || (done < 3*c.setups && spent < 2*time.Second)
}

func (c config) gen() workloads.Config {
	return workloads.Config{Seed: c.seed, Divisor: c.divisor, InputLen: c.inputLen}
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string          // human-only lines (per-app breakdown, findings)
	spans     []span            // traced run only
}

func (r *result) set(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// appCase is one panel application as a workload sees it: the bytes an
// operation sends and the report sequence an uninterrupted solo run gives.
type appCase struct {
	name  string
	input []byte
	want  []sim.Report
}

// buildCases generates the panel and its references. The networks used
// here are never handed to the program under test, so their cached images
// cannot hide compile time from a timed set-up.
func buildCases(wl workload, cfg config) ([]appCase, error) {
	cases := make([]appCase, 0, len(wl.apps))
	total := 0
	for _, name := range wl.apps {
		app, err := workloads.Build(name, cfg.gen())
		if err != nil {
			return nil, fmt.Errorf("%s: panel app %s does not build: %w", wl.Name, name, err)
		}
		in := app.Input
		if wl.prefix > 0 && wl.prefix < len(in) {
			in = in[:wl.prefix]
		}
		ref := sim.Run(app.Net, in, sim.Options{CollectReports: true})
		cases = append(cases, appCase{name: name, input: in, want: ref.Reports})
		total += len(ref.Reports)
	}
	if total == 0 {
		return nil, fmt.Errorf("%s: no panel app reports on seed %d, so verification would be vacuous", wl.Name, cfg.seed)
	}
	return cases, nil
}

// freshNets builds the panel again for one set-up: networks no code has
// compiled or analysed yet. The returned duration is the generator's cost,
// which is the harness's and not part of setup_s.
func freshNets(wl workload, cfg config) (map[string]*automata.Network, time.Duration, error) {
	nets := make(map[string]*automata.Network, len(wl.apps))
	t0 := time.Now()
	for _, name := range wl.apps {
		app, err := workloads.Build(name, cfg.gen())
		if err != nil {
			return nil, 0, err
		}
		nets[name] = app.Net
	}
	return nets, time.Since(t0), nil
}

// sameReports reports whether got is the reference's report stream. The
// kernels and the stream path emit in (position, state) order already; the
// SpAP executors append cold-mode reports after hot-mode ones, so their
// list is put in that canonical order first. Equality is then exact.
func sameReports(got, want []sim.Report) bool {
	if len(got) != len(want) {
		return false
	}
	ordered := true
	for i := range got {
		if got[i] != want[i] {
			ordered = false
			break
		}
	}
	if ordered {
		return true
	}
	s := append([]sim.Report(nil), got...)
	sort.Slice(s, func(a, b int) bool {
		if s[a].Pos != s[b].Pos {
			return s[a].Pos < s[b].Pos
		}
		return s[a].State < s[b].State
	})
	for i := range s {
		if s[i] != want[i] {
			return false
		}
	}
	return true
}

// checkLimits fails before anything is timed when the box or the
// configuration cannot carry the workloads as specified.
func checkLimits(cfg config) error {
	if n := runtime.NumCPU(); n < loadClients {
		return fmt.Errorf("nproc is %d: the closed loops need %d processors, one per client", n, loadClients)
	}
	if cfg.window <= 0 || cfg.setups < 1 {
		return fmt.Errorf("window %v with %d set-ups: both must be positive", cfg.window, cfg.setups)
	}
	if limit := float64(loadClients) / 50e-6; serveRate < limit {
		// A client cannot complete an operation in under 50 µs, so this
		// many per second per tenant is out of the closed loop's reach.
		return fmt.Errorf("admission rate %.0f/s could shed a closed loop of %d clients (needs %.0f/s)", serveRate, loadClients, limit)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	probe, err := os.CreateTemp(cfg.scratch, "writable-*")
	if err != nil {
		return fmt.Errorf("scratch directory %s is not writable: %w", cfg.scratch, err)
	}
	probe.Close()
	return os.Remove(probe.Name())
}

// cpuTime is the CPU time, user and system, the process has used so far.
// Time spent waiting for the disk is not in it, so on the fsync-bound
// workloads it holds still while the disk's speed drifts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of v (0 for an empty v).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median interpolates between the two middle values of an even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// classQuantile is the geomean over classes of the q-quantile of each
// class's values, so every class weighs the same however large its values.
func classQuantile(classes [][]float64, q float64) float64 {
	v := make([]float64, len(classes))
	for i, c := range classes {
		v[i] = quantile(c, q)
	}
	return geomean(v)
}

// overheadShare is trace.overhead_share: how much throughput the traced half
// of a traced run lost against the plain half. A plain half too short to
// complete an operation in a quarter of its slices has nothing to lose.
func overheadShare(traced, plain float64) float64 {
	if plain == 0 {
		return 0
	}
	return 1 - traced/plain
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeSetups times the program's set-up several times over (once in a
// traced run) and returns setup_s: the quiet quartile, scaled to the host's
// nominal speed as the reference samples taken around each set-up give it. one
// prepares a fresh set-up, runs it and returns the time of the program's
// part alone; it releases what the previous call built.
func (c config) timeSetups(traced bool, one func() (time.Duration, error)) (setupS float64, n int, err error) {
	sm := &speedometer{}
	var sc refScratch
	var v []float64
	var spent time.Duration
	for len(v) == 0 || (!traced && c.wantSetup(len(v), spent)) {
		sm.sample(&sc)
		d, err := one()
		if err != nil {
			return 0, 0, err
		}
		sm.sample(&sc)
		sm.sample(&sc)
		v = append(v, d.Seconds())
		spent += d
	}
	return quantile(v, quiet) * sm.speed().scale(0), len(v), nil
}
