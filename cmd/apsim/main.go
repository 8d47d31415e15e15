// Command apsim runs one automata application under the paper's three
// execution systems (Table III) and prints cycle and report statistics.
//
// The application comes either from the built-in workload suite (-app) or
// from an ANML file plus an input file (-anml/-in):
//
//	apsim -app Snort                          # generated suite app
//	apsim -anml rules.anml -in traffic.bin    # user-provided automaton
//
// Flags select the system (-system ap|apcpu|spap|all), the profiling
// fraction (-profile 0.01) and the half-core capacity (-capacity 3000).
//
// Resilience flags: -timeout bounds the wall-clock of each execution
// (partial statistics are printed on expiry); -guard runs the BaseAP/SpAP
// system under the adaptive watchdog; -fault injects deterministic faults
// ("stuckoff=0.01,drop=0.05" syntax, seeded by -faultseed); -repair remaps
// injected stuck faults onto spare STEs (-spares per block, 0 = minimum)
// and fails if the repaired run's reports diverge from the fault-free
// network's.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"sparseap"
	"sparseap/internal/lint"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

func main() {
	var (
		appName   = flag.String("app", "", "built-in application abbreviation (see apstat -list)")
		anmlPath  = flag.String("anml", "", "ANML automaton file")
		inPath    = flag.String("in", "", "input stream file (with -anml)")
		system    = flag.String("system", "all", "execution system: ap, apcpu, spap, or all")
		profile   = flag.Float64("profile", 0.01, "profiling input fraction")
		strategy  = flag.String("strategy", "profiled", "partition strategy: profiled (paper, default) or static (profile-free hotness analysis)")
		capacity  = flag.Int("capacity", 3000, "AP half-core capacity in STEs")
		divisor   = flag.Int("divisor", 8, "workload scale divisor (with -app)")
		inputLen  = flag.Int("input", 131072, "generated input length (with -app)")
		seed      = flag.Int64("seed", 1, "generation seed (with -app)")
		trace     = flag.String("trace", "", "write a per-cycle frontier-size CSV to this file")
		noLint    = flag.Bool("nolint", false, "skip linting the ingested network")
		opt       = flag.Bool("opt", false, "minimize the network with the proof-carrying rewriter before execution")
		strict    = flag.Bool("strict", false, "fail (exit 1) when the linter reports findings instead of warning")
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline per execution (0 = none); partial stats are printed on expiry")
		guard     = flag.Bool("guard", false, "run BaseAP/SpAP under the adaptive guard (watchdog + widened-k retry + baseline fallback)")
		preflight = flag.Bool("preflight", false, "with -guard: statically certify or pre-size the partition from the worst-case report bound before the first attempt (safe/sized/hopeless ladder)")
		faultSpec = flag.String("fault", "", "inject faults: comma-separated kind=rate of stuckoff|stuckon|flip|drop|loadfail|crash")
		faultSeed = flag.Int64("faultseed", 1, "fault-injection seed (with -fault)")
		repair    = flag.Bool("repair", false, "repair injected stuck faults via spare-STE remapping and verify report equivalence")
		spares    = flag.Int("spares", 0, "spare STEs per block for -repair (0 = the minimum that suffices)")
		ckDir     = flag.String("checkpoint", "", "durable checkpoint directory: state is captured every -every symbols so a killed run can -resume")
		ckEvery   = flag.Int64("every", 0, "checkpoint capture interval in input symbols (0 = 8192)")
		ckResume  = flag.Bool("resume", false, "resume from the -checkpoint directory instead of starting fresh")
		reportOut = flag.String("reportout", "", "write the final report stream (one 'pos state' line per report) to this file")
	)
	flag.Parse()

	net, input, err := load(*appName, *anmlPath, *inPath, *divisor, *inputLen, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *opt {
		min, st, err := sparseap.Minimize(net)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apsim: minimize:", err)
			os.Exit(1)
		}
		fmt.Printf("minimized:     states %d -> %d, edges %d -> %d, NFAs %d -> %d (report stream certified identical)\n",
			st.StatesBefore, st.StatesAfter, st.EdgesBefore, st.EdgesAfter, st.NFAsBefore, st.NFAsAfter)
		net = min
	}
	// Lint whatever we are about to execute — generated app or external
	// ANML: warn by default, fail under -strict.
	if !*noLint {
		if res := lint.Run(net, lint.Options{Capacity: *capacity}); len(res.Diags) > 0 {
			fmt.Fprintf(os.Stderr, "apsim: lint: %s (run aplint for details)\n", res.Summary())
			if *strict {
				os.Exit(1)
			}
		}
	}
	a := sparseap.Analyze(net, input)
	fmt.Printf("application: %d states, %d NFAs, max topo %d, %d reporting states\n",
		a.States, a.NFAs, a.MaxTopo, a.Reporting)
	fmt.Printf("hot states under this input: %d (%.1f%%)\n\n", a.Hot, 100*a.HotFrac)

	if *trace != "" {
		if err := writeTrace(*trace, net, input); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("frontier trace written to %s\n\n", *trace)
	}

	cfg := sparseap.DefaultAPConfig().WithCapacity(*capacity)
	eng := sparseap.NewEngine(cfg)

	// Fault injection: stuck-at faults transform the network before any
	// execution (optionally repaired via spare STEs); the remaining fault
	// classes hook into the partitioned executors through eng.Faults.
	plan, err := sparseap.ParseFaultPlan(*faultSpec, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	inj := sparseap.NewFaultInjector(plan)
	if inj.Active() {
		eng.Faults = inj
		injection := inj.InjectStuck(net)
		if len(injection.Faults) > 0 {
			fmt.Printf("faults:        %s (seed %d)\n", injection.Summary(), plan.Seed)
			if *repair {
				sp := *spares
				if sp == 0 {
					sp = injection.MinSparesPerBlock(cfg)
				}
				repaired, rst, err := injection.Repair(cfg, sp)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("repair:        %d STEs remapped across %d blocks (max %d/block, %d spares each)\n",
					rst.Remapped, rst.BlocksTouched, rst.MaxPerBlock, sp)
				if got, want := len(sparseap.Match(repaired, input)), len(sparseap.Match(net, input)); got != want {
					fmt.Fprintf(os.Stderr, "apsim: repaired network reports diverge: %d vs %d fault-free\n", got, want)
					os.Exit(1)
				}
				fmt.Printf("repair:        report equivalence verified against the fault-free network\n")
				net = repaired
			} else {
				net = injection.Net
			}
		}
	}

	// Checkpointing: open the store, then start fresh (clearing stale
	// state) or resume — validating through the manifest that the stored
	// run matches this invocation's application, scale, and knobs. The
	// manifest's resume count doubles as the chaos epoch: every resumed
	// process rolls a fresh injected-crash schedule, so a kill/resume loop
	// terminates with probability 1.
	var store *sparseap.CheckpointStore
	var manifest *sparseap.CheckpointManifest
	epoch := int64(0)
	if *ckDir != "" {
		s, err := sparseap.OpenCheckpointStore(*ckDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apsim: checkpoint:", err)
			os.Exit(1)
		}
		store = s
		fp := runFingerprint(*appName, *anmlPath, *inPath, *divisor, *inputLen, *seed,
			*capacity, *system, *guard, *preflight, *opt, *faultSpec, *faultSeed)
		var m *sparseap.CheckpointManifest
		if *ckResume {
			m, err = store.ResumeManifest(fp, int64(len(input)))
		} else {
			m, err = store.FreshManifest(fp, int64(len(input)))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "apsim: checkpoint:", err)
			os.Exit(1)
		}
		manifest = m
		epoch = m.Resumes
		ev := *ckEvery
		if ev <= 0 {
			ev = 8192
		}
		fmt.Printf("checkpoint:    dir %s, every %d symbols, epoch %d\n", *ckDir, ev, epoch)
	}
	// mkRunner builds the per-system checkpoint stream, or nil when the run
	// has neither a store nor a crash plan; the chaos hook is wired even
	// without -checkpoint so crash plans kill plain runs too.
	useCk := store != nil || plan.CrashRate > 0
	mkRunner := func(name string) *sparseap.CheckpointRunner {
		if !useCk {
			return nil
		}
		r := &sparseap.CheckpointRunner{Store: store, Name: name, Every: *ckEvery}
		if inj.Active() {
			r.CrashAt = func(pos int64) bool { return inj.CrashAt(epoch, pos) }
		}
		return r
	}
	markDone := func() {
		if store != nil && manifest != nil {
			manifest.Done = true
			if err := store.SaveManifest(manifest); err != nil {
				fmt.Fprintln(os.Stderr, "apsim: checkpoint:", err)
			}
		}
	}
	writeReports := func(reports []sparseap.Report) {
		if *reportOut == "" {
			return
		}
		if err := writeReportFile(*reportOut, reports); err != nil {
			fmt.Fprintln(os.Stderr, "apsim:", err)
			os.Exit(1)
		}
	}

	// runCtx builds the per-execution context; expired runs print partial
	// statistics flagged with "(cancelled)".
	runCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}
	note := func(err error) string {
		if err != nil {
			return " (cancelled: partial)"
		}
		return ""
	}
	// crashExit turns an injected crash into a hard process death with a
	// distinctive exit code; the soak harness keys its kill/resume loop on
	// it. The last persisted checkpoint remains valid for the next attempt.
	crashExit := func(err error) {
		if err != nil && errors.Is(err, sparseap.ErrCrashInjected) {
			fmt.Fprintln(os.Stderr, "apsim:", err)
			os.Exit(17)
		}
	}
	fatal := func(err error) {
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	ctx, cancel := runCtx()
	base, baseReports, err := eng.RunBaselineContext(ctx, net, input, mkRunner("baseline"))
	cancel()
	crashExit(err)
	fatal(err)
	fmt.Printf("baseline AP:   %d batches, %d cycles, %d reports, %.3f ms%s\n",
		base.Batches, base.Cycles, base.Reports, base.TimeNS/1e6, note(err))
	if *system == "ap" {
		writeReports(baseReports)
		markDone()
		return
	}

	var part *sparseap.Partition
	switch *strategy {
	case "profiled":
		n := int(*profile * float64(len(input)))
		if n < 1 {
			n = 1
		}
		part, err = eng.Partition(net, input[:n])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("partition:     %.1f%% resource saving, %d intermediate reporting states (profiled on %d symbols)\n",
			100*part.ResourceSaving(), part.NumIntermediate, n)
	case "static":
		part, err = eng.PartitionStatic(net)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("partition:     %.1f%% resource saving, %d intermediate reporting states (static hotness analysis, no profiling)\n",
			100*part.ResourceSaving(), part.NumIntermediate)
	default:
		fmt.Fprintf(os.Stderr, "unknown -strategy %q (want profiled or static)\n", *strategy)
		os.Exit(2)
	}

	if *system == "spap" || *system == "all" {
		ctx, cancel := runCtx()
		var res *sparseap.ExecResult
		g := sparseap.DefaultGuard()
		g.Preflight = *preflight
		if *guard {
			res, err = eng.RunGuarded(ctx, part, input, g, mkRunner("spap"))
		} else {
			res, err = eng.RunBaseAPSpAPContext(ctx, part, input, mkRunner("spap"))
		}
		cancel()
		crashExit(err)
		fatal(err)
		jr := "-"
		if !math.IsNaN(res.JumpRatio) {
			jr = fmt.Sprintf("%.2f%%", 100*res.JumpRatio)
		}
		fmt.Printf("BaseAP/SpAP:   %d+%d executions, %d cycles, %d reports, %d IM reports, %d stalls, jump %s, speedup %.2fx%s\n",
			res.BaseAPBatches, res.SpAPExecutions, res.TotalCycles, res.NumReports,
			res.IntermediateReports, res.EnableStalls, jr,
			sparseap.Speedup(base.Cycles, res.TotalCycles), note(err))
		if g := res.Guard; g != nil && (g.Trips > 0 || g.BatchFallbacks > 0) {
			fmt.Printf("guard:         %d attempts, %d trips, widened=%v, baseline-fallback=%v, %d batch fallbacks, %d wasted + %d fallback cycles\n",
				g.Attempts, g.Trips, g.Widened, g.FallbackBaseline, g.BatchFallbacks,
				g.WastedCycles, g.FallbackCycles)
		}
		if gs := res.Guard; gs != nil && gs.Preflight != nil {
			pf := gs.Preflight
			fmt.Printf("preflight:     intermediate bound %.3f/cycle, safe=%v, sized=%v, hopeless=%v (witness peak %d, density %.3f/cycle)\n",
				pf.Density, pf.Safe, pf.K != nil, pf.Hopeless, pf.WitnessPeak, pf.WitnessDensity)
		}
		if res.Fault.Any() {
			fmt.Printf("faults hit:    %s\n", res.Fault)
		}
		if rs := res.Resume; rs != nil && rs.Resumed {
			fmt.Printf("resume:        continued in phase %s at position %d (recovered=%v), %d saves this run\n",
				rs.Phase, rs.Pos, rs.Recovered, rs.Saves)
		}
		writeReports(res.Reports)
	}
	if *system == "apcpu" || *system == "all" {
		ctx, cancel := runCtx()
		res, err := eng.RunAPCPUContext(ctx, part, input)
		cancel()
		fatal(err)
		fmt.Printf("AP-CPU:        %d executions, %.3f ms (%.3f ms on CPU), %d reports, speedup %.2fx%s\n",
			res.BaseAPBatches, res.TimeNS/1e6, res.CPUTimeNS/1e6, res.NumReports,
			base.TimeNS/res.TimeNS, note(err))
		if *system == "apcpu" {
			writeReports(res.Reports)
		}
	}
	markDone()
}

// runFingerprint renders the invocation parameters that determine a run's
// checkpointed state, for the manifest's identity check.
func runFingerprint(app, anml, in string, divisor, inputLen int, seed int64, capacity int, system string, guard, preflight, opt bool, faultSpec string, faultSeed int64) string {
	var src string
	if app != "" {
		src = workloads.Config{Divisor: divisor, InputLen: inputLen, Seed: seed, Optimize: opt}.Fingerprint(app)
	} else {
		src = fmt.Sprintf("anml:%s:in:%s:opt%t", anml, in, opt)
	}
	fp := fmt.Sprintf("%s/cap%d/sys%s/guard%t/fault:%s:s%d", src, capacity, system, guard, faultSpec, faultSeed)
	if preflight {
		// Appended only when set so fingerprints of plain guarded runs
		// keep their historical form: a preflighted run may execute a
		// pre-widened partition, so its checkpoints are not resumable
		// into a non-preflighted run (or vice versa).
		fp += "/preflight"
	}
	return fp
}

// writeReportFile writes the report stream as one "pos state" line per
// report — the soak harness's diffable canonical form.
func writeReportFile(path string, reports []sparseap.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range reports {
		fmt.Fprintf(w, "%d %d\n", r.Pos, r.State)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace samples the dynamically enabled state count each cycle and
// writes a CSV usable for frontier-over-time plots.
func writeTrace(path string, net *sparseap.Network, input []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	eng := sim.NewEngine(net, sim.Options{})
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "cycle,enabled,reports")
	reports := int64(0)
	eng.OnReport = func(pos int64, s sparseap.StateID) { reports++ }
	for i, b := range input {
		eng.Step(int64(i), b)
		fmt.Fprintf(w, "%d,%d,%d\n", i, eng.FrontierLen(), reports)
	}
	return w.Flush()
}

// load resolves the application from flags.
func load(appName, anmlPath, inPath string, divisor, inputLen int, seed int64) (*sparseap.Network, []byte, error) {
	switch {
	case appName != "":
		app, err := workloads.Build(appName, workloads.Config{
			Divisor: divisor, InputLen: inputLen, Seed: seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return app.Net, app.Input, nil
	case anmlPath != "":
		if inPath == "" {
			return nil, nil, fmt.Errorf("apsim: -anml requires -in")
		}
		f, err := os.Open(anmlPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		net, err := sparseap.ReadANML(f)
		if err != nil {
			return nil, nil, err
		}
		input, err := os.ReadFile(inPath)
		if err != nil {
			return nil, nil, err
		}
		return net, input, nil
	}
	return nil, nil, fmt.Errorf("apsim: need -app or -anml (try -app Snort)")
}
