// Command bench is the repository's performance ledger: six fixed
// workloads over the library path and the serving stack, every output
// verified against an uninterrupted solo run, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
// The benchmark contract's form is
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// which prints one JSON object as its last line. Without --workload every
// workload runs; --aa N runs two interleaved sets of N such runs and says
// whether they agree within each metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the window every comparison
// uses on both of its sides.
const runSeconds = 12

func main() {
	var (
		name     = flag.String("workload", "", "run this workload only (default: all six)")
		seed     = flag.Int64("seed", 1, "generator seed; feeds workloads.Config alone")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		traceOut = flag.String("trace-out", "", "traced run: write the spans to this file as JSON")
		asJSON   = flag.Bool("json", false, "print the run as one JSON document (last line)")
		record   = flag.Bool("record", false, "append the run's JSON document to bench/history.jsonl")
		aa       = flag.Int("aa", 0, "run two interleaved sets of this many complete runs and compare them")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as the program defines it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *spec {
		os.Stdout.Write(specJSON(runSeconds))
		return
	}
	wls := workloadSet
	if *name != "" {
		wls = nil
		for _, w := range workloadSet {
			if w.Name == *name {
				wls = []workload{w}
			}
		}
		if wls == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	cfg := config{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		warmup:  2 * time.Second,
		setups:  3,
		scratch: scratchDir(),
	}
	if err := checkLimits(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	traced := *trace != 0

	if *aa > 0 {
		ok, err := runAA(os.Stdout, wls, cfg, *aa, *record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	results, err := runAll(os.Stdout, wls, cfg, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	doc := newDocument(cfg, traced, results)
	if *record {
		if err := doc.appendTo(historyPath()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	failed := 0
	for _, r := range results {
		failed += r.Failed
	}
	switch {
	case *asJSON:
		json.NewEncoder(os.Stdout).Encode(doc)
	case len(results) == 1:
		os.Stdout.Write(contractLine(results[0]))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d operations failed verification\n", failed)
		os.Exit(1)
	}
}

func runWorkload(wl workload, cfg config, traced bool) (*result, error) {
	if wl.kind == kindOffline {
		return runOffline(wl, cfg, traced)
	}
	return runServe(wl, cfg, traced)
}

// runAll runs the workloads one after the other and prints each one's
// metrics by name, with unit and sample count, as it finishes.
func runAll(out io.Writer, wls []workload, cfg config, traced bool) ([]*result, error) {
	var results []*result
	for _, wl := range wls {
		r, err := runWorkload(wl, cfg, traced)
		if err != nil {
			return nil, err
		}
		printResult(out, r, traced)
		results = append(results, r)
	}
	return results, nil
}

func printResult(out io.Writer, r *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	share := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(out, "%s: %d operations attempted, %d failed (failed_share %.4f)\n", r.Workload, r.Attempted, r.Failed, share)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		if traced && m.Samples == 0 {
			continue // a layer this workload never calls
		}
		fmt.Fprintf(out, "  %-28s %14.4f %-7s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "  "+n)
	}
	if traced {
		if a := r.Metrics["trace.accounted_share"].Value; a < 0.9 || a > 1.1 {
			fmt.Fprintf(out, "  FINDING: trace.accounted_share %.3f is outside 0.9-1.1\n", a)
		}
	}
}

// contractLine is the benchmark contract's result object for one workload.
func contractLine(r *result) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, m := range r.Metrics {
		obj.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(obj)
	if err != nil {
		panic(err) // a NaN: a metric was computed from no samples
	}
	return append(line, '\n')
}

// document is one run as history.jsonl keeps it.
type document struct {
	Commit     string    `json:"commit"`
	Dirty      bool      `json:"dirty"`
	Go         string    `json:"go"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Results    []*result `json:"results"`
}

func newDocument(cfg config, traced bool, results []*result) document {
	commit, dirty := gitState()
	return document{
		Commit: commit, Dirty: dirty, Go: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.window.Seconds(), Traced: traced, Results: results,
	}
}

// gitState names the commit measured. The driver's checkout is not a git
// repository; there the commit reads "unknown".
func gitState() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(status) > 0
}

func historyPath() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/history.jsonl"
	}
	return "history.jsonl" // run from inside bench/
}

func (d document) appendTo(path string) error {
	line, err := json.Marshal(d)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAA runs two sets of n complete untraced runs, interleaved A,B,A,B,
// and prints per metric and workload both medians and quartiles and
// whether the second set is within the metric's bound of the first. Both
// sets run the same program, so a disagreement is the box's noise.
func runAA(out io.Writer, wls []workload, cfg config, n int, record bool) (bool, error) {
	type key struct{ wl, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := 0
	for i := 0; i < 2*n; i++ {
		fmt.Fprintf(out, "run %d of %d (set %c)\n", i+1, 2*n, 'A'+i%2)
		results, err := runAll(io.Discard, wls, cfg, false)
		if err != nil {
			return false, err
		}
		if record {
			if err := newDocument(cfg, false, results).appendTo(historyPath()); err != nil {
				return false, err
			}
		}
		for _, r := range results {
			failed += r.Failed
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
		}
	}
	agree := failed == 0
	fmt.Fprintf(out, "%-24s %-16s %36s %36s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "within bound")
	for _, wl := range wls {
		for _, d := range endToEnd {
			a, b := sets[0][key{wl.Name, d.Name}], sets[1][key{wl.Name, d.Name}]
			worse := median(b)/median(a) - 1
			if d.Better == "higher" {
				worse = 1 - median(b)/median(a)
			}
			verdict := "yes"
			if worse > d.Bound {
				verdict = fmt.Sprintf("NO (%.1f%% worse, bound %.0f%%)", 100*worse, 100*d.Bound)
				agree = false
			}
			fmt.Fprintf(out, "%-24s %-16s %36s %36s  %s\n", wl.Name, d.Name, quartiles(a), quartiles(b), verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(out, "%d operations failed verification\n", failed)
	}
	return agree, nil
}

func quartiles(v []float64) string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", median(v), quantile(v, 0.25), quantile(v, 0.75))
}
