// Command apopt minimizes automata networks with the proof-carrying
// rewriter (internal/rewrite): semantically-unreachable and dead state
// elimination, symbol-empty edge pruning, subsumed-sibling folding, and
// capacity-guarded bisimulation merging including cross-NFA redundant
// start folding. The report stream is provably unchanged — every removal
// and merge carries a certificate that is machine-checked before it is
// applied, and -check re-verifies the full certificate chain afterwards.
//
//	apopt -anml rules.anml -o min.anml   # minimize an ANML file
//	apopt -anml rules.anml -diff         # dry run: per-NFA deltas only
//	apopt -app Snort -diff               # inspect one generated suite app
//	apopt -all                           # suite-wide savings table
//	apopt -all -o outdir/                # minimize the whole suite
//
// Exit status: 0 on success, 1 when -check fails, 2 on usage or I/O
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sparseap/internal/anml"
	"sparseap/internal/automata"
	"sparseap/internal/metrics"
	"sparseap/internal/rewrite"
	"sparseap/internal/symset"
	"sparseap/internal/workloads"
)

// optTarget is one network to minimize.
type optTarget struct {
	name string
	net  *automata.Network
}

// optReport is the per-target JSON payload.
type optReport struct {
	Name  string         `json:"name"`
	Stats *rewrite.Stats `json:"stats"`
	Out   string         `json:"out,omitempty"`
}

func main() {
	var (
		appName   = flag.String("app", "", "built-in application abbreviation")
		all       = flag.Bool("all", false, "minimize every generated application")
		anmlPath  = flag.String("anml", "", "ANML automaton file")
		outPath   = flag.String("o", "", "output: ANML path for one target, directory with -all ('-' = stdout; empty = dry run)")
		diffOnly  = flag.Bool("diff", false, "dry run: report per-NFA state/edge deltas without writing")
		alphaSpec = flag.String("alphabet", "", "assumed input alphabet as a symbol class (e.g. '[a-z0-9]'); empty = all 256 symbols")
		capacity  = flag.Int("capacity", rewrite.DefaultCapacity, "AP half-core capacity guarding cross-NFA merges (<0 = unguarded)")
		check     = flag.Bool("check", false, "re-verify the full certificate chain of the rewrite")
		jsonOut   = flag.Bool("json", false, "emit statistics as JSON")
		maxPer    = flag.Int("max", 20, "max changed NFAs listed per target in text mode (0 = unlimited)")
		divisor   = flag.Int("divisor", 8, "workload scale divisor (with -app/-all)")
		inputLen  = flag.Int("input", 131072, "generated input length (with -app/-all)")
		seed      = flag.Int64("seed", 1, "generation seed (with -app/-all)")
	)
	flag.Parse()

	ropts := rewrite.Options{Capacity: *capacity}
	if *alphaSpec != "" {
		a, err := symset.Parse(bracketed(*alphaSpec))
		if err != nil {
			fail(2, fmt.Errorf("-alphabet: %w", err))
		}
		ropts.Alphabet = a
	}
	targets, err := resolve(*appName, *all, *anmlPath,
		workloads.Config{Divisor: *divisor, InputLen: *inputLen, Seed: *seed})
	if err != nil {
		fail(2, err)
	}
	if *outPath != "" && *outPath != "-" && *all {
		if err := os.MkdirAll(*outPath, 0o755); err != nil {
			fail(2, err)
		}
	}

	var reports []optReport
	table := metrics.NewTable("App", "States", "Min", "Δ%", "Edges", "Min", "NFAs", "Min")
	for _, t := range targets {
		res, err := rewrite.Rewrite(t.net, ropts)
		if err != nil {
			fail(2, fmt.Errorf("%s: %w", t.name, err))
		}
		if *check {
			if err := res.Check(ropts.Alphabet); err != nil {
				fail(1, fmt.Errorf("%s: certificate check failed: %w", t.name, err))
			}
		}
		rep := optReport{Name: t.name, Stats: &res.Stats}
		if *outPath != "" && !*diffOnly {
			rep.Out, err = write(*outPath, t.name, res.Net, *all)
			if err != nil {
				fail(2, fmt.Errorf("%s: %w", t.name, err))
			}
		}
		reports = append(reports, rep)
		st := &res.Stats
		table.AddRowf(t.name, st.StatesBefore, st.StatesAfter, savings(st),
			st.EdgesBefore, st.EdgesAfter, st.NFAsBefore, st.NFAsAfter)
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fail(2, err)
		}
	case len(reports) > 1:
		fmt.Print(table)
	default:
		printOne(reports[0], *maxPer, *check)
	}
}

// printOne renders a single target's rewrite in detail.
func printOne(rep optReport, maxPer int, checked bool) {
	st := rep.Stats
	fmt.Printf("%s: states %d -> %d (%.1f%% saved), edges %d -> %d, NFAs %d -> %d, %d rounds\n",
		rep.Name, st.StatesBefore, st.StatesAfter, savings(st),
		st.EdgesBefore, st.EdgesAfter, st.NFAsBefore, st.NFAsAfter, st.Rounds)
	fmt.Printf("  %d unreachable, %d dead, %d subsumed, %d merged, %d starts folded, %d edges pruned\n",
		st.Unreachable, st.Dead, st.Subsumed, st.Merged, st.StartsFolded, st.EdgesPruned)
	if st.DemotedClasses > 0 {
		fmt.Printf("  %d merge classes demoted by the capacity guard\n", st.DemotedClasses)
	}
	shown := 0
	for _, d := range st.PerNFA {
		if d.StatesBefore == d.StatesAfter && d.EdgesBefore == d.EdgesAfter {
			continue
		}
		if maxPer > 0 && shown >= maxPer {
			fmt.Println("  … more changed NFAs (rerun with -max 0 to see all)")
			break
		}
		shown++
		fmt.Printf("  NFA %d: states %d -> %d, edges %d -> %d\n",
			d.NFA, d.StatesBefore, d.StatesAfter, d.EdgesBefore, d.EdgesAfter)
	}
	if checked {
		fmt.Println("  certificate chain verified")
	}
	if rep.Out != "" {
		fmt.Printf("  wrote %s\n", rep.Out)
	}
}

// savings is the percentage of states removed.
func savings(st *rewrite.Stats) float64 {
	if st.StatesBefore == 0 {
		return 0
	}
	return 100 * float64(st.StatesRemoved()) / float64(st.StatesBefore)
}

// write emits one minimized network: to stdout ("-"), to the named file,
// or — with -all — into the output directory as <name>.anml.
func write(outPath, name string, net *automata.Network, all bool) (string, error) {
	if outPath == "-" {
		return "", anml.Write(os.Stdout, net, name)
	}
	path := outPath
	if all {
		path = filepath.Join(outPath, name+".anml")
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := anml.Write(f, net, name); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// resolve builds the targets from the flag combination.
func resolve(appName string, all bool, anmlPath string, cfg workloads.Config) ([]optTarget, error) {
	switch {
	case all:
		apps, err := workloads.BuildAll(cfg)
		if err != nil {
			return nil, err
		}
		ts := make([]optTarget, len(apps))
		for i, a := range apps {
			ts[i] = optTarget{name: a.Abbr, net: a.Net}
		}
		return ts, nil
	case appName != "":
		a, err := workloads.Build(appName, cfg)
		if err != nil {
			return nil, err
		}
		return []optTarget{{name: a.Abbr, net: a.Net}}, nil
	case anmlPath != "":
		f, err := os.Open(anmlPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		net, err := anml.Read(f)
		if err != nil {
			return nil, err
		}
		return []optTarget{{name: strings.TrimSuffix(filepath.Base(anmlPath), ".anml"), net: net}}, nil
	}
	return nil, fmt.Errorf("need -app, -all or -anml (try: apopt -all)")
}

// bracketed wraps a bare multi-symbol class in [] so users can write
// -alphabet a-z as well as the full '[a-z]' symset syntax.
func bracketed(spec string) string {
	if spec == "*" || len(spec) == 1 || strings.HasPrefix(spec, "[") {
		return spec
	}
	if len(spec) == 2 && spec[0] == '\\' {
		return spec
	}
	return "[" + spec + "]"
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "apopt:", err)
	os.Exit(code)
}
