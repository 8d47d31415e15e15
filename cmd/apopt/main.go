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
	"sparseap/internal/cli"
	"sparseap/internal/metrics"
	"sparseap/internal/rewrite"
)

// optReport is the per-target JSON payload.
type optReport struct {
	Name  string         `json:"name"`
	Stats *rewrite.Stats `json:"stats"`
	Out   string         `json:"out,omitempty"`
}

func main() {
	src := cli.Command("apopt", cli.Spec{Sources: cli.App | cli.All | cli.ANML, Scale: true, Capacity: cli.Checks})
	var (
		outPath   = flag.String("o", "", "output: ANML path for one target, directory with -all ('-' = stdout; empty = dry run)")
		diffOnly  = flag.Bool("diff", false, "dry run: report per-NFA state/edge deltas without writing")
		alphaSpec = flag.String("alphabet", "", "assumed input alphabet as a symbol class (e.g. '[a-z0-9]'); empty = all 256 symbols")
		check     = flag.Bool("check", false, "re-verify the full certificate chain of the rewrite")
		jsonOut   = flag.Bool("json", false, "emit statistics as JSON")
		maxPer    = flag.Int("max", 20, "max changed NFAs listed per target in text mode (0 = unlimited)")
	)
	src.Parse()

	alphabet, err := cli.Alphabet(*alphaSpec)
	if err != nil {
		fail(2, fmt.Errorf("-alphabet: %w", err))
	}
	ropts := rewrite.Options{Alphabet: alphabet, Capacity: src.AP.Capacity}
	targets := src.Targets()
	if *outPath != "" && *outPath != "-" && src.All {
		if err := os.MkdirAll(*outPath, 0o755); err != nil {
			fail(2, err)
		}
	}

	var reports []optReport
	table := metrics.NewTable("App", "States", "Min", "Δ%", "Edges", "Min", "NFAs", "Min")
	for _, t := range targets {
		// An -anml target is named by its file name without .anml.
		name := strings.TrimSuffix(filepath.Base(t.Name), ".anml")
		res, err := rewrite.Rewrite(t.Net, ropts)
		if err != nil {
			fail(2, fmt.Errorf("%s: %w", name, err))
		}
		if *check {
			if err := res.Check(ropts.Alphabet); err != nil {
				fail(1, fmt.Errorf("%s: certificate check failed: %w", name, err))
			}
		}
		rep := optReport{Name: name, Stats: &res.Stats}
		if *outPath != "" && !*diffOnly {
			rep.Out, err = write(*outPath, name, res.Net, src.All)
			if err != nil {
				fail(2, fmt.Errorf("%s: %w", name, err))
			}
		}
		reports = append(reports, rep)
		st := &res.Stats
		table.AddRowf(name, st.StatesBefore, st.StatesAfter, savings(st),
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

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "apopt:", err)
	os.Exit(code)
}
