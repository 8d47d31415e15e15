// Command aplint runs the static-analysis registry of internal/lint over
// automata networks — generated suite applications, ANML files from
// external tools, or compiled regexes — and reports structured diagnostics
// with stable codes (AP001…).
//
//	aplint -all                        # lint the generated 26-app suite
//	aplint -app Snort -partition 0.01  # one app, incl. partition analyzers
//	aplint -anml rules.anml            # ANML produced by another toolchain
//	aplint -regex 'err[0-9]{3}'        # compiled patterns (repeatable flag)
//	aplint -anml r.anml -diff          # dry-run the rewriter, show deltas
//	aplint -anml r.anml -fix -o m.anml # write the minimized network
//	aplint -list                       # catalogue every analyzer
//
// -enable/-disable filter by code or name, -json switches to machine
// output, -alphabet restricts the semantic analyzers (AP017…) and the
// rewriter to a symbol class. Exit status: 0 clean, 1 when any
// error-severity diagnostic was reported (with -strict: any warning or
// error), 2 on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sparseap/internal/anml"
	"sparseap/internal/automata"
	"sparseap/internal/cli"
	"sparseap/internal/hotcold"
	"sparseap/internal/lint"
	"sparseap/internal/rewrite"
)

// report is the per-target JSON payload.
type report struct {
	Name      string            `json:"name"`
	States    int               `json:"states"`
	NFAs      int               `json:"nfas"`
	Diags     []lint.Diagnostic `json:"diagnostics"`
	Skipped   []string          `json:"skipped,omitempty"`
	Partition bool              `json:"partition,omitempty"`
	Rewrite   *rewrite.Stats    `json:"rewrite,omitempty"`
}

func main() {
	src := cli.Command("aplint", cli.Spec{
		Sources: cli.App | cli.All | cli.ANML | cli.In | cli.Regex,
		Scale:   true, Capacity: cli.Checks, Lax: true,
	})
	var (
		list      = flag.Bool("list", false, "list every registered analyzer and exit")
		jsonOut   = flag.Bool("json", false, "emit diagnostics as JSON")
		enable    = flag.String("enable", "", "comma-separated codes/names to run exclusively")
		disable   = flag.String("disable", "", "comma-separated codes/names to skip")
		partition = flag.Float64("partition", 0, "also build a hot/cold partition profiling this input fraction and run the partition analyzers")
		strict    = flag.Bool("strict", false, "exit non-zero on warnings, not only errors")
		alphaSpec = flag.String("alphabet", "", "assumed input alphabet as a symbol class (e.g. '[a-z0-9]'); empty = all 256 symbols")
		fix       = flag.Bool("fix", false, "apply the proof-carrying rewriter and write the minimized network as ANML (single target; see -o)")
		diffOnly  = flag.Bool("diff", false, "dry-run the rewriter and print per-NFA state/edge deltas without writing")
		outPath   = flag.String("o", "", "minimized-ANML output path for -fix (default stdout)")
		maxPer    = flag.Int("max", 20, "max diagnostics printed per code per target in text mode (0 = unlimited)")
	)
	src.Parse()

	if *list {
		listAnalyzers()
		return
	}
	alphabet, err := cli.Alphabet(*alphaSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aplint: -alphabet:", err)
		os.Exit(2)
	}
	capacity := src.AP.Capacity
	opts := lint.Options{
		Capacity: capacity,
		Enable:   splitCodes(*enable),
		Disable:  splitCodes(*disable),
		Alphabet: alphabet,
	}
	// A typo'd filter would otherwise silently lint nothing and report
	// "clean"; reject anything that names no registered analyzer.
	for _, c := range append(append([]string(nil), opts.Enable...), opts.Disable...) {
		if !knownAnalyzer(c) {
			fmt.Fprintf(os.Stderr, "aplint: unknown analyzer %q (see aplint -list)\n", c)
			os.Exit(2)
		}
	}
	targets := src.Targets()
	if *fix && len(targets) != 1 {
		fmt.Fprintln(os.Stderr, "aplint: -fix needs exactly one target (it writes one minimized network)")
		os.Exit(2)
	}

	var reports []report
	var merged lint.Result
	for _, t := range targets {
		rep := report{Name: t.Name, States: t.Net.Len(), NFAs: t.Net.NumNFAs()}
		res := lint.Run(t.Net, opts)
		rep.Diags = res.Diags
		rep.Skipped = res.Skipped
		if *partition > 0 {
			pres, err := lintPartition(t, *partition, capacity, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aplint: %s: partition: %v\n", t.Name, err)
				os.Exit(2)
			}
			rep.Partition = true
			rep.Diags = append(rep.Diags, pres.Diags...)
			// Partition findings arrive after the network ones; restore
			// the global (NFA, state, code) order so output is stable.
			lint.SortDiagnostics(rep.Diags)
		}
		if *fix || *diffOnly {
			rres, err := rewrite.Rewrite(t.Net, rewrite.Options{Alphabet: opts.Alphabet, Capacity: capacity})
			if err != nil {
				fmt.Fprintf(os.Stderr, "aplint: %s: rewrite: %v\n", t.Name, err)
				os.Exit(2)
			}
			rep.Rewrite = &rres.Stats
			if *fix {
				if err := writeMinimized(*outPath, rres.Net, t.Name); err != nil {
					fmt.Fprintf(os.Stderr, "aplint: %s: %v\n", t.Name, err)
					os.Exit(2)
				}
			}
		}
		merged.Diags = append(merged.Diags, rep.Diags...)
		reports = append(reports, rep)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, "aplint:", err)
			os.Exit(2)
		}
	} else {
		for _, rep := range reports {
			printText(rep, *maxPer)
		}
	}
	// Exit status mirrors Result.Err/ErrAt exactly: the text summary and
	// the exit code count the same diagnostics.
	threshold := lint.Error
	if *strict {
		threshold = lint.Warning
	}
	if merged.ErrAt(threshold) != nil {
		os.Exit(1)
	}
}

// writeMinimized writes the rewritten network as ANML to path ("" or "-"
// meaning stdout).
func writeMinimized(path string, net *automata.Network, name string) error {
	if path == "" || path == "-" {
		return anml.Write(os.Stdout, net, name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := anml.Write(f, net, name); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lintPartition profiles a fraction of the target's input, builds the
// hot/cold partition, and runs the partition analyzers over it.
func lintPartition(t cli.Target, frac float64, capacity int, opts lint.Options) (*lint.Result, error) {
	if len(t.Input) == 0 {
		return nil, fmt.Errorf("no input stream to profile (use -in with -anml)")
	}
	n := int(frac * float64(len(t.Input)))
	if n < 1 {
		n = 1
	}
	if n > len(t.Input) {
		n = len(t.Input)
	}
	part, err := hotcold.BuildFromProfile(t.Net, t.Input[:n], hotcold.Options{Capacity: capacity})
	if err != nil {
		return nil, err
	}
	return lint.RunPartition(part.LintInfo(), opts), nil
}

// printText renders one target's findings in the line-oriented text format.
func printText(rep report, maxPer int) {
	fmt.Printf("== %s: %d states, %d NFAs ==\n", rep.Name, rep.States, rep.NFAs)
	shown := make(map[string]int)
	hidden := make(map[string]int)
	var errs, warns, infos int
	for _, d := range rep.Diags {
		switch d.Severity {
		case lint.Error:
			errs++
		case lint.Warning:
			warns++
		default:
			infos++
		}
		if maxPer > 0 && shown[d.Code] >= maxPer {
			hidden[d.Code]++
			continue
		}
		shown[d.Code]++
		fmt.Println("  " + d.String())
	}
	for _, a := range lint.All() {
		if n := hidden[a.Code]; n > 0 {
			fmt.Printf("  %s: … and %d more (rerun with -max 0 to see all)\n", a.Code, n)
		}
	}
	if len(rep.Skipped) > 0 {
		fmt.Printf("  skipped (network unsound): %s\n", strings.Join(rep.Skipped, ", "))
	}
	if len(rep.Diags) == 0 {
		fmt.Println("  clean")
	} else {
		fmt.Printf("  %d errors, %d warnings, %d info\n", errs, warns, infos)
	}
	if rep.Rewrite != nil {
		printRewrite(rep.Rewrite, maxPer)
	}
}

// printRewrite renders the rewriter's dry-run/applied statistics with
// per-NFA deltas for the NFAs that changed.
func printRewrite(st *rewrite.Stats, maxPer int) {
	if st.StatesRemoved() == 0 && st.EdgesBefore == st.EdgesAfter {
		fmt.Println("  rewrite: no change (network is already minimal)")
		return
	}
	pct := 0.0
	if st.StatesBefore > 0 {
		pct = 100 * float64(st.StatesRemoved()) / float64(st.StatesBefore)
	}
	fmt.Printf("  rewrite: states %d -> %d (-%.1f%%), edges %d -> %d, NFAs %d -> %d, %d rounds\n",
		st.StatesBefore, st.StatesAfter, pct,
		st.EdgesBefore, st.EdgesAfter, st.NFAsBefore, st.NFAsAfter, st.Rounds)
	fmt.Printf("  rewrite: %d unreachable, %d dead, %d subsumed, %d merged, %d starts folded, %d edges pruned",
		st.Unreachable, st.Dead, st.Subsumed, st.Merged, st.StartsFolded, st.EdgesPruned)
	if st.DemotedClasses > 0 {
		fmt.Printf(" (%d merge classes demoted by the capacity guard)", st.DemotedClasses)
	}
	fmt.Println()
	shown := 0
	for _, d := range st.PerNFA {
		if d.StatesBefore == d.StatesAfter && d.EdgesBefore == d.EdgesAfter {
			continue
		}
		if maxPer > 0 && shown >= maxPer {
			fmt.Printf("  rewrite: … and more changed NFAs (rerun with -max 0 to see all)\n")
			break
		}
		shown++
		fmt.Printf("  rewrite: NFA %d: states %d -> %d, edges %d -> %d\n",
			d.NFA, d.StatesBefore, d.StatesAfter, d.EdgesBefore, d.EdgesAfter)
	}
}

// listAnalyzers prints the analyzer catalogue.
func listAnalyzers() {
	for _, a := range lint.All() {
		kind := "network"
		if a.NeedsPartition {
			kind = "partition"
		}
		fmt.Printf("%s %-16s %-9s %-9s %s\n", a.Code, a.Name, a.Default, kind, a.Doc)
	}
}

// knownAnalyzer reports whether s names a registered analyzer by code or
// short name.
func knownAnalyzer(s string) bool {
	if lint.Lookup(s) != nil {
		return true
	}
	for _, a := range lint.All() {
		if a.Name == s {
			return true
		}
	}
	return false
}

// splitCodes parses a comma-separated code list.
func splitCodes(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
