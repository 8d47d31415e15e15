// Command apbench regenerates every table and figure of the paper's
// evaluation (Section VII) on the synthesized 26-application suite.
//
// Usage:
//
//	apbench [-exp all|table2,fig1,fig5,table1,fig8,fig10,fig11,fig12,table4,fig13,sensitivity,resilience,predict] \
//	        [-divisor 8] [-input 131072] [-capacity N] [-seed 1]
//
// The defaults run the 1/8-scaled configuration of EXPERIMENTS.md:
// 24K-STE half-core → 3K, 1 MiB input → 128 KiB, Table II NFA counts ÷ 8.
// The capacity defaults to the paper's half-core divided by -divisor, so
// -divisor 1 -input 1048576 is a full-size run; -capacity overrides it.
//
// apbench reports the paper's quantities (cycles, speedups, state counts),
// never wall-clock time: what this codebase itself costs, layer by layer,
// is measured by bench/ (BENCHMARK.json, bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"sparseap/internal/cli"
	"sparseap/internal/exp"
)

type experiment struct {
	name string
	run  func(*exp.Suite) (interface{ Render() string }, error)
}

func experiments() []experiment {
	return []experiment{
		{"table2", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Table2(s) }},
		{"fig1", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Fig1(s) }},
		{"fig5", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Fig5(s) }},
		{"table1", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Table1(s) }},
		{"fig8", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Fig8(s) }},
		{"fig10", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Fig10(s) }},
		{"fig11", func(s *exp.Suite) (interface{ Render() string }, error) {
			c := s.AP.Capacity
			return exp.Fig11(s, []int{c / 4, c / 2, c, c * 49 / 24})
		}},
		{"fig12", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Fig12(s) }},
		{"table4", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Table4(s) }},
		{"fig13", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Fig13(s) }},
		{"sensitivity", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Sensitivity(s) }},
		{"resilience", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Resilience(s) }},
		{"predict", func(s *exp.Suite) (interface{ Render() string }, error) { return exp.Predict(s, nil) }},
	}
}

func main() {
	src := cli.Command("apbench", cli.Spec{Scale: true, Capacity: cli.Model})
	expFlag := flag.String("exp", "all", "comma-separated experiments, or 'all'")
	src.Parse()

	// Every requested name is checked before anything runs: a typo beside
	// a valid name must not cost a minute-long run that silently lacks it.
	exps := experiments()
	names := []string{"all"}
	for _, e := range exps {
		names = append(names, e.name)
	}
	wanted := map[string]bool{}
	var unknown []string
	for _, n := range strings.Split(*expFlag, ",") {
		n = strings.TrimSpace(n)
		wanted[n] = true
		if !slices.Contains(names, n) {
			unknown = append(unknown, fmt.Sprintf("%q", n))
		}
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "apbench: unknown experiment %s; valid names: %s\n",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
		os.Exit(2)
	}

	wl := src.Workloads
	suite := exp.NewSuite(wl, src.AP)
	fmt.Printf("sparseap benchmark harness: divisor=%d input=%d capacity=%d seed=%d\n\n",
		wl.Divisor, wl.InputLen, src.AP.Capacity, wl.Seed)
	for _, e := range exps {
		if !wanted["all"] && !wanted[e.name] {
			continue
		}
		start := time.Now()
		res, err := e.run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", e.name, time.Since(start).Seconds(), res.Render())
	}
}
