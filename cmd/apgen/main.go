// Command apgen materializes the generated benchmark suite as ANML files
// plus raw input streams, so the workloads can be fed to other automata
// tools (VASim, MNCaRT, hardware compilers).
//
//	apgen -app Snort -o out/            # one application
//	apgen -all -o out/                  # all 26
//	apgen -all -opt -o out/             # all 26, minimized by the rewriter
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sparseap/internal/anml"
	"sparseap/internal/cli"
	"sparseap/internal/lint"
)

func main() {
	src := cli.Command("apgen", cli.Spec{Sources: cli.App | cli.All, Scale: true, Capacity: cli.Checks})
	var (
		outDir = flag.String("o", ".", "output directory")
		noLint = flag.Bool("nolint", false, "skip linting the emitted networks")
		strict = flag.Bool("strict", false, "fail (exit 1) when the linter reports findings instead of warning")
		opt    = flag.Bool("opt", false, "emit the minimized networks (proof-carrying rewriter) instead of the raw generated ones")
	)
	src.Parse()
	src.Workloads.Optimize = *opt
	targets := src.Targets()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	for _, t := range targets {
		name, app := t.Name, t.App
		// Lint every emitted network so downstream tools never ingest a
		// suspect automaton: warn by default, fail under -strict.
		if !*noLint {
			res := lint.Run(app.Net, lint.Options{Capacity: src.AP.Capacity})
			if len(res.Diags) > 0 {
				fmt.Fprintf(os.Stderr, "apgen: lint %s: %s\n", name, res.Summary())
				for _, d := range res.Diags {
					fmt.Fprintf(os.Stderr, "  %s\n", d)
				}
				if *strict {
					fail(fmt.Errorf("apgen: %s has lint findings (rerun without -strict to emit anyway)", name))
				}
			}
		}
		anmlPath := filepath.Join(*outDir, name+".anml")
		f, err := os.Create(anmlPath)
		if err != nil {
			fail(err)
		}
		if err := anml.Write(f, app.Net, app.Name); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		inPath := filepath.Join(*outDir, name+".input")
		if err := os.WriteFile(inPath, app.Input, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("%s: %d states -> %s, %d bytes -> %s\n",
			name, app.Net.Len(), anmlPath, len(app.Input), inPath)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
