// Command anml2dot converts an ANML automaton (or compiled regexes) into
// Graphviz DOT for visualization:
//
//	anml2dot -anml fig2.anml > fig2.dot
//	anml2dot -regex 'a((bc)|(cd)+)f' | dot -Tpng > fig2.png
package main

import (
	"flag"
	"fmt"
	"os"

	"sparseap/internal/anml"
	"sparseap/internal/cli"
)

func main() {
	src := cli.Command("anml2dot", cli.Spec{Sources: cli.ANML | cli.Regex})
	name := flag.String("name", "automaton", "graph name")
	src.Parse()

	if err := anml.WriteDOT(os.Stdout, src.Targets()[0].Net, *name); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
