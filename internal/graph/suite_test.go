package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/graph"
	"sparseap/internal/oracle"
	"sparseap/internal/workloads"
)

// TestTopoPredsMatchOracle holds the CSR predecessor lists TopoOrder
// builds to oracle.Preds, element for element, on generator draws
// (duplicate edges, self-loops, edges into starts) and on the suite.
func TestTopoPredsMatchOracle(t *testing.T) {
	check := func(name string, net *automata.Network) {
		topo := graph.TopoOrder(net)
		for s, want := range oracle.Preds(net) {
			if got := topo.Preds(automata.StateID(s)); !slices.Equal(got, want) {
				t.Fatalf("%s: Topo.Preds(%d) = %v, oracle.Preds(net)[%d] = %v", name, s, got, s, want)
			}
		}
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		check("draw", oracle.Network(r, 400))
	}
	apps, err := workloads.BuildAll(workloads.Config{Divisor: 32, InputLen: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		check(app.Abbr, app.Net)
	}
}
