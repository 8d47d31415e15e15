package dataflow_test

import (
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/dataflow"
	"sparseap/internal/graph"
	"sparseap/internal/oracle"
	"sparseap/internal/symset"
	"sparseap/internal/workloads"
)

// naiveFacts solves both analyses by their definitions: from bottom, sweep
// every state of the network, reading predecessors from oracle.Preds,
// until no fire set and no liveness bit changes.
func naiveFacts(net *automata.Network, alphabet symset.Set) ([]symset.Set, []bool) {
	if alphabet.IsEmpty() {
		alphabet = symset.All()
	}
	preds := oracle.Preds(net)
	fire := make([]symset.Set, net.Len())
	for changed := true; changed; {
		changed = false
		for s := range net.States {
			enabled := net.States[s].Start != automata.StartNone
			for _, p := range preds[s] {
				enabled = enabled || !fire[p].IsEmpty()
			}
			var next symset.Set
			if enabled {
				next = net.States[s].Match.Intersect(alphabet)
			}
			if !next.Equal(fire[s]) {
				fire[s], changed = next, true
			}
		}
	}
	live := make([]bool, net.Len())
	for changed := true; changed; {
		changed = false
		for s := range net.States {
			next := net.States[s].Report
			for _, v := range net.States[s].Succ {
				next = next || live[v]
			}
			next = next && !fire[s].IsEmpty()
			if next != live[s] {
				live[s], changed = next, true
			}
		}
	}
	return fire, live
}

func checkAgainstNaive(t *testing.T, name string, net *automata.Network, alphabet symset.Set) {
	t.Helper()
	f := dataflow.Analyze(net, graph.TopoOrder(net), alphabet)
	fire, live := naiveFacts(net, alphabet)
	for s := range net.States {
		if !f.Fire[s].Equal(fire[s]) {
			t.Fatalf("%s: Fire[%d] = %s, the whole-network fixpoint has %s", name, s, f.Fire[s], fire[s])
		}
		if f.Live[s] != live[s] {
			t.Fatalf("%s: Live[%d] = %v, the whole-network fixpoint has %v", name, s, f.Live[s], live[s])
		}
	}
	if f.Iterations > net.Len() {
		t.Fatalf("%s: the forward walk visited %d states of %d", name, f.Iterations, net.Len())
	}
}

// TestAnalyzeMatchesWholeNetworkFixpoint holds the one-walk forward pass
// and the backward pass to the plain fixpoint on generator draws, under
// the full alphabet and under a drawn byte range, and on the suite.
func TestAnalyzeMatchesWholeNetworkFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		net := oracle.Network(r, 400)
		checkAgainstNaive(t, "draw", net, symset.Set{})
		lo := byte(r.Intn(256))
		checkAgainstNaive(t, "draw, restricted alphabet", net, symset.Range(lo, lo+byte(r.Intn(256-int(lo)))))
	}
	apps, err := workloads.BuildAll(workloads.Config{Divisor: 32, InputLen: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		checkAgainstNaive(t, app.Abbr, app.Net, symset.Set{})
	}
}
