// Partition-analyzer tests (AP011–AP015). These build genuine partitions
// with hotcold and then corrupt individual fields, so they live in an
// external test package: lint itself cannot import hotcold (hotcold imports
// lint for CheckInvariants).
package lint_test

import (
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/graph"
	"sparseap/internal/hotcold"
	"sparseap/internal/lint"
	"sparseap/internal/symset"
)

// buildChainPartition returns a partition of the chain a->b->c cut at
// layer k: topo orders are 1,2,3, so k=1 keeps only the start hot and
// introduces one intermediate reporting state for b.
func buildChainPartition(t *testing.T, k int32) *hotcold.Partition {
	t.Helper()
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	b := m.Add(symset.Single('b'), automata.StartNone, false)
	c := m.Add(symset.Single('c'), automata.StartNone, true)
	m.Connect(a, b)
	m.Connect(b, c)
	net := automata.NewNetwork(m)
	topo := graph.TopoOrder(net)
	part, err := hotcold.Build(net, topo, []int32{k}, hotcold.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return part
}

// only runs just the named analyzer over the partition info.
func only(pi *lint.PartitionInfo, code string) *lint.Result {
	return lint.RunPartition(pi, lint.Options{Enable: []string{code}})
}

func TestValidPartitionIsClean(t *testing.T) {
	for _, k := range []int32{1, 2, 3} {
		part := buildChainPartition(t, k)
		// Structural analyzers (AP011–AP015) must stay silent; AP016 is a
		// density heuristic and legitimately fires on this tiny chain (one
		// intermediate over a two-symbol alphabet is 0.25 reports/symbol).
		res := lint.RunPartition(part.LintInfo(), lint.Options{MinSeverity: lint.Error})
		if len(res.Diags) != 0 {
			t.Errorf("k=%d: valid partition produced diagnostics: %v", k, res.Diags)
		}
		if err := part.CheckInvariants(); err != nil {
			t.Errorf("k=%d: CheckInvariants: %v", k, err)
		}
	}
}

func TestAP011ColdHotEdge(t *testing.T) {
	part := buildChainPartition(t, 1)
	pi := part.LintInfo()
	// Pretend b is hot while a stays cold: the edge a->b now crosses the
	// cut backwards.
	pi.PredHot = bitvec.New(pi.Net.Len())
	pi.PredHot.Set(1)
	res := only(pi, "AP011")
	if res.Counts()["AP011"] == 0 {
		t.Errorf("expected AP011 for a cold->hot edge, got %v", res.Diags)
	}
}

func TestAP012SplitSCC(t *testing.T) {
	// a <-> b form one SCC; put only a on the hot side.
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	b := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(a, b)
	m.Connect(b, a)
	net := automata.NewNetwork(m)
	pi := &lint.PartitionInfo{Net: net, Topo: graph.TopoOrder(net), PredHot: bitvec.New(net.Len())}
	pi.PredHot.Set(int(a))
	res := only(pi, "AP012")
	if n := res.Counts()["AP012"]; n != 1 {
		t.Errorf("expected exactly one AP012 for the split SCC, got %d: %v", n, res.Diags)
	}
}

func TestAP013ColdStart(t *testing.T) {
	part := buildChainPartition(t, 1)
	pi := part.LintInfo()
	pi.PredHot = bitvec.New(pi.Net.Len()) // nothing hot: the start is cold
	res := only(pi, "AP013")
	if res.Counts()["AP013"] == 0 {
		t.Errorf("expected AP013 for a cold start state, got %v", res.Diags)
	}
}

func TestAP013SelfEnabledColdNetwork(t *testing.T) {
	part := buildChainPartition(t, 1)
	pi := part.LintInfo()
	pi.Cold.States[0].Start = automata.StartAllInput
	res := only(pi, "AP013")
	if res.Counts()["AP013"] == 0 {
		t.Errorf("expected AP013 for a self-enabled cold-network state, got %v", res.Diags)
	}
}

func TestAP014IntermediateInconsistencies(t *testing.T) {
	// k=1 yields exactly one intermediate (hot ID 1, standing for b).
	corrupt := map[string]func(pi *lint.PartitionInfo, iv automata.StateID){
		"not-reporting": func(pi *lint.PartitionInfo, iv automata.StateID) {
			pi.Hot.States[iv].Report = false
		},
		"has-successors": func(pi *lint.PartitionInfo, iv automata.StateID) {
			pi.Hot.States[iv].Succ = []automata.StateID{0}
		},
		"wrong-symset": func(pi *lint.PartitionInfo, iv automata.StateID) {
			pi.Hot.States[iv].Match = symset.Single('z')
		},
		"targets-hot-state": func(pi *lint.PartitionInfo, iv automata.StateID) {
			pi.Intermediate[iv] = 0 // state a is predicted hot
		},
	}
	for name, mutate := range corrupt {
		t.Run(name, func(t *testing.T) {
			part := buildChainPartition(t, 1)
			pi := part.LintInfo()
			if len(pi.Intermediate) != 1 {
				t.Fatalf("expected 1 intermediate, got %d", len(pi.Intermediate))
			}
			var iv automata.StateID
			for k := range pi.Intermediate {
				iv = k
			}
			// Pre-mutation sanity: the intermediate copies its target's
			// symbol set and matches the structure AP014 checks.
			mutate(pi, iv)
			res := only(pi, "AP014")
			if res.Counts()["AP014"] == 0 {
				t.Errorf("expected AP014 after %s corruption, got %v", name, res.Diags)
			}
		})
	}
}

func TestAP015FragmentMapInconsistencies(t *testing.T) {
	corrupt := map[string]func(pi *lint.PartitionInfo){
		"hotorig-truncated": func(pi *lint.PartitionInfo) {
			pi.HotOrig = pi.HotOrig[:len(pi.HotOrig)-1]
		},
		"coldid-inverse-broken": func(pi *lint.PartitionInfo) {
			pi.ColdID[pi.ColdOrig[0]] = automata.StateID(len(pi.ColdOrig)) + 5
		},
		"orphan-hot-state": func(pi *lint.PartitionInfo) {
			// A hot state with neither an original nor a translation entry.
			pi.HotOrig[1] = automata.None
			delete(pi.Intermediate, 1)
		},
	}
	for name, mutate := range corrupt {
		t.Run(name, func(t *testing.T) {
			part := buildChainPartition(t, 1)
			pi := part.LintInfo()
			mutate(pi)
			res := only(pi, "AP015")
			if res.Counts()["AP015"] == 0 {
				t.Errorf("expected AP015 after %s corruption, got %v", name, res.Diags)
			}
		})
	}
}

// buildFanPartition cuts a two-layer network at k=1: `starts` always-on
// states matching [lo,hi] all feed one reporting child matching the same
// range, so every child activation becomes an intermediate report.
func buildFanPartition(t *testing.T, starts int, lo, hi byte) *hotcold.Partition {
	t.Helper()
	m := automata.NewNFA()
	var wide symset.Set
	wide.AddRange(lo, hi)
	var parents []automata.StateID
	for i := 0; i < starts; i++ {
		parents = append(parents, m.Add(wide, automata.StartAllInput, false))
	}
	child := m.Add(wide, automata.StartNone, true)
	for _, p := range parents {
		m.Connect(p, child)
	}
	net := automata.NewNetwork(m)
	part, err := hotcold.Build(net, graph.TopoOrder(net), []int32{1}, hotcold.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return part
}

func TestAP016StormPronePartition(t *testing.T) {
	// PEN-shaped core: always-enabled hot layer driving an intermediate
	// that matches half the live alphabet. Predicted density ~1 report per
	// symbol, far over the 0.15 budget.
	part := buildFanPartition(t, 4, 'a', 'a'+127)
	res := only(part.LintInfo(), "AP016")
	if res.Counts()["AP016"] == 0 {
		t.Errorf("expected AP016 on a storm-prone partition, got %v", res.Diags)
	}
}

func TestAP016HealthyPartition(t *testing.T) {
	// The hot layer matches half the alphabet but the intermediate matches
	// a single symbol: predicted density ~1/129, well under budget.
	m := automata.NewNFA()
	var wide symset.Set
	wide.AddRange('a', 'a'+127)
	a := m.Add(wide, automata.StartAllInput, false)
	b := m.Add(symset.Single('z'), automata.StartNone, true)
	m.Connect(a, b)
	net := automata.NewNetwork(m)
	part, err := hotcold.Build(net, graph.TopoOrder(net), []int32{1}, hotcold.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res := only(part.LintInfo(), "AP016")
	if res.Counts()["AP016"] != 0 {
		t.Errorf("expected no AP016 on a healthy partition, got %v", res.Diags)
	}
}

func TestCheckInvariantsReportsCorruption(t *testing.T) {
	part := buildChainPartition(t, 1)
	part.PredHot.Clear(0) // the start state is no longer predicted hot
	if err := part.CheckInvariants(); err == nil {
		t.Errorf("CheckInvariants accepted a corrupted partition")
	}
}
