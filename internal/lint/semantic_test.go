package lint

import (
	"strings"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// semNet builds a network exercising every semantic analyzer:
//
//	s0 start(a-z) ─→ gap(∅-under-alphabet: '!') ─→ tail(q, report)
//	s0 ─→ subA(b) ─→ rep(x, report)
//	s0 ─→ subB(a-c) ─→ rep
//
// Under alphabet a–z: gap never fires (AP020 edge from s0, AP017 on
// nothing — gap's match∩A is empty so AP003-adjacent exclusion applies),
// tail is structurally reachable but never fires (AP017 for non-report /
// AP019 if reporting), and the live subA/subB branch draws no semantic
// finding (folding subA into subB is the rewriter's, not lint's).
func semNet() *automata.Network {
	m := automata.NewNFA()
	s0 := m.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	gap := m.Add(symset.Single('!'), automata.StartNone, false)
	tail := m.Add(symset.Single('q'), automata.StartNone, true)
	subA := m.Add(symset.Single('b'), automata.StartNone, false)
	subB := m.Add(symset.Range('a', 'c'), automata.StartNone, false)
	rep := m.Add(symset.Single('x'), automata.StartNone, true)
	m.Connect(s0, gap)
	m.Connect(gap, tail)
	m.Connect(s0, subA)
	m.Connect(s0, subB)
	m.Connect(subA, rep)
	m.Connect(subB, rep)
	return automata.NewNetwork(m)
}

func codesOf(res *Result) map[string]int {
	m := map[string]int{}
	for _, d := range res.Diags {
		m[d.Code]++
	}
	return m
}

func TestSemanticAnalyzersUnderAlphabet(t *testing.T) {
	net := semNet()
	res := Run(net, Options{Alphabet: symset.Range('a', 'z')})
	counts := codesOf(res)
	if counts["AP019"] != 1 {
		t.Errorf("AP019 = %d, want 1 (the unsatisfiable reporting tail)", counts["AP019"])
	}
	if counts["AP020"] != 1 {
		t.Errorf("AP020 = %d, want 1 (edge into the '!' state)", counts["AP020"])
	}
	// The '!' state itself is excluded from AP017 (its match is empty
	// under the alphabet — the alphabet-level AP003 analogue), and the
	// tail is AP019's, so AP017 stays quiet here.
	if counts["AP017"] != 0 {
		t.Errorf("AP017 = %d, want 0", counts["AP017"])
	}
}

func TestSemanticQuietUnderFullAlphabet(t *testing.T) {
	// Under the full alphabet the '!' branch fires fine: no semantic
	// findings beyond the structural ones.
	net := semNet()
	res := Run(net, Options{})
	counts := codesOf(res)
	for _, code := range []string{"AP017", "AP019", "AP020"} {
		if counts[code] != 0 {
			t.Errorf("%s = %d, want 0 under the full alphabet", code, counts[code])
		}
	}
}

func TestAP017StructurallyReachableOnly(t *testing.T) {
	// A state behind an empty-match state is structurally reachable but
	// can never fire — AP017's exact territory (its own match is fine).
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	gap := m.Add(symset.Empty(), automata.StartNone, false)
	mid := m.Add(symset.Single('c'), automata.StartNone, false)
	rep := m.Add(symset.Single('d'), automata.StartNone, true)
	m.Connect(s0, gap)
	m.Connect(gap, mid)
	m.Connect(mid, rep)
	net := automata.NewNetwork(m)
	res := Run(net, Options{})
	counts := codesOf(res)
	if counts["AP017"] != 1 {
		t.Errorf("AP017 = %d, want 1 (mid)", counts["AP017"])
	}
	if counts["AP019"] != 1 {
		t.Errorf("AP019 = %d, want 1 (rep)", counts["AP019"])
	}
	var found bool
	for _, d := range res.Diags {
		if d.Code == "AP017" && d.State == mid {
			found = true
		}
	}
	if !found {
		t.Error("AP017 should point at the state behind the empty-match gap")
	}
}

func TestAP021CutCostOnOversizedNFA(t *testing.T) {
	// A 6-state chain with capacity 4: oversized, and the cheapest cut
	// cost must be reported as an Info diagnostic.
	m := automata.NewNFA()
	prev := m.Add(symset.Range('a', 'd'), automata.StartAllInput, false)
	for i := 0; i < 5; i++ {
		next := m.Add(symset.Range('a', 'd'), automata.StartNone, i == 4)
		m.Connect(prev, next)
		prev = next
	}
	net := automata.NewNetwork(m)
	res := Run(net, Options{Capacity: 4})
	var diag *Diagnostic
	for i := range res.Diags {
		if res.Diags[i].Code == "AP021" {
			diag = &res.Diags[i]
		}
	}
	if diag == nil {
		t.Fatalf("no AP021 diagnostic; got %v", res.Diags)
	}
	if !strings.Contains(diag.Msg, "crossings/symbol") {
		t.Errorf("AP021 message missing cost estimate: %s", diag.Msg)
	}
	// With capacity covering the whole NFA there is nothing to report.
	res = Run(net, Options{Capacity: 100})
	if codesOf(res)["AP021"] != 0 {
		t.Error("AP021 must stay quiet when the NFA fits")
	}
}

func TestErrAtThresholds(t *testing.T) {
	net := semNet()
	res := Run(net, Options{Alphabet: symset.Range('a', 'z')})
	if res.Err() != nil {
		t.Fatalf("no errors expected, got %v", res.Err())
	}
	err := res.ErrAt(Warning)
	if err == nil {
		t.Fatal("ErrAt(Warning) should report the warnings")
	}
	// The count in the error must match the summary's warning+error count.
	warnPlus := res.Count(Warning) + res.Count(Error)
	if warnPlus < 2 && strings.Contains(err.Error(), "more findings") {
		t.Errorf("ErrAt count inconsistent with summary: %v vs %d findings", err, warnPlus)
	}
	if res.ErrAt(Info) == nil {
		t.Error("ErrAt(Info) should report everything")
	}
}
