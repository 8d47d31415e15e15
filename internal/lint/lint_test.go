package lint

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// retiredCodes are the codes of deleted analyzers. A code is never
// reused, so these stay gaps in the registry: AP018 (subsumed sibling)
// and AP022 (oversized NFA that fits after a rewrite) ran the rewriter on
// every lint pass, which is apopt's and aplint -diff's job.
var retiredCodes = map[string]bool{"AP018": true, "AP022": true}

func TestRegistryIsComplete(t *testing.T) {
	all := All()
	if len(all) < 15 {
		t.Fatalf("expected at least 15 analyzers, got %d", len(all))
	}
	for code := range retiredCodes {
		if Lookup(code) != nil {
			t.Errorf("retired code %s is registered again", code)
		}
	}
	names := make(map[string]bool)
	next := 1
	for i, a := range all {
		for retiredCodes[fmt.Sprintf("AP%03d", next)] {
			next++
		}
		want := fmt.Sprintf("AP%03d", next)
		next++
		if a.Code != want {
			t.Errorf("analyzer %d has code %s, want %s (codes are contiguous apart from the retired ones)", i, a.Code, want)
		}
		if a.Name == "" || a.Doc == "" {
			t.Errorf("%s is missing a name or doc string", a.Code)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if Lookup(a.Code) != a {
			t.Errorf("Lookup(%s) did not return the registered analyzer", a.Code)
		}
	}
	if Lookup("AP999") != nil {
		t.Errorf("Lookup of an unknown code should return nil")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Register accepted a duplicate code")
		}
	}()
	Register(&Analyzer{Code: "AP001", Run: func(*Pass, *Analyzer) []Diagnostic { return nil }})
}

// brokenNet returns a network that triggers AP002 (error), AP004 (warning)
// and AP010 (info) at once, for filter tests.
func brokenNet() *automata.Network {
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	b1 := m.Add(symset.Single('b'), automata.StartNone, false)
	b2 := m.Add(symset.Single('b'), automata.StartNone, false)
	r := m.Add(symset.Single('c'), automata.StartNone, true)
	m.Connect(a, b1)
	m.Connect(a, b2)
	m.Connect(b1, r)
	m.Connect(b2, r)
	m.Connect(a, b1) // duplicate edge -> AP004
	n := automata.NewNFA()
	n.Add(symset.Single('x'), automata.StartNone, true) // no start -> AP002
	return automata.NewNetwork(m, n)
}

func TestOptionsEnableDisable(t *testing.T) {
	net := brokenNet()

	all := Run(net, Options{})
	for _, code := range []string{"AP002", "AP004", "AP010"} {
		if all.Counts()[code] == 0 {
			t.Fatalf("fixture should trigger %s, got %v", code, all.Diags)
		}
	}

	byCode := Run(net, Options{Enable: []string{"AP004"}})
	if len(byCode.Counts()) != 1 || byCode.Counts()["AP004"] == 0 {
		t.Errorf("Enable by code should run only AP004, got %v", byCode.Diags)
	}

	byName := Run(net, Options{Enable: []string{"duplicate-edge"}})
	if len(byName.Counts()) != 1 || byName.Counts()["AP004"] == 0 {
		t.Errorf("Enable by name should run only AP004, got %v", byName.Diags)
	}

	disabled := Run(net, Options{Disable: []string{"AP004", "redundant-state"}})
	if disabled.Counts()["AP004"] != 0 || disabled.Counts()["AP010"] != 0 {
		t.Errorf("Disable should drop AP004 and AP010, got %v", disabled.Diags)
	}
	if disabled.Counts()["AP002"] == 0 {
		t.Errorf("Disable should not drop unrelated analyzers")
	}
}

func TestOptionsMinSeverity(t *testing.T) {
	net := brokenNet()
	res := Run(net, Options{MinSeverity: Error})
	if res.Counts()["AP002"] == 0 {
		t.Errorf("MinSeverity Error should keep AP002, got %v", res.Diags)
	}
	for _, d := range res.Diags {
		if d.Severity < Error {
			t.Errorf("MinSeverity Error leaked %v", d)
		}
	}
}

func TestResultSummaryAndErr(t *testing.T) {
	clean := &Result{}
	if s := clean.Summary(); s != "clean" {
		t.Errorf("empty result Summary() = %q, want clean", s)
	}
	if clean.Err() != nil {
		t.Errorf("empty result Err() should be nil")
	}

	res := Run(brokenNet(), Options{})
	sum := res.Summary()
	if !strings.Contains(sum, "error") || !strings.Contains(sum, "warning") || !strings.Contains(sum, "info") {
		t.Errorf("Summary() = %q, want all three severities mentioned", sum)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "AP002") {
		t.Errorf("Err() = %v, want the AP002 error surfaced", err)
	}

	warnOnly := &Result{Diags: []Diagnostic{{Code: "AP004", Severity: Warning}}}
	if warnOnly.Err() != nil {
		t.Errorf("warnings alone must not produce an error")
	}
}

func TestResultCounts(t *testing.T) {
	res := Run(brokenNet(), Options{})
	if got := res.Count(Error); got != 1 {
		t.Errorf("Count(Error) = %d, want 1", got)
	}
	total := 0
	for _, n := range res.Counts() {
		total += n
	}
	if total != len(res.Diags) {
		t.Errorf("Counts() total %d != %d diagnostics", total, len(res.Diags))
	}
}

func TestDiagnosticJSONRoundTrip(t *testing.T) {
	in := Diagnostic{Code: "AP009", Severity: Error, NFA: 2, State: 41,
		Name: "q", Msg: "too big", Fix: "split the NFA"}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"severity":"error"`) {
		t.Errorf("severity should serialize as text, got %s", b)
	}
	var out Diagnostic
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Errorf("round trip changed the diagnostic: %+v != %+v", out, in)
	}
	var sev Severity
	if err := sev.UnmarshalText([]byte("bogus")); err == nil {
		t.Errorf("UnmarshalText should reject unknown severities")
	}
}

func TestDiagnosticsAreSorted(t *testing.T) {
	res := Run(brokenNet(), Options{})
	for i := 1; i < len(res.Diags); i++ {
		a, b := res.Diags[i-1], res.Diags[i]
		if a.NFA > b.NFA || (a.NFA == b.NFA && a.State > b.State) {
			t.Errorf("diagnostics out of order at %d: %v before %v", i, a, b)
		}
	}
}

func TestValidateMatchesLintErrors(t *testing.T) {
	// The classic Validate contract and the lint error channel must agree:
	// both are wrappers over automata.StructuralProblems.
	nets := []*automata.Network{brokenNet(), automata.NewNetwork(chainNFA("ab"))}
	bad := automata.NewNetwork(chainNFA("ab"))
	bad.States[0].Succ = append(bad.States[0].Succ, 99)
	nets = append(nets, bad)
	for i, net := range nets {
		verr := net.Validate()
		lerr := Run(net, Options{Enable: []string{"AP001", "AP002"}}).Err()
		if (verr == nil) != (lerr == nil) {
			t.Errorf("net %d: Validate()=%v but lint Err()=%v", i, verr, lerr)
		}
	}
}
