// Property tests for the proof-carrying rewriter. The central claim —
// the rewritten network produces a bit-identical report stream — is
// checked by running both networks on the same input and comparing the
// per-position report multisets after mapping rewritten state IDs back
// through OrigOf. Reporting states are never merged or renamed to other
// reporting states, so the comparison is exact.
//
// External test package: the suite test imports workloads, which will
// come to depend on this package.
package rewrite_test

import (
	"reflect"
	"sort"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/oracle"
	"sparseap/internal/rewrite"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
	"sparseap/internal/workloads"
)

// reportsAt groups reports by position, mapping each state through mapID
// (nil = identity) and sorting within each position.
func reportsAt(reps []sim.Report, mapID func(automata.StateID) automata.StateID) map[int64][]automata.StateID {
	m := make(map[int64][]automata.StateID)
	for _, r := range reps {
		s := r.State
		if mapID != nil {
			s = mapID(s)
		}
		m[r.Pos] = append(m[r.Pos], s)
	}
	for _, v := range m {
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
	}
	return m
}

// checkEquivalent asserts the rewritten network reports identically to
// the original on the given input, and that the result's certificates
// verify.
func checkEquivalent(t *testing.T, orig *automata.Network, res *rewrite.Result, input []byte, alphabet symset.Set) {
	t.Helper()
	if err := res.Check(alphabet); err != nil {
		t.Fatalf("certificates failed verification: %v", err)
	}
	want := reportsAt(oracle.Reports[sim.Report](orig, input), nil)
	var got map[int64][]automata.StateID
	if res.Net.Len() == 0 {
		got = map[int64][]automata.StateID{}
	} else {
		got = reportsAt(sim.Run(res.Net, input, sim.Options{CollectReports: true}).Reports,
			func(s automata.StateID) automata.StateID { return res.OrigOf[s] })
	}
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("report streams differ:\n orig: %v\n rewritten: %v\n stats: %+v", want, got, res.Stats)
	}
}

// checkIdempotent asserts a second rewrite of the result is a no-op.
func checkIdempotent(t *testing.T, res *rewrite.Result, opts rewrite.Options) {
	t.Helper()
	again, err := rewrite.Rewrite(res.Net, opts)
	if err != nil {
		t.Fatalf("second rewrite: %v", err)
	}
	if again.Changed() {
		t.Fatalf("rewrite is not idempotent: second run changed the network (stats %+v)", again.Stats)
	}
}

// checkMaps asserts OrigOf/NewID are mutually consistent.
func checkMaps(t *testing.T, orig *automata.Network, res *rewrite.Result) {
	t.Helper()
	if len(res.OrigOf) != res.Net.Len() || len(res.NewID) != orig.Len() {
		t.Fatalf("map lengths: OrigOf %d (want %d), NewID %d (want %d)",
			len(res.OrigOf), res.Net.Len(), len(res.NewID), orig.Len())
	}
	for k, o := range res.OrigOf {
		if o < 0 || int(o) >= orig.Len() {
			t.Fatalf("OrigOf[%d] = %d out of range", k, o)
		}
		if res.NewID[o] != automata.StateID(k) {
			t.Fatalf("NewID[OrigOf[%d]] = %d, want %d (representatives must round-trip)", k, res.NewID[o], k)
		}
	}
	for o, k := range res.NewID {
		if k == automata.None {
			continue
		}
		if int(k) >= res.Net.Len() {
			t.Fatalf("NewID[%d] = %d out of range", o, k)
		}
		// A surviving state maps to a state of the same match/start kind
		// class; reporting states map to themselves.
		if orig.States[o].Report && res.OrigOf[k] != automata.StateID(o) {
			t.Fatalf("reporting state %d renamed to %d", o, res.OrigOf[k])
		}
	}
}

func mustRewrite(t *testing.T, net *automata.Network, opts rewrite.Options) *rewrite.Result {
	t.Helper()
	res, err := rewrite.Rewrite(net, opts)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	return res
}

func TestRemoveUnreachableAndDead(t *testing.T) {
	// start(a) -> mid(∅) -> rep(c): mid and rep are unreachable, and the
	// start is then dead — everything goes.
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	s1 := m.Add(symset.Empty(), automata.StartNone, false)
	s2 := m.Add(symset.Single('c'), automata.StartNone, true)
	m.Connect(s0, s1)
	m.Connect(s1, s2)
	net := automata.NewNetwork(m)
	res := mustRewrite(t, net, rewrite.Options{Capacity: 3000})
	if res.Net.Len() != 0 {
		t.Fatalf("expected empty network, got %d states", res.Net.Len())
	}
	if res.Stats.Unreachable != 2 || res.Stats.Dead != 1 {
		t.Fatalf("stats: %+v, want 2 unreachable + 1 dead", res.Stats)
	}
	checkEquivalent(t, net, res, []byte("abcabc"), symset.Set{})
	checkIdempotent(t, res, rewrite.Options{Capacity: 3000})
}

func TestPruneDuplicateAndAllInputEdges(t *testing.T) {
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	s1 := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(s0, s1)
	m.Connect(s0, s1) // duplicate
	m.Connect(s1, s0) // edge into an all-input start: a no-op
	net := automata.NewNetwork(m)
	res := mustRewrite(t, net, rewrite.Options{Capacity: 3000})
	if res.Stats.EdgesPruned != 2 {
		t.Fatalf("EdgesPruned = %d, want 2 (one duplicate, one all-input target)", res.Stats.EdgesPruned)
	}
	if res.Stats.EdgesAfter != 1 {
		t.Fatalf("EdgesAfter = %d, want 1", res.Stats.EdgesAfter)
	}
	checkEquivalent(t, net, res, []byte("ababab"), symset.Set{})
	checkIdempotent(t, res, rewrite.Options{Capacity: 3000})
}

func TestSubsumedSibling(t *testing.T) {
	// Two children of one start; u matches a subset of v and its only
	// successor is shared with v, so u is subsumed. A reporting tail
	// keeps everything live.
	m := automata.NewNFA()
	s0 := m.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	u := m.Add(symset.Single('b'), automata.StartNone, false)
	v := m.Add(symset.Range('a', 'c'), automata.StartNone, false)
	tail := m.Add(symset.Single('x'), automata.StartNone, true)
	m.Connect(s0, u)
	m.Connect(s0, v)
	m.Connect(u, tail)
	m.Connect(v, tail)
	net := automata.NewNetwork(m)
	res := mustRewrite(t, net, rewrite.Options{Capacity: 3000})
	if res.Stats.Subsumed != 1 {
		t.Fatalf("Subsumed = %d, want 1 (stats %+v)", res.Stats.Subsumed, res.Stats)
	}
	if res.NewID[u] != automata.None {
		t.Fatalf("subsumed state %d should be deleted", u)
	}
	checkEquivalent(t, net, res, []byte("abxbxcx"), symset.Set{})
	checkIdempotent(t, res, rewrite.Options{Capacity: 3000})
}

// twoNFAStartFold builds two NFAs with identical all-input starts and
// identical two-state chains, differing only in the reporting tail.
func twoNFAStartFold() *automata.Network {
	build := func(tailSym byte) *automata.NFA {
		m := automata.NewNFA()
		s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
		mid := m.Add(symset.Single('b'), automata.StartNone, false)
		tail := m.Add(symset.Single(tailSym), automata.StartNone, true)
		m.Connect(s0, mid)
		m.Connect(mid, tail)
		return m
	}
	return automata.NewNetwork(build('x'), build('y'))
}

func TestStartFoldingAcrossNFAs(t *testing.T) {
	net := twoNFAStartFold()
	res := mustRewrite(t, net, rewrite.Options{Capacity: 3000})
	// The two starts fold (identical match, all-input), which makes the
	// two mids bisimilar too: 6 states become 4, one fused NFA.
	if res.Stats.StartsFolded != 1 {
		t.Fatalf("StartsFolded = %d, want 1 (stats %+v)", res.Stats.StartsFolded, res.Stats)
	}
	if res.Net.Len() != 4 || res.Net.NumNFAs() != 1 {
		t.Fatalf("got %d states in %d NFAs, want 4 in 1 (stats %+v)", res.Net.Len(), res.Net.NumNFAs(), res.Stats)
	}
	checkEquivalent(t, net, res, []byte("abxabyab"), symset.Set{})
	checkIdempotent(t, res, rewrite.Options{Capacity: 3000})
	checkMaps(t, net, res)
}

func TestCapacityGuardDemotes(t *testing.T) {
	net := twoNFAStartFold()
	// A fused component would have 4 states; capacity 3 forbids it.
	res := mustRewrite(t, net, rewrite.Options{Capacity: 3})
	if res.Stats.DemotedClasses == 0 {
		t.Fatalf("expected demoted classes under capacity 3 (stats %+v)", res.Stats)
	}
	if res.Net.NumNFAs() != 2 {
		t.Fatalf("NFAs = %d, want 2 (merge must be reverted)", res.Net.NumNFAs())
	}
	for i := 0; i < res.Net.NumNFAs(); i++ {
		if res.Net.NFASize(i) > 3 {
			t.Fatalf("NFA %d has %d states, exceeds capacity 3", i, res.Net.NFASize(i))
		}
	}
	checkEquivalent(t, net, res, []byte("abxabyab"), symset.Set{})
	checkIdempotent(t, res, rewrite.Options{Capacity: 3})
}

func TestOversizedNFAFitsAfterRewrite(t *testing.T) {
	// Five identical chains in one NFA, joined by one shared reporting
	// sink: 16 states against capacity 8. Merging folds the chains to
	// one, which fits, so the guard must let the merge through.
	m := automata.NewNFA()
	for c := 0; c < 5; c++ {
		s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
		s1 := m.Add(symset.Single('b'), automata.StartNone, false)
		s2 := m.Add(symset.Single('c'), automata.StartNone, false)
		m.Connect(s0, s1)
		m.Connect(s1, s2)
	}
	rep := m.Add(symset.Single('d'), automata.StartNone, true)
	for c := 0; c < 5; c++ {
		m.Connect(automata.StateID(c*3+2), rep)
	}
	net := automata.NewNetwork(m)
	opts := rewrite.Options{Capacity: 8}
	res := mustRewrite(t, net, opts)
	if d := res.Stats.PerNFA[0]; d.StatesBefore != 16 || d.StatesAfter > 8 {
		t.Fatalf("NFA 0 went %d -> %d states, want 16 -> at most 8 (stats %+v)", d.StatesBefore, d.StatesAfter, res.Stats)
	}
	if res.Stats.DemotedClasses != 0 {
		t.Fatalf("DemotedClasses = %d, want 0: the folded NFA fits", res.Stats.DemotedClasses)
	}
	checkEquivalent(t, net, res, []byte("abcdabcabcd"), symset.Set{})
	checkIdempotent(t, res, opts)
	checkMaps(t, net, res)
}

func TestAlphabetRestrictedRewrite(t *testing.T) {
	// One branch matches only '!' which is outside the assumed alphabet;
	// it must vanish, and equivalence holds for inputs inside the
	// alphabet.
	m := automata.NewNFA()
	s0 := m.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	bad := m.Add(symset.Single('!'), automata.StartNone, false)
	badTail := m.Add(symset.Single('q'), automata.StartNone, true)
	good := m.Add(symset.Single('g'), automata.StartNone, true)
	m.Connect(s0, bad)
	m.Connect(bad, badTail)
	m.Connect(s0, good)
	net := automata.NewNetwork(m)
	alpha := symset.Range('a', 'z')
	opts := rewrite.Options{Alphabet: alpha, Capacity: 3000}
	res := mustRewrite(t, net, opts)
	if res.Net.Len() != 2 {
		t.Fatalf("got %d states, want 2 (stats %+v)", res.Net.Len(), res.Stats)
	}
	checkEquivalent(t, net, res, []byte("agzgqg"), alpha)
	checkIdempotent(t, res, opts)
}

func TestNoStartNFADeleted(t *testing.T) {
	withStart := automata.NewNFA()
	s0 := withStart.Add(symset.Single('a'), automata.StartAllInput, true)
	_ = s0
	orphan := automata.NewNFA()
	o0 := orphan.Add(symset.Single('b'), automata.StartNone, false)
	o1 := orphan.Add(symset.Single('c'), automata.StartNone, true)
	orphan.Connect(o0, o1)
	net := automata.NewNetwork(withStart, orphan)
	res := mustRewrite(t, net, rewrite.Options{Capacity: 3000})
	if res.Net.NumNFAs() != 1 || res.Net.Len() != 1 {
		t.Fatalf("got %d states in %d NFAs, want the orphan NFA deleted", res.Net.Len(), res.Net.NumNFAs())
	}
	checkEquivalent(t, net, res, []byte("abcabc"), symset.Set{})
}

func TestEmptyNetwork(t *testing.T) {
	net := &automata.Network{}
	res := mustRewrite(t, net, rewrite.Options{Capacity: 3000})
	if res.Changed() || res.Net.Len() != 0 {
		t.Fatalf("empty network must pass through unchanged")
	}
}

func TestCheckCertsRejectsBogus(t *testing.T) {
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	s1 := m.Add(symset.Single('b'), automata.StartNone, true)
	s2 := m.Add(symset.Single('c'), automata.StartNone, true)
	m.Connect(s0, s1)
	m.Connect(s0, s2)
	net := automata.NewNetwork(m)

	cases := []struct {
		name  string
		certs []rewrite.Cert
	}{
		{"live state claimed unreachable", []rewrite.Cert{
			{Kind: rewrite.CertUnreachable, State: s1}}},
		{"reporting state claimed dead", []rewrite.Cert{
			{Kind: rewrite.CertDead, State: s1}}},
		{"firing chain claimed dead", []rewrite.Cert{
			{Kind: rewrite.CertDead, State: s0}}},
		{"nonexistent edge", []rewrite.Cert{
			{Kind: rewrite.CertRedundantEdge, From: s1, To: s2}}},
		{"single listing claimed duplicate", []rewrite.Cert{
			{Kind: rewrite.CertRedundantEdge, From: s0, To: s1}}},
		{"report subsumption", []rewrite.Cert{
			{Kind: rewrite.CertSubsumed, State: s1, Into: s2}}},
		{"reporting states merged", []rewrite.Cert{
			{Kind: rewrite.CertBisimClass, Class: []automata.StateID{s1, s2}}}},
		{"unstable class", []rewrite.Cert{
			{Kind: rewrite.CertBisimClass, Class: []automata.StateID{s0, s1}}}},
	}
	for _, tc := range cases {
		if err := rewrite.CheckCerts(net, tc.certs, symset.Set{}); err == nil {
			t.Errorf("%s: CheckCerts accepted a bogus certificate", tc.name)
		}
	}
}

func TestCheckCertsAcceptsValid(t *testing.T) {
	// Two identical non-reporting siblings with a shared reporting tail:
	// a valid 2-member class.
	m := automata.NewNFA()
	s0 := m.Add(symset.Single('a'), automata.StartAllInput, false)
	u := m.Add(symset.Single('b'), automata.StartNone, false)
	v := m.Add(symset.Single('b'), automata.StartNone, false)
	tail := m.Add(symset.Single('c'), automata.StartNone, true)
	m.Connect(s0, u)
	m.Connect(s0, v)
	m.Connect(u, tail)
	m.Connect(v, tail)
	net := automata.NewNetwork(m)
	certs := []rewrite.Cert{{Kind: rewrite.CertBisimClass, Class: []automata.StateID{u, v}}}
	if err := rewrite.CheckCerts(net, certs, symset.Set{}); err != nil {
		t.Fatalf("valid class rejected: %v", err)
	}
}

// suiteConfig is the test-scale workload configuration: small enough for
// the full 26-app sweep to run in seconds, large enough that every
// generator's structure survives scaling.
var suiteConfig = workloads.Config{Divisor: 64, InputLen: 4096, Seed: 1}

func TestSuiteEquivalence(t *testing.T) {
	apps, err := workloads.BuildAll(suiteConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		app := app
		t.Run(app.Abbr, func(t *testing.T) {
			t.Parallel()
			res := mustRewrite(t, app.Net, rewrite.Options{Capacity: 3000})
			checkMaps(t, app.Net, res)
			if res.Net.Len() > 0 {
				if err := res.Net.Validate(); err != nil {
					t.Fatalf("rewritten network invalid: %v", err)
				}
			}
			checkEquivalent(t, app.Net, res, app.Input, symset.Set{})
			checkIdempotent(t, res, rewrite.Options{Capacity: 3000})
		})
	}
}
