package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/symset"
	"sparseap/internal/workloads"
)

// parsed registers spec on a fresh flag set, as Command does on the
// command line, and parses args.
func parsed(spec Spec, args ...string) (*Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := register("test", fs, spec)
	return f, f.parse(args)
}

// Every spec a command registers: the scale checks hold in each.
var (
	checks = Spec{Sources: App | All | ANML | In | Regex, Scale: true, Capacity: Checks, Lax: true}
	model  = Spec{Sources: App | ANML | In, Scale: true, Capacity: Model, NeedInput: true}
	scale  = Spec{Scale: true}
)

// TestCapacityRule: without -capacity the half-core is ap.Scaled of the
// divisor, the default scale's being ap.DefaultConfig; an explicit
// -capacity wins, and where it only bounds a check (aplint, apopt, apgen)
// 0 and -1 are kept, to turn the check off.
func TestCapacityRule(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 3000},
		{[]string{"-divisor", "1"}, 24000},
		{[]string{"-divisor", "64"}, 375},
		{[]string{"-divisor", "64", "-capacity", "3000"}, 3000},
		{[]string{"-capacity", "0"}, 0},
		{[]string{"-divisor", "1", "-capacity", "-1"}, -1},
	} {
		f, err := parsed(checks, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if f.AP.Capacity != tc.want {
			t.Errorf("%v: capacity %d, want %d", tc.args, f.AP.Capacity, tc.want)
		}
	}
	if f, _ := parsed(checks); f.AP != ap.DefaultConfig() {
		t.Errorf("default scale: %+v, want ap.DefaultConfig()", f.AP)
	}
	if f, _ := parsed(scale, "-divisor", "4"); f.AP != ap.Scaled(4) {
		t.Errorf("-divisor 4 without -capacity: %+v, want ap.Scaled(4)", f.AP)
	}
	// Where the AP model runs (apsim, apbench) the half-core must hold
	// something.
	for _, c := range []string{"0", "-1"} {
		if _, err := parsed(model, "-capacity", c); err == nil || !strings.Contains(err.Error(), "-capacity must be positive") {
			t.Errorf("model -capacity %s: error %v, want a usage error", c, err)
		}
	}
	if f, err := parsed(model, "-capacity", "500"); err != nil || f.AP.Capacity != 500 || f.AP.Validate() != nil {
		t.Errorf("model -capacity 500: %+v, %v", f.AP, err)
	}
}

// TestRejectsBadDivisor: a divisor <= 0 once printed a 1-NFA app (-8) or
// quietly meant 8 (0); every spec with scale flags refuses it.
func TestRejectsBadDivisor(t *testing.T) {
	for _, spec := range []Spec{checks, model, scale} {
		for _, d := range []string{"0", "-8"} {
			if _, err := parsed(spec, "-divisor", d); err == nil || !strings.Contains(err.Error(), "-divisor must be positive") {
				t.Errorf("-divisor %s: error %v, want a usage error", d, err)
			}
		}
	}
}

// TestRejectsBadInput: likewise an input length <= 0, which generation
// once read as the default 131072.
func TestRejectsBadInput(t *testing.T) {
	for _, spec := range []Spec{checks, model, scale} {
		for _, n := range []string{"0", "-1"} {
			if _, err := parsed(spec, "-input", n); err == nil || !strings.Contains(err.Error(), "-input must be positive") {
				t.Errorf("-input %s: error %v, want a usage error", n, err)
			}
		}
	}
}

// TestTargets covers the sources: -all in Table II order at the parsed
// scale, an unknown -app naming the known ones, -anml with and without
// its input, lax and strict reads, repeated -regex, and no source at all.
func TestTargets(t *testing.T) {
	targets := func(spec Spec, args ...string) ([]Target, error) {
		t.Helper()
		f, err := parsed(spec, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return f.targets()
	}

	all, err := targets(checks, "-all", "-divisor", "64", "-input", "512")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tg := range all {
		names = append(names, tg.Name)
		if tg.App == nil || len(tg.Input) != 512 {
			t.Errorf("%s: app %v, %d input symbols, want the generated app on 512", tg.Name, tg.App != nil, len(tg.Input))
		}
	}
	if !slices.Equal(names, workloads.Names()) || names[0] != "CAV4k" || names[len(names)-1] != "Bro217" {
		t.Errorf("-all yields %v, want Table II order %v", names, workloads.Names())
	}

	_, err = targets(checks, "-app", "Nope")
	if err == nil || !strings.Contains(err.Error(), `"Nope"`) || !strings.Contains(err.Error(), "Bro217") {
		t.Errorf("unknown -app: error %v, want it to list the known names", err)
	}

	dir := t.TempDir()
	broken := filepath.Join(dir, "broken.anml") // no start state
	in := filepath.Join(dir, "in.bin")
	if err := os.WriteFile(broken, []byte(`<anml><automata-network>`+
		`<state-transition-element id="a" symbol-set="a"><report-on-match/></state-transition-element>`+
		`</automata-network></anml>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, []byte("aaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := targets(model, "-anml", broken); err == nil || !strings.Contains(err.Error(), "-anml requires -in") {
		t.Errorf("-anml without -in where the run needs input: error %v", err)
	}
	if _, err := targets(model, "-anml", broken, "-in", in); err == nil {
		t.Error("strict read accepted a network without start states")
	}
	lax, err := targets(checks, "-anml", broken, "-in", in)
	if err != nil || lax[0].Name != broken || lax[0].Net.Len() != 1 || string(lax[0].Input) != "aaa" || lax[0].App != nil {
		t.Errorf("lax read: %+v, %v", lax, err)
	}

	re, err := targets(checks, "-regex", "ab", "-regex", "c[de]")
	if err != nil || re[0].Name != "regex" || re[0].Net.NumNFAs() != 2 {
		t.Errorf("two -regex: %+v, %v", re, err)
	}

	if _, err := targets(checks); err == nil || err.Error() != "need -app, -all, -anml or -regex" {
		t.Errorf("no source: error %v", err)
	}
	if _, err := targets(model); err == nil || err.Error() != "need -app or -anml" {
		t.Errorf("no source: error %v", err)
	}
}

// TestAlphabet: a bare class gains its brackets, a bracketed, single or
// escaped one is kept, and "" is the empty set (all 256 symbols).
func TestAlphabet(t *testing.T) {
	for spec, want := range map[string]string{"a-z": "[a-z]", "[a-z]": "[a-z]", "x": "x", `\d`: `\d`, "*": "*"} {
		got, err := Alphabet(spec)
		wantSet, werr := symset.Parse(want)
		if err != nil || werr != nil || got != wantSet {
			t.Errorf("Alphabet(%q) = %v, %v; want symset.Parse(%q)", spec, got, err, want)
		}
	}
	if got, err := Alphabet(""); err != nil || !got.IsEmpty() {
		t.Errorf(`Alphabet("") = %v, %v; want the empty set`, got, err)
	}
}
