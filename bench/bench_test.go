package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"sparseap/internal/ap"
	"sparseap/internal/sim"
)

// smokeConfig is the whole ledger at toy scale: 1/64 of Table II, 8 KiB
// inputs, 300 ms windows.
func smokeConfig(t *testing.T, seed int64) config {
	return config{
		seed: seed, window: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
		setups: 1, divisor: 64, inputLen: 8 << 10, scratch: t.TempDir(),
	}
}

// exactCounts are the per-layer metrics that depend on the seed alone:
// simulated cycles, report counts and byte footprints.
var exactCounts = []string{
	"sim.image_bytes", "sim.engine_bytes", "sim.reports", "sim.snapshot_bytes", "sim.dense_step_share",
	"hotcold.hot_share", "ap.baseline_cycles",
	"spap.cycles", "spap.intermediate_reports", "spap.guard_trips", "spap.speedup",
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := specJSON(runSeconds); !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the program's tables; regenerate it with `go run . --spec`:\n%s", got)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v is above 0.25", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s"
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
	if !setup || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Error("BENCHMARK.json is outside the contract's limits")
	}
}

// checkEmitted asserts r carries exactly the catalogue's metrics, each
// finite and in its declared unit.
func checkEmitted(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is missing", r.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", r.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s is %v", r.Workload, d.Name, m.Value)
		}
	}
	if r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("%s: %d attempted, %d failed", r.Workload, r.Attempted, r.Failed)
	}
	if _, err := json.Marshal(json.RawMessage(contractLine(r))); err != nil {
		t.Errorf("%s: contract line: %v", r.Workload, err)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	cfg := smokeConfig(t, 1)
	if err := checkLimits(cfg); err != nil {
		t.Fatal(err)
	}
	untraced, err := runAll(io.Discard, workloadSet, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range untraced {
		checkEmitted(t, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", r.Workload, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}
	traced, err := runAll(io.Discard, workloadSet, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range traced {
		checkEmitted(t, r, perLayer)
		if len(r.spans) == 0 {
			t.Errorf("%s: traced run recorded no span", r.Workload)
		}
	}
	if len(untraced) != len(workloadSet) || len(traced) != len(workloadSet) {
		t.Fatalf("%d untraced and %d traced results for %d workloads", len(untraced), len(traced), len(workloadSet))
	}

	// Exact counts repeat bit for bit on the same seed and move with it.
	wl := workloadSet[0]
	again, err := runWorkload(wl, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	other, err := runWorkload(wl, smokeConfig(t, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, name := range exactCounts {
		a, b, c := traced[0].Metrics[name].Value, again.Metrics[name].Value, other.Metrics[name].Value
		if a != b {
			t.Errorf("%s: %s read %v then %v on one seed", wl.Name, name, a, b)
		}
		moved = moved || a != c
	}
	if !moved {
		t.Errorf("%s: no exact count differs between seed 1 and seed 2", wl.Name)
	}
}

// A reference that differs from the program's output in one report must
// turn every operation on that app into a failed one, on both paths.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	cfg := smokeConfig(t, 1)
	corrupt := func(wl workload) []appCase {
		cases, err := buildCases(wl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			if len(cases[i].want) > 0 {
				cases[i].want = append([]sim.Report(nil), cases[i].want...)
				cases[i].want[len(cases[i].want)/2].State++
				return cases
			}
		}
		t.Fatalf("%s: no app reports", wl.Name)
		return nil
	}

	offline := workloadSet[0]
	cases := corrupt(offline)
	nets, _, err := freshNets(offline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := setupOffline(cases, nets, ap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if w := runOfflineWindow(apps, ap.DefaultConfig(), 0, nil); w.failed != 2 {
		t.Errorf("offline: %d failed calls of %d, want the corrupted app's 2", w.failed, w.attempted)
	}

	for _, wl := range workloadSet {
		if wl.kind == kindOffline || wl.replicated {
			continue
		}
		nets, _, err := freshNets(wl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dirs := []string{t.TempDir(), t.TempDir()}
		if c, err := setupServe(wl, cfg, corrupt(wl), nets, dirs, nil); err == nil {
			c.stop()
			t.Errorf("%s: a corrupted reference passed the first operation's verification", wl.Name)
		}
	}
}
