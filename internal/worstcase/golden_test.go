package worstcase_test

// Golden bounds over the 26-application suite at divisor 32. The file was
// recorded on the per-state-allocating analysis and must not change when
// the way the bounds are computed is restructured: every bound, peak
// symbol and per-NFA cap is pinned, under the full analysis and under
// NoGram (the configuration serve admission runs). The full analysis runs
// on a 1/64 layer-3 budget, which keeps the sweep near a second while
// still completing levels on the smaller apps.
//
// Regenerate with: go test ./internal/worstcase -run TestGoldenWorstCase -update
// (only when the analysis itself is meant to change).

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparseap/internal/workloads"
	"sparseap/internal/worstcase"
)

var update = flag.Bool("update", false, "rewrite testdata/worstcase_golden.txt with current bounds")

// intsDigest hashes a per-NFA table.
func intsDigest(xs []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func boundsLine(a *worstcase.Analysis) string {
	return fmt.Sprintf("frontier=%d bound1=%d pair=%d start=%d trackable=%d peak=%d report=%d reportsym=%d clique=%s nfa=%s",
		a.FrontierBound, a.Bound1, a.BoundPair, a.StartWidth, a.Trackable, a.PeakSymbol,
		a.ReportBound, a.ReportSymbol, intsDigest(a.CliqueCap), intsDigest(a.NFABound))
}

func TestGoldenWorstCase(t *testing.T) {
	var lines []string
	for _, abbr := range workloads.Names() {
		app, err := workloads.Build(abbr, workloads.Config{Divisor: 32, InputLen: 4096})
		if err != nil {
			t.Fatal(err)
		}
		full := worstcase.Analyze(app.Net, worstcase.Config{GramBudget: 1 << 24})
		noGram := worstcase.Analyze(app.Net, worstcase.Config{Facts: full.Facts, NoGram: true})
		lines = append(lines, fmt.Sprintf("%s states=%d | %s | nogram %s",
			abbr, app.Net.Len(), boundsLine(full), boundsLine(noGram)))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "worstcase_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden file has %d lines, suite has %d apps", len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("worst-case bounds changed:\n got  %s\n want %s", l, wantLines[i])
		}
	}
}

// analysisSink keeps the benchmarked call from being optimized away.
var analysisSink *worstcase.Analysis

// BenchmarkWorstCase times the bound serve admission computes (NoGram) on
// the serve panels' apps at the ledger's scale.
func BenchmarkWorstCase(b *testing.B) {
	for _, abbr := range []string{"HM", "PEN", "TCP", "CAV", "Snort", "DS06", "LV"} {
		app, err := workloads.Build(abbr, workloads.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(abbr, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysisSink = worstcase.Analyze(app.Net, worstcase.Config{NoGram: true})
			}
		})
	}
}
