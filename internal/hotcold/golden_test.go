package hotcold_test

// Golden digests of the static partition over the 26-application suite.
// The file was recorded on the quadratic-sort implementation and must not
// change when the analyses behind StrategyStatic are restructured: the
// digests cover every float of the hotness analysis bit for bit.
//
// Regenerate with: go test ./internal/hotcold -run TestGoldenStaticPartition -update
// (only when the model itself is meant to change).

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparseap/internal/hotcold"
	"sparseap/internal/hotness"
	"sparseap/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/static_golden.txt with current digests")

// goldenDivisor keeps the largest application (CAV4k) under 30 k states so
// the sweep stays a few seconds even on a quadratic implementation.
const goldenDivisor = 32

// newDigest hashes the 64-bit words put emits.
func newDigest(put func(w func(uint64))) string {
	h := sha256.New()
	var buf [8]byte
	put(func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func goldenLine(t *testing.T, abbr string) string {
	t.Helper()
	app, err := workloads.Build(abbr, workloads.Config{Divisor: goldenDivisor, InputLen: 4096})
	if err != nil {
		t.Fatal(err)
	}
	net := app.Net
	a := hotness.Analyze(net, hotness.Config{})
	hot := newDigest(func(w func(uint64)) {
		for _, k := range a.Layers() {
			w(uint64(k))
		}
		for _, v := range a.Activity {
			w(math.Float64bits(v))
		}
		for _, v := range a.Score {
			w(math.Float64bits(v))
		}
	})
	p, err := hotcold.BuildWithStrategy(net, hotcold.StrategyStatic, hotcold.StrategyInput{},
		hotcold.Options{Capacity: 24000 / goldenDivisor})
	if err != nil {
		t.Fatal(err)
	}
	part := newDigest(func(w func(uint64)) {
		for _, k := range p.K {
			w(uint64(k))
		}
		for _, word := range p.PredHot.Words() {
			w(word)
		}
	})
	return fmt.Sprintf("%s states=%d nfas=%d iterations=%d hot=%d hotness=%s partition=%s",
		abbr, net.Len(), net.NumNFAs(), a.Iterations, p.PredHot.Count(), hot, part)
}

func TestGoldenStaticPartition(t *testing.T) {
	var lines []string
	for _, abbr := range workloads.Names() {
		lines = append(lines, goldenLine(t, abbr))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "static_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, l := range lines {
		if i >= len(wantLines) || l != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("static partition changed:\n got  %s\n want %s", l, w)
		}
	}
	if len(wantLines) > len(lines) {
		t.Errorf("golden file has %d lines, suite has %d apps", len(wantLines), len(lines))
	}
}
