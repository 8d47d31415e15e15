package hotcold_test

// Golden digests of the static partition over the 26-application suite.
// static_golden.txt was recorded on the quadratic-sort implementation and
// networks_golden.txt on the per-state-allocating network build; neither
// may change when the analyses behind StrategyStatic or the way they
// materialize are restructured: the digests cover every float of the
// hotness analysis and every field of both sub-networks bit for bit.
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
	"slices"
	"strings"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/hotcold"
	"sparseap/internal/hotness"
	"sparseap/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata with current digests")

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

func goldenLines(t *testing.T, abbr string) (static, networks string) {
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
			abbr, net.Len(), net.NumNFAs(), a.Iterations, p.PredHot.Count(), hot, part),
		fmt.Sprintf("%s hot=%s cold=%s maps=%s intermediate=%d",
			abbr, networkDigest(p.Hot), networkDigest(p.Cold), mapsDigest(p), p.NumIntermediate)
}

// networkDigest covers a materialized sub-network: every state's fields
// and successor list, NFAOf and Offsets.
func networkDigest(n *automata.Network) string {
	return newDigest(func(w func(uint64)) {
		for _, s := range n.States {
			for _, m := range s.Match {
				w(m)
			}
			w(uint64(s.Start))
			if s.Report {
				w(1)
			} else {
				w(0)
			}
			w(uint64(len(s.Succ)))
			for _, v := range s.Succ {
				w(uint64(v))
			}
			w(uint64(len(s.Name)))
			for i := 0; i < len(s.Name); i++ {
				w(uint64(s.Name[i]))
			}
		}
		for _, nfa := range n.NFAOf {
			w(uint64(nfa))
		}
		for _, o := range n.Offsets {
			w(uint64(o))
		}
	})
}

// mapsDigest covers the translation tables between the sub-networks and
// the original: HotOrig, ColdOrig, ColdID and Intermediate by key.
func mapsDigest(p *hotcold.Partition) string {
	return newDigest(func(w func(uint64)) {
		for _, ids := range [][]automata.StateID{p.HotOrig, p.ColdOrig, p.ColdID} {
			w(uint64(len(ids)))
			for _, id := range ids {
				w(uint64(id))
			}
		}
		keys := make([]automata.StateID, 0, len(p.Intermediate))
		for k := range p.Intermediate {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			w(uint64(k))
			w(uint64(p.Intermediate[k]))
		}
	})
}

// TestGoldenStaticPartition holds the static partition to two files:
// static_golden.txt digests the analysis (hotness floats, K, PredHot) and
// networks_golden.txt the partition it materializes (both sub-networks
// and every translation table).
func TestGoldenStaticPartition(t *testing.T) {
	var static, networks []string
	for _, abbr := range workloads.Names() {
		s, n := goldenLines(t, abbr)
		static = append(static, s)
		networks = append(networks, n)
	}
	checkGolden(t, "static_golden.txt", static)
	checkGolden(t, "networks_golden.txt", networks)
}

// checkGolden compares lines against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name)
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
			t.Errorf("static partition changed (%s):\n got  %s\n want %s", name, l, w)
		}
	}
	if len(wantLines) > len(lines) {
		t.Errorf("%s has %d lines, suite has %d apps", name, len(wantLines), len(lines))
	}
}
