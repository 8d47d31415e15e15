package hotcold

import (
	"math"
	"runtime"
	"testing"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/hotness"
	"sparseap/internal/symset"
)

// manySmallNFAs builds states/10 ten-state chains — the shape of the rule
// suites (Snort, ClamAV), where component count tracks state count and a
// per-component quadratic step dominates everything else.
func manySmallNFAs(states int) *automata.Network {
	nfas := make([]*automata.NFA, 0, states/10)
	for i := 0; i < states/10; i++ {
		m := automata.NewNFA()
		prev := m.Add(symset.Single(byte(i)), automata.StartAllInput, false)
		for d := 1; d < 10; d++ {
			s := m.Add(symset.Range('a', byte('a'+(i+d)%26)), automata.StartNone, d == 9)
			m.Connect(prev, s)
			prev = s
		}
		nfas = append(nfas, m)
	}
	return automata.NewNetwork(nfas...)
}

// staticPartitionOnce is the set-up path the ledger times as
// hotcold.partition_ms plus a standalone analysis.
func staticPartitionOnce(tb testing.TB, net *automata.Network) {
	hotness.Analyze(net, hotness.Config{})
	if _, err := BuildWithStrategy(net, StrategyStatic, StrategyInput{}, Options{Capacity: 3000}); err != nil {
		tb.Fatal(err)
	}
}

// TestStaticPartitionScalesLinearly guards the O(states + edges) claim with
// a ratio, so a slow host cannot flake it: 16× the states may cost at most
// 4× the time per state. A quadratic step anywhere on the path reads ~16×.
func TestStaticPartitionScalesLinearly(t *testing.T) {
	// Best of five, each from a collected heap: the small size runs in a
	// few milliseconds, where one GC cycle or a cold cache is the signal.
	perState := func(states int) float64 {
		net := manySmallNFAs(states)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			runtime.GC()
			t0 := time.Now()
			staticPartitionOnce(t, net)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return float64(best) / float64(states)
	}
	const n = 5_000
	small, large := perState(n), perState(16*n)
	t.Logf("%d states: %.0f ns/state; %d states: %.0f ns/state (×%.2f)", n, small, 16*n, large, large/small)
	if large >= 4*small {
		t.Errorf("static partition is superlinear: %.0f ns/state at %d states, %.0f ns/state at %d", small, n, large, 16*n)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	for _, c := range []struct {
		name   string
		states int
	}{{"10k", 10_000}, {"160k", 160_000}} {
		b.Run(c.name, func(b *testing.B) {
			net := manySmallNFAs(c.states)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				staticPartitionOnce(b, net)
			}
		})
	}
}
