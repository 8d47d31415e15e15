package sim

import (
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// benchAlpha is the alphabet size both benchmark topologies use.
const benchAlpha = 64

// denseBenchNet builds the dense-frontier regime the hot fragments of
// SpAP partitioning create: one all-input hub per alphabet symbol fans
// out to every leaf, so each cycle re-enables the whole leaf population
// (frontier ≈ n) while only 1/benchAlpha of it activates. The sparse walk
// pays a match test per enabled leaf; the dense pass covers 64 of them
// per word op.
func denseBenchNet(leaves int) *automata.Network {
	m := automata.NewNFA()
	hubs := make([]automata.StateID, benchAlpha)
	for i := range hubs {
		hubs[i] = m.Add(symset.Single(byte(i)), automata.StartAllInput, false)
	}
	for l := 0; l < leaves; l++ {
		leaf := m.Add(symset.Single(byte(l%benchAlpha)), automata.StartNone, l%997 == 0)
		for _, h := range hubs {
			m.Connect(h, leaf)
		}
	}
	return automata.NewNetwork(m)
}

// sparseBenchNet builds the cold regime the paper's Table I workloads
// live in: many independent chains whose starts each match one rare
// symbol, so only a handful of states are ever enabled per cycle.
func sparseBenchNet(chains, depth int) *automata.Network {
	ms := make([]*automata.NFA, chains)
	for c := range ms {
		m := automata.NewNFA()
		prev := m.Add(symset.Single(byte(c%benchAlpha)), automata.StartAllInput, false)
		for d := 1; d < depth; d++ {
			nxt := m.Add(symset.Single(byte((c+d)%benchAlpha)), automata.StartNone, d == depth-1)
			m.Connect(prev, nxt)
			prev = nxt
		}
		ms[c] = m
	}
	return automata.NewNetwork(ms...)
}

// chainBenchNet builds the shape of the suite's busiest applications
// (Brill, Pro): chains of s → s+1 edges behind all-input starts, every
// state matching half the alphabet, so half the starts activate on each
// symbol and an activation survives one more state with probability 1/2 —
// about one enabled state per chain of 20, a frontier of n/20 spread
// three or four to a bitmap word. Too wide for the sparse walk, far too
// thin for a per-state scatter to amortize the word scan.
func chainBenchNet(chains, depth int) *automata.Network {
	ms := make([]*automata.NFA, chains)
	for c := range ms {
		m := automata.NewNFA()
		var prev automata.StateID
		for d := 0; d < depth; d++ {
			start := automata.StartNone
			if d == 0 {
				start = automata.StartAllInput
			}
			var set symset.Set
			for k := 0; k < benchAlpha/2; k++ {
				set.Add(byte((c*7 + d*13 + k) % benchAlpha))
			}
			s := m.Add(set, start, d == depth-1)
			if d > 0 {
				m.Connect(prev, s)
			}
			prev = s
		}
		ms[c] = m
	}
	return automata.NewNetwork(ms...)
}

// startBenchNet builds the shape of the cold panel's rule sets (Snort, DS):
// chains behind all-input starts that each wait for one byte of the full
// 256-symbol alphabet, plus a few starts on character classes (every
// fourth byte, 64 of 256), and interior states that wait for one byte
// each. With 2048 chains and 24 classes, 8 + 6 starts fire on a symbol and
// one in 256 of the states they enable activates: the frontier is what the
// starts enabled one symbol ago and little else. The starts of the first
// burst chains also fire on every 14th byte value (13, 27, …, 251): the
// shape of the hot fragments SpAP cuts out of Snort and Snort_L, where one
// symbol in 14 fires a burst of starts whose enables die on the next.
func startBenchNet(chains, classes, depth, burst int) *automata.Network {
	ms := make([]*automata.NFA, chains+classes)
	for c := range ms {
		m := automata.NewNFA()
		set := symset.Single(byte(c))
		if c >= chains {
			set = symset.Set{}
			for b := c % 4; b < 256; b += 4 {
				set.Add(byte(b))
			}
		}
		if c < burst {
			for b := 13; b < 256; b += 14 {
				set.Add(byte(b))
			}
		}
		prev := m.Add(set, automata.StartAllInput, false)
		for d := 1; d < depth; d++ {
			nxt := m.Add(symset.Single(byte(c*7+d*13)), automata.StartNone, d == depth-1)
			m.Connect(prev, nxt)
			prev = nxt
		}
		ms[c] = m
	}
	return automata.NewNetwork(ms...)
}

// gridBenchNet builds the shape of the Hamming and Levenshtein applications:
// per pattern a lattice of (position, mismatches) cells up to a budget of a
// fifth of the pattern's length, in each cell a state that matched the
// position's symbol and one that did not, both enabling the two states of
// the next position the budget allows (matched, same count; mismatched, one
// more). The first position's states are all-input starts and the last's
// report. A position's states lie side by side, so a state's two successors
// are a few bits apart in one bitmap word or two — but how far ahead
// depends on the budget, and with four pattern lengths no eight deltas carry
// nine tenths of the edges: Compile gives the image no shift class and
// every state with a successor is an exception with a slot of its own.
func gridBenchNet(patterns int) *automata.Network {
	r := rand.New(rand.NewSource(6))
	ms := make([]*automata.NFA, patterns)
	for c := range ms {
		l := 10 + 5*(c%4)
		d := l / 5
		m := automata.NewNFA()
		// cell[i][j] holds the matched and the mismatched state after i+1
		// symbols with j mismatches (None where there is no such state).
		cell := make([][][2]automata.StateID, l)
		for i := range cell {
			set := symset.Single(byte(r.Intn(benchAlpha)))
			start := automata.StartNone
			if i == 0 {
				start = automata.StartAllInput
			}
			cell[i] = make([][2]automata.StateID, d+1)
			for j := range cell[i] {
				cell[i][j] = [2]automata.StateID{automata.None, automata.None}
				if j <= i {
					cell[i][j][0] = m.Add(set, start, i == l-1)
				}
			}
			for j := 1; j <= min(d, i+1); j++ {
				cell[i][j][1] = m.Add(set.Complement(), start, i == l-1)
			}
		}
		for i := 0; i+1 < l; i++ {
			for j, from := range cell[i] {
				for _, s := range from {
					if s == automata.None {
						continue
					}
					m.Connect(s, cell[i+1][j][0])
					if j < d {
						m.Connect(s, cell[i+1][j+1][1])
					}
				}
			}
		}
		ms[c] = m
	}
	return automata.NewNetwork(ms...)
}

func benchInput(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	input := make([]byte, n)
	for i := range input {
		input[i] = byte(r.Intn(benchAlpha))
	}
	return input
}

func benchKernel(b *testing.B, net *automata.Network, input []byte, k Kernel) {
	e := AcquireEngine(net, Options{Kernel: k})
	defer e.Release()
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Reset()
		for i, c := range input {
			e.Step(int64(i), c)
		}
	}
}

// BenchmarkDenseFrontier is the direction-optimizing win case: frontier ≈
// 8k states every cycle, ~1.5% of them activating. KernelDense/KernelAuto
// should beat KernelSparse by well over 2x (see DESIGN.md §3).
func BenchmarkDenseFrontier(b *testing.B) {
	net := denseBenchNet(8192)
	input := benchInput(2048, 1)
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		b.Run(k.String(), func(b *testing.B) { benchKernel(b, net, input, k) })
	}
}

// BenchmarkSparseFrontier is the regime the adaptive kernel must not
// regress: frontier of ~10 states in a 4k-state network, far below the
// dense threshold, so KernelAuto must track KernelSparse within noise.
func BenchmarkSparseFrontier(b *testing.B) {
	net := sparseBenchNet(512, 8)
	input := benchInput(1<<15, 2)
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		b.Run(k.String(), func(b *testing.B) { benchKernel(b, net, input, k) })
	}
}

// BenchmarkStartFrontier is the start-bound regime: 12 432 states in 195
// words and a frontier of 14, nearly all of it what the 14 starts fired by
// the previous symbol enabled. The sparse step leaves that plan pending
// and tests it in place rather than installing and walking it; KernelAuto
// must stay on it.
//
// The burst rows are the shape KernelAuto still gets wrong, checked in as
// the baseline for re-pricing it (ROADMAP item 5; they report, they gate
// nothing): 3 000 states in 47 words, 8 starts a symbol, and one symbol in
// 14 firing 32 — past the cut of 29 — so that auto takes that step and the
// one after it dense, at several times the cost of walking them.
func BenchmarkStartFrontier(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	input := make([]byte, 1<<15)
	r.Read(input)
	net := startBenchNet(2048, 24, 6, 0)
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		b.Run(k.String(), func(b *testing.B) { benchKernel(b, net, input, k) })
	}
	burst := startBenchNet(476, 24, 6, 24)
	if img := ImageOf(burst); img.words != 47 || int(img.startCount[13].starts) < img.denseCut || int(img.startCount[12].starts) >= img.denseCut/2 {
		b.Fatalf("burst shape: %d words, cut %d, %d starts on a burst symbol, %d on its neighbour",
			img.words, img.denseCut, img.startCount[13].starts, img.startCount[12].starts)
	}
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		b.Run("burst/"+k.String(), func(b *testing.B) { benchKernel(b, burst, input, k) })
	}
}

// BenchmarkChainFrontier is the shift-and win case: 5120 states in 80
// words, a frontier of ~250 and ~128 start activations per symbol, every
// edge a +1. The dense pass enables each word's successors with one
// shift; KernelAuto must pick it although the frontier is a twentieth of
// the network.
func BenchmarkChainFrontier(b *testing.B) {
	net := chainBenchNet(256, 20)
	input := benchInput(4096, 3)
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		b.Run(k.String(), func(b *testing.B) { benchKernel(b, net, input, k) })
	}
}

// BenchmarkGridFrontier is the exception-bound regime of the Hamming and
// Levenshtein applications: 1 800 states in 29 words, no shift class, and
// some forty states activating a symbol, each an exception that enables two
// successors out of its slot — neighbours into the same word, which the
// dense pass gathers in a register. Reported by CI's bench-smoke; it gates
// nothing.
func BenchmarkGridFrontier(b *testing.B) {
	net := gridBenchNet(14)
	if img := ImageOf(net); len(img.shift) != 0 || len(img.excSlots) < img.n*9/10 {
		b.Fatalf("grid shape: %d states, classes %v, %d exceptions", img.n, img.shift, len(img.excSlots))
	}
	input := benchInput(1<<14, 7)
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		b.Run(k.String(), func(b *testing.B) { benchKernel(b, net, input, k) })
	}
}

// BenchmarkHotStates measures the profiling primitive on a pooled engine.
func BenchmarkHotStates(b *testing.B) {
	net := sparseBenchNet(512, 8)
	input := benchInput(1<<15, 4)
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		HotStates(net, input)
	}
}
