// Microbenchmarks of the core engines. The paper's tables and figures are
// rendered by `cmd/apbench -exp`, and what the layers cost end to end is
// timed by the ledger in bench/.
package sparseap_test

import (
	"testing"
	"time"

	"sparseap"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
	"sparseap/internal/worstcase"
)

// kernelTolerance is how far behind the better-suited fixed kernel the
// adaptive kernel may fall, per symbol, before BenchmarkSimulatorThroughput
// fails the run.
const kernelTolerance = 0.20

// BenchmarkSimulatorThroughput times the three step kernels on PEN, Snort,
// Brill and RF2 as <app>/<canonical|witness>/<kernel>, and is the
// kernel-choice gate: on the app's canonical input and on its adversarial
// witness alike, the adaptive kernel must stay within kernelTolerance of
// whichever fixed kernel is faster there. Snort's canonical input is the
// narrow frontier the rule must not tax; PEN's all-input starts, Brill's
// frontier of a few states per word and RF2's start storm are the shapes
// a rule that looks at the frontier length alone gets wrong. Both are
// ratios taken inside one process, so the verdict carries across
// machines; timing stays out of `go test`.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, name := range []string{"PEN", "Snort", "Brill", "RF2"} {
		b.Run(name, func(b *testing.B) {
			app, err := workloads.Build(name, workloads.Config{InputLen: 32768, Divisor: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Run("canonical", func(b *testing.B) {
				benchKernels(b, app.Net, app.Input)
			})
			b.Run("witness", func(b *testing.B) {
				w, _ := worstcase.Analyze(app.Net, worstcase.Config{}).Certify(worstcase.WitnessOptions{
					MaxLen: len(app.Input),
					Seeds:  [][]byte{app.Input},
				})
				benchKernels(b, app.Net, w.Input)
			})
		})
	}
}

// benchKernels runs one sub-benchmark per step kernel over input on a
// pooled engine, and fails b if the adaptive kernel's ns/symbol is more
// than kernelTolerance above the faster of the two fixed kernels. The
// verdict does not compare the sub-benchmarks' own times: run one after
// the other on a shared host they drift apart by more than the tolerance.
// It runs the three kernels in alternation instead, kernelRounds times
// over, timing the input in slices of kernelSlice symbols, and charges
// each kernel the fastest time it ever took over each slice — a burst of
// interference has to hit the same slice in every round to count.
func benchKernels(b *testing.B, net *sparseap.Network, input []byte) {
	kernels := []sim.Kernel{sim.KernelSparse, sim.KernelDense, sim.KernelAuto}
	ran := 0
	for _, k := range kernels {
		b.Run(k.String(), func(b *testing.B) {
			eng := sim.AcquireEngine(net, sim.Options{Kernel: k})
			defer eng.Release()
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				eng.Reset()
				for i, c := range input {
					eng.Step(int64(i), c)
				}
			}
			ran++
		})
	}
	// A -bench pattern may have selected only some kernels.
	if ran < len(kernels) {
		return
	}
	const (
		kernelRounds = 15
		kernelSlice  = 2048
	)
	var fastest [3][]time.Duration
	for k := range fastest {
		fastest[k] = make([]time.Duration, (len(input)+kernelSlice-1)/kernelSlice)
	}
	for round := 0; round < kernelRounds; round++ {
		for k, kernel := range kernels {
			eng := sim.AcquireEngine(net, sim.Options{Kernel: kernel})
			for s := range fastest[k] {
				lo := s * kernelSlice
				start := time.Now()
				for i, c := range input[lo:min(lo+kernelSlice, len(input))] {
					eng.Step(int64(lo+i), c)
				}
				if d := time.Since(start); round == 0 || d < fastest[k][s] {
					fastest[k][s] = d
				}
			}
			eng.Release()
		}
	}
	var total [3]time.Duration
	for k := range kernels {
		for _, d := range fastest[k] {
			total[k] += d
		}
	}
	perSym := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(input)) }
	sparse, dense, auto := perSym(total[0]), perSym(total[1]), perSym(total[2])
	if auto > min(sparse, dense)*(1+kernelTolerance) {
		b.Errorf("adaptive kernel %.1f ns/sym vs sparse %.1f, dense %.1f: outside the %.0f%% tolerance",
			auto, sparse, dense, 100*kernelTolerance)
	}
}

// BenchmarkRegexCompile measures the Glushkov compiler on a Snort-like
// rule set.
func BenchmarkRegexCompile(b *testing.B) {
	patterns := []string{
		"abcdef[0-9]{4}xyz", "GET\\x20[a-z/]{8}", "x.*y.*z{2,8}",
		"[A-Za-z]{12}tail", "\\x00\\x01.{64}\\xff",
	}
	for i := 0; i < b.N; i++ {
		if _, err := sparseap.CompileRegex(patterns); err != nil {
			b.Fatal(err)
		}
	}
}
