package sim_test

import (
	"reflect"
	"testing"

	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

// On every application of the suite, the loops that skip quiet runs —
// Engine.Run, sim.Run and a Streamer fed in chunks — leave what a bare Step
// loop leaves: the report stream, the final frontier, the Snapshot bytes
// and both kernel counters, which still add up to the input's length. The
// quiet share differs by two orders of magnitude across the suite, so the
// test also says how much of it was skipped at all. sim.RunBatch returns
// sim.Run's result for each of its inputs, an empty one among them, in
// input order.
func TestQuietRunsIdenticalOnSuite(t *testing.T) {
	skippedApps := 0
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, workloads.Config{Divisor: 32, InputLen: 8192, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		net, input := app.Net, app.Input
		opts := sim.Options{CollectReports: true}

		step := sim.NewEngine(net, opts)
		for i, b := range input {
			step.Step(int64(i), b)
		}
		want := step.Snapshot(nil, int64(len(input)))
		if want.DenseSteps+want.SparseSteps != int64(len(input)) {
			t.Fatalf("%s: %d dense and %d sparse steps over %d symbols", name, want.DenseSteps, want.SparseSteps, len(input))
		}

		same := func(what string, e *sim.Engine) {
			t.Helper()
			if got := e.Snapshot(nil, int64(len(input))); !reflect.DeepEqual(got, want) || e.FrontierLen() != step.FrontierLen() {
				t.Fatalf("%s: %s ends at %+v, stepping every symbol at %+v", name, what, got, want)
			}
			if !reflect.DeepEqual(e.Reports(), step.Reports()) {
				t.Fatalf("%s: %s reported %d times, stepping every symbol %d, or elsewhere", name, what, len(e.Reports()), len(step.Reports()))
			}
		}
		// Engine.Run's loop, counting what Skip takes.
		e, skipped := sim.NewEngine(net, opts), 0
		for i := 0; i < len(input); {
			k := e.Skip(input, i)
			skipped += k
			if i += k; i < len(input) {
				e.Step(int64(i), input[i])
				i++
			}
		}
		if skipped > 0 {
			skippedApps++
		}
		same("Skip then Step", e)
		e = sim.NewEngine(net, opts)
		e.Run(0, input)
		same("Engine.Run", e)

		if res := sim.Run(net, input, opts); res.Symbols != int64(len(input)) || res.NumReports != want.NumReports ||
			(len(res.Reports) != 0 || len(step.Reports()) != 0) && !reflect.DeepEqual(res.Reports, step.Reports()) {
			t.Fatalf("%s: sim.Run processed %d symbols and reported %d times, stepping every symbol %d and %d, or elsewhere",
				name, res.Symbols, res.NumReports, len(input), want.NumReports)
		}

		inputs := [][]byte{input, nil, input[:len(input)/3]}
		batch := sim.RunBatch(net, inputs, sim.BatchOptions{CollectReports: true})
		if len(batch) != len(inputs) {
			t.Fatalf("%s: sim.RunBatch returned %d results for %d inputs", name, len(batch), len(inputs))
		}
		for i, in := range inputs {
			if res := sim.Run(net, in, opts); !reflect.DeepEqual(batch[i], res) {
				t.Fatalf("%s: sim.RunBatch's result %d is %+v, sim.Run's %+v", name, i, batch[i], res)
			}
		}

		st := sim.NewStreamer(net)
		var streamed []sim.Report
		for off := 0; off < len(input); off += 1000 {
			if n, err := st.Write(input[off:min(len(input), off+1000)]); err != nil || off+n != min(len(input), off+1000) {
				t.Fatalf("%s: Write at %d = (%d, %v)", name, off, n, err)
			}
			streamed = append(streamed, st.TakeReports()...)
		}
		if got := st.Snapshot(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the streamer ends at %+v, stepping every symbol at %+v", name, got, want)
		}
		if len(streamed) != len(step.Reports()) || len(streamed) != 0 && !reflect.DeepEqual(streamed, step.Reports()) {
			t.Fatalf("%s: the streamer reported %d times, stepping every symbol %d, or elsewhere", name, len(streamed), len(step.Reports()))
		}
		t.Logf("%-8s %5d of %d symbols skipped, %d dense steps", name, skipped, len(input), want.DenseSteps)
	}
	if skippedApps < 5 {
		t.Fatalf("a symbol was skipped on %d applications only", skippedApps)
	}
}

// BenchmarkQuietRun times one pass over an application's input at the
// ledger's scale, as a bare Step loop and through Engine.Run, which skips
// the quiet runs: most of Snort, half of CAV, a quarter of DS06 and next to
// nothing of PEN, the control that must read the same both ways. It lives
// here and not in kernel_bench_test.go because workloads imports sim.
func BenchmarkQuietRun(b *testing.B) {
	for _, name := range []string{"Snort", "CAV", "DS06", "PEN"} {
		app, err := workloads.Build(name, workloads.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		e := sim.NewEngine(app.Net, sim.Options{})
		loops := map[string]func(){
			"step": func() {
				for i, c := range app.Input {
					e.Step(int64(i), c)
				}
			},
			"run": func() { e.Run(0, app.Input) },
		}
		for _, how := range []string{"step", "run"} {
			b.Run(name+"/"+how, func(b *testing.B) {
				b.SetBytes(int64(len(app.Input)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Reset()
					loops[how]()
				}
			})
		}
	}
}
