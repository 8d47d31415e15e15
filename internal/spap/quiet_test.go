package spap

import (
	"bytes"
	"context"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/checkpoint"
	"sparseap/internal/fault"
	"sparseap/internal/hotcold"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

// recStore keeps every record saved to it and has none to load: a run over
// it starts fresh and leaves behind, save by save, everything it would have
// resumed from — engine snapshot, watchdog counters (stalls, firstPos,
// hist), intermediate reports, ladder position, partial Result.
type recStore struct {
	checkpoint.Store
	saves [][]byte
}

func (s *recStore) Save(_ string, _ uint32, payload []byte) error {
	s.saves = append(s.saves, bytes.Clone(payload))
	return nil
}

func (s *recStore) Load(string) ([]byte, uint32, bool, error) {
	return nil, 0, false, checkpoint.ErrNoCheckpoint
}

// guardedBothWays runs RunGuardedCheckpointed over a recording store twice,
// skipping quiet runs and with stepQuiet set, and asserts the two runs
// returned the same Result and saved the same records, byte for byte. The
// cadence is odd, so captures land inside quiet runs and between watchdog
// samples. It returns the skipping run's result.
func guardedBothWays(t *testing.T, tag string, p *hotcold.Partition, input []byte, cfg ap.Config, g Guard) *Result {
	t.Helper()
	var res [2]*Result
	var recs [2]*recStore
	for i, step := range []bool{false, true} {
		stepQuiet = step
		recs[i] = &recStore{}
		var err error
		res[i], err = RunGuardedCheckpointed(context.Background(), p, input, cfg, g, Options{CollectReports: true},
			&checkpoint.Runner{Store: recs[i], Name: "spap", Every: 97})
		stepQuiet = false
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	ckResultsEqual(t, tag+": skipping against stepping every symbol", res[0], res[1])
	if len(recs[0].saves) != len(recs[1].saves) || len(recs[0].saves) < len(input)/97 {
		t.Fatalf("%s: %d records saved skipping, %d stepping every symbol, over %d symbols", tag, len(recs[0].saves), len(recs[1].saves), len(input))
	}
	for i, rec := range recs[0].saves {
		if !bytes.Equal(rec, recs[1].saves[i]) {
			var a, b machineState
			if err := a.decode(rec); err != nil {
				t.Fatal(err)
			}
			if err := b.decode(recs[1].saves[i]); err != nil {
				t.Fatal(err)
			}
			t.Fatalf("%s: record %d differs: phase %d at %d, watchdog (%d, %d, %v), %d intermediate reports skipping; phase %d at %d, (%d, %d, %v), %d stepping every symbol",
				tag, i, a.phase, a.pos, a.wdStalls, a.wdFirstPos, a.wdHist, len(a.inter), b.phase, b.pos, b.wdStalls, b.wdFirstPos, b.wdHist, len(b.inter))
		}
	}
	return res[0]
}

// quietShare returns how much of input a fresh engine over net skips.
func quietShare(img *sim.Image, input []byte) float64 {
	e := img.Acquire(sim.Options{})
	defer e.Release()
	skipped := 0
	for i := 0; i < len(input); {
		k := e.Skip(input, i)
		skipped += k
		if i += k; i < len(input) {
			e.Step(int64(i), input[i])
			i++
		}
	}
	return float64(skipped) / float64(len(input))
}

// The watchdog samples, trips and prices a run the same whether runBase
// steps a quiet symbol or skips it. On guard_test's storm behind a quiet
// prefix — so the trip comes after skipped runs and the windowed rate reads
// samples taken at their ends — under each ladder outcome, and on the
// suite at divisor 32, every record a run saves and the Result it returns
// are those of the run that steps every symbol.
func TestGuardedIdenticalAcrossQuietRuns(t *testing.T) {
	cfg := cfgWithCapacity(100)
	p, storm := buildStorm(t, 4, 16, 4096)
	input := append(bytes.Repeat([]byte("z"), 1500), storm...)
	if share := quietShare(sim.ImageOf(p.Hot), input); share < 0.25 {
		t.Fatalf("the storm's prefix is not quiet: %.2f of the input skipped", share)
	}
	for _, tc := range goldenGuards {
		got := guardedBothWays(t, "storm/"+tc.name, p, input, cfg, tc.g)
		if want := goldenStorm[tc.name].Guard; got.Guard.Trips != want.Trips || got.Guard.FallbackBaseline != want.FallbackBaseline || got.Guard.Widened != want.Widened {
			t.Fatalf("storm/%s: ladder ended at %+v, without the prefix at %+v", tc.name, got.Guard, want)
		}
		for _, pos := range got.Guard.TripPos {
			if pos <= 1500 {
				t.Fatalf("storm/%s: tripped at %d, inside the quiet prefix", tc.name, pos)
			}
		}
	}

	names := workloads.Names()
	if testing.Short() {
		names = []string{"Snort", "TCP", "DS06"}
	}
	quiet := 0
	for _, name := range names {
		app, err := workloads.Build(name, workloads.Config{Divisor: 32, InputLen: 8192, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ap.DefaultConfig()
		p, err := hotcold.BuildWithStrategy(app.Net, hotcold.StrategyStatic, hotcold.StrategyInput{}, hotcold.Options{Capacity: cfg.Capacity})
		if err != nil {
			t.Fatal(err)
		}
		if quietShare(sim.ImageOf(p.Hot), app.Input) > 0.25 {
			quiet++
		}
		guardedBothWays(t, name, p, app.Input, cfg, Guard{})
	}
	if quiet < 3 {
		t.Fatalf("%d applications with a quarter of the input quiet; want Snort, TCP and DS06 at least", quiet)
	}
}

// Under an active fault plan runBase steps every symbol: a flip can land
// on any position, quiet or not. On a stream the hot network would skip
// from end to end, the flips counted are the plan's, position by position.
func TestFaultPlanStepsQuietSymbols(t *testing.T) {
	p, _ := chainApp(t, 64)
	input := bytes.Repeat([]byte("-"), 3*cancelCheckInterval)
	if share := quietShare(sim.ImageOf(p.Hot), input); share < 0.99 {
		t.Fatalf("%.2f of the filler is quiet", share)
	}
	inj := fault.New(fault.Plan{Seed: 3, EnableFlipRate: 0.01})
	want := int64(0)
	for i := range input {
		if _, ok := inj.FlipAt(int64(i), p.Hot.Len()); ok {
			want++
		}
	}
	res, err := RunBaseAPSpAP(p, input, cfgWithCapacity(100), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 || res.Fault.Flips != want {
		t.Fatalf("%d flips applied, the plan has %d over %d positions", res.Fault.Flips, want, len(input))
	}
}
