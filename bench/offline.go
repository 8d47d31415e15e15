package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/hotcold"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/worstcase"
)

// coldPrefix is how much of an input an offline set-up runs once through
// each executor, so that the hot and cold sub-networks' images, which
// compile on first use, are paid for in setup_s and not in the window.
const coldPrefix = 4 << 10

// offlineApp is one panel app after set-up: what a library user holds
// before calling Match or the SpAP executor.
type offlineApp struct {
	appCase
	net  *automata.Network
	part *hotcold.Partition
}

func staticPartition(net *automata.Network, apCfg ap.Config) (*hotcold.Partition, error) {
	return hotcold.BuildWithStrategy(net, hotcold.StrategyStatic, hotcold.StrategyInput{},
		hotcold.Options{Capacity: apCfg.Capacity})
}

// setupOffline is the program's own set-up for the library path: compile,
// static partition, and one short cold run of each executor.
func setupOffline(cases []appCase, nets map[string]*automata.Network, apCfg ap.Config) ([]offlineApp, error) {
	apps := make([]offlineApp, 0, len(cases))
	for _, c := range cases {
		net := nets[c.name]
		sim.ImageOf(net)
		part, err := staticPartition(net, apCfg)
		if err != nil {
			return nil, fmt.Errorf("panel app %s does not partition: %w", c.name, err)
		}
		cold := c.input[:min(coldPrefix, len(c.input))]
		sim.Run(net, cold, sim.Options{CollectReports: true})
		if _, err := spap.RunGuarded(context.Background(), part, cold, apCfg, spap.Guard{}, spap.Options{CollectReports: true}); err != nil {
			return nil, fmt.Errorf("panel app %s: cold guarded run: %w", c.name, err)
		}
		apps = append(apps, offlineApp{appCase: c, net: net, part: part})
	}
	return apps, nil
}

// offlineWindow is what one timed window over the panel yields.
type offlineWindow struct {
	passMBs   []float64   // per pass: panel bytes through both executors ÷ their time
	callMs    [][]float64 // per class (app × executor): time of each call, one per pass
	attempted int
	failed    int
	wall      time.Duration // Σ pass wall time, verification included
	timed     time.Duration // Σ time inside the executors
	cpu       time.Duration // the process's CPU time over the window, the reference's excluded
	bytes     int           // input through the executors
	host      hostSpeed
}

// runOfflineWindow loops over the panel, one goroutine, until the window
// ends: per app one sim.Run (what sparseap.Match costs) and one
// spap.RunGuarded (what /v1/match and apsim -guard run), each verified
// against the solo reference. rec, when set, receives a span per call.
func runOfflineWindow(apps []offlineApp, apCfg ap.Config, window time.Duration, rec *recorder) offlineWindow {
	w := offlineWindow{callMs: make([][]float64, 2*len(apps))}
	sm := &speedometer{}
	tk := ticker{sm: sm}
	cpu0 := cpuTime()
	end := time.Now().Add(window)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		op := strconv.Itoa(pass)
		passStart := time.Now()
		var bytes int
		var timed time.Duration
		for i, a := range apps {
			t0 := time.Now()
			r := sim.Run(a.net, a.input, sim.Options{CollectReports: true})
			t1 := time.Now()
			g, err := spap.RunGuarded(context.Background(), a.part, a.input, apCfg, spap.Guard{}, spap.Options{CollectReports: true})
			t2 := time.Now()
			if rec != nil {
				rec.add("sim.run", op, t0, t1)
				rec.add("spap.run_guarded", op, t1, t2)
			}
			w.attempted += 2
			if !sameReports(r.Reports, a.want) {
				w.failed++
			}
			if err != nil || !sameReports(g.Reports, a.want) {
				w.failed++
			}
			w.callMs[2*i] = append(w.callMs[2*i], ms(t1.Sub(t0)))
			w.callMs[2*i+1] = append(w.callMs[2*i+1], ms(t2.Sub(t1)))
			bytes += 2 * len(a.input)
			timed += t2.Sub(t0)
			tk.tick()
		}
		passEnd := time.Now()
		if rec != nil {
			rec.add("offline.pass", op, passStart, passEnd)
		}
		w.passMBs = append(w.passMBs, float64(bytes)/1e6/timed.Seconds())
		w.wall += passEnd.Sub(passStart)
		w.timed += timed
		w.bytes += bytes
	}
	w.cpu = cpuTime() - cpu0 - sm.loopTime()
	w.host = sm.speed()
	return w
}

// The figures of an offline window, each read at the quiet quartile and
// scaled to the host's nominal speed (see calib.go).

// mbs is panel bytes ÷ executor time of a pass, upper quartile over passes.
func (w offlineWindow) mbs() float64 { return quantile(w.passMBs, 1-quiet) / w.host.scale(0) }

// opMs is the geomean over classes of the lower-quartile call time, so
// every app weighs the same however long its calls are.
func (w offlineWindow) opMs() float64 { return classQuantile(w.callMs, quiet) * w.host.scale(0) }

// cpuMsPerMB is the process's CPU time per MB of input, on the wall clock.
func (w offlineWindow) cpuMsPerMB() float64 { return ms(w.cpu) / (float64(w.bytes) / 1e6) }

// executorMBs is the geomean over apps of input bytes ÷ the lower-quartile
// time of one executor's call (exec 0 = sim.Run, 1 = spap.RunGuarded).
func (w offlineWindow) executorMBs(apps []offlineApp, exec int) float64 {
	v := make([]float64, len(apps))
	for i, a := range apps {
		v[i] = float64(len(a.input)) / 1e6 / (quantile(w.callMs[2*i+exec], quiet) / 1e3)
	}
	return geomean(v) / w.host.scale(0)
}

func runOffline(wl workload, cfg config, traced bool) (*result, error) {
	cases, err := buildCases(wl, cfg)
	if err != nil {
		return nil, err
	}
	apCfg := ap.DefaultConfig()
	res := &result{Workload: wl.Name, Metrics: map[string]metric{}}

	var apps []offlineApp
	var buildTime time.Duration
	setupS, setups, err := cfg.timeSetups(traced, func() (time.Duration, error) {
		nets, built, err := freshNets(wl, cfg)
		if err != nil {
			return 0, err
		}
		buildTime = built
		runtime.GC() // the generator's garbage is not the set-up's to collect
		t0 := time.Now()
		if apps, err = setupOffline(cases, nets, apCfg); err != nil {
			return 0, fmt.Errorf("%s: %w", wl.Name, err)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}

	runOfflineWindow(apps, apCfg, cfg.warmup, nil)
	if !traced {
		w := runOfflineWindow(apps, apCfg, cfg.window, nil)
		res.Attempted, res.Failed = w.attempted, w.failed
		res.set(endToEnd, "setup_s", setupS, setups)
		res.set(endToEnd, "throughput_mb_s", w.mbs(), len(w.passMBs))
		res.set(endToEnd, "op_p25_ms", w.opMs(), w.attempted)
		res.notef("host speed %.3f of nominal; on the wall clock: %.3f MB/s over the window, median call %.3f ms (geomean over classes), %.1f CPU ms/MB",
			w.host.cpu, float64(w.bytes)/1e6/w.timed.Seconds(), classQuantile(w.callMs, 0.5), w.cpuMsPerMB())
		res.notef("match (sim.Run) %.2f MB/s, spap (RunGuarded) %.2f MB/s: geomeans over the panel",
			w.executorMBs(apps, 0), w.executorMBs(apps, 1))
		for i, a := range apps {
			res.notef("  %-8s match %8.3f ms  spap %8.3f ms  reports %d", a.name,
				quantile(w.callMs[2*i], quiet)*w.host.scale(0), quantile(w.callMs[2*i+1], quiet)*w.host.scale(0), len(a.want))
		}
		return res, nil
	}

	// Traced: half the window plain, half with spans, then the layer probe.
	plain := runOfflineWindow(apps, apCfg, cfg.window/2, nil)
	rec := newRecorder()
	from := time.Now()
	w := runOfflineWindow(apps, apCfg, cfg.window/2, rec)
	res.spans = rec.linked(from, time.Now())
	res.Attempted, res.Failed = plain.attempted+w.attempted, plain.failed+w.failed
	for _, d := range perLayer {
		res.set(perLayer, d.Name, 0, 0)
	}
	res.set(perLayer, "workloads.build_ms", ms(buildTime), 1)
	res.set(perLayer, "host.cpu_speed", w.host.cpu, len(w.passMBs))
	res.set(perLayer, "process.cpu_ms_per_mb", w.cpuMsPerMB(), w.attempted)
	res.set(perLayer, "offline.match_mb_s", w.executorMBs(apps, 0), w.attempted/2)
	res.set(perLayer, "offline.spap_mb_s", w.executorMBs(apps, 1), w.attempted/2)
	res.set(perLayer, "trace.overhead_share", overheadShare(w.mbs(), plain.mbs()), len(w.passMBs))
	self := selfTimes(res.spans)
	res.set(perLayer, "trace.accounted_share",
		float64(self["sim.run"]+self["spap.run_guarded"])/float64(w.wall), len(w.passMBs))
	return res, probeLayers(res, wl, cfg, cases)
}

// timeCall runs fn until it has three timings or has spent the budget, and
// returns their median. prep, when set, runs untimed before each call.
func timeCall(prep, fn func()) time.Duration {
	const budget = 200 * time.Millisecond
	var v []float64
	var spent time.Duration
	for len(v) < 3 && (len(v) == 0 || spent < budget) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		v = append(v, float64(d))
		spent += d
	}
	return time.Duration(median(v))
}

// layerTimes is what probeLayers measures per app; the panel's figure is a
// geomean for times and a sum for exact counts.
type layerTimes struct {
	nsSym   map[string][]float64 // per-symbol cost by metric name
	ms      map[string]float64   // summed over the panel
	us      map[string][]float64
	counts  map[string]float64
	speedup []float64
}

// probeLayers times each layer's public calls directly, one app of the
// workload's panel after the other, on the bytes the workload sends. It
// runs after the window, on networks of its own.
func probeLayers(res *result, wl workload, cfg config, cases []appCase) error {
	apCfg := ap.DefaultConfig()
	ctx := context.Background()
	lt := layerTimes{nsSym: map[string][]float64{}, ms: map[string]float64{}, us: map[string][]float64{}, counts: map[string]float64{}}
	dir, err := os.MkdirTemp(cfg.scratch, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.Open(dir)
	if err != nil {
		return err
	}
	nets, _, err := freshNets(wl, cfg)
	if err != nil {
		return err
	}
	var states, hot float64
	var dense, steps float64
	for _, c := range cases {
		net, in := nets[c.name], c.input
		perSym := func(name string, d time.Duration) {
			lt.nsSym[name] = append(lt.nsSym[name], float64(d)/float64(len(in)))
		}

		// sim: compile and footprints, on a network nothing has touched.
		t0 := time.Now()
		img := sim.Compile(net)
		lt.ms["sim.compile_ms"] += ms(time.Since(t0))
		lt.counts["sim.image_bytes"] += float64(img.Footprint())
		lt.counts["sim.engine_bytes"] += float64(img.EngineFootprint())

		// hotcold and worstcase, still before anything is cached on net.
		t0 = time.Now()
		part, err := staticPartition(net, apCfg)
		if err != nil {
			return err
		}
		lt.ms["hotcold.partition_ms"] += ms(time.Since(t0))
		states += float64(net.Len())
		hot += float64(part.PredHot.Count())
		t0 = time.Now()
		worstcase.Analyze(net, worstcase.Config{NoGram: true})
		lt.ms["worstcase.analyze_ms"] += ms(time.Since(t0))

		// sim: the three kernels over the same input.
		for _, k := range []struct {
			name   string
			kernel sim.Kernel
		}{{"sim.sparse_ns_sym", sim.KernelSparse}, {"sim.dense_ns_sym", sim.KernelDense}, {"sim.auto_ns_sym", sim.KernelAuto}} {
			opts := sim.Options{CollectReports: true, Kernel: k.kernel}
			perSym(k.name, timeCall(nil, func() { sim.Run(net, in, opts) }))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := sim.Run(net, in, sim.Options{CollectReports: true})
		runtime.ReadMemStats(&m1)
		lt.counts["sim.allocs_per_run"] += float64(m1.Mallocs - m0.Mallocs)
		lt.counts["sim.reports"] += float64(r.NumReports)
		eng := sim.AcquireEngine(net, sim.Options{})
		for pos, sym := range in {
			eng.Step(int64(pos), sym)
		}
		dense += float64(eng.DenseSteps())
		steps += float64(eng.DenseSteps() + eng.SparseSteps())
		eng.Release()

		// sim: the stream path's pieces.
		st := sim.NewStreamer(net)
		perSym("sim.streamer_ns_sym", timeCall(st.Reset, func() {
			for off := 0; off < len(in); off += 32 << 10 {
				st.Write(in[off:min(off+32<<10, len(in))])
				st.TakeReports()
			}
		}))
		st.Reset()
		st.Write(in[:len(in)/2])
		st.TakeReports()
		var snap sim.Snapshot
		var enc checkpoint.Enc
		lt.us["sim.snapshot_us"] = append(lt.us["sim.snapshot_us"], us(timeCall(enc.Reset, func() {
			st.Snapshot(&snap)
			snap.Encode(&enc)
		})))
		lt.counts["sim.snapshot_bytes"] += float64(len(enc.Bytes()))
		lt.us["sim.restore_us"] = append(lt.us["sim.restore_us"], us(timeCall(nil, func() { st.Restore(&snap) })))

		// sim: eight lanes of the batch kernel, each at its own phase.
		lane := len(in) / 8
		lanes := make([][]byte, 8)
		for i := range lanes {
			lanes[i] = in[i*lane : (i+1)*lane]
		}
		perSym("sim.batch8_ns_sym", timeCall(nil, func() { sim.RunBatch(net, lanes, sim.BatchOptions{CollectReports: true}) }))

		// ap and spap: the modelled systems, host time and simulated cycles.
		var base *ap.BaselineResult
		perSym("ap.baseline_ns_sym", timeCall(nil, func() { base, err = ap.RunBaseline(net, in, apCfg) }))
		if err != nil {
			return err
		}
		lt.counts["ap.baseline_cycles"] += float64(base.Cycles)
		opts := spap.Options{CollectReports: true}
		perSym("spap.plain_ns_sym", timeCall(nil, func() { _, err = spap.RunBaseAPSpAP(part, in, apCfg, opts) }))
		if err != nil {
			return err
		}
		var g *spap.Result
		perSym("spap.guarded_ns_sym", timeCall(nil, func() { g, err = spap.RunGuarded(ctx, part, in, apCfg, spap.Guard{}, opts) }))
		if err != nil {
			return err
		}
		perSym("spap.ckpt_ns_sym", timeCall(func() { store.Clear() }, func() {
			_, err = spap.RunGuardedCheckpointed(ctx, part, in, apCfg, spap.Guard{}, opts,
				&checkpoint.Runner{Store: store, Name: "probe"})
		}))
		if err != nil {
			return err
		}
		lt.counts["spap.cycles"] += float64(g.TotalCycles)
		lt.counts["spap.intermediate_reports"] += float64(g.IntermediateReports)
		lt.counts["spap.guard_trips"] += float64(g.Guard.Trips)
		lt.speedup = append(lt.speedup, float64(base.Cycles)/float64(g.TotalCycles))
	}
	n := len(cases)
	for name, v := range lt.nsSym {
		res.set(perLayer, name, geomean(v), n)
	}
	for name, v := range lt.us {
		res.set(perLayer, name, geomean(v), n)
	}
	for name, v := range lt.ms {
		res.set(perLayer, name, v, n)
	}
	for name, v := range lt.counts {
		res.set(perLayer, name, v, n)
	}
	res.set(perLayer, "sim.allocs_per_run", lt.counts["sim.allocs_per_run"]/float64(n), n)
	res.set(perLayer, "sim.dense_step_share", dense/steps, n)
	res.set(perLayer, "hotcold.hot_share", hot/states, n)
	res.set(perLayer, "spap.speedup", geomean(lt.speedup), n)
	res.set(perLayer, "spap.over_kernel",
		res.Metrics["spap.guarded_ns_sym"].Value/res.Metrics["sim.auto_ns_sym"].Value, n)
	return nil
}
