package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
	"sparseap/internal/replica"
	"sparseap/internal/serve"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
)

// serveRate moves the per-tenant token bucket out of the way: the default
// 64 sessions/s would shed a closed loop that completes ~100 a second.
const serveRate = 1e6

// node is one in-process apserve: the real server behind a real listener.
type node struct {
	srv   *serve.Server
	hs    *http.Server
	url   string
	reg   *metrics.Registry
	local *tracedStore // the decorator on the node's own disk
	saves *tracedStore // the outermost decorator: what a session's save costs it
	done  chan struct{}
}

// startNode opens a store in dir, builds a server holding nets and serves
// it on a loopback port. followers, when set, wraps the store in
// replica.Store with an ack quorum of one. rec, when set, records a span
// for every store call and handler; layer names the node's disk in them.
func startNode(dir, layer string, nets map[string]*automata.Network, cfg config, followers []string, rec *recorder) (*node, error) {
	local, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	n := &node{reg: metrics.NewRegistry(), done: make(chan struct{})}
	n.local = &tracedStore{inner: local, rec: rec, layer: layer}
	n.saves = n.local
	var store checkpoint.Store = n.local
	if len(followers) > 0 {
		rs := replica.New(store, replica.Options{Followers: followers, Ack: 1, Registry: n.reg})
		outer := &tracedReplica{tracedStore: tracedStore{inner: rs, rec: rec, layer: "replica"}, rs: rs}
		n.saves = &outer.tracedStore
		store = outer
	}
	n.srv = serve.New(serve.Config{
		Store:        store,
		Registry:     n.reg,
		RatePerSec:   serveRate,
		Burst:        serveRate,
		MaxPerTenant: 64,
	})
	for name, net := range nets {
		if err := n.srv.AddApp(name, net, cfg.gen().Fingerprint(name)); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := n.srv.Handler()
	if rec != nil {
		h = rec.middleware(h)
	}
	n.hs = &http.Server{Handler: h}
	n.url = "http://" + ln.Addr().String()
	go func() {
		n.hs.Serve(ln) // returns ErrServerClosed from stop
		close(n.done)
	}()
	return n, nil
}

// stop drains the server and waits until its accept loop has ended.
func (n *node) stop() {
	n.srv.Drain(2 * time.Second) // no session is live; this stops the server's own goroutines
	n.hs.Close()
	<-n.done
}

// cluster is the serving side of one workload: node A, and its follower
// B when the workload is replicated.
type cluster struct {
	a, b      *node
	dirs      []string
	firstMs   []float64 // latency of the first, cold operation per app
	transport []*http.Transport
	ops       atomic.Int64 // match operation ids handed out
}

func (c *cluster) stop() {
	for _, t := range c.transport {
		t.CloseIdleConnections()
	}
	c.a.stop()
	if c.b != nil {
		c.b.stop()
	}
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// loadClient is one closed-loop client: its own tenant, connections and
// serve.Client, so its counters say what happened to its operations alone.
type loadClient struct {
	c  *serve.Client
	rt *stampTransport
}

// disturbances counts what the protocol client absorbed: every one of them
// marks the operation it happened to as failed.
func (lc *loadClient) disturbances() int64 {
	return lc.c.Sheds.Load() + lc.c.Retries.Load() + lc.c.Resumes.Load() + lc.c.Restarts.Load()
}

// stampTransport gives each match request an operation id the server-side
// span can carry, and remembers the id of the request it last sent (for a
// stream that is the X-Session the client chose).
type stampTransport struct {
	base   *http.Transport
	ops    *atomic.Int64
	lastOp string
}

func (t *stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if op := req.Header.Get("X-Session"); op != "" {
		t.lastOp = op
	} else {
		t.lastOp = "m" + strconv.FormatInt(t.ops.Add(1), 10)
		req.Header.Set(opHeader, t.lastOp)
	}
	return t.base.RoundTrip(req)
}

func (c *cluster) newClient(idx int) *loadClient {
	base := http.DefaultTransport.(*http.Transport).Clone()
	c.transport = append(c.transport, base)
	rt := &stampTransport{base: base, ops: &c.ops}
	url := c.a.url
	return &loadClient{rt: rt, c: &serve.Client{
		URL:    func() string { return url },
		Tenant: fmt.Sprintf("bench-%d", idx),
		HTTP:   &http.Client{Transport: rt},
	}}
}

// opResult is one operation as the client saw it.
type opResult struct {
	app        int
	op         string
	start, end time.Time
	ok         bool
	mode       string // match replies: the executor the server chose
}

// do runs one operation of the workload's kind and verifies its output:
// the report sequence must be the solo reference's, and the client must
// not have been shed, retried, resumed or restarted on the way.
func (lc *loadClient) do(kind workloadKind, app int, c appCase) opResult {
	r := opResult{app: app, start: time.Now()}
	before := lc.disturbances()
	var got []sim.Report
	var err error
	if kind == kindMatch {
		m, shed, _, merr := lc.c.Match(context.Background(), c.name, c.input)
		r.end = time.Now()
		err = merr
		if err == nil && !shed {
			r.mode = m.Mode
			got = make([]sim.Report, len(m.Reports))
			for i, p := range m.Reports {
				got[i] = sim.Report{Pos: p[0], State: automata.StateID(p[1])}
			}
			if m.NumReports != int64(len(got)) {
				err = fmt.Errorf("reply counts %d reports and lists %d", m.NumReports, len(got))
			}
		} else if shed {
			err = fmt.Errorf("shed")
		}
	} else {
		var s *serve.StreamResult
		s, err = lc.c.Stream(context.Background(), c.name, c.input)
		r.end = time.Now()
		if err == nil {
			got = s.Reports
		}
	}
	r.op = lc.rt.lastOp
	r.ok = err == nil && lc.disturbances() == before && sameReports(got, c.want)
	return r
}

// setupServe is the program's own set-up for a serve workload: open the
// stores, build the servers, make the apps resident, listen, and run one
// cold operation per app so the lazy partition and worst-case bound are
// paid here. The first operation of every app must verify.
func setupServe(wl workload, cfg config, cases []appCase, nets map[string]*automata.Network, dirs []string, rec *recorder) (*cluster, error) {
	c := &cluster{dirs: dirs}
	var followers []string
	var err error
	if wl.replicated {
		if c.b, err = startNode(dirs[1], "follower", nets, cfg, nil, rec); err != nil {
			return nil, err
		}
		followers = []string{c.b.url}
	}
	if c.a, err = startNode(dirs[0], "checkpoint", nets, cfg, followers, rec); err != nil {
		return nil, err
	}
	lc := c.newClient(0)
	for i, ac := range cases {
		r := lc.do(wl.kind, i, ac)
		if !r.ok {
			c.stop()
			return nil, fmt.Errorf("%s: first %s operation did not verify", wl.Name, ac.name)
		}
		c.firstMs = append(c.firstMs, ms(r.end.Sub(r.start)))
	}
	return c, nil
}

// closedLoop runs loadClients clients against the cluster until the
// deadline. Each issues its next operation when the previous one
// completes and walks the panel round-robin from its own offset, so which
// tenant sends which app, and with it each tenant's guard ladder, is the
// same on every run. Between operations each client times the host's
// reference into sm.
func closedLoop(c *cluster, wl workload, cases []appCase, d time.Duration, sm *speedometer, rec *recorder) ([]opResult, map[string]int64) {
	end := time.Now().Add(d)
	out := make([][]opResult, loadClients)
	clients := make([]*loadClient, loadClients)
	for i := range clients {
		clients[i] = c.newClient(i)
	}
	var wg sync.WaitGroup
	for i, lc := range clients {
		wg.Add(1)
		go func(i int, lc *loadClient) {
			defer wg.Done()
			tk := ticker{sm: sm}
			for n := i; time.Now().Before(end); n++ {
				tk.tick()
				r := lc.do(wl.kind, n%len(cases), cases[n%len(cases)])
				if rec != nil {
					rec.add("client.op", r.op, r.start, r.end)
				}
				out[i] = append(out[i], r)
			}
		}(i, lc)
	}
	wg.Wait()
	var all []opResult
	counts := map[string]int64{}
	for i, o := range out {
		all = append(all, o...)
		counts["serve.client_retries"] += clients[i].c.Retries.Load()
		counts["serve.client_resumes"] += clients[i].c.Resumes.Load()
		counts["serve.client_restarts"] += clients[i].c.Restarts.Load()
	}
	return all, counts
}

// serveWindow is what one timed window against a cluster yields.
type serveWindow struct {
	ops       []opResult       // every operation of the window's loop
	client    map[string]int64 // the protocol clients' counters
	from, to  time.Time
	sliceMBs  []float64     // verified input bytes per second, per slice
	classMs   [][]float64   // per app: latency of each verified operation
	bytes     float64       // verified input bytes
	cpu       time.Duration // the process's CPU time over the window, the reference's excluded
	failed    int
	host      hostSpeed
	saveShare float64 // share of the clients' time spent inside checkpoint saves
}

// The figures of a serve window, each read at the quiet quartile and scaled
// to the host's nominal speed: saveShare of the time at the disk's speed,
// the rest at the processor's.

func (w serveWindow) scale() float64 { return w.host.scale(w.saveShare) }

// mbs is verified input bytes per second of a slice, upper quartile over
// slices.
func (w serveWindow) mbs() float64 { return quantile(w.sliceMBs, 1-quiet) / w.scale() }

// opMs is the geomean over apps of the lower-quartile latency.
func (w serveWindow) opMs() float64 { return classQuantile(w.classMs, quiet) * w.scale() }

// cpuMsPerMB is the process's CPU time, server and load generator, per MB
// of verified input, on the wall clock.
func (w serveWindow) cpuMsPerMB() float64 { return ms(w.cpu) / (w.bytes / 1e6) }

func (w serveWindow) opsPerSec() float64 {
	return float64(len(w.ops)-w.failed) / w.to.Sub(w.from).Seconds()
}

// runServeWindow warms the cluster up with one closed loop, then measures
// a second one. Every operation of the second loop is verified and
// counted; the few still in flight when the window ends are let finish
// and belong to no slice.
func runServeWindow(c *cluster, wl workload, cfg config, cases []appCase, window time.Duration, rec *recorder) (serveWindow, error) {
	sm := &speedometer{}
	if wl.kind == kindStream {
		// The reference writes go beside the stores, on the same disk.
		dir, err := os.MkdirTemp(cfg.scratch, "ref-*")
		if err != nil {
			return serveWindow{}, err
		}
		defer os.RemoveAll(dir)
		sm.dir = dir
	}
	closedLoop(c, wl, cases, cfg.warmup, &speedometer{dir: sm.dir}, nil)
	cpu0, busy0 := cpuTime(), c.a.saves.busy.Load()
	from := time.Now()
	w := serveWindow{from: from, to: from.Add(window), classMs: make([][]float64, len(cases))}
	w.ops, w.client = closedLoop(c, wl, cases, window, sm, rec)
	w.cpu = cpuTime() - cpu0 - sm.loopTime()
	w.saveShare = float64(c.a.saves.busy.Load()-busy0) / float64(window*loadClients)
	w.host = sm.speed()
	slice := window / slices
	w.sliceMBs = make([]float64, slices)
	for _, o := range w.ops {
		if !o.ok {
			w.failed++
			continue
		}
		n := float64(len(cases[o.app].input))
		w.bytes += n
		w.classMs[o.app] = append(w.classMs[o.app], ms(o.end.Sub(o.start)))
		if !o.end.After(w.to) {
			w.sliceMBs[min(int(o.end.Sub(w.from)/slice), slices-1)] += n / 1e6 / slice.Seconds()
		}
	}
	return w, sm.err
}

func runServe(wl workload, cfg config, traced bool) (*result, error) {
	cases, err := buildCases(wl, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: wl.Name, Metrics: map[string]metric{}}

	// bringUp makes fresh networks and store directories (the harness's
	// work) and then times the program's set-up.
	bringUp := func(rec *recorder) (*cluster, time.Duration, time.Duration, error) {
		nets, built, err := freshNets(wl, cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		var dirs []string
		for _, nm := range []string{"a", "b"} {
			d, err := os.MkdirTemp(cfg.scratch, wl.Name+"-"+nm+"-*")
			if err != nil {
				return nil, 0, 0, err
			}
			dirs = append(dirs, d)
		}
		t0 := time.Now()
		c, err := setupServe(wl, cfg, cases, nets, dirs, rec)
		return c, time.Since(t0), built, err
	}

	if !traced {
		var c *cluster
		setupS, setups, err := cfg.timeSetups(false, func() (time.Duration, error) {
			if c != nil {
				c.stop()
			}
			var d time.Duration
			c, d, _, err = bringUp(nil)
			return d, err
		})
		if err != nil {
			return nil, err
		}
		defer c.stop()
		w, err := runServeWindow(c, wl, cfg, cases, cfg.window, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = len(w.ops), w.failed
		res.set(endToEnd, "setup_s", setupS, setups)
		res.set(endToEnd, "throughput_mb_s", w.mbs(), slices)
		res.set(endToEnd, "op_p25_ms", w.opMs(), len(w.ops)-w.failed)
		var lat []float64
		for _, c := range w.classMs {
			lat = append(lat, c...)
		}
		res.notef("host speed %.3f (disk %.3f) of nominal, %.3f of the clients' time inside saves; on the wall clock: %.3f MB/s, op p50 %.3f ms, p95 %.3f ms (all apps pooled), %.1f CPU ms/MB",
			w.host.cpu, w.host.disk, w.saveShare, w.bytes/1e6/w.to.Sub(w.from).Seconds(), median(lat), quantile(lat, 0.95), w.cpuMsPerMB())
		res.notef("%.1f verified operations a second, %d clients; first operation per app %.1f ms (mean)",
			w.opsPerSec(), loadClients, mean(c.firstMs))
		for i, ac := range cases {
			res.notef("  %-8s p25 %8.3f ms  n=%d  reports %d", ac.name, quantile(w.classMs[i], quiet)*w.scale(), len(w.classMs[i]), len(ac.want))
		}
		if wl.kind == kindMatch {
			modes := map[string]int{}
			for _, o := range w.ops {
				modes[o.mode]++
			}
			res.notef("  executor chosen per reply: %v", modes)
		}
		return res, nil
	}

	// Traced: half the window against nodes that record no span, half
	// against ones that do, so the difference is the tracing's own cost.
	c, _, _, err := bringUp(nil)
	if err != nil {
		return nil, err
	}
	plain, err := runServeWindow(c, wl, cfg, cases, cfg.window/2, nil)
	c.stop()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	c, _, built, err := bringUp(rec)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	before := counters(c, nil)
	w, err := runServeWindow(c, wl, cfg, cases, cfg.window/2, rec)
	if err != nil {
		return nil, err
	}
	after := counters(c, before)
	res.spans = rec.linked(w.from, w.to)
	res.Attempted, res.Failed = len(plain.ops)+len(w.ops), plain.failed+w.failed
	for _, d := range perLayer {
		res.set(perLayer, d.Name, 0, 0)
	}
	res.set(perLayer, "workloads.build_ms", ms(built), 1)
	res.set(perLayer, "host.cpu_speed", w.host.cpu, slices)
	if wl.kind == kindStream {
		res.set(perLayer, "host.disk_speed", w.host.disk, slices)
	}
	res.set(perLayer, "trace.overhead_share", overheadShare(w.mbs(), plain.mbs()), slices)
	res.set(perLayer, "process.cpu_ms_per_mb", w.cpuMsPerMB(), len(w.ops))
	res.set(perLayer, "serve.ops_s", w.opsPerSec(), len(w.ops))
	first := "serve.first_stream_ms"
	if wl.kind == kindMatch {
		first = "serve.first_match_ms"
	}
	res.set(perLayer, first, mean(c.firstMs), len(c.firstMs))
	for _, m := range []map[string]int64{after, w.client} {
		for name, v := range m {
			res.set(perLayer, name, float64(v), 1)
		}
	}
	if err := serveLayers(res, c, wl, cfg, cases, w); err != nil {
		return nil, err
	}
	return res, probeLayers(res, wl, cfg, cases)
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// counters reads the program's own counters; with a baseline it returns
// what was added since. The window's warm-up is inside the delta: these
// cross-check operation counts, they are not rates.
func counters(c *cluster, base map[string]int64) map[string]int64 {
	reg := c.a.reg
	now := map[string]int64{
		"serve.sessions_completed": reg.Total("serve_sessions_completed"),
		"serve.matches":            reg.Total("serve_matches"),
		"serve.checkpoint_saves":   reg.Total("serve_checkpoint_saves"),
		"serve.reports_delivered":  reg.Total("serve_reports_delivered"),
		"serve.sheds":              reg.Total("serve_shed"),
	}
	if c.b != nil {
		now["replica.ships"] = reg.Total("serve_replication_ships")
		now["replica.ship_errors"] = reg.Total("serve_replication_ship_errors")
		now["replica.degraded"] = reg.Total("serve_replication_degraded")
	}
	for k, v := range base {
		now[k] -= v
	}
	return now
}

// serveLayers turns the traced window's spans into the per-layer metrics
// of the serving stack, and replays each app's bytes offline through the
// executor the server used to say how much of a handler's time is engine.
func serveLayers(res *result, c *cluster, wl workload, cfg config, cases []appCase, w serveWindow) error {
	spans := res.spans
	set := func(name string, v float64, n int) { res.set(perLayer, name, v, n) }
	pct := func(name, span string) {
		d := durations(spans, span)
		set(name+"_p50_us", median(d), len(d))
		set(name+"_p95_us", quantile(d, 0.95), len(d))
	}
	pct("checkpoint.save", "checkpoint.save")
	saves := spansNamed(spans, "checkpoint.save")
	var saveTime time.Duration
	var saveBytes []float64
	for _, s := range saves {
		saveTime += s.dur()
		saveBytes = append(saveBytes, float64(s.Bytes))
	}
	set("checkpoint.saves", float64(len(saves)), len(saves))
	set("checkpoint.save_bytes", median(saveBytes), len(saves))
	set("checkpoint.busy_share", saveTime.Seconds()/(w.to.Sub(w.from).Seconds()*loadClients), len(saves))
	rm := durations(spans, "checkpoint.remove")
	set("checkpoint.remove_p50_us", median(rm), len(rm))
	if c.a.local != nil && wl.kind == kindStream {
		load, err := probeLoads(c.a.local)
		if err != nil {
			return err
		}
		set("checkpoint.load_p50_us", median(load), len(load))
	}
	if wl.replicated {
		pct("replica.save", "replica.save")
		byID := map[int]span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		var ship []float64
		for _, s := range saves {
			if p, ok := byID[s.Parent]; ok && p.Name == "replica.save" {
				ship = append(ship, us(p.dur()-s.dur()))
			}
		}
		set("replica.ship_p50_us", median(ship), len(ship))
		recv := durations(spans, "replica.recv")
		set("replica.recv_p50_us", median(recv), len(recv))
	}

	// Handler time against client time and engine time, per operation.
	handler := map[string]span{}
	for _, s := range spans {
		if s.Name == "serve.handler" {
			handler[s.Op] = s
		}
	}
	engine, err := replayEngines(wl, cfg, cases)
	if err != nil {
		return err
	}
	var handlerMs, gapMs []float64
	var clientSum, handlerSum, engineSum time.Duration
	for _, o := range w.ops {
		h, ok := handler[o.op]
		if !ok {
			continue
		}
		handlerMs = append(handlerMs, ms(h.dur()))
		gapMs = append(gapMs, ms(o.end.Sub(o.start)-h.dur()))
		clientSum += o.end.Sub(o.start)
		handlerSum += h.dur()
		e := engine[o.app]
		if o.mode == "baseline" {
			engineSum += e.baseline
		} else {
			engineSum += e.primary
		}
	}
	set("serve.handler_p50_ms", median(handlerMs), len(handlerMs))
	set("serve.client_gap_p50_ms", median(gapMs), len(gapMs))
	if handlerSum > 0 {
		self := selfTimes(spans)
		unaccounted := self["serve.handler"] - engineSum
		set("serve.engine_share", float64(engineSum)/float64(handlerSum), len(handlerMs))
		set("serve.unaccounted_share", float64(unaccounted)/float64(handlerSum), len(handlerMs))
		set("trace.accounted_share", 1-float64(unaccounted)/float64(clientSum), len(handlerMs))
	}
	return nil
}

// probeLoads times checkpoint Load on the payloads real sessions saved
// last: the read side of checkpointing, which no workload exercises.
func probeLoads(t *tracedStore) ([]float64, error) {
	t.mu.Lock()
	payloads := t.payloads
	t.mu.Unlock()
	var v []float64
	for i, p := range payloads {
		name := "probe-" + strconv.Itoa(i)
		if err := t.inner.Save(name, 1, p); err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, _, _, err := t.inner.Load(name)
		v = append(v, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		if err := t.inner.Remove(name); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// engineTime is what an app's operation costs offline, outside the server.
type engineTime struct{ primary, baseline time.Duration }

// replayEngines runs each app's bytes through the executor the server
// uses for the workload: RunGuarded (and the baseline kernel a demoted
// tenant gets) for matches; for streams a Streamer fed in the client's
// 4 KiB chunks with a snapshot encoded at every capture boundary.
func replayEngines(wl workload, cfg config, cases []appCase) ([]engineTime, error) {
	nets, _, err := freshNets(wl, cfg)
	if err != nil {
		return nil, err
	}
	apCfg := ap.DefaultConfig()
	out := make([]engineTime, len(cases))
	for i, c := range cases {
		net, in := nets[c.name], c.input
		if wl.kind == kindMatch {
			part, err := staticPartition(net, apCfg)
			if err != nil {
				return nil, err
			}
			opts := spap.Options{CollectReports: true}
			spap.RunGuarded(context.Background(), part, in, apCfg, spap.Guard{}, opts) // pay the lazy images
			out[i].primary = timeCall(nil, func() {
				spap.RunGuarded(context.Background(), part, in, apCfg, spap.Guard{}, opts)
			})
			out[i].baseline = timeCall(nil, func() { sim.Run(net, in, sim.Options{CollectReports: true}) })
			continue
		}
		st := sim.NewStreamer(net)
		var window []sim.Report
		st.OnReport = func(pos int64, s automata.StateID) { window = append(window, sim.Report{Pos: pos, State: s}) }
		var snap sim.Snapshot
		var enc checkpoint.Enc
		replay := func() {
			for off := 0; off < len(in); off += 4096 {
				st.Write(in[off:min(off+4096, len(in))])
				if st.Pos()%checkpoint.DefaultEvery == 0 {
					enc.Reset()
					st.Snapshot(&snap)
					snap.Encode(&enc)
					window = window[:0]
				}
			}
		}
		replay()
		out[i].primary = timeCall(st.Reset, replay)
	}
	return out, nil
}

// scratchDir is where checkpoint stores live: inside the checkout, next
// to the build.
func scratchDir() string { return filepath.Join(".bench_build", "stores") }
