package oracle_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/graph"
	"sparseap/internal/hotcold"
	"sparseap/internal/oracle"
	"sparseap/internal/rewrite"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/symset"
	"sparseap/internal/workloads"
	"sparseap/internal/worstcase"
)

// TestDifferential runs seeded draws of the generator, then every suite
// application at divisor 32 on a short input, through every executor, and
// asserts that the draws reached the corners they are there for.
func TestDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var cov coverage
	for i := 0; i < 80; i++ {
		net := oracle.Network(r)
		check(t, &draw{src: r, net: net, in: oracle.Input(r, 1+r.Intn(200)), cov: &cov, rewrite: true, preflight: true})
	}
	apps, err := workloads.BuildAll(workloads.Config{Divisor: 32, InputLen: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The suite's rewrites are rewrite.TestSuiteEquivalence's: they take
	// half a second more here.
	for _, app := range apps {
		check(t, &draw{src: r, net: app.Net, in: app.Input, preflight: true})
	}
	if cov.autoBoth == 0 || cov.skipped == 0 || cov.jumped == 0 || cov.tripped == 0 || cov.midCold == 0 {
		t.Fatalf("the draws missed a corner: %+v", cov)
	}
}

// FuzzDifferential is TestDifferential on networks and inputs drawn from
// fuzz bytes, up to 400 states, without the guard's pre-flight: its
// certified analysis took 1.4 s on a drawn hot network of 24 states or
// fewer.
func FuzzDifferential(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 16, 64, 256, 1024, 4096} {
		seed := make([]byte, n)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := oracle.Bytes(data)
		net := oracle.Network(src, 400)
		check(t, &draw{src: src, net: net, in: oracle.Input(src, src.Intn(300)), rewrite: true})
	})
}

// coverage counts what the draws reached.
type coverage struct {
	autoBoth int // adaptive engines that ran both kernels
	skipped  int // symbols Skip crossed
	jumped   int // SpAP runs that jumped in the cold phase
	tripped  int // guarded runs that tripped
	midCold  int // crash-resumes into the cold phase
}

// draw is one network and input on their way through the executors; every
// choice an arm makes is drawn from src. rewrite runs the rewriter's arm,
// preflight lets the guarded runs take the pre-flight.
type draw struct {
	t                  testing.TB
	src                oracle.Source
	net                *automata.Network
	in                 []byte
	want               oracle.Result
	cov                *coverage
	rewrite, preflight bool
}

// check runs d through every arm.
func check(t testing.TB, d *draw) {
	t.Helper()
	d.t, d.want = t, oracle.Run(d.net, d.in)
	if d.cov == nil {
		d.cov = &coverage{}
	}
	d.kernels(d.net, d.want)
	d.engine()
	d.streamer()
	d.baseline()
	d.spap(d.net, d.want)
	if d.rewrite {
		d.rewriter()
	}
	d.bounds()
}

func (d *draw) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%d states, %d symbols: %s", d.net.Len(), len(d.in), fmt.Sprintf(format, args...))
}

// sameReports holds got to the oracle's reports, in order.
func (d *draw) sameReports(tag string, got []sim.Report, want []oracle.Report) {
	d.t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != sim.Report(want[i]) {
			d.fatalf("%s: report %d is %+v, the oracle's %+v", tag, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		d.fatalf("%s: %d reports, the oracle %d", tag, len(got), len(want))
	}
}

// sameEver holds an ever-enabled set to the oracle's.
func (d *draw) sameEver(tag string, get func(int) bool, want []bool) {
	d.t.Helper()
	for s, on := range want {
		if get(s) != on {
			d.fatalf("%s: state %d ever enabled %v, the oracle says %v", tag, s, !on, on)
		}
	}
}

var allKernels = []sim.Kernel{sim.KernelSparse, sim.KernelDense, sim.KernelAuto}

// Arm 1: sim.Run on every kernel, with and without ever-enabled tracking.
func (d *draw) kernels(net *automata.Network, want oracle.Result) {
	for _, k := range allKernels {
		for _, tracked := range []bool{false, true} {
			tag := fmt.Sprintf("sim.Run %v tracked=%v", k, tracked)
			res := sim.Run(net, d.in, sim.Options{CollectReports: true, TrackEnabled: tracked, Kernel: k})
			d.sameReports(tag, res.Reports, want.Reports)
			if res.NumReports != int64(len(want.Reports)) {
				d.fatalf("%s: %d reports counted, %d collected", tag, res.NumReports, len(want.Reports))
			}
			if tracked {
				d.sameEver(tag, res.EverEnabled.Get, want.Ever)
			}
		}
	}
}

// roundTrip encodes and decodes a snapshot, as a checkpoint slot does.
func (d *draw) roundTrip(snap *sim.Snapshot) *sim.Snapshot {
	var enc checkpoint.Enc
	snap.Encode(&enc)
	back, dec := &sim.Snapshot{}, checkpoint.NewDec(enc.Bytes())
	if err := back.Decode(dec); err != nil || dec.Done() != nil {
		d.fatalf("snapshot does not decode: %v, %v", err, dec.Done())
	}
	return back
}

// Arm 2: a pooled engine driven by Step and Skip over windows of drawn
// length, with drawn frontier edits between steps, its frontier held to the
// oracle's after every call. At a drawn position the engine's snapshot goes
// through the codec into a fresh engine, which runs the tail.
func (d *draw) engine() {
	src, in := d.src, d.in
	if len(in) == 0 {
		return
	}
	var edits []oracle.Edit
	for k := src.Intn(8); k > 0; k-- {
		edits = append(edits, oracle.Edit{At: src.Intn(len(in)), Op: "edt"[src.Intn(3)], S: automata.StateID(src.Intn(d.net.Len()))})
	}
	want := oracle.Run(d.net, in, edits...)
	opts := sim.Options{CollectReports: true, TrackEnabled: src.Intn(4) == 0, Kernel: allKernels[src.Intn(3)]}
	cut := src.Intn(len(in))
	var snap *sim.Snapshot
	// consume runs e from from on; a restored engine has had the edits at
	// from made before its snapshot.
	consume := func(tag string, e *sim.Engine, from int, restored bool) {
		for i := from; i < len(in); {
			end := min(len(in), i+1+src.Intn(16))
			for _, ed := range edits {
				switch {
				case ed.At > i:
					end = min(end, ed.At)
				case ed.At < i || restored && i == from:
				case ed.Op == 'e':
					e.EnableState(ed.S)
				case ed.Op == 'd':
					e.DisableState(ed.S)
				default:
					e.ToggleState(ed.S)
				}
			}
			if i == cut && snap == nil {
				snap = e.Snapshot(nil, int64(i))
			} else if i < cut {
				end = min(end, cut)
			}
			n := e.Skip(in[:end], i)
			if d.cov.skipped += n; n == 0 {
				e.Step(int64(i), in[i])
				n = 1
			}
			if i += n; e.FrontierLen() != want.Frontier[i-1] || e.FrontierEmpty() != (want.Frontier[i-1] == 0) {
				d.fatalf("%s %+v: frontier of %d after symbol %d, the oracle's %d", tag, opts, e.FrontierLen(), i-1, want.Frontier[i-1])
			}
		}
	}
	e := sim.AcquireEngine(d.net, opts)
	defer e.Release()
	consume("engine", e, 0, false)
	d.sameReports(fmt.Sprintf("engine %+v", opts), e.Reports(), want.Reports)
	if opts.Kernel == sim.KernelAuto && e.DenseSteps() > 0 && e.SparseSteps() > 0 {
		d.cov.autoBoth++
	}
	f := sim.NewEngine(d.net, opts)
	back := d.roundTrip(snap)
	if err := f.Restore(back); err != nil {
		d.fatalf("restore at %d: %v", cut, err)
	}
	consume("restored engine", f, cut, true)
	d.sameReports(fmt.Sprintf("engine %+v restored at %d", opts, cut), f.Reports(), want.Reports[back.NumReports:])
	if opts.TrackEnabled {
		d.sameEver("engine", e.EverEnabled().Get, want.Ever)
		d.sameEver("restored engine", f.EverEnabled().Get, want.Ever)
	}
}

// Arm 3: a Streamer fed in drawn chunks, its state carried through the
// codec into a fresh Streamer at a drawn chunk boundary: the serve
// session's path.
func (d *draw) streamer() {
	st, restore := sim.NewStreamer(d.net), d.src.Intn(len(d.in)+1)
	var got []sim.Report
	for i := 0; i < len(d.in); {
		end := min(len(d.in), i+1+d.src.Intn(64))
		if n, err := st.Write(d.in[i:end]); n != end-i || err != nil {
			d.fatalf("streamer: Write took %d of %d: %v", n, end-i, err)
		}
		got, i = append(got, st.TakeReports()...), end
		if i >= restore {
			restore = math.MaxInt
			next := sim.NewStreamer(d.net)
			if err := next.Restore(d.roundTrip(st.Snapshot(nil))); err != nil {
				d.fatalf("streamer: restore at %d: %v", i, err)
			}
			st = next
		}
	}
	d.sameReports("streamer", got, d.want.Reports)
}

// memStore is a checkpoint.Store in memory, keeping each name's last two
// saves: a crash-resume arm saves often and pays no fsync.
type memStore map[string][]memSlot

type memSlot struct {
	version uint32
	payload []byte
}

func (m memStore) Save(name string, version uint32, payload []byte) error {
	s := m[name]
	m[name] = append(s[max(0, len(s)-1):], memSlot{version, slices.Clone(payload)})
	return nil
}

func (m memStore) Load(name string) ([]byte, uint32, bool, error) {
	s := m[name]
	if len(s) == 0 {
		return nil, 0, false, checkpoint.ErrNoCheckpoint
	}
	return s[len(s)-1].payload, s[len(s)-1].version, false, nil
}

func (m memStore) LoadPrevious(name string) ([]byte, uint32, error) {
	s := m[name]
	if len(s) < 2 {
		return nil, 0, checkpoint.ErrNoCheckpoint
	}
	return s[0].payload, s[0].version, nil
}

func (m memStore) Names() ([]string, error) {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names, nil
}

func (m memStore) Remove(name string) error { delete(m, name); return nil }
func (m memStore) Clear() error             { clear(m); return nil }

// crashResume runs run uninterrupted, counting its chaos-hook polls, then
// again on a fresh store at a drawn capture interval, crashing at one or two
// drawn polls (counted across resumes) and resuming until it finishes. It
// returns both results.
func crashResume[R any](d *draw, run func(ck *checkpoint.Runner) (R, error)) (whole, resumed R) {
	d.t.Helper()
	polls := int64(0)
	whole, err := run(&checkpoint.Runner{CrashAt: func(int64) bool { polls++; return false }})
	if err != nil {
		d.fatalf("uninterrupted: %v", err)
	}
	if polls == 0 && len(d.in) > 0 {
		d.fatalf("the runner's chaos hook was never polled")
	}
	var kills []int64
	for k := 1 + d.src.Intn(2); k > 0 && polls > 0; k-- {
		kills = append(kills, 1+int64(d.src.Intn(int(polls))))
	}
	slices.Sort(kills)
	store, every, seen := memStore{}, int64(1+d.src.Intn(64)), int64(0)
	crash := func(int64) bool {
		seen++
		if len(kills) > 0 && seen >= kills[0] {
			kills = kills[1:]
			return true
		}
		return false
	}
	for attempt := 0; ; attempt++ {
		resumed, err = run(&checkpoint.Runner{Store: store, Name: "run", Every: every, CrashAt: crash})
		if err == nil {
			return whole, resumed
		}
		if !errors.Is(err, checkpoint.ErrCrashInjected) || attempt > 2 {
			d.fatalf("attempt %d, saving every %d: %v", attempt, every, err)
		}
	}
}

// maxNFA is the size of net's largest NFA.
func maxNFA(net *automata.Network) int {
	n := 0
	for u := range net.NumNFAs() {
		n = max(n, net.NFASize(u))
	}
	return n
}

// Arm 4: the baseline AP run with checkpoints, crashed and resumed.
func (d *draw) baseline() {
	type run struct {
		res     ap.BaselineResult
		reports []sim.Report
	}
	cfg := ap.DefaultConfig().WithCapacity(maxNFA(d.net) + d.src.Intn(d.net.Len()+1))
	whole, resumed := crashResume(d, func(ck *checkpoint.Runner) (run, error) {
		res, reports, err := ap.RunBaselineContext(context.Background(), d.net, d.in, cfg, true, ck)
		if res == nil {
			return run{}, err
		}
		return run{*res, reports}, err
	})
	d.sameReports("baseline", whole.reports, d.want.Reports)
	d.sameReports("baseline, crash-resumed", resumed.reports, d.want.Reports)
	if resumed.res != whole.res {
		d.fatalf("baseline: crash-resumed %+v, uninterrupted %+v", resumed.res, whole.res)
	}
}

// sameMultiset holds got to the oracle's reports in any order.
func (d *draw) sameMultiset(tag string, got []sim.Report, want []oracle.Report) {
	d.t.Helper()
	got = slices.Clone(got)
	slices.SortFunc(got, func(a, b sim.Report) int {
		return cmp.Or(cmp.Compare(a.Pos, b.Pos), cmp.Compare(a.State, b.State))
	})
	d.sameReports(tag, got, want)
}

// sameResult reports whether two SpAP results agree on everything but the
// resume bookkeeping.
func sameResult(a, b *spap.Result) bool {
	norm := func(r spap.Result) spap.Result {
		r.Resume = nil
		if math.IsNaN(r.JumpRatio) {
			r.JumpRatio = -1
		}
		if len(r.Reports) == 0 {
			r.Reports = nil
		}
		if len(r.SpAPBatchCycles) == 0 {
			r.SpAPBatchCycles = nil
		}
		return r
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// Arm 5: the SpAP executors over a partition of a drawn strategy, at a
// drawn capacity no smaller than the largest fragment.
func (d *draw) spap(net *automata.Network, want oracle.Result) {
	src, in := d.src, d.in
	var p *hotcold.Partition
	var err error
	strategy := src.Intn(3)
	switch strategy {
	case 0:
		p, err = hotcold.BuildFromProfile(net, in[:src.Intn(len(in)+1)], hotcold.Options{})
	case 1:
		p, err = hotcold.BuildWithStrategy(net, hotcold.StrategyStatic, hotcold.StrategyInput{}, hotcold.Options{})
	default:
		// Any layer from the deepest start's on: a start is hot by contract.
		topo := graph.TopoOrder(net)
		k := make([]int32, net.NumNFAs())
		for s, st := range net.States {
			if u := net.NFAOf[s]; st.Start != automata.StartNone {
				k[u] = max(k[u], topo.Order[s])
			}
		}
		for u := range k {
			k[u] = max(k[u], int32(1+src.Intn(int(topo.MaxPerNFA[u])+1)))
		}
		p, err = hotcold.Build(net, topo, k, hotcold.Options{})
	}
	// A profile never sees an all-input start with an empty symbol set
	// fire, and leaves it cold (lint AP013). Such a start never fires, so
	// the runs below still hold; the other strategies' partitions are
	// checked whole.
	if err == nil && strategy != 0 {
		err = p.CheckInvariants()
	}
	if err != nil {
		d.fatalf("partition (strategy %d): %v", strategy, err)
	}
	frag := max(maxNFA(net), maxNFA(p.Hot), maxNFA(p.Cold))
	cfg := ap.DefaultConfig().WithCapacity(frag + src.Intn(frag+1))
	cfg.EnablePorts = 1 + src.Intn(2)
	ctx, opts := context.Background(), spap.Options{CollectReports: true}

	plain, err := spap.RunBaseAPSpAP(p, in, cfg, opts)
	if err != nil {
		d.fatalf("RunBaseAPSpAP: %v", err)
	}
	d.sameMultiset("RunBaseAPSpAP", plain.Reports, want.Reports)
	if plain.SpAPCycles > int64(plain.SpAPExecutions)*int64(len(in))+plain.EnableStalls {
		d.fatalf("SpAP cycles %d over %d executions of %d symbols plus %d stalls", plain.SpAPCycles, plain.SpAPExecutions, len(in), plain.EnableStalls)
	}
	if ratio := 1 - float64(plain.SpAPProcessed)/(float64(plain.SpAPExecutions)*float64(len(in))); plain.SpAPExecutions == 0 && !math.IsNaN(plain.JumpRatio) ||
		plain.SpAPExecutions > 0 && math.Abs(plain.JumpRatio-ratio) > 1e-12 {
		d.fatalf("jump ratio %v, by definition %v", plain.JumpRatio, ratio)
	}
	if plain.JumpRatio > 0 {
		d.cov.jumped++
	}
	cpu, err := spap.RunAPCPU(ctx, p, in, cfg, opts)
	if err != nil {
		d.fatalf("RunAPCPU: %v", err)
	}
	d.sameMultiset("RunAPCPU", cpu.Reports, want.Reports)

	g := spap.Guard{}
	if src.Intn(3) != 0 {
		g = spap.Guard{MinReports: int64(1 + src.Intn(16)), ReportBudget: 1e-3, StallBudget: 1e-9,
			MaxRetries: src.Intn(3) - 1, HopelessFactor: []float64{2, 1e6}[src.Intn(2)]}
	}
	// The pre-flight's certified analysis takes 0.1-0.3 s on most hot
	// networks of a hundred states or more: it runs on small ones, whose
	// draws TestDifferential fixes.
	small, pres := d.preflight && p.Hot.Len() <= 24, []bool{false}
	if small {
		pres = append(pres, true)
	}
	for _, g.Preflight = range pres {
		res, err := spap.RunGuarded(ctx, p, in, cfg, g, opts)
		if err != nil {
			d.fatalf("RunGuarded %+v: %v", g, err)
		}
		d.sameReports(fmt.Sprintf("RunGuarded %+v", g), res.Reports, want.Reports)
		if spap.Tripped(res) {
			d.cov.tripped++
		}
	}
	g.Preflight = small && src.Intn(2) == 0
	for _, c := range []struct {
		name string
		run  func(ck *checkpoint.Runner) (*spap.Result, error)
	}{
		{"RunBaseAPSpAPContext", func(ck *checkpoint.Runner) (*spap.Result, error) {
			return spap.RunBaseAPSpAPContext(ctx, p, in, cfg, opts, ck)
		}},
		{"RunGuardedCheckpointed", func(ck *checkpoint.Runner) (*spap.Result, error) {
			return spap.RunGuardedCheckpointed(ctx, p, in, cfg, g, opts, ck)
		}},
	} {
		whole, resumed := crashResume(d, func(ck *checkpoint.Runner) (*spap.Result, error) {
			res, err := c.run(ck)
			if res != nil && res.Resume.Resumed && res.Resume.Phase == "spap" {
				d.cov.midCold++
			}
			return res, err
		})
		if !sameResult(resumed, whole) {
			d.fatalf("%s: crash-resumed %+v, uninterrupted %+v", c.name, resumed, whole)
		}
		d.sameMultiset(c.name, resumed.Reports, want.Reports)
	}
}

// Arm 6: the rewriter. Its certificates verify, a second rewrite changes
// nothing, OrigOf and NewID round-trip, the oracle reports the same on the
// rewritten network through OrigOf, and arms 1 and 5 hold there.
func (d *draw) rewriter() {
	res, err := rewrite.Rewrite(d.net, rewrite.Options{})
	if err != nil {
		d.fatalf("Rewrite: %v", err)
	}
	if err := res.Check(symset.Set{}); err != nil {
		d.fatalf("certificates: %v", err)
	}
	if again, err := rewrite.Rewrite(res.Net, rewrite.Options{}); err != nil || again.Changed() {
		d.fatalf("second rewrite: %v, changed %v", err, err == nil && again.Changed())
	}
	if len(res.OrigOf) != res.Net.Len() || len(res.NewID) != d.net.Len() {
		d.fatalf("OrigOf has %d entries for %d states, NewID %d for %d", len(res.OrigOf), res.Net.Len(), len(res.NewID), d.net.Len())
	}
	for k, o := range res.OrigOf {
		if res.NewID[o] != automata.StateID(k) {
			d.fatalf("NewID[OrigOf[%d]] = %d", k, res.NewID[o])
		}
	}
	if res.Net.Len() == 0 {
		if len(d.want.Reports) != 0 {
			d.fatalf("rewritten to nothing, and the oracle reports %d times", len(d.want.Reports))
		}
		return
	}
	want := oracle.Run(res.Net, d.in)
	mapped := make([]sim.Report, len(want.Reports))
	for i, r := range want.Reports {
		mapped[i] = sim.Report{Pos: r.Pos, State: res.OrigOf[r.State]}
	}
	d.sameMultiset("rewritten, through OrigOf", mapped, d.want.Reports)
	d.kernels(res.Net, want)
	d.spap(res.Net, want)
}

// Arm 7: the certified worst case bounds what the oracle saw.
func (d *draw) bounds() {
	a := worstcase.Analyze(d.net, worstcase.Config{GramBudget: 1 << 12})
	peak, burst := slices.Max(append([]int{0}, d.want.Frontier...)), 0
	for i := 0; i < len(d.want.Reports); {
		j := i
		for j < len(d.want.Reports) && d.want.Reports[j].Pos == d.want.Reports[i].Pos {
			j++
		}
		burst, i = max(burst, j-i), j
	}
	if a.FrontierBound < peak || a.ReportBound < burst {
		d.fatalf("certified frontier %d and reports %d a cycle; the oracle saw %d and %d", a.FrontierBound, a.ReportBound, peak, burst)
	}
}
