package sim

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/symset"
)

// fig2Input synthesizes a deterministic stream over Figure 2's alphabet
// dense enough in matches to exercise report bookkeeping.
func fig2Input(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	alphabet := []byte("abcdf")
	in := make([]byte, n)
	for i := range in {
		in[i] = alphabet[r.Intn(len(alphabet))]
	}
	return in
}

func reportsMatch(a, b []Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotRestoreMidRunEquivalence(t *testing.T) {
	net := figure2()
	input := fig2Input(4096, 7)
	for _, track := range []bool{false, true} {
		opts := Options{CollectReports: true, TrackEnabled: track}
		want := Run(net, input, opts)

		// Run a prefix, snapshot, then restore into a second engine and
		// stream the suffix; together they must replay the whole run.
		cut := int64(len(input) / 3)
		e1 := NewEngine(net, opts)
		for i := int64(0); i < cut; i++ {
			e1.Step(i, input[i])
		}
		snap := e1.Snapshot(nil, cut)
		prefix := append([]Report(nil), e1.Reports()...)

		e2 := NewEngine(net, opts)
		if err := e2.Restore(snap); err != nil {
			t.Fatalf("track=%v: Restore: %v", track, err)
		}
		for i := cut; i < int64(len(input)); i++ {
			e2.Step(i, input[i])
		}
		got := append(prefix, e2.Reports()...)
		if !reportsMatch(got, want.Reports) {
			t.Fatalf("track=%v: restored stream diverged: %d vs %d reports", track, len(got), len(want.Reports))
		}
		if e2.NumReports() != want.NumReports {
			t.Fatalf("track=%v: NumReports = %d, want %d", track, e2.NumReports(), want.NumReports)
		}
		if e2.DenseSteps()+e2.SparseSteps() != int64(len(input)) {
			t.Fatalf("track=%v: kernel counters lost: dense %d + sparse %d != %d",
				track, e2.DenseSteps(), e2.SparseSteps(), len(input))
		}
		if track && !e2.EverEnabled().Equal(want.EverEnabled) {
			t.Fatalf("track=%v: ever-enabled vector diverged", track)
		}
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	net := figure2()
	input := fig2Input(512, 3)
	e := NewEngine(net, Options{CollectReports: true, TrackEnabled: true})
	for i := int64(0); i < 300; i++ {
		e.Step(i, input[i])
	}
	snap := e.Snapshot(nil, 300)

	var enc checkpoint.Enc
	snap.Encode(&enc)
	var back Snapshot
	d := checkpoint.NewDec(enc.Bytes())
	if err := back.Decode(d); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	e2 := NewEngine(net, Options{CollectReports: true, TrackEnabled: true})
	if err := e2.Restore(&back); err != nil {
		t.Fatalf("Restore decoded snapshot: %v", err)
	}
	for i := int64(300); i < int64(len(input)); i++ {
		e2.Step(i, input[i])
	}
	want := Run(net, input, Options{CollectReports: true, TrackEnabled: true})
	if e2.NumReports() != want.NumReports {
		t.Fatalf("NumReports after decoded restore = %d, want %d", e2.NumReports(), want.NumReports)
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	net := figure2()
	e := NewEngine(net, Options{})
	snap := e.Snapshot(nil, 0)

	wrong := *snap
	wrong.N = snap.N + 1
	if err := e.Restore(&wrong); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("state-count mismatch: err = %v", err)
	}
	// Tracking mismatch: snapshot without ever, engine with it.
	tracked := NewEngine(net, Options{TrackEnabled: true})
	if err := tracked.Restore(snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("tracking mismatch: err = %v", err)
	}
	// Tampered popcount must be caught.
	bad := e.Snapshot(nil, 0)
	bad.FrontierLen++
	if err := e.Restore(bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("popcount mismatch: err = %v", err)
	}

	// Slots reach Restore from disk and from replica peers. One that does
	// not fit must be refused before the engine is touched: after each of
	// these the engine's remaining stream is that of a twin that never saw
	// the bad snapshot. Figure 2 has six states; state 0 is its all-input
	// start.
	input := fig2Input(600, 21)
	tracking := Options{CollectReports: true, TrackEnabled: true}
	atCut, donor := NewEngine(net, tracking), NewEngine(net, tracking)
	cut := 0 // mid-stream, with something enabled
	for ; cut < 200 || atCut.FrontierLen() < 2; cut++ {
		atCut.Step(int64(cut), input[cut])
	}
	// The bad snapshots are taken where the frontier is another than at the
	// cut, so that a restore that got as far as copying shows.
	for i := 0; donor.FrontierEmpty() || slices.Equal(donor.Snapshot(nil, 0).Frontier, atCut.Snapshot(nil, 0).Frontier); i++ {
		donor.Step(int64(i), input[i])
	}
	rows := map[string]func(s *Snapshot){
		"popcount off by two": func(s *Snapshot) { s.FrontierLen += 2 },
		"bit past the last state": func(s *Snapshot) {
			s.Frontier[0] |= 1 << 63
			s.FrontierLen++
		},
		"bit on an all-input start": func(s *Snapshot) {
			s.Frontier[0] |= 1
			s.FrontierLen++
		},
		"ever-enabled vector too long":         func(s *Snapshot) { s.Ever = append(s.Ever, 0) },
		"ever-enabled bit past the last state": func(s *Snapshot) { s.Ever[0] |= 1 << 6 },
	}
	for name, damage := range rows {
		t.Run(name, func(t *testing.T) {
			for _, k := range []Kernel{KernelSparse, KernelDense} {
				opts := tracking
				opts.Kernel = k
				e, twin := NewEngine(net, opts), NewEngine(net, opts)
				for i := 0; i < cut; i++ {
					e.Step(int64(i), input[i])
					twin.Step(int64(i), input[i])
				}
				bad := donor.Snapshot(nil, int64(cut))
				damage(bad)
				if err := e.Restore(bad); !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("%v: err = %v, want ErrSnapshotMismatch", k, err)
				}
				if got, want := e.Snapshot(nil, int64(cut)), twin.Snapshot(nil, int64(cut)); !sameState(got, want) {
					t.Fatalf("%v: the refused restore left the engine at %+v, the twin is at %+v", k, got, want)
				}
				for i := cut; i < len(input); i++ {
					e.Step(int64(i), input[i])
					twin.Step(int64(i), input[i])
					if e.FrontierLen() != twin.FrontierLen() {
						t.Fatalf("%v: frontier of %d after symbol %d, the twin's %d", k, e.FrontierLen(), i, twin.FrontierLen())
					}
				}
				if !reportsMatch(e.Reports(), twin.Reports()) || !e.EverEnabled().Equal(twin.EverEnabled()) {
					t.Fatalf("%v: the refused restore changed the stream: %d reports, the twin's %d", k, len(e.Reports()), len(twin.Reports()))
				}
			}
		})
	}
}

// A refused Restore on a pooled engine must not outlive the run: the parent
// copied the bitmap before it checked the popcount, and Reset, clearing by a
// list that looked valid, handed the next Acquire an engine with a phantom
// bit — never walked, but believed by activate's dedupe, so that state was
// silently never enabled again.
func TestRefusedRestoreLeavesPooledEngineClean(t *testing.T) {
	net := figure2()
	input := fig2Input(400, 23)
	want := Run(net, input, Options{CollectReports: true}).Reports

	donor := NewEngine(net, Options{})
	for i := 0; donor.FrontierLen() < 2; i++ {
		donor.Step(int64(i), input[i])
	}
	bad := donor.Snapshot(nil, 0)
	bad.FrontierLen += 2

	e := AcquireEngine(net, Options{CollectReports: true})
	if err := e.Restore(bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	e.Release()
	e = AcquireEngine(net, Options{CollectReports: true}) // the same engine, unless the pool dropped it
	defer e.Release()
	for w, x := range e.cur {
		if x != 0 {
			t.Fatalf("acquired engine has FrontierLen %d and cur[%d] = %#x", e.FrontierLen(), w, x)
		}
	}
	for i, b := range input {
		e.Step(int64(i), b)
	}
	if !reportsMatch(e.Reports(), want) {
		t.Fatalf("engine acquired after a refused restore: %d reports, want %d", len(e.Reports()), len(want))
	}
}

// TestReleaseScrubsRunHooks is the pooled-engine hygiene regression: a
// recycled engine must not deliver reports to a dead consumer.
func TestReleaseScrubsRunHooks(t *testing.T) {
	net := figure2()
	e := AcquireEngine(net, Options{CollectReports: true, TrackEnabled: true})
	e.OnReport = func(pos int64, s automata.StateID) {}
	input := fig2Input(256, 1)
	for i := int64(0); i < int64(len(input)); i++ {
		e.Step(i, input[i])
	}
	if e.ever == nil {
		t.Fatal("precondition: tracking engine has no ever vector")
	}
	e.Release()
	if e.OnReport != nil || e.ever != nil {
		t.Fatalf("Release left hooks: OnReport=%v ever=%v", e.OnReport != nil, e.ever != nil)
	}
	if e.numReports != 0 || len(e.reports) != 0 {
		t.Fatalf("Release left report state: numReports=%d len=%d", e.numReports, len(e.reports))
	}

	// Functional check: a fresh acquisition (possibly the same pooled
	// engine) must replay nothing of the last run.
	want := NewEngine(net, Options{CollectReports: true})
	want.Run(0, input)
	if res := Run(net, input, Options{CollectReports: true}); !reportsMatch(res.Reports, want.Reports()) {
		t.Fatal("recycled engine replayed stale run state")
	}
}

// TestReleaseCapsPooledReportCapacity: a report-dense run must not pin a
// huge backing array in the pool.
func TestReleaseCapsPooledReportCapacity(t *testing.T) {
	net := figure2()
	e := AcquireEngine(net, Options{CollectReports: true})
	e.reports = make([]Report, 0, maxPooledReportCap+1)
	e.Release()
	if e.reports != nil {
		t.Fatalf("oversized report buffer retained: cap %d", cap(e.reports))
	}
	e = AcquireEngine(net, Options{CollectReports: true})
	e.reports = make([]Report, 5, maxPooledReportCap)
	e.Release()
	if cap(e.reports) != maxPooledReportCap || len(e.reports) != 0 {
		t.Fatalf("in-bounds buffer not kept empty: len %d cap %d", len(e.reports), cap(e.reports))
	}
}

// RunContext hands its caller the engine's own report slice when Release
// would drop it for its size, and a copy otherwise. Either way the slice
// is the caller's: a second run on the re-acquired engine must leave it
// as it was, and must itself report what a fresh engine reports.
func TestRunReportsSurviveEngineReuse(t *testing.T) {
	m := automata.NewNFA()
	m.Add(symset.Single('a'), automata.StartAllInput, true)
	m.Add(symset.Single('b'), automata.StartAllInput, true)
	net := automata.NewNetwork(m)
	fresh := func(input []byte) []Report {
		e := NewEngine(net, Options{CollectReports: true})
		for i, b := range input {
			e.Step(int64(i), b)
		}
		return e.Reports()
	}
	for _, n := range []int{100, maxPooledReportCap + 4000} {
		first := []byte(strings.Repeat("ab", n/2))
		second := []byte(strings.Repeat("bba", n/2))
		res := Run(net, first, Options{CollectReports: true})
		if handed := cap(res.Reports) > maxPooledReportCap; handed != (n > maxPooledReportCap) {
			t.Fatalf("%d reports: returned slice has capacity %d", n, cap(res.Reports))
		}
		if !slices.Equal(res.Reports, fresh(first)) {
			t.Fatalf("%d reports: first run differs from a fresh engine's", n)
		}
		res2 := Run(net, second, Options{CollectReports: true}) // the pooled engine again
		if !slices.Equal(res.Reports, fresh(first)) {
			t.Fatalf("%d reports: the first run's reports changed under the second run", n)
		}
		if !slices.Equal(res2.Reports, fresh(second)) {
			t.Fatalf("%d reports: second run on the pooled engine differs from a fresh engine's", n)
		}
	}
}

func TestStreamerResetAfterCancellation(t *testing.T) {
	net := figure2()
	// Long enough that the resumed Write crosses a cancellation poll
	// (every cancelCheckInterval symbols of total stream position).
	input := fig2Input(2*cancelCheckInterval, 13)
	want := Run(net, input, Options{CollectReports: true})

	ctx, cancel := context.WithCancel(context.Background())
	st := NewStreamer(net)
	st.SetContext(ctx)
	// Feed a chunk, then cancel mid-stream: the next Write must stop at a
	// cancellation poll with the context error.
	if _, err := st.Write(input[:1000]); err != nil {
		t.Fatal(err)
	}
	cancel()
	n, err := st.Write(input[1000:])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Write: n=%d err=%v", n, err)
	}
	if n == len(input)-1000 {
		t.Fatal("cancelled Write consumed the whole chunk")
	}
	// Reset rewinds the matcher state completely...
	st.Reset()
	if st.Pos() != 0 || len(st.buf) != 0 || st.NumReports() != 0 {
		t.Fatalf("Reset left state: pos=%d buf=%d num=%d", st.Pos(), len(st.buf), st.NumReports())
	}
	// ...but the construction-scoped context stays cancelled: a further
	// Write must refuse at the first poll rather than half-run.
	if n, err := st.Write(input); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("Write on cancelled streamer: n=%d err=%v", n, err)
	}
	// A replacement streamer over the same network replays the stream
	// exactly, chunked arbitrarily (including an empty chunk).
	st2 := NewStreamer(net)
	for _, chunk := range [][]byte{input[:700], input[700:700], input[700:]} {
		if _, err := st2.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if !reportsMatch(st2.TakeReports(), want.Reports) {
		t.Fatal("replacement stream diverged from a fresh run")
	}
}

func TestStreamerSnapshotRestoreRoundTrip(t *testing.T) {
	net := figure2()
	input := fig2Input(2048, 17)
	want := Run(net, input, Options{CollectReports: true})

	st := NewStreamer(net)
	if _, err := st.Write(input[:900]); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot(nil)
	if snap.Pos != 900 {
		t.Fatalf("snapshot pos = %d, want 900", snap.Pos)
	}
	prefix := st.TakeReports()

	// A different streamer over the same network picks up mid-stream.
	st2 := NewStreamer(net)
	if err := st2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if st2.Pos() != 900 || len(st2.buf) != 0 {
		t.Fatalf("restored pos=%d buf=%d", st2.Pos(), len(st2.buf))
	}
	if _, err := st2.Write(input[900:]); err != nil {
		t.Fatal(err)
	}
	got := append(prefix, st2.TakeReports()...)
	if !reportsMatch(got, want.Reports) {
		t.Fatalf("restored stream diverged: %d vs %d reports", len(got), len(want.Reports))
	}
	if st2.NumReports() != want.NumReports {
		t.Fatalf("NumReports = %d, want %d", st2.NumReports(), want.NumReports)
	}

	// Reset after a restore must return to a genuinely fresh matcher.
	st2.Reset()
	if _, err := st2.Write(input); err != nil {
		t.Fatal(err)
	}
	if !reportsMatch(st2.TakeReports(), want.Reports) {
		t.Fatal("post-restore Reset did not fully rewind")
	}
}

// TestStreamerBoundedBufferBackpressure exercises the overflow contract:
// Write stops at the overflowing symbol, the drained prefix plus the
// post-drain stream covers everything except reports beyond the cap at
// the overflow point, and NumReports still counts them all.
func TestStreamerBoundedBufferBackpressure(t *testing.T) {
	// One report per 'x' makes the arithmetic exact.
	m := automata.NewNFA()
	m.Add(symset.Single('x'), automata.StartAllInput, true)
	net := automata.NewNetwork(m)
	input := []byte("xxxxx")

	st := NewStreamer(net)
	st.cap = 2
	n, err := st.Write(input)
	if !errors.Is(err, ErrReportOverflow) {
		t.Fatalf("Write = %d, %v; want ErrReportOverflow", n, err)
	}
	if n != 3 {
		t.Fatalf("consumed %d symbols before overflow, want 3", n)
	}
	drained := st.TakeReports()
	if len(drained) != 2 {
		t.Fatalf("drained %d reports, want 2", len(drained))
	}
	// The overflowing symbol's report is documented as lost; the stream
	// resumes cleanly after a drain.
	if _, err := st.Write(input[n:]); err != nil {
		t.Fatal(err)
	}
	rest := st.TakeReports()
	if len(rest) != 2 {
		t.Fatalf("post-drain reports = %d, want 2", len(rest))
	}
	if st.NumReports() != 5 {
		t.Fatalf("NumReports = %d, want 5 (overflow must still count)", st.NumReports())
	}
}
