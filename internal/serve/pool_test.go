package serve

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
)

// letterNet reports every symbol of 'a'..'z' at a state of its own, so a
// stream holds one report per symbol and two inputs' streams differ
// wherever their letters do.
func letterNet() *automata.Network {
	nfa := automata.NewNFA()
	for c := byte('a'); c <= 'z'; c++ {
		nfa.Add(symset.Range(c, c), automata.StartAllInput, true)
	}
	return automata.NewNetwork(nfa)
}

func letterInput(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	in := make([]byte, n)
	for i := range in {
		in[i] = byte('a' + r.Intn(26))
	}
	return in
}

// waitSessions blocks until tenant t0 has n completed sessions.
func waitSessions(t *testing.T, h *harness, n int64) {
	t.Helper()
	const key = `serve_sessions_completed{tenant="t0"}`
	for deadline := time.Now().Add(5 * time.Second); h.s.Registry().Snapshot()[key] < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v sessions completed, want %v", h.s.Registry().Snapshot()[key], n)
		}
	}
}

// TestReportHeavySessionAllocationBytes bounds the bytes a warmed-up
// report-heavy session allocates, server and client together, over an
// in-process server with a durable store: no more than twice the report
// slice the client returns plus a fixed allowance. The server's window,
// capture, record and render buffers come from its pool, the store
// encodes into its stripe's buffer, and the client collects into a pooled
// list and allocates only the copy it returns; a session that regrows each
// of those from nothing allocates several times its report slice.
// sync.Pool keeps what one P put back where a Get on another P cannot
// take it, so the test runs on one P, and the bound holds the least of
// four sessions (the race detector drops a share of what is put back).
func TestReportHeavySessionAllocationBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const symbols = 1 << 16 // one report each: the client's list ends full
	h := startServer(t, Config{RatePerSec: 1e6}, letterNet())
	cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "t0"}
	input := letterInput(1, symbols)
	stream := func() *StreamResult {
		res, err := cl.Stream(context.Background(), "test", input)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const warm = 3
	for i := 0; i < warm; i++ {
		stream()
	}
	waitSessions(t, h, warm)
	var res *StreamResult
	got := uint64(math.MaxUint64)
	for i := int64(1); i <= 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res = stream()
		waitSessions(t, h, warm+i)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}

	reportBytes := uint64(len(res.Reports)) * uint64(unsafe.Sizeof(sim.Report{}))
	allowance := uint64(512 << 10)
	if raceEnabled {
		allowance = 2 << 20
	}
	t.Logf("a session of %d reports (%d bytes) allocated %d bytes", len(res.Reports), reportBytes, got)
	if got > 2*reportBytes+allowance {
		t.Fatalf("a session of %d reports allocated %d bytes, want <= 2 x %d + %d",
			len(res.Reports), got, reportBytes, allowance)
	}
}

// TestConcurrentReportHeavySessions runs report-heavy sessions on several
// clients at once, every one a different input whose length is no
// multiple of the capture interval, so each ends on a save of a partial
// window. The server lends each session pooled buffers; a buffer another
// session still writes to would show as a stream that is not sim.Run's,
// or as an end record the client cannot complete, so no attempt may fail.
// Each client checks its results again after its last session: a result
// that aliased the client's pooled list would have been overwritten.
func TestConcurrentReportHeavySessions(t *testing.T) {
	const clients, sessions = 6, 4
	net := letterNet()
	h := startServer(t, Config{Every: 1024, RatePerSec: 1e6}, net)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "t0"}
			var got, want [][]sim.Report
			for i := 0; i < sessions; i++ {
				seed := int64(c*sessions + i + 1)
				input := letterInput(seed, 6000+int(seed)*337)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				res, err := cl.Stream(ctx, "test", input)
				cancel()
				if err != nil {
					t.Errorf("client %d session %d: %v", c, i, err)
					return
				}
				got = append(got, res.Reports)
				want = append(want, sim.Run(net, input, sim.Options{CollectReports: true}).Reports)
				if err := sameReports(got[i], want[i]); err != nil {
					t.Errorf("client %d session %d: %v", c, i, err)
					return
				}
			}
			for i := range got {
				if err := sameReports(got[i], want[i]); err != nil {
					t.Errorf("client %d session %d, after the last: %v", c, i, err)
				}
			}
			if n := cl.Retries.Load(); n != 0 {
				t.Errorf("client %d: %d retries on a server nothing interrupted", c, n)
			}
		}(c)
	}
	wg.Wait()
	waitSessions(t, h, clients*sessions)
	if snap := h.s.Registry().Snapshot(); snap[`serve_sessions_started{tenant="t0"}`] != clients*sessions {
		t.Fatalf("sessions started: %v, want %d", snap, clients*sessions)
	}
}

// TestPutBufsDropsOnlyOversized: a finished session's buffers go back
// emptied, except one past maxPooledBytes, which is dropped so the pool
// does not pin a report storm's window.
func TestPutBufsDropsOnlyOversized(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store})
	b := newSessionBufs().(*sessionBufs)
	snap := b.snap
	snap.Frontier = make([]uint64, 4) // Ever stays nil: tracking off
	b.window = make([]sim.Report, 3, maxPooledBytes/unsafe.Sizeof(sim.Report{})+1)
	b.out = make([]byte, 5, 1024)
	s.putBufs(b)
	if b.window != nil {
		t.Errorf("an oversized window went back with capacity %d", cap(b.window))
	}
	if len(b.out) != 0 || cap(b.out) != 1024 {
		t.Errorf("out went back as len %d cap %d, want 0 and 1024", len(b.out), cap(b.out))
	}
	if b.snap != snap {
		t.Error("a small capture was dropped")
	}
}
