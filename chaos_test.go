package sparseap_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseap"
	"sparseap/internal/checkpoint/ckpttest"
	"sparseap/internal/oracle"
	"sparseap/internal/replica"
	"sparseap/internal/serve"
	"sparseap/internal/workloads"
)

// chaosKills fires an injected crash each time the chaos-hook poll count
// crosses one of the thresholds in at; the counter spans resumes.
type chaosKills struct {
	checks int64
	at     []int64
	next   int
}

func (k *chaosKills) hook(pos int64) bool {
	k.checks++
	if k.next < len(k.at) && k.checks >= k.at[k.next] {
		k.next++
		return true
	}
	return false
}

// soakApp builds one suite application at chaos-soak scale.
func soakApp(t *testing.T, abbr string) (*workloads.App, *sparseap.Engine, *sparseap.Partition) {
	t.Helper()
	app, err := workloads.Build(abbr, workloads.Config{Divisor: 64, InputLen: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sparseap.DefaultAPConfig()
	cfg.Capacity = 375 // half-core scaled by the divisor
	eng := sparseap.NewEngine(cfg)
	n := len(app.Input) / 100
	if n < 2 {
		n = 2
	}
	p, err := eng.Partition(app.Net, app.Input[:n])
	if err != nil {
		t.Fatal(err)
	}
	return app, eng, p
}

func sameReports(a, b []sparseap.Report) bool {
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

// TestChaosSoakBaseAPSpAP kills each suite application at five seeded
// points spread across its whole execution and resumes from the durable
// store every time; after the first kill it also corrupts the newest
// checkpoint record, so a resume must fall back to the record before it.
// The final report stream must be bit-identical to the uninterrupted
// run's — no duplicates, no losses — and every kill point must actually
// fire.
func TestChaosSoakBaseAPSpAP(t *testing.T) {
	apps := []string{"HM", "Snort", "Fermi", "PEN", "TCP"}
	if testing.Short() {
		apps = apps[:2]
	}
	ctx := context.Background()
	for _, abbr := range apps {
		t.Run(abbr, func(t *testing.T) {
			app, eng, p := soakApp(t, abbr)
			want, err := eng.RunBaseAPSpAPContext(ctx, p, app.Input, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Probe pass counts chaos polls so the five kill thresholds
			// cover early, middle, and late execution.
			probe := &chaosKills{}
			if _, err := eng.RunBaseAPSpAPContext(ctx, p, app.Input,
				&sparseap.CheckpointRunner{CrashAt: probe.hook}); err != nil {
				t.Fatal(err)
			}
			kills := &chaosKills{}
			for i := 1; i <= 5; i++ {
				kills.at = append(kills.at, probe.checks*int64(2*i-1)/10)
			}
			dir := t.TempDir()
			store, err := sparseap.OpenCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got *sparseap.ExecResult
			corrupted, recovered := false, false
			for attempt := 0; ; attempt++ {
				if attempt > len(kills.at)+2 {
					t.Fatalf("kill/resume loop did not converge after %d attempts", attempt)
				}
				ck := &sparseap.CheckpointRunner{Store: store, Name: "spap", Every: 128, CrashAt: kills.hook}
				got, err = eng.RunBaseAPSpAPContext(ctx, p, app.Input, ck)
				if got != nil && got.Resume.Recovered {
					recovered = true
				}
				if err == nil {
					break
				}
				if !errors.Is(err, sparseap.ErrCrashInjected) {
					t.Fatalf("attempt %d: %v", attempt, err)
				}
				if !corrupted {
					// Flip a byte in the newest record; the next resume must
					// fall back to the checkpoint before it.
					ckpttest.DamageLatest(t, dir, "spap")
					corrupted = true
				}
			}
			if kills.next != len(kills.at) {
				t.Fatalf("only %d of %d kill points fired", kills.next, len(kills.at))
			}
			if !recovered {
				t.Fatal("no resume reported Resume.Recovered after the newest record was corrupted")
			}
			if !sameReports(got.Reports, want.Reports) {
				t.Fatalf("resumed stream diverged: %d vs %d reports", len(got.Reports), len(want.Reports))
			}
			if got.NumReports != want.NumReports {
				t.Fatalf("NumReports = %d, want %d (duplicate or lost reports across resumes)",
					got.NumReports, want.NumReports)
			}
		})
	}
}

// TestChaosSoakGuarded runs the kill/resume soak through the guarded
// executor, whose ladder state (attempts, fallbacks) must also survive.
func TestChaosSoakGuarded(t *testing.T) {
	ctx := context.Background()
	app, eng, p := soakApp(t, "HM")
	g := sparseap.DefaultGuard()
	want, err := eng.RunGuarded(ctx, p, app.Input, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := &chaosKills{}
	if _, err := eng.RunGuarded(ctx, p, app.Input, g,
		&sparseap.CheckpointRunner{CrashAt: probe.hook}); err != nil {
		t.Fatal(err)
	}
	kills := &chaosKills{}
	for i := 1; i <= 5; i++ {
		kills.at = append(kills.at, probe.checks*int64(2*i-1)/10)
	}
	store, err := sparseap.OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var got *sparseap.ExecResult
	for attempt := 0; ; attempt++ {
		if attempt > len(kills.at)+2 {
			t.Fatalf("kill/resume loop did not converge after %d attempts", attempt)
		}
		ck := &sparseap.CheckpointRunner{Store: store, Name: "spap", Every: 256, CrashAt: kills.hook}
		got, err = eng.RunGuarded(ctx, p, app.Input, g, ck)
		if err == nil {
			break
		}
		if !errors.Is(err, sparseap.ErrCrashInjected) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
	if !sameReports(got.Reports, want.Reports) {
		t.Fatalf("guarded resumed stream diverged: %d vs %d reports", len(got.Reports), len(want.Reports))
	}
	if (got.Guard == nil) != (want.Guard == nil) {
		t.Fatalf("guard stats presence diverged")
	}
}

// serveChaosHarness is one in-process server generation over a shared
// checkpoint directory: aborting it and starting the next generation is
// the in-process stand-in for SIGKILL + restart (the out-of-process
// version, with a real SIGKILL, lives in scripts/serve_soak.sh restart).
type serveChaosHarness struct {
	t    *testing.T
	dir  string
	apps []*workloads.App
	cfg  workloads.Config

	mu  sync.Mutex
	s   *serve.Server
	ts  *httptest.Server
	url atomic.Value
}

func newServeChaosHarness(t *testing.T, abbrs []string) *serveChaosHarness {
	t.Helper()
	h := &serveChaosHarness{t: t, dir: t.TempDir(),
		cfg: workloads.Config{Divisor: 64, InputLen: 131072}}
	for _, abbr := range abbrs {
		app, err := workloads.Build(abbr, h.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.apps = append(h.apps, app)
	}
	h.start()
	return h
}

// start brings up the next server generation over the shared store.
func (h *serveChaosHarness) start() {
	h.t.Helper()
	store, err := sparseap.OpenCheckpointStore(h.dir)
	if err != nil {
		h.t.Fatal(err)
	}
	s := serve.New(serve.Config{Store: store, Every: 2048})
	for _, app := range h.apps {
		if err := s.AddApp(app.Abbr, app.Net, h.cfg.Fingerprint(app.Abbr)); err != nil {
			h.t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	h.t.Cleanup(ts.Close)
	h.mu.Lock()
	h.s, h.ts = s, ts
	h.mu.Unlock()
	h.url.Store(ts.URL)
}

// TestChaosServeKillResume is the serve chaos cell: three applications
// stream concurrently through the server, the server is killed twice
// mid-stream (crash semantics: no checkpoint on the way down) and
// restarted over the same store, and every resumed session must deliver
// a report stream bit-identical to an uninterrupted local run — no
// duplicates, no losses.
func TestChaosServeKillResume(t *testing.T) {
	abbrs := []string{"HM", "PEN", "TCP"}
	h := newServeChaosHarness(t, abbrs)

	type gen struct {
		s  *serve.Server
		ts *httptest.Server
	}
	// Kill schedule: two kills while the streams are in flight.
	done := make(chan struct{})
	var kills int
	go func() {
		defer close(done)
		for _, delay := range []time.Duration{40 * time.Millisecond, 120 * time.Millisecond} {
			time.Sleep(delay)
			h.mu.Lock()
			old := gen{h.s, h.ts}
			h.mu.Unlock()
			h.start() // next generation over the same store
			old.s.Abort()
			old.ts.CloseClientConnections()
			kills++
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, len(h.apps))
	retries := new(atomic.Int64)
	for i, app := range h.apps {
		wg.Add(1)
		go func(i int, app *workloads.App) {
			defer wg.Done()
			cl := &serve.Client{
				URL:    func() string { return h.url.Load().(string) },
				Tenant: fmt.Sprintf("tenant-%d", i),
				Chunk:  512,
				Pace:   300 * time.Microsecond, // stretch past both kills
			}
			res, err := cl.Stream(context.Background(), app.Abbr, app.Input)
			retries.Add(cl.Retries.Load())
			if err != nil {
				errs <- fmt.Errorf("%s: %w", app.Abbr, err)
				return
			}
			want := oracle.Reports[sparseap.Report](app.Net, app.Input)
			if !sameReports(res.Reports, want) {
				errs <- fmt.Errorf("%s: resumed stream diverged: %d vs %d reports",
					app.Abbr, len(res.Reports), len(want))
				return
			}
			errs <- nil
		}(i, app)
	}
	wg.Wait()
	<-done
	for range h.apps {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if kills != 2 {
		t.Fatalf("kill schedule fired %d of 2 kills", kills)
	}
	if retries.Load() == 0 {
		t.Fatal("no client ever retried — the kills missed every stream and the cell tested nothing")
	}
}

// TestChaosServeClusterFailover is the cluster chaos cell: node A
// replicates every committed checkpoint slot to follower B (ack quorum
// 1, so reports release only once B holds the covering slot), the
// client streams against A with B as a peer, and A is SIGKILLed
// (Abort + dropped connections) mid-stream and never comes back. The
// client must fail over to B, resume from the replicated slots, and
// assemble a report stream bit-identical to an uninterrupted local run
// — without ever restarting from scratch. The out-of-process version,
// with a real SIGKILL, lives in scripts/serve_soak.sh failover.
func TestChaosServeClusterFailover(t *testing.T) {
	cfg := workloads.Config{Divisor: 64, InputLen: 131072}
	app, err := workloads.Build("HM", cfg)
	if err != nil {
		t.Fatal(err)
	}

	storeB, err := sparseap.OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sB := serve.New(serve.Config{Store: storeB, Every: 2048})
	if err := sB.AddApp("HM", app.Net, cfg.Fingerprint("HM")); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(sB.Handler())
	defer tsB.Close()

	localA, err := sparseap.OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sA := serve.New(serve.Config{
		Store: replica.New(localA, replica.Options{
			Followers: []string{tsB.URL},
			Ack:       1,
		}),
		Every: 2048,
	})
	if err := sA.AddApp("HM", app.Net, cfg.Fingerprint("HM")); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA.Handler())
	defer tsA.Close()

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(40 * time.Millisecond)
		sA.Abort()
		tsA.CloseClientConnections()
	}()

	cl := &serve.Client{
		URL:    func() string { return tsA.URL },
		Peers:  []string{tsB.URL},
		Tenant: "tenant-0",
		Chunk:  512,
		Pace:   300 * time.Microsecond, // stretch the stream past the kill
	}
	res, err := cl.Stream(context.Background(), "HM", app.Input)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Reports[sparseap.Report](app.Net, app.Input)
	if !sameReports(res.Reports, want) {
		t.Fatalf("failed-over stream diverged: %d vs %d reports", len(res.Reports), len(want))
	}
	if cl.Retries.Load() == 0 {
		t.Fatal("no retry happened — the kill missed the stream and the cell tested nothing")
	}
	if cl.Failovers.Load() == 0 {
		t.Fatal("client never failed over to the follower")
	}
	if cl.Resumes.Load() == 0 {
		t.Fatal("client never resumed from the replicated slots")
	}
	if cl.Restarts.Load() != 0 {
		t.Fatalf("failover forced %d restarts; replication must make the resume seamless", cl.Restarts.Load())
	}

	// A one-shot match through the same client, with A's listener gone
	// too: the client must skip the unreachable primary and B must answer.
	tsA.Close()
	prefix := app.Input[:16384]
	failovers := cl.Failovers.Load()
	m, shed, _, err := cl.Match(context.Background(), "HM", prefix)
	if err != nil || shed {
		t.Fatalf("match after node loss: shed=%v err=%v", shed, err)
	}
	wantMatch := oracle.Reports[sparseap.Report](app.Net, prefix)
	gotMatch := make([]sparseap.Report, len(m.Reports))
	for i, r := range m.Reports {
		gotMatch[i] = sparseap.Report{Pos: r[0], State: sparseap.StateID(r[1])}
	}
	if len(wantMatch) == 0 || !sameReports(gotMatch, wantMatch) {
		t.Fatalf("failed-over match diverged: %d vs %d reports", len(gotMatch), len(wantMatch))
	}
	if cl.Failovers.Load() == failovers {
		t.Fatal("match never failed over from the dead node")
	}
	if got := sB.Registry().Snapshot()[`serve_matches{tenant="tenant-0"}`]; got != 1 {
		t.Fatalf("node B served %d matches, want 1", got)
	}
}

// TestChaosServeFailoverWithoutReplication is the degraded-mode
// contract: node A does NOT replicate (plain local store), dies
// permanently mid-stream, and the client fails over to peer B whose
// store has never heard of the session. The stream must still complete
// bit-identically — B reruns it from symbol 0 — and the degradation
// must be explicit: the client counts a forced restart, never silently
// splicing streams.
func TestChaosServeFailoverWithoutReplication(t *testing.T) {
	cfg := workloads.Config{Divisor: 64, InputLen: 131072}
	app, err := workloads.Build("HM", cfg)
	if err != nil {
		t.Fatal(err)
	}

	mk := func() (*serve.Server, *httptest.Server) {
		store, err := sparseap.OpenCheckpointStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := serve.New(serve.Config{Store: store, Every: 2048})
		if err := s.AddApp("HM", app.Net, cfg.Fingerprint("HM")); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	sA, tsA := mk()
	_, tsB := mk()

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(40 * time.Millisecond)
		sA.Abort()
		tsA.CloseClientConnections()
	}()

	cl := &serve.Client{
		URL:    func() string { return tsA.URL },
		Peers:  []string{tsB.URL},
		Tenant: "tenant-0",
		Chunk:  512,
		Pace:   300 * time.Microsecond,
	}
	res, err := cl.Stream(context.Background(), "HM", app.Input)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Reports[sparseap.Report](app.Net, app.Input)
	if !sameReports(res.Reports, want) {
		t.Fatalf("restarted stream diverged: %d vs %d reports", len(res.Reports), len(want))
	}
	if cl.Retries.Load() == 0 {
		t.Fatal("no retry happened — the kill missed the stream and the cell tested nothing")
	}
	if cl.Restarts.Load() == 0 {
		t.Fatal("unreplicated node loss must surface as an explicit restart, not a silent splice")
	}
}
