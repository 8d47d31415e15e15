package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
	"sparseap/internal/oracle"
	"sparseap/internal/replica"
	"sparseap/internal/sim"
	"sparseap/internal/testleak"
)

// clusterNode is one serve node with direct access to its local store
// and registry.
type clusterNode struct {
	h     *harness
	local *checkpoint.DirStore
	reg   *metrics.Registry
}

// startNode brings up one node. fingerprint lets a test plant a
// mismatched build on the target; mutate (optional) adjusts the config
// before New (e.g. to wrap the store with replication or cap sessions).
func startNode(t *testing.T, fingerprint string, mutate func(cfg *Config, local *checkpoint.DirStore)) *clusterNode {
	t.Helper()
	local, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := Config{Store: local, Every: 1024, Registry: reg}
	if mutate != nil {
		mutate(&cfg, local)
	}
	s := New(cfg)
	if err := s.AddApp("test", testNet(t), fingerprint); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &clusterNode{h: &harness{s: s, ts: ts}, local: local, reg: reg}
}

// replicateTo is a startNode mutation that ships the node's checkpoints
// to follower b with an ack quorum of one, and closes the replicated
// store in cleanup, before b's server closes.
func replicateTo(t *testing.T, b *clusterNode) func(*Config, *checkpoint.DirStore) {
	return func(cfg *Config, local *checkpoint.DirStore) {
		rs := replica.New(local, replica.Options{
			Followers: []string{b.h.ts.URL},
			Ack:       1,
			Registry:  cfg.Registry,
		})
		t.Cleanup(func() { rs.Close() })
		cfg.Store = rs
	}
}

// metricValue scrapes one unlabelled sample off a node's /metrics.
func metricValue(t *testing.T, n *clusterNode, name string) int64 {
	t.Helper()
	resp, err := http.Get(n.h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			got, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return got
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, text)
	return 0
}

// TestClusterReplicationHistograms streams one session through a node
// replicating to a follower: every acknowledged slot frame is one sample
// of the leader's serve_replication_ship_us and one of the follower's
// serve_replication_recv_us.
func TestClusterReplicationHistograms(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v1", nil)
	a := startNode(t, "test/v1", replicateTo(t, b))
	input := testInput(1 << 14)
	cl := &Client{URL: func() string { return a.h.ts.URL }, Tenant: "t0"}
	res, err := cl.Stream(context.Background(), "test", input)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReports(res.Reports, oracle.Reports[sim.Report](testNet(t), input)); err != nil {
		t.Fatalf("replicated stream diverged: %v", err)
	}
	ships := metricValue(t, a, "serve_replication_ships")
	if ships == 0 {
		t.Fatal("no slot was shipped")
	}
	if got := metricValue(t, a, "serve_replication_ship_us_count"); got != ships {
		t.Fatalf("leader's serve_replication_ship_us_count = %d, want serve_replication_ships = %d", got, ships)
	}
	if got := metricValue(t, b, "serve_replication_recv_us_count"); got != ships {
		t.Fatalf("follower's serve_replication_recv_us_count = %d, want serve_replication_ships = %d", got, ships)
	}
}

// migrateAll posts /v1/migrate on node a and returns the per-session
// outcome map.
func migrateAll(t *testing.T, a *clusterNode, to string) map[string]string {
	t.Helper()
	resp, err := http.Post(a.h.ts.URL+"/v1/migrate?to="+to, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	if resp.StatusCode == http.StatusOK {
		json.NewDecoder(resp.Body).Decode(&out)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out
}

// pacedClient is a stream client slow enough that a migrate request
// reliably lands mid-stream.
func pacedClient(url string, peers []string) *Client {
	return &Client{
		URL:    func() string { return url },
		Peers:  peers,
		Tenant: "t0",
		Chunk:  512,
		Pace:   500 * time.Microsecond,
	}
}

// streamInBackground runs cl.Stream on its own goroutine.
func streamInBackground(cl *Client, input []byte) (chan error, *atomic.Pointer[StreamResult]) {
	done := make(chan error, 1)
	res := &atomic.Pointer[StreamResult]{}
	go func() {
		r, err := cl.Stream(context.Background(), "test", input)
		res.Store(r)
		done <- err
	}()
	return done, res
}

// TestClusterMigrateLiveHandoff is the scripted-handoff cell: a live
// paced session on node A (replicating to B) is migrated mid-stream via
// POST /v1/migrate; the client must follow the moved record to B and
// assemble a bit-identical stream, and the migration / failover /
// replication metrics on both nodes must all move.
func TestClusterMigrateLiveHandoff(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v1", nil)
	a := startNode(t, "test/v1", replicateTo(t, b))
	input := testInput(1 << 17)
	want := oracle.Reports[sim.Report](testNet(t), input)

	cl := pacedClient(a.h.ts.URL, []string{b.h.ts.URL})
	done, res := streamInBackground(cl, input)

	// Poll the migrate endpoint until a live session actually moved, once
	// the source has made its first capture (see refuseLoop: a handoff at
	// position 0 is a fresh start, and cl.Resumes stays 0).
	migrated := false
	for !migrated {
		select {
		case err := <-done:
			t.Fatalf("stream finished before any migration landed (err=%v)", err)
		default:
		}
		if a.reg.Snapshot()["serve_checkpoint_saves"] == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, v := range migrateAll(t, a, b.h.ts.URL) {
			if v == "ok" {
				migrated = true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := sameReports(res.Load().Reports, want); err != nil {
		t.Fatalf("migrated stream diverged: %v", err)
	}

	snapA, snapB := a.reg.Snapshot(), b.reg.Snapshot()
	if snapA["serve_migrations_started"] == 0 || snapA["serve_migrations_completed"] == 0 {
		t.Fatalf("source migration counters did not move: %v", snapA)
	}
	if snapA["serve_replication_ships"] == 0 {
		t.Fatalf("no slot was ever shipped to the follower: %v", snapA)
	}
	if _, ok := snapA["serve_replication_lag"]; !ok {
		t.Fatalf("replication lag gauge missing: %v", snapA)
	}
	if snapB["serve_migrations_accepted"] == 0 {
		t.Fatalf("target never accepted a transfer: %v", snapB)
	}
	if snapB["serve_failovers"] == 0 {
		t.Fatalf("target never saw the client's failover reconnect: %v", snapB)
	}
	if cl.Failovers.Load() == 0 {
		t.Fatal("client never recorded a failover")
	}
	if cl.Resumes.Load() == 0 {
		t.Fatal("client never resumed on the target")
	}
	if cl.Restarts.Load() != 0 {
		t.Fatalf("handoff forced %d restarts; it must be seamless", cl.Restarts.Load())
	}
	// The slots moved: the source's local disk no longer owns the session.
	names, _ := a.local.Names()
	if len(names) != 0 {
		t.Fatalf("source still holds slots after handoff: %v", names)
	}
}

// refuseLoop polls /v1/migrate until the target refuses with wantCode,
// failing fast if the target ever accepts or the stream finishes first.
// The first attempt waits for the source's first capture: a handoff that
// lands before the session has read anything suspends it at position 0,
// and a reconnect at 0 is a fresh start, not a resume the client counts.
func refuseLoop(t *testing.T, a *clusterNode, to string, done chan error, wantCode string) {
	t.Helper()
	for {
		select {
		case err := <-done:
			t.Fatalf("stream finished before any migration was attempted (err=%v)", err)
		default:
		}
		if a.reg.Snapshot()["serve_checkpoint_saves"] == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, v := range migrateAll(t, a, to) {
			if v == "ok" {
				t.Fatalf("target accepted a session it must refuse")
			}
			if strings.Contains(v, wantCode) {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterMigrateFingerprintMismatch plants a different app build on
// the target: the transfer must be refused with 409, counted as failed,
// and the live session must fall back to suspend and finish on the
// source bit-identically.
func TestClusterMigrateFingerprintMismatch(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v2", nil) // mismatched build
	a := startNode(t, "test/v1", nil)
	input := testInput(1 << 17)
	want := oracle.Reports[sim.Report](testNet(t), input)

	cl := pacedClient(a.h.ts.URL, nil)
	done, res := streamInBackground(cl, input)
	refuseLoop(t, a, b.h.ts.URL, done, "409")

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := sameReports(res.Load().Reports, want); err != nil {
		t.Fatalf("stream diverged after refused migration: %v", err)
	}
	if a.reg.Snapshot()["serve_migrations_failed"] == 0 {
		t.Fatalf("failed migration was not counted: %v", a.reg.Snapshot())
	}
	if cl.Resumes.Load() == 0 {
		t.Fatal("session should have suspended at the source and resumed there")
	}
}

// TestClusterMigrateDuringOverload fills the target's session table: the
// accept must shed with 503 (transfers run the full admission ladder),
// the migration must count as failed, and the session must stay at the
// source and complete — never stranded between nodes.
func TestClusterMigrateDuringOverload(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v1", func(cfg *Config, _ *checkpoint.DirStore) {
		cfg.MaxSessions = 1
	})
	a := startNode(t, "test/v1", nil)

	// Occupy the target's only session slot with a held-open stream.
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, b.h.ts.URL+"/v1/stream?app=test", pr)
	req.Header.Set("X-Tenant", "holder")
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			close(respCh)
			return
		}
		respCh <- resp
	}()
	pw.Write([]byte("abc"))
	holder := <-respCh
	if holder == nil {
		t.FailNow()
	}
	defer func() {
		pw.Close()
		io.Copy(io.Discard, holder.Body)
		holder.Body.Close()
	}()

	input := testInput(1 << 17)
	want := oracle.Reports[sim.Report](testNet(t), input)
	cl := pacedClient(a.h.ts.URL, nil)
	done, res := streamInBackground(cl, input)
	refuseLoop(t, a, b.h.ts.URL, done, "503")

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := sameReports(res.Load().Reports, want); err != nil {
		t.Fatalf("stream diverged after refused migration: %v", err)
	}
	if a.reg.Snapshot()["serve_migrations_failed"] == 0 {
		t.Fatalf("failed migration was not counted: %v", a.reg.Snapshot())
	}
}

// TestClusterTransferTruncatedThenIdempotent posts migration transfers
// straight to a target. A source dying mid-frame, and every frame that is
// not exactly one verified pair frame named for a session in a version
// the target knows, must be rejected atomically (no partial slot state
// on the target); the full send — and a duplicate of it — must both
// succeed and converge to the same latest+prev pair. Finally the client
// resumes against the target from its delivery floor and the assembled
// stream is bit-identical.
func TestClusterTransferTruncatedThenIdempotent(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v1", nil)
	a := startNode(t, "test/v1", nil)
	net := testNet(t)
	input := testInput(1 << 15)
	want := oracle.Reports[sim.Report](net, input)
	id := newSessionID()
	slot := slotName(id)

	// Fabricate a suspended mid-stream session on A: run the engine to
	// two capture points and save both, producing a latest+prev pair
	// with an empty window (every report already released).
	var all []sim.Report
	sess := &session{id: id, tenant: "t0", app: a.h.s.lookupApp("test"), sessionBufs: newSessionBufs().(*sessionBufs)}
	sess.st = sim.NewStreamer(net)
	sess.st.OnReport = func(pos int64, state automata.StateID) {
		all = append(all, sim.Report{Pos: pos, State: state})
	}
	save := func(upto int64) {
		if _, err := sess.st.Write(input[sess.st.Pos():upto]); err != nil {
			t.Fatal(err)
		}
		sess.st.Snapshot(sess.snap)
		encodeSessionState(&sess.enc, sess, sess.snap)
		if err := a.local.Save(slot, sessionStateVersion, sess.enc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	save(2048)
	save(4096)
	have := append([]sim.Report(nil), all...)

	// Build the transfer frame as transferSession would.
	pair, err := replica.LoadPair(a.local, slot)
	if err != nil || !pair.HasPrev {
		t.Fatalf("source pair: %+v, err %v; want latest and previous", pair, err)
	}
	latest, prev := pair.Latest, pair.Prev
	frame := pair.Frame(slot)

	post := func(payload []byte) int {
		resp, err := http.Post(b.h.ts.URL+migratePath, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	flipped := bytes.Clone(frame)
	flipped[len(flipped)/2] ^= 0xff
	// The same name and body as a slot frame: the kind byte rewritten and
	// the trailing CRC32-C over every byte before it recomputed, per the
	// layout replica's TestFrameLayout pins.
	slotFrame := bytes.Clone(frame)
	slotFrame[0] = 1
	end := len(slotFrame) - 4
	binary.LittleEndian.PutUint32(slotFrame[end:], crc32.Checksum(slotFrame[:end], crc32.MakeTable(crc32.Castagnoli)))
	for _, damaged := range []struct {
		name  string
		frame []byte
	}{
		{"frame cut short", frame[:len(frame)-7]},
		{"byte flipped", flipped},
		{"byte after the frame", append(bytes.Clone(frame), 0)},
		{"slot frame", slotFrame},
		{"name without the sess- prefix", pair.Frame(id)},
		{"invalid session id", pair.Frame("sess-" + id + "~")},
		{"unknown state version", replica.Pair{Latest: latest, LatestVersion: sessionStateVersion + 1}.Frame(slot)},
	} {
		if code := post(damaged.frame); code != http.StatusBadRequest {
			t.Fatalf("%s: transfer answered %d, want 400", damaged.name, code)
		}
		if names, _ := b.local.Names(); len(names) != 0 {
			t.Fatalf("%s: transfer left state on the target: %v", damaged.name, names)
		}
	}
	// Full send, then a duplicate: both succeed, state converges.
	for i := 0; i < 2; i++ {
		if code := post(frame); code != http.StatusOK {
			t.Fatalf("transfer attempt %d answered %d, want 200", i, code)
		}
	}
	gotLatest, _, _, err := b.local.Load(slot)
	if err != nil || !bytes.Equal(gotLatest, latest) {
		t.Fatalf("target latest diverged after duplicate transfer (err=%v)", err)
	}
	gotPrev, _, err := b.local.LoadPrevious(slot)
	if err != nil || !bytes.Equal(gotPrev, prev) {
		t.Fatalf("target prev diverged after duplicate transfer (err=%v)", err)
	}

	// The client resumes on the target from its delivery floor.
	cl := &Client{URL: func() string { return b.h.ts.URL }, Tenant: "t0"}
	ar := cl.streamAttempt(context.Background(), b.h.ts.URL, "test", id, input, have, false, false)
	if ar.out != attemptDone || ar.err != nil {
		t.Fatalf("resume on target: outcome %d err %v", ar.out, ar.err)
	}
	if err := sameReports(ar.have, want); err != nil {
		t.Fatalf("resumed stream diverged: %v", err)
	}
}

// TestClusterDrainMigrate sends every live session to a peer on
// shutdown: the client follows moved and finishes on the target with no
// restart.
func TestClusterDrainMigrate(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v1", nil)
	a := startNode(t, "test/v1", func(cfg *Config, _ *checkpoint.DirStore) {
		cfg.Peers = []string{b.h.ts.URL}
	})
	input := testInput(1 << 17)
	want := oracle.Reports[sim.Report](testNet(t), input)

	cl := pacedClient(a.h.ts.URL, []string{b.h.ts.URL})
	done, res := streamInBackground(cl, input)
	time.Sleep(20 * time.Millisecond)
	if err := a.h.s.DrainMigrate(5 * time.Second); err != nil {
		t.Fatalf("DrainMigrate: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := sameReports(res.Load().Reports, want); err != nil {
		t.Fatalf("drain-migrated stream diverged: %v", err)
	}
	if cl.Restarts.Load() != 0 {
		t.Fatalf("drain-migrate forced %d restarts", cl.Restarts.Load())
	}
	if a.reg.Snapshot()["serve_migrations_completed"] == 0 {
		t.Fatalf("no migration completed during drain: %v", a.reg.Snapshot())
	}
}

// deadURL returns the base URL of a loopback port nothing listens on any
// more: a connection to it is refused at once.
func deadURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	return url
}

// TestClusterDrainMigrateSkipsDeadPeer drains a node whose first peer is
// gone: the probe must pass over it, and every live session must move to
// the second peer, with no failed transfer and no restart.
func TestClusterDrainMigrateSkipsDeadPeer(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v1", nil)
	a := startNode(t, "test/v1", func(cfg *Config, _ *checkpoint.DirStore) {
		cfg.Peers = []string{deadURL(t), b.h.ts.URL}
	})
	input := testInput(1 << 17)
	want := oracle.Reports[sim.Report](testNet(t), input)

	const streams = 3
	var clients [streams]*Client
	var dones [streams]chan error
	var results [streams]*atomic.Pointer[StreamResult]
	for i := range clients {
		clients[i] = pacedClient(a.h.ts.URL, []string{b.h.ts.URL})
		dones[i], results[i] = streamInBackground(clients[i], input)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		a.h.s.mu.Lock()
		live := len(a.h.s.active)
		a.h.s.mu.Unlock()
		if live == streams {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions live on the source", live, streams)
		}
	}
	if err := a.h.s.DrainMigrate(5 * time.Second); err != nil {
		t.Fatalf("DrainMigrate: %v", err)
	}
	for i := range clients {
		if err := <-dones[i]; err != nil {
			t.Fatal(err)
		}
		if err := sameReports(results[i].Load().Reports, want); err != nil {
			t.Fatalf("stream %d diverged: %v", i, err)
		}
		if n := clients[i].Restarts.Load(); n != 0 {
			t.Fatalf("stream %d restarted %d times", i, n)
		}
	}
	snapA, snapB := a.reg.Snapshot(), b.reg.Snapshot()
	if snapA["serve_migrations_failed"] != 0 {
		t.Fatalf("%v transfers failed: the dead peer was picked", snapA["serve_migrations_failed"])
	}
	if snapA["serve_migrations_completed"] != streams || snapB["serve_migrations_accepted"] != streams {
		t.Fatalf("moved %v and accepted %v sessions, want %d: %v / %v",
			snapA["serve_migrations_completed"], snapB["serve_migrations_accepted"], streams, snapA, snapB)
	}
}

// TestClusterPeersLeaveNoGoroutine runs a node that has peers and is
// never drained: peers are probed only when a session moves, so the node
// starts nothing it would have to stop.
func TestClusterPeersLeaveNoGoroutine(t *testing.T) {
	testleak.Check(t)
	b := startNode(t, "test/v1", nil)
	a := startNode(t, "test/v1", func(cfg *Config, _ *checkpoint.DirStore) {
		cfg.Peers = []string{deadURL(t), b.h.ts.URL + "/"}
	})
	cl := &Client{URL: func() string { return a.h.ts.URL }, Tenant: "t0"}
	if _, err := cl.Stream(context.Background(), "test", testInput(1<<12)); err != nil {
		t.Fatal(err)
	}
	if got := a.h.s.pickPeer(); got != b.h.ts.URL {
		t.Fatalf("pickPeer = %q, want the live peer %q", got, b.h.ts.URL)
	}
}
