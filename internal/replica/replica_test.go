package replica

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
)

// openStore returns a fresh DirStore in a test temp dir.
func openStore(t *testing.T) *checkpoint.DirStore {
	t.Helper()
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

// serveReceiver brings up a Receiver over st; reg may be nil.
func serveReceiver(t *testing.T, st checkpoint.Store, reg *metrics.Registry) (*Receiver, *httptest.Server) {
	t.Helper()
	rc := NewReceiver(st, reg)
	mux := http.NewServeMux()
	rc.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return rc, ts
}

// startFollower brings up a Receiver over its own DirStore.
func startFollower(t *testing.T) (*checkpoint.DirStore, *httptest.Server, *metrics.Registry) {
	t.Helper()
	st, reg := openStore(t), metrics.NewRegistry()
	_, ts := serveReceiver(t, st, reg)
	return st, ts, reg
}

// newLeader builds a Store over a fresh DirStore and closes it in
// cleanup, ahead of the follower servers started before it.
func newLeader(t *testing.T, o Options) *Store {
	t.Helper()
	s := New(openStore(t), o)
	t.Cleanup(func() { s.Close() })
	return s
}

// rawStream is the leader's end of one replication stream, driven a
// frame at a time.
type rawStream struct {
	pw   *io.PipeWriter
	body io.ReadCloser
}

func openStream(t *testing.T, url, epoch string) *rawStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+StreamPath, pr)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set(epochHeader, epoch)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open stream: answered %d", resp.StatusCode)
	}
	s := &rawStream{pw: pw, body: resp.Body}
	t.Cleanup(s.close)
	return s
}

func (s *rawStream) send(f frame) { s.pw.Write(appendFrame(nil, f)) }

// next returns the next acknowledgement; ok is false once the follower
// has ended the stream.
func (s *rawStream) next() (seq uint64, status byte, ok bool) {
	var b [ackLen]byte
	if _, err := io.ReadFull(s.body, b[:]); err != nil {
		return 0, 0, false
	}
	seq, status = parseAck(&b)
	return seq, status, true
}

// expectAck fails t unless the next acknowledgement is seq's, with status.
func (s *rawStream) expectAck(t *testing.T, seq uint64, status byte) {
	t.Helper()
	if got, st, ok := s.next(); !ok || got != seq || st != status {
		t.Fatalf("ack = (%d, %d, open %v), want (%d, %d)", got, st, ok, seq, status)
	}
}

// expectRefused sends b as the stream's last bytes and fails t unless the
// follower ends the stream without acknowledging anything.
func (s *rawStream) expectRefused(t *testing.T, b []byte) {
	t.Helper()
	s.pw.Write(b)
	s.pw.Close()
	if seq, _, ok := s.next(); ok {
		t.Fatalf("refused frame % x was acknowledged (seq %d)", b, seq)
	}
}

func (s *rawStream) close() {
	s.pw.Close()
	io.Copy(io.Discard, s.body)
	s.body.Close()
}

func TestShipAndRotate(t *testing.T) {
	fst, ts, _ := startFollower(t)
	leader := newLeader(t, Options{Followers: []string{ts.URL}, Ack: 1})

	if err := leader.Save("sess-a", 3, []byte("first")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := leader.Save("sess-a", 3, []byte("second")); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// The follower's store must mirror the leader's latest+prev rotation.
	got, ver, fellback, err := fst.Load("sess-a")
	if err != nil || fellback || ver != 3 || string(got) != "second" {
		t.Fatalf("follower Load = %q v%d fellback=%v err=%v", got, ver, fellback, err)
	}
	prev, ver, err := fst.LoadPrevious("sess-a")
	if err != nil || ver != 3 || string(prev) != "first" {
		t.Fatalf("follower LoadPrevious = %q v%d err=%v", prev, ver, err)
	}
}

// Close ends the streams; a later save dials a new one and is
// acknowledged on it.
func TestCloseThenSaveRedials(t *testing.T) {
	fst := openStore(t)
	mux := http.NewServeMux()
	NewReceiver(fst, nil).Mount(mux)
	var dials atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dials.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	reg := metrics.NewRegistry()
	leader := newLeader(t, Options{Followers: []string{ts.URL}, Ack: 1, Registry: reg})
	for i, v := range []string{"v1", "v2", "v3"} {
		if err := leader.Save("sess-a", 1, []byte(v)); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if i == 1 {
			leader.Close()
		}
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d streams dialled for three saves around one Close, want 2", got)
	}
	if snap := reg.Snapshot(); snap["serve_replication_ships"] != 3 || snap["serve_replication_degraded"] != 0 {
		t.Fatalf("counters after Close and a re-dial: %v", snap)
	}
	if got, _, _, _ := fst.Load("sess-a"); string(got) != "v3" {
		t.Fatalf("follower latest = %q, want v3", got)
	}
}

func TestRemoveShips(t *testing.T) {
	fst, ts, _ := startFollower(t)
	leader := newLeader(t, Options{Followers: []string{ts.URL}, Ack: 1})

	if err := leader.Save("sess-a", 1, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := leader.Remove("sess-a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// The removal is not waited for; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, _, err := fst.Load("sess-a"); errors.Is(err, checkpoint.ErrNoCheckpoint) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower still holds removed slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A restarted session removes its slots and saves again at once: the
// removal applies on the follower before the save behind it, so the new
// slot is what the follower keeps.
func TestRemoveThenSaveKeepsNewSlot(t *testing.T) {
	fst, ts, _ := startFollower(t)
	leader := newLeader(t, Options{Followers: []string{ts.URL}, Ack: 1})
	for i := 0; i < 20; i++ {
		if err := leader.Save("sess-a", 1, []byte("old")); err != nil {
			t.Fatalf("Save: %v", err)
		}
		leader.Remove("sess-a")
		if err := leader.Save("sess-a", 1, []byte("new")); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if got, _, _, err := fst.Load("sess-a"); err != nil || string(got) != "new" {
			t.Fatalf("round %d: follower holds %q (err %v), want the slot saved after the removal", i, got, err)
		}
		if _, _, err := fst.LoadPrevious("sess-a"); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("round %d: a slot from before the removal survived as previous (err %v)", i, err)
		}
	}
}

func TestDegradedLocalOnly(t *testing.T) {
	reg := metrics.NewRegistry()
	local := openStore(t)
	// Unroutable follower: every ship fails, quorum is unreachable.
	leader := New(local, Options{
		Followers: []string{"http://127.0.0.1:1"},
		Ack:       1,
		Timeout:   200 * time.Millisecond,
		Registry:  reg,
	})
	t.Cleanup(func() { leader.Close() })

	if err := leader.Save("sess-a", 1, []byte("payload")); err != nil {
		t.Fatalf("Save must degrade, not fail: %v", err)
	}
	if got, _, _, err := local.Load("sess-a"); err != nil || string(got) != "payload" {
		t.Fatalf("local slot missing after degraded save: %q err=%v", got, err)
	}
	snap := reg.Snapshot()
	if snap["serve_replication_degraded"] == 0 {
		t.Fatalf("degraded counter did not move: %v", snap)
	}
	if snap["serve_replication_lag"] == 0 {
		t.Fatalf("replication lag gauge should be nonzero with a dead follower: %v", snap)
	}
	if err := leader.Save("sess-a", 1, []byte("p2")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if followersUp(leader) != 0 {
		t.Fatalf("follower should be marked down after %d failures", leader.o.DownAfter)
	}
}

// blockingStore is a follower store whose saves each wait for a token on
// release (a closed release lets every one through).
type blockingStore struct {
	checkpoint.Store
	entered  chan string
	release  chan struct{}
	returned atomic.Int64
}

func (b *blockingStore) Save(name string, version uint32, payload []byte) error {
	b.entered <- name
	<-b.release
	defer b.returned.Add(1)
	return b.Store.Save(name, version, payload)
}

// The leader's Save is the delivery barrier: it does not return before
// the follower's Save has, and a follower that never answers holds it for
// Timeout, after which the save counts as a ship error and a degraded one.
func TestSaveWaitsForFollowerSave(t *testing.T) {
	fst := &blockingStore{Store: openStore(t), entered: make(chan string, 2), release: make(chan struct{})}
	_, ts := serveReceiver(t, fst, nil)
	t.Cleanup(func() { close(fst.release) }) // before ts.Close, which waits for the follower's Save
	reg := metrics.NewRegistry()
	const timeout = 300 * time.Millisecond
	leader := newLeader(t, Options{Followers: []string{ts.URL}, Ack: 1, Timeout: timeout, Registry: reg})

	done := make(chan error, 1)
	go func() { done <- leader.Save("sess-a", 1, []byte("one")) }()
	<-fst.entered
	select {
	case <-done:
		t.Fatal("leader Save returned while the follower's Save was still running")
	default:
	}
	fst.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("Save: %v", err)
	}
	if fst.returned.Load() != 1 {
		t.Fatal("leader Save returned before the follower's Save did")
	}

	t0 := time.Now()
	if err := leader.Save("sess-a", 1, []byte("two")); err != nil {
		t.Fatalf("Save must degrade, not fail: %v", err)
	}
	if took := time.Since(t0); took < timeout {
		t.Fatalf("Save returned after %v with the follower's Save still running; want Timeout (%v)", took, timeout)
	}
	<-fst.entered
	snap := reg.Snapshot()
	if snap["serve_replication_ships"] != 1 || snap["serve_replication_ship_errors"] != 1 || snap["serve_replication_degraded"] != 1 {
		t.Fatalf("want 1 ship, 1 ship error, 1 degraded save: %v", snap)
	}
}

// orderedStore holds a's save on the follower until b's has finished, so
// both are in flight at once and b's acknowledgement goes out first.
type orderedStore struct {
	checkpoint.Store
	aEntered, bDone chan struct{}
}

func (o *orderedStore) Save(name string, version uint32, payload []byte) error {
	switch name {
	case "a":
		close(o.aEntered)
		select {
		case <-o.bDone:
		case <-time.After(5 * time.Second): // applied one at a time: let the test fail, not hang
		}
	case "b":
		defer close(o.bDone)
	}
	return o.Store.Save(name, version, payload)
}

// Two sessions' saves share the stream: each gets its own
// acknowledgement, in whatever order the follower finishes them.
func TestConcurrentSavesAckedOutOfOrder(t *testing.T) {
	fst := &orderedStore{Store: openStore(t), aEntered: make(chan struct{}), bDone: make(chan struct{})}
	_, ts := serveReceiver(t, fst, nil)
	reg := metrics.NewRegistry()
	leader := newLeader(t, Options{Followers: []string{ts.URL}, Ack: 1, Registry: reg})

	errA := make(chan error, 1)
	go func() { errA <- leader.Save("a", 1, []byte("slot a")) }()
	<-fst.aEntered
	if err := leader.Save("b", 1, []byte("slot b")); err != nil {
		t.Fatalf("Save b: %v", err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("Save a: %v", err)
	}
	if snap := reg.Snapshot(); snap["serve_replication_ships"] != 2 || snap["serve_replication_degraded"] != 0 {
		t.Fatalf("want both saves acknowledged: %v", snap)
	}
	for _, name := range []string{"a", "b"} {
		if got, _, _, err := fst.Load(name); err != nil || string(got) != "slot "+name {
			t.Fatalf("follower %s = %q err=%v", name, got, err)
		}
	}
}

// A stream cut in the middle of a frame fails the save waiting on it at
// once, not after Timeout; DownAfter such failures mark the follower
// down, probes are then paced, and the first save after Probe dials a
// new stream, resyncs and is acknowledged.
func TestStreamCutMidFrame(t *testing.T) {
	fst := openStore(t)
	mux := http.NewServeMux()
	NewReceiver(fst, nil).Mount(mux)
	var dials atomic.Int64
	var cut atomic.Bool
	cut.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dials.Add(1)
		if !cut.Load() {
			mux.ServeHTTP(w, r)
			return
		}
		ctl := http.NewResponseController(w)
		ctl.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		ctl.Flush()
		io.ReadFull(r.Body, make([]byte, frameHeader/2))
		ctl.SetReadDeadline(time.Unix(1, 0)) // no drain of the rest of the stream
		panic(http.ErrAbortHandler)          // drop the connection mid-frame
	}))
	t.Cleanup(ts.Close)
	reg := metrics.NewRegistry()
	const timeout, probe = 5 * time.Second, 200 * time.Millisecond
	leader := newLeader(t, Options{Followers: []string{ts.URL}, Ack: 1, Timeout: timeout, DownAfter: 2, Probe: probe, Registry: reg})

	for i := int64(1); i <= 2; i++ {
		t0 := time.Now()
		leader.Save("sess-a", 1, []byte("lost"))
		if took := time.Since(t0); took >= timeout {
			t.Fatalf("a cut stream held the save for %v", took)
		}
		if dials.Load() != i {
			t.Fatalf("save %d: %d dials, want one per save", i, dials.Load())
		}
	}
	if followersUp(leader) != 0 {
		t.Fatal("follower not marked down after DownAfter cut streams")
	}
	if snap := reg.Snapshot(); snap["serve_replication_ship_errors"] != 2 || snap["serve_replication_degraded"] != 2 {
		t.Fatalf("want 2 ship errors and 2 degraded saves: %v", snap)
	}
	leader.Save("sess-a", 1, []byte("paced"))
	if dials.Load() != 2 {
		t.Fatal("a save inside the probe interval dialled the down follower")
	}

	cut.Store(false)
	time.Sleep(probe)
	if err := leader.Save("sess-a", 1, []byte("healed")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if dials.Load() != 3 || followersUp(leader) != 1 {
		t.Fatalf("after Probe: %d dials, %d followers up; want 3 and 1", dials.Load(), followersUp(leader))
	}
	if reg.Snapshot()["serve_replication_resyncs"] != 1 {
		t.Fatal("the returning follower was not resynced")
	}
	if got, _, _, _ := fst.Load("sess-a"); string(got) != "healed" {
		t.Fatalf("follower latest = %q, want healed", got)
	}
}

func TestRecoveryResync(t *testing.T) {
	fst, freg := openStore(t), metrics.NewRegistry()
	mux := http.NewServeMux()
	NewReceiver(fst, freg).Mount(mux)
	var reject atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reject.Load() {
			w.Header().Set("Connection", "close") // as the Receiver refuses: no wait to drain the stream
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	reg := metrics.NewRegistry()
	leader := newLeader(t, Options{
		Followers: []string{ts.URL},
		Ack:       1,
		DownAfter: 1,
		Probe:     time.Millisecond,
		Registry:  reg,
	})

	// Two saves while the follower is down: it misses both, including the
	// prev rotation.
	reject.Store(true)
	leader.Save("sess-a", 2, []byte("v1"))
	leader.Save("sess-a", 2, []byte("v2"))
	if _, _, _, err := fst.Load("sess-a"); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("follower should have nothing during outage, got err=%v", err)
	}

	// Recovery: the next save (after the probe interval) must resync the
	// full latest+prev pair on the stream before shipping the new slot.
	reject.Store(false)
	time.Sleep(5 * time.Millisecond)
	if err := leader.Save("sess-a", 2, []byte("v3")); err != nil {
		t.Fatalf("Save after recovery: %v", err)
	}
	if reg.Snapshot()["serve_replication_resyncs"] == 0 {
		t.Fatalf("recovery did not resync")
	}
	got, _, _, err := fst.Load("sess-a")
	if err != nil || string(got) != "v3" {
		t.Fatalf("follower latest after resync = %q err=%v", got, err)
	}
	prev, _, err := fst.LoadPrevious("sess-a")
	if err != nil || string(prev) != "v2" {
		t.Fatalf("follower prev after resync = %q err=%v", prev, err)
	}
	if followersUp(leader) != 1 {
		t.Fatal("follower still down after an acknowledged resync")
	}

	// A pair frame that arrives as sent but holds a damaged pair — its
	// previous record cut off — is refused whole and counted: neither
	// record of the name changes.
	pair := Pair{Latest: []byte("v5"), LatestVersion: 2, HasPrev: true, Prev: []byte("v4"), PrevVersion: 2}.encode()
	cut := pair[:len(pair)-1]
	openStream(t, ts.URL, "ep").expectRefused(t, appendFrame(nil, frame{kind: framePair, seq: 1, name: "sess-a", body: cut}))
	if freg.Snapshot()["serve_replication_recv_errors"] != 1 {
		t.Fatalf("damaged pair not counted: %v", freg.Snapshot())
	}
	if p, err := LoadPair(fst, "sess-a"); err != nil || string(p.Latest) != "v3" || string(p.Prev) != "v2" {
		t.Fatalf("follower holds %q / %q after a refused pair (err=%v), want v3 / v2", p.Latest, p.Prev, err)
	}
}

func TestReceiverRejectsCorruptAndStale(t *testing.T) {
	fst, ts, reg := startFollower(t)
	s := openStream(t, ts.URL, "ep1")
	s.send(frame{kind: frameSlot, seq: 1, version: 1, name: "s", body: []byte("good payload")})
	s.expectAck(t, 1, ackOK)

	// Any single byte of a frame flipped — header, name, body or CRC — is
	// refused and counted, ends its stream, and leaves the slot intact.
	bad := appendFrame(nil, frame{kind: frameSlot, seq: 2, version: 1, name: "s", body: []byte("corrupted")})
	for i := range bad {
		flipped := bytes.Clone(bad)
		flipped[i] ^= 0x20
		openStream(t, ts.URL, "ep1").expectRefused(t, flipped)
		if got := reg.Snapshot()["serve_replication_recv_errors"]; got != int64(i+1) {
			t.Fatalf("byte %d flipped: %d receive errors counted, want %d", i, got, i+1)
		}
		if got, _, _, err := fst.Load("s"); err != nil || string(got) != "good payload" {
			t.Fatalf("byte %d flipped: slot damaged by a refused frame: %q err=%v", i, got, err)
		}
	}

	// Stale seq within the same epoch: acknowledged idempotently, no write.
	s.send(frame{kind: frameSlot, seq: 1, version: 1, name: "s", body: []byte("older")})
	s.expectAck(t, 1, ackOK)
	if got, _, _, _ := fst.Load("s"); string(got) != "good payload" {
		t.Fatalf("stale replay overwrote slot: %q", got)
	}

	// A new leader epoch resets the sequence bookkeeping.
	s2 := openStream(t, ts.URL, "ep2")
	s2.send(frame{kind: frameSlot, seq: 1, version: 1, name: "s", body: []byte("new leader")})
	s2.expectAck(t, 1, ackOK)
	if got, _, _, _ := fst.Load("s"); string(got) != "new leader" {
		t.Fatalf("new-epoch frame not applied: %q", got)
	}
}

func TestReceiverRejectsBadNames(t *testing.T) {
	_, ts, reg := startFollower(t)
	names := []string{"", "a/b", "a\\b", "..", "x..y", strings.Repeat("n", 129)}
	for i, name := range names {
		openStream(t, ts.URL, "ep").expectRefused(t, appendFrame(nil, frame{kind: frameSlot, seq: 1, version: 1, name: name, body: []byte("x")}))
		if got := reg.Snapshot()["serve_replication_recv_errors"]; got != int64(i+1) {
			t.Fatalf("name %q: %d receive errors counted, want %d", name, got, i+1)
		}
	}
}

// A follower must not keep a bookkeeping entry for every session it ever
// mirrored: the removal that ends a name drops the name's entry.
func TestReceiverForgetsDeletedNames(t *testing.T) {
	rc, ts := serveReceiver(t, openStore(t), nil)
	s := openStream(t, ts.URL, "ep")
	for i := 0; i < 20; i++ {
		name, seq := "sess-"+strconv.Itoa(i), uint64(2*i+1)
		s.send(frame{kind: frameSlot, seq: seq, version: 1, name: name, body: []byte("slot")})
		s.expectAck(t, seq, ackOK)
		s.send(frame{kind: frameRemove, seq: seq + 1, name: name})
		s.expectAck(t, seq+1, ackOK)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.seen) != 0 {
		t.Fatalf("receiver still tracks %d names after every one was deleted: %v", len(rc.seen), rc.seen)
	}
}

// Close ends the streams a Receiver serves and refuses new ones.
func TestReceiverCloseEndsStreams(t *testing.T) {
	rc, ts := serveReceiver(t, openStore(t), nil)
	s := openStream(t, ts.URL, "ep")
	s.send(frame{kind: frameSlot, seq: 1, version: 1, name: "s", body: []byte("x")})
	s.expectAck(t, 1, ackOK)
	rc.Close()
	if _, _, ok := s.next(); ok {
		t.Fatal("stream still open after Close")
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+StreamPath, nil)
	req.Header.Set(epochHeader, "ep")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new stream after Close answered %d, want 503", resp.StatusCode)
	}
}

// memStore is a checkpoint.Store in memory: each name's latest record
// and the one before it.
type memStore struct {
	mu    sync.Mutex
	slots map[string]Pair
}

func newMemStore() *memStore { return &memStore{slots: map[string]Pair{}} }

func (m *memStore) Save(name string, version uint32, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, had := m.slots[name]
	m.slots[name] = Pair{Latest: bytes.Clone(payload), LatestVersion: version, HasPrev: had, Prev: old.Latest, PrevVersion: old.LatestVersion}
	return nil
}

func (m *memStore) Load(name string) ([]byte, uint32, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.slots[name]
	if !ok {
		return nil, 0, false, checkpoint.ErrNoCheckpoint
	}
	return p.Latest, p.LatestVersion, false, nil
}

func (m *memStore) LoadPrevious(name string) ([]byte, uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.slots[name]
	if !p.HasPrev {
		return nil, 0, checkpoint.ErrNoCheckpoint
	}
	return p.Prev, p.PrevVersion, nil
}

func (m *memStore) Names() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.slots))
	for n := range m.slots {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *memStore) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.slots, name)
	return nil
}

func (m *memStore) Clear() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.slots)
	return nil
}

// BenchmarkShip times one leader Save round trip to an in-process
// follower over loopback: the frame out, the follower's Save, the
// acknowledgement back. Both stores are in memory, so no fsync is in the
// figure.
func BenchmarkShip(b *testing.B) {
	mux := http.NewServeMux()
	NewReceiver(newMemStore(), nil).Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	reg := metrics.NewRegistry()
	leader := New(newMemStore(), Options{Followers: []string{ts.URL}, Ack: 1, Registry: reg})
	defer leader.Close()
	payload := bytes.Repeat([]byte("slot"), 1024)
	if err := leader.Save("sess-bench", 1, payload); err != nil { // dial outside the timing
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := leader.Save("sess-bench", 1, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := reg.Snapshot()["serve_replication_ships"]; got != int64(b.N)+1 {
		b.Fatalf("%d of %d saves acknowledged", got, b.N+1)
	}
}

// followersUp counts the followers the leader does not mark down.
func followersUp(s *Store) int {
	n := 0
	for _, f := range s.followers {
		f.mu.Lock()
		if !f.down {
			n++
		}
		f.mu.Unlock()
	}
	return n
}
