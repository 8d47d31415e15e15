package replica

import (
	"bytes"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// startFollower brings up a Receiver over its own DirStore.
func startFollower(t *testing.T) (*checkpoint.DirStore, *httptest.Server) {
	t.Helper()
	st := openStore(t)
	mux := http.NewServeMux()
	NewReceiver(st, nil).Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return st, ts
}

func TestShipAndRotate(t *testing.T) {
	fst, ts := startFollower(t)
	leader := New(openStore(t), Options{Followers: []string{ts.URL}, Ack: 1})

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

func TestRemoveShips(t *testing.T) {
	fst, ts := startFollower(t)
	leader := New(openStore(t), Options{Followers: []string{ts.URL}, Ack: 1})

	if err := leader.Save("sess-a", 1, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := leader.Remove("sess-a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// The delete ship is async best-effort; poll briefly.
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
	if leader.FollowersUp() != 0 {
		t.Fatalf("follower should be marked down after %d failures", leader.o.DownAfter)
	}
}

func TestRecoveryResync(t *testing.T) {
	fst := openStore(t)
	mux := http.NewServeMux()
	NewReceiver(fst, nil).Mount(mux)
	var reject atomic.Bool
	var syncs atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reject.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == SyncPath {
			syncs.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := metrics.NewRegistry()
	leader := New(openStore(t), Options{
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
	// full latest+prev pair before shipping the new slot.
	reject.Store(false)
	time.Sleep(5 * time.Millisecond)
	if err := leader.Save("sess-a", 2, []byte("v3")); err != nil {
		t.Fatalf("Save after recovery: %v", err)
	}
	if syncs.Load() == 0 {
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
	if reg.Snapshot()["serve_replication_resyncs"] == 0 {
		t.Fatalf("resync counter did not move")
	}

	// A pair that arrives as sent but damaged — its previous record cut
	// off — is refused whole: neither record of the name changes.
	pair := Pair{Latest: []byte("v5"), LatestVersion: 2, HasPrev: true, Prev: []byte("v4"), PrevVersion: 2}.Encode()
	cut := pair[:len(pair)-1]
	if resp := shipTo(t, http.MethodPost, ts.URL+SyncPath, "sess-a", "ep", 1, 0, cut, Checksum(cut)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("damaged pair answered %d, want 400", resp.StatusCode)
	}
	if p, err := LoadPair(fst, "sess-a"); err != nil || string(p.Latest) != "v3" || string(p.Prev) != "v2" {
		t.Fatalf("follower holds %q / %q after a refused pair (err=%v), want v3 / v2", p.Latest, p.Prev, err)
	}
}

// shipReq sends a raw slot shipment for receiver-level tests.
func shipReq(t *testing.T, url, name, epoch string, seq uint64, version uint32, body []byte, crc uint32) *http.Response {
	t.Helper()
	return shipTo(t, http.MethodPost, url+SlotPath, name, epoch, seq, version, body, strconv.FormatUint(uint64(crc), 10))
}

// shipTo sends one request in the replication envelope to a receiver
// endpoint.
func shipTo(t *testing.T, method, endpoint, name, epoch string, seq uint64, version uint32, body []byte, sum string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, endpoint+"?name="+name, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("X-Replica-Epoch", epoch)
	req.Header.Set("X-Replica-Seq", strconv.FormatUint(seq, 10))
	req.Header.Set("X-Replica-Version", strconv.FormatUint(uint64(version), 10))
	req.Header.Set("X-Replica-CRC", sum)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	return resp
}

func TestReceiverRejectsCorruptAndStale(t *testing.T) {
	fst, ts := startFollower(t)
	good := []byte("good payload")
	crc := crc32.Checksum(good, castagnoli)

	if resp := shipReq(t, ts.URL, "s", "ep1", 1, 1, good, crc); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid shipment rejected: %d", resp.StatusCode)
	}

	// Corrupted body (CRC mismatch) must be rejected with the prior slot
	// intact.
	if resp := shipReq(t, ts.URL, "s", "ep1", 2, 1, []byte("corrupted"), crc); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt shipment answered %d, want 400", resp.StatusCode)
	}
	if got, _, _, err := fst.Load("s"); err != nil || string(got) != "good payload" {
		t.Fatalf("slot damaged by rejected shipment: %q err=%v", got, err)
	}

	// Stale seq within the same epoch: acknowledged idempotently, no write.
	older := []byte("older")
	if resp := shipReq(t, ts.URL, "s", "ep1", 1, 1, older, crc32.Checksum(older, castagnoli)); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale replay answered %d, want 200 ack", resp.StatusCode)
	}
	if got, _, _, _ := fst.Load("s"); string(got) != "good payload" {
		t.Fatalf("stale replay overwrote slot: %q", got)
	}

	// A new leader epoch resets the sequence bookkeeping.
	fresh := []byte("new leader")
	if resp := shipReq(t, ts.URL, "s", "ep2", 1, 1, fresh, crc32.Checksum(fresh, castagnoli)); resp.StatusCode != http.StatusOK {
		t.Fatalf("new-epoch shipment answered %d", resp.StatusCode)
	}
	if got, _, _, _ := fst.Load("s"); string(got) != "new leader" {
		t.Fatalf("new-epoch shipment not applied: %q", got)
	}
}

func TestReceiverRejectsBadNames(t *testing.T) {
	_, ts := startFollower(t)
	body := []byte("x")
	crc := crc32.Checksum(body, castagnoli)
	for _, name := range []string{"", "a/b", "a\\b", "..", "x..y", strings.Repeat("n", 129)} {
		if resp := shipReq(t, ts.URL, name, "ep", 1, 1, body, crc); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("name %q answered %d, want 400", name, resp.StatusCode)
		}
	}
}

// A follower must not keep a bookkeeping entry for every session it ever
// mirrored: the DELETE that ends a name drops the name's entry.
func TestReceiverForgetsDeletedNames(t *testing.T) {
	rc := NewReceiver(openStore(t), nil)
	mux := http.NewServeMux()
	rc.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	body := []byte("slot")
	for i := 0; i < 20; i++ {
		name, seq := "sess-"+strconv.Itoa(i), uint64(2*i+1)
		if resp := shipTo(t, http.MethodPost, ts.URL+SlotPath, name, "ep", seq, 1, body, Checksum(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s answered %d", name, resp.StatusCode)
		}
		if resp := shipTo(t, http.MethodDelete, ts.URL+SlotPath, name, "ep", seq+1, 0, nil, Checksum(nil)); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s answered %d", name, resp.StatusCode)
		}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.seen) != 0 {
		t.Fatalf("receiver still tracks %d names after every one was deleted: %v", len(rc.seen), rc.seen)
	}
}
