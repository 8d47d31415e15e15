// Package replica extends checkpoint durability across node boundaries:
// a Store wraps a local checkpoint.Store and ships every committed slot
// to one or more follower nodes over HTTP, so a client whose server dies
// can fail over to a follower and resume from the same delivery floor.
//
// The wire contract mirrors the on-disk one. Every shipment carries the
// slot payload plus a CRC32-C, a leader epoch (a fresh random identity
// per Store so a restarted leader cannot be mistaken for its
// predecessor), and a monotonically increasing sequence number; the
// Receiver on the follower verifies the CRC, discards stale or replayed
// sequence numbers idempotently, and applies the slot through its own
// local store's atomic write-fsync-rename path. A shipment is therefore
// exactly as crash-consistent on the follower as a local save is on the
// leader: a connection cut mid-body leaves nothing applied.
//
// Durability barrier. Save returns only once the payload is durable
// locally AND acknowledged by at least Ack followers — the serve layer's
// save-then-flush delivery barrier calls Save before releasing a report
// window, so a window a client holds is always recoverable from any
// acknowledging follower. When fewer than Ack followers are reachable
// the Store degrades explicitly to local-only durability: Save still
// succeeds (the service keeps running on one node), the degradation is
// counted, and the serve_replication_lag gauge exposes how far the
// slowest follower has fallen behind the leader's shipped watermark.
//
// Failure handling has hysteresis: a follower is marked down after
// DownAfter consecutive ship failures, probed again at most once per
// Probe interval, and — because it missed shipments while down — brought
// back through a full resync (every name's latest and previous-good
// slot) before it counts toward the quorum again.
package replica

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
)

// SlotPath is the HTTP path a follower serves single-slot shipments on.
const SlotPath = "/v1/replica/slot"

// SyncPath is the HTTP path a follower serves latest+prev resync pairs
// (see Pair) on.
const SyncPath = "/v1/replica/sync"

// Options tunes a replicated store. Followers is the only required
// field; the zero value of everything else picks serviceable defaults.
type Options struct {
	// Followers are base URLs of peers that mount a Receiver (e.g.
	// "http://10.0.0.2:8425"); every committed slot is shipped to all of
	// them.
	Followers []string
	// Ack is how many followers must acknowledge a save before it
	// returns (the quorum of the delivery barrier). It is clamped to
	// len(Followers); 0 means best-effort shipping with a local-only
	// barrier.
	Ack int
	// Timeout bounds one shipment request (default 2s).
	Timeout time.Duration
	// DownAfter is how many consecutive ship failures mark a follower
	// down (default 2 — hysteresis, so one flaky request does not flap).
	DownAfter int
	// Probe is the minimum interval between ship attempts to a down
	// follower (default 1s).
	Probe time.Duration
	// Registry receives the replication counters and the
	// serve_replication_lag gauge; nil creates a private one.
	Registry *metrics.Registry
	// Client is the HTTP client shipments use (default: a dedicated
	// client honoring Timeout).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 2
	}
	if o.Probe <= 0 {
		o.Probe = time.Second
	}
	if o.Ack > len(o.Followers) {
		o.Ack = len(o.Followers)
	}
	if o.Ack < 0 {
		o.Ack = 0
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: o.Timeout}
	}
	return o
}

// follower is the leader-side view of one peer.
type follower struct {
	url string

	mu      sync.Mutex
	acked   uint64 // highest shipped sequence number acknowledged
	fails   int    // consecutive ship failures
	down    bool
	resync  bool      // missed shipments while down; needs a full resync
	lastTry time.Time // last attempt while down (probe pacing)
}

// Store is a checkpoint.Store that replicates every committed slot to
// follower nodes. All slot reads are served locally; writes go local
// first (that is the crash-consistency anchor), then ship.
type Store struct {
	local checkpoint.Store
	o     Options
	reg   *metrics.Registry
	epoch string
	seq   atomic.Uint64

	followers []*follower
}

var _ checkpoint.Store = (*Store)(nil)

// New wraps local with replication to o.Followers.
func New(local checkpoint.Store, o Options) *Store {
	o = o.withDefaults()
	s := &Store{local: local, o: o, reg: o.Registry, epoch: newEpoch()}
	for _, u := range o.Followers {
		s.followers = append(s.followers, &follower{url: strings.TrimRight(u, "/")})
	}
	return s
}

// Local returns the wrapped local store. The serve layer's replica
// receive path writes through it so an applied shipment is never
// re-shipped (a two-node cluster replicating to each other would
// otherwise loop forever).
func (s *Store) Local() checkpoint.Store { return s.local }

// Save persists payload locally, ships it to every reachable follower,
// and waits for the acknowledgement quorum. With fewer than Ack
// followers acknowledging it degrades to local-only durability — counted
// in serve_replication_degraded — rather than failing the session.
func (s *Store) Save(name string, version uint32, payload []byte) error {
	if err := s.local.Save(name, version, payload); err != nil {
		return err
	}
	s.shipAll(name, version, payload)
	return nil
}

// shipAll fans one committed slot out to the followers and enforces the
// quorum accounting. It blocks until every reachable follower answered
// or timed out (each attempt is bounded by Options.Timeout).
func (s *Store) shipAll(name string, version uint32, payload []byte) {
	if len(s.followers) == 0 {
		return
	}
	seq := s.seq.Add(1)
	acks := make([]bool, len(s.followers))
	var wg sync.WaitGroup
	for i, f := range s.followers {
		wg.Add(1)
		go func(i int, f *follower) {
			defer wg.Done()
			acks[i] = s.ship(f, name, version, payload, seq)
		}(i, f)
	}
	wg.Wait()
	n := 0
	for _, ok := range acks {
		if ok {
			n++
		}
	}
	if n < s.o.Ack {
		s.reg.Counter("serve_replication_degraded").Inc()
	}
	s.updateLag()
}

// ship delivers one slot to one follower, handling down-state pacing and
// the post-outage resync. Reports whether the follower acknowledged this
// sequence number.
func (s *Store) ship(f *follower, name string, version uint32, payload []byte, seq uint64) bool {
	f.mu.Lock()
	if f.down && time.Since(f.lastTry) < s.o.Probe {
		f.mu.Unlock()
		return false // pace probes; the follower stays behind
	}
	f.lastTry = time.Now()
	needResync := f.resync
	f.mu.Unlock()

	if needResync {
		// The follower missed shipments while down: replay every name's
		// latest and previous-good slot before acknowledging new ones.
		if !s.resyncFollower(f) {
			s.noteFailure(f)
			return false
		}
		s.reg.Counter("serve_replication_resyncs").Inc()
	}
	if err := s.post(f.url+SlotPath, name, seq, version, payload); err != nil {
		s.reg.Counter("serve_replication_ship_errors").Inc()
		s.noteFailure(f)
		return false
	}
	s.reg.Counter("serve_replication_ships").Inc()
	f.mu.Lock()
	f.fails, f.down, f.resync = 0, false, false
	if seq > f.acked {
		f.acked = seq
	}
	f.mu.Unlock()
	return true
}

// noteFailure applies the down-marking hysteresis.
func (s *Store) noteFailure(f *follower) {
	f.mu.Lock()
	f.fails++
	if f.fails >= s.o.DownAfter && !f.down {
		f.down = true
	}
	if f.down {
		f.resync = true
	}
	f.mu.Unlock()
}

// resyncFollower replays the full local slot set (latest + previous-good
// per name) through the sync endpoint. All names must apply for the
// resync to count — a partial resync leaves the follower marked behind.
func (s *Store) resyncFollower(f *follower) bool {
	names, err := s.local.Names()
	if err != nil {
		return false
	}
	for _, name := range names {
		pair, err := LoadPair(s.local, name)
		if err != nil {
			continue // slot vanished between Names and Load (session ended)
		}
		if err := s.post(f.url+SyncPath, name, s.seq.Add(1), 0, pair.Encode()); err != nil {
			return false
		}
	}
	return true
}

// post ships one request with the replication headers.
func (s *Store) post(url, name string, seq uint64, version uint32, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, url+"?name="+neturl.QueryEscape(name), bytes.NewReader(body))
	if err != nil {
		return err
	}
	setShipHeaders(req.Header, s.epoch, seq, version, body)
	resp, err := s.o.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("replica: %s answered %d", url, resp.StatusCode)
	}
	return nil
}

// setShipHeaders stamps the replication envelope on a request.
func setShipHeaders(h http.Header, epoch string, seq uint64, version uint32, body []byte) {
	h.Set("X-Replica-Epoch", epoch)
	h.Set("X-Replica-Seq", strconv.FormatUint(seq, 10))
	h.Set("X-Replica-Version", strconv.FormatUint(uint64(version), 10))
	h.Set("X-Replica-CRC", Checksum(body))
}

// updateLag publishes the acknowledged-watermark gap: the leader's
// shipped sequence number minus the slowest follower's acknowledged one.
// Zero means every follower is current.
func (s *Store) updateLag() {
	head := s.seq.Load()
	var worst uint64
	for _, f := range s.followers {
		f.mu.Lock()
		if lag := head - f.acked; lag > worst {
			worst = lag
		}
		f.mu.Unlock()
	}
	s.reg.Gauge("serve_replication_lag").Set(int64(worst))
}

// FollowersUp reports how many followers are currently not marked down.
func (s *Store) FollowersUp() int {
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

// Load, LoadPrevious, Names are local reads: the leader's own store is
// always at least as fresh as any follower's.
func (s *Store) Load(name string) ([]byte, uint32, bool, error) { return s.local.Load(name) }

// LoadPrevious reads the local fallback slot.
func (s *Store) LoadPrevious(name string) ([]byte, uint32, error) { return s.local.LoadPrevious(name) }

// Names lists the local store's checkpoint names.
func (s *Store) Names() ([]string, error) { return s.local.Names() }

// Remove retires the slots locally and ships the removal best-effort: a
// follower that misses it keeps a stale slot, which is harmless (session
// IDs are never reused) and reclaimed by that follower's next Clear.
func (s *Store) Remove(name string) error {
	err := s.local.Remove(name)
	seq := s.seq.Add(1)
	for _, f := range s.followers {
		go func(f *follower) {
			req, rerr := http.NewRequest(http.MethodDelete, f.url+SlotPath+"?name="+neturl.QueryEscape(name), nil)
			if rerr != nil {
				return
			}
			setShipHeaders(req.Header, s.epoch, seq, 0, nil)
			if resp, derr := s.o.Client.Do(req); derr == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(f)
	}
	return err
}

// Clear empties the local store only; followers are marked for resync so
// their next acknowledged shipment reflects the fresh state.
func (s *Store) Clear() error {
	err := s.local.Clear()
	for _, f := range s.followers {
		f.mu.Lock()
		f.resync = true
		f.mu.Unlock()
	}
	return err
}

// newEpoch returns a fresh leader identity.
func newEpoch() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
