// Package replica extends checkpoint durability across node boundaries:
// a Store wraps a local checkpoint.Store and ships every committed slot
// to one or more follower nodes over HTTP, so a client whose server dies
// can fail over to a follower and resume from the same delivery floor.
//
// The wire contract mirrors the on-disk one. A Store keeps one
// full-duplex POST open to each follower; its body carries one frame per
// slot, resync pair or removal, and the response one acknowledgement per
// frame (pair.go has both layouts). The stream names the leader's epoch
// (random per Store, so a restarted leader cannot be mistaken for its
// predecessor); every frame carries a monotonically increasing sequence
// number and a CRC32-C. The Receiver on the follower verifies the CRC,
// acknowledges stale or replayed sequence numbers idempotently, and
// applies the slot through its own local store's in-place write +
// fdatasync. A frame that fails its CRC or is cut short is never
// applied, so a shipment is exactly as crash-consistent on the follower
// as a local save is on the leader.
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
// DownAfter consecutive ship failures (a frame not acknowledged within
// Timeout is one, and tears its stream down), probed again at most once
// per Probe interval, and — because it missed shipments while down —
// brought back through a full resync (every name's latest and
// previous-good slot) before it counts toward the quorum again.
package replica

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
)

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
	// Timeout bounds a stream's dial and one frame's acknowledgement,
	// counted from when the frame is queued (default 2s).
	Timeout time.Duration
	// DownAfter is how many consecutive ship failures mark a follower
	// down (default 2 — hysteresis, so one flaky frame does not flap).
	DownAfter int
	// Probe is the minimum interval between ship attempts to a down
	// follower (default 1s).
	Probe time.Duration
	// Registry receives the replication counters, the
	// serve_replication_lag gauge and the serve_replication_ship_us
	// histogram; nil creates a private one.
	Registry *metrics.Registry
	// Client's Transport carries the streams (default: a transport of the
	// Store's own). Its Timeout is unused: a stream outlives any request.
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
		o.Client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	}
	return o
}

var (
	errClosed     = errors.New("replica: store closed")
	errAckTimeout = errors.New("replica: frame not acknowledged in time")
	errRefused    = errors.New("replica: follower could not apply the frame")
)

// follower is the leader-side view of one peer.
type follower struct {
	url string

	mu      sync.Mutex
	acked   uint64 // highest shipped sequence number acknowledged
	fails   int    // consecutive ship failures
	down    bool
	resync  bool      // missed shipments while down; needs a full resync
	lastTry time.Time // last attempt while down (probe pacing)

	// sync is held shared by a frame's exchange and exclusively by a
	// resync: a pair never shares the stream with a slot of its name.
	sync sync.RWMutex

	linkMu sync.Mutex
	link   *link // the stream; nil before the first ship and after Close
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
	gen   atomic.Uint64 // bumped by Close

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

// Close ends the replication streams; saves waiting on them return
// degraded. A later Save dials again; one already under way does not.
func (s *Store) Close() error {
	s.gen.Add(1)
	for _, f := range s.followers {
		f.linkMu.Lock()
		l := f.link
		f.link = nil
		f.linkMu.Unlock()
		if l != nil {
			l.fail(errClosed)
			<-l.exited
		}
	}
	return nil
}

// Save persists payload locally, ships it to every reachable follower,
// and waits for the acknowledgement quorum. With fewer than Ack
// followers acknowledging it degrades to local-only durability — counted
// in serve_replication_degraded — rather than failing the session.
func (s *Store) Save(name string, version uint32, payload []byte) error {
	gen := s.gen.Load()
	if err := s.local.Save(name, version, payload); err != nil {
		return err
	}
	s.shipAll(gen, name, version, payload)
	return nil
}

// shipAll fans one committed slot out to the followers and enforces the
// quorum accounting. It blocks until every reachable follower answered
// or timed out. The sequence number is drawn after the local write, which
// resyncFollower relies on.
func (s *Store) shipAll(gen uint64, name string, version uint32, payload []byte) {
	if len(s.followers) == 0 {
		return
	}
	fr := frame{kind: frameSlot, seq: s.seq.Add(1), version: version, name: name, body: payload}
	var acks atomic.Int64
	var wg sync.WaitGroup
	for _, f := range s.followers[1:] {
		wg.Add(1)
		go func(f *follower) {
			defer wg.Done()
			if s.ship(f, gen, fr) {
				acks.Add(1)
			}
		}(f)
	}
	if s.ship(s.followers[0], gen, fr) { // the first on this goroutine
		acks.Add(1)
	}
	wg.Wait()
	if acks.Load() < int64(s.o.Ack) {
		s.reg.Counter("serve_replication_degraded").Inc()
	}
	s.updateLag()
}

// ship delivers one slot frame to one follower, handling down-state
// pacing and the post-outage resync. Reports whether the follower
// acknowledged it.
func (s *Store) ship(f *follower, gen uint64, fr frame) bool {
	f.mu.Lock()
	if f.down && time.Since(f.lastTry) < s.o.Probe {
		f.mu.Unlock()
		return false // pace probes; the follower stays behind
	}
	f.lastTry = time.Now()
	needResync := f.resync
	f.mu.Unlock()

	var err error
	if needResync {
		err = s.resyncFollower(f, gen)
	}
	var took time.Duration
	if err == nil {
		f.sync.RLock()
		took, err = s.exchange(f, gen, fr)
		f.sync.RUnlock()
	}
	switch {
	case errors.Is(err, errClosed):
		return false // the store is closing, not the follower failing
	case err != nil:
		s.reg.Counter("serve_replication_ship_errors").Inc()
		s.noteFailure(f)
		return false
	}
	s.reg.Histogram("serve_replication_ship_us", latencyBoundsUs).Observe(took.Microseconds())
	s.reg.Counter("serve_replication_ships").Inc()
	f.mu.Lock()
	f.fails, f.down = 0, false
	if fr.seq > f.acked {
		f.acked = fr.seq
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
// per name) as pair frames while no other frame goes to f. All names must
// apply for the resync to count. A pair's sequence number is drawn before
// it is read, so a slot frame refused as stale behind it is in it.
func (s *Store) resyncFollower(f *follower, gen uint64) error {
	f.sync.Lock()
	defer f.sync.Unlock()
	f.mu.Lock()
	needed := f.resync
	f.mu.Unlock()
	if !needed {
		return nil // another save resynced f while this one waited
	}
	names, err := s.local.Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		seq := s.seq.Add(1)
		pair, err := LoadPair(s.local, name)
		if err != nil {
			continue // slot vanished between Names and Load (session ended)
		}
		if _, err := s.exchange(f, gen, frame{kind: framePair, seq: seq, name: name, body: pair.encode()}); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.resync = false
	f.mu.Unlock()
	s.reg.Counter("serve_replication_resyncs").Inc()
	return nil
}

// exchange sends fr on f's stream, dialling one if none is open (and Close
// has not run since gen), and returns the time from write to ack.
func (s *Store) exchange(f *follower, gen uint64, fr frame) (time.Duration, error) {
	f.linkMu.Lock()
	l := f.link
	if l == nil || !l.alive() {
		if s.gen.Load() != gen {
			f.linkMu.Unlock()
			return 0, errClosed
		}
		var err error
		if l, err = s.dial(f.url); err != nil {
			f.linkMu.Unlock()
			return 0, err
		}
		f.link = l
	}
	f.linkMu.Unlock()
	t0 := time.Now()
	err := l.exchange(fr, true)
	return time.Since(t0), err
}

// dial opens a stream to the follower at url: a plain full-duplex POST,
// not a hijacked connection, so any RoundTripper can carry it.
func (s *Store) dial(url string) (*link, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+StreamPath, pr)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set(epochHeader, s.epoch)
	rt := s.o.Client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	// Bound the dial, not the stream. Closing the pipe too lets RoundTrip
	// return from a follower that answers only once the body ends.
	bound := time.AfterFunc(s.o.Timeout, func() { cancel(); pw.CloseWithError(errAckTimeout) })
	resp, err := rt.RoundTrip(req)
	if late := !bound.Stop(); err == nil && (late || resp.StatusCode != http.StatusOK) {
		resp.Body.Close()
		err = fmt.Errorf("replica: stream to %s: %s (late: %v)", url, resp.Status, late)
	}
	if err != nil {
		cancel()
		pw.CloseWithError(err)
		return nil, err
	}
	l := &link{pw: pw, cancel: cancel, timeout: s.o.Timeout, exited: make(chan struct{}),
		pending: map[uint64]chan byte{}, done: make(chan struct{})}
	l.expire = func() { l.fail(errAckTimeout) }
	go l.readAcks(resp.Body)
	return l, nil
}

// link is one open stream. Saves share it a frame at a time; their
// acknowledgements come back in any order, matched by sequence number.
type link struct {
	pw      *io.PipeWriter
	cancel  context.CancelFunc
	timeout time.Duration
	expire  func()        // fails the link: a frame missed its timeout
	exited  chan struct{} // closed when readAcks has returned

	wmu sync.Mutex // one frame on the pipe at a time
	buf []byte     // frame encoding scratch, under wmu

	mu      sync.Mutex
	pending map[uint64]chan byte // acknowledgements awaited, by sequence number
	err     error                // why the link failed; nil while alive
	done    chan struct{}        // closed when err is set
}

func (l *link) alive() bool {
	select {
	case <-l.done:
		return false
	default:
		return true
	}
}

// exchange writes fr and, with wait, waits for its acknowledgement, both
// within the link's timeout or the link fails.
func (l *link) exchange(fr frame, wait bool) error {
	defer time.AfterFunc(l.timeout, l.expire).Stop()
	ack := make(chan byte, 1)
	l.mu.Lock()
	err := l.err
	if err == nil && wait {
		l.pending[fr.seq] = ack
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.wmu.Lock()
	l.buf = appendFrame(l.buf[:0], fr)
	_, err = l.pw.Write(l.buf) // returns once the transport has taken every byte
	l.wmu.Unlock()
	if err != nil || !wait {
		return err
	}
	select {
	case status := <-ack:
		if status != ackOK {
			return errRefused
		}
		return nil
	case <-l.done:
		return l.err
	}
}

// readAcks hands each acknowledgement to its frame until the stream ends,
// then fails the link.
func (l *link) readAcks(body io.ReadCloser) {
	defer close(l.exited)
	defer body.Close()
	var b [ackLen]byte
	for {
		if _, err := io.ReadFull(body, b[:]); err != nil {
			l.fail(fmt.Errorf("replica: stream ended: %w", err))
			return
		}
		seq, status := parseAck(&b)
		l.mu.Lock()
		if ack := l.pending[seq]; ack != nil {
			ack <- status
			delete(l.pending, seq)
		}
		l.mu.Unlock()
	}
}

// fail takes the link down for err: every awaited acknowledgement fails
// and the request's connection closes. Idempotent.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
		l.pending = nil
		close(l.done)
	}
	l.mu.Unlock()
	l.cancel()
	l.pw.CloseWithError(err)
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

// Load, LoadPrevious, Names are local reads: the leader's own store is
// always at least as fresh as any follower's.
func (s *Store) Load(name string) ([]byte, uint32, bool, error) { return s.local.Load(name) }

// LoadPrevious reads the local fallback slot.
func (s *Store) LoadPrevious(name string) ([]byte, uint32, error) { return s.local.LoadPrevious(name) }

// Names lists the local store's checkpoint names.
func (s *Store) Names() ([]string, error) { return s.local.Names() }

// Remove retires the slots locally and ships the removal best-effort on
// each open stream, unacknowledged: a follower that misses it keeps a
// stale slot, which is harmless (session IDs are never reused) and
// reclaimed by that follower's next Clear.
func (s *Store) Remove(name string) error {
	err := s.local.Remove(name)
	seq := s.seq.Add(1)
	for _, f := range s.followers {
		f.linkMu.Lock()
		l := f.link
		f.linkMu.Unlock()
		if l != nil {
			f.sync.RLock()
			l.exchange(frame{kind: frameRemove, seq: seq, name: name}, false)
			f.sync.RUnlock()
		}
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
