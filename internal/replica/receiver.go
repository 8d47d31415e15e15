package replica

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
)

// StreamPath is the HTTP path a follower serves replication streams on.
const StreamPath = "/v1/replica/stream"

// SlotPath is where followers took one slot per request before the
// stream replaced it. Nothing serves it; it stays exported only because
// the bench ledger's trace middleware (bench/trace.go) names it.
const SlotPath = "/v1/replica/slot"

// epochHeader carries the leader's epoch, once per stream.
const epochHeader = "X-Replica-Epoch"

// latencyBoundsUs are the bucket bounds of the per-frame replication
// histograms, in µs: a loopback ship + ack is 60–200.
var latencyBoundsUs = []int64{25, 50, 75, 100, 150, 200, 300, 500, 1000, 2500, 10000}

// Receiver is the follower side of checkpoint shipping: an http.Handler
// a serving node mounts at StreamPath. It verifies each frame, applies it
// through the node's LOCAL store (never a replicated wrapper — two nodes
// replicating to each other must not relay shipments onward), and keeps
// per-name (epoch, seq) bookkeeping so replayed or reordered frames
// acknowledge idempotently without a second write.
type Receiver struct {
	store checkpoint.Store
	reg   *metrics.Registry

	closing context.Context // done once Close has run
	stop    context.CancelFunc

	mu   sync.Mutex
	seen map[string]nameState // per checkpoint name
}

// nameState is the newest frame accepted for one name.
type nameState struct {
	epoch string
	seq   uint64
}

// NewReceiver returns a Receiver applying shipments to store. store must
// be the node's local store; reg (optional) receives the receive-side
// counters.
func NewReceiver(store checkpoint.Store, reg *metrics.Registry) *Receiver {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rc := &Receiver{store: store, reg: reg, seen: map[string]nameState{}}
	rc.closing, rc.stop = context.WithCancel(context.Background())
	return rc
}

// Mount registers the replication stream endpoint on mux.
func (rc *Receiver) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+StreamPath, rc.handleStream)
}

// Close ends every stream being served and refuses new ones: the node is
// draining or has been killed. Frames already read still finish applying.
func (rc *Receiver) Close() { rc.stop() }

// maxName bounds a checkpoint name on the wire.
const maxName = 128

// validName rejects names that could escape the store directory or
// denote slot-internal files.
func validName(name string) bool {
	if name == "" || len(name) > maxName {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return false
	}
	return true
}

// handleStream serves one leader's stream. Frames are verified and
// checked for staleness in arrival order, and each is acknowledged once
// applied. Slot and pair frames apply concurrently, one goroutine each,
// so two names' fsyncs overlap; the leader never has two in flight for
// one name. A removal applies before the next frame is read, so a
// restarted session's Remove(X) cannot land after its next Save(X). A
// frame that fails verification is counted and ends the stream, with
// nothing of it applied.
func (rc *Receiver) handleStream(w http.ResponseWriter, r *http.Request) {
	// One connection per stream, as serve's /v1/stream: a refusal must not
	// wait for net/http to drain a body the leader never ends.
	w.Header().Set("Connection", "close")
	epoch := r.Header.Get(epochHeader)
	if epoch == "" {
		http.Error(w, "missing "+epochHeader, http.StatusBadRequest)
		return
	}
	if rc.closing.Err() != nil {
		http.Error(w, "not receiving", http.StatusServiceUnavailable)
		return
	}
	ctl := http.NewResponseController(w)
	// The stream ends when this handler does, not once net/http has
	// drained a body the leader never ends; Close ends it at once.
	defer ctl.SetReadDeadline(time.Unix(1, 0))
	defer context.AfterFunc(rc.closing, func() {
		ctl.SetReadDeadline(time.Unix(1, 0))
		ctl.SetWriteDeadline(time.Unix(1, 0))
	})()
	ctl.EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	if ctl.Flush() != nil {
		return
	}

	var (
		wmu     sync.Mutex // acks come from the apply goroutines
		out     []byte
		applies sync.WaitGroup
		bufMu   sync.Mutex
		bufs    [][]byte // frame buffers no frame in flight holds
	)
	defer applies.Wait()
	// Each frame is read into a buffer from bufs, which goes back once the
	// frame is applied: the store's Save copies a payload into its record
	// before it returns, so nothing reads the buffer after that. There is
	// one buffer per apply in flight, and one past 1 MiB (a frame readFrame
	// grew as its bytes arrived) is dropped.
	take := func() (b []byte) {
		bufMu.Lock()
		if n := len(bufs); n > 0 {
			b, bufs = bufs[n-1], bufs[:n-1]
		}
		bufMu.Unlock()
		return b
	}
	give := func(b []byte) {
		if cap(b) > 1<<20 {
			return
		}
		bufMu.Lock()
		bufs = append(bufs, b)
		bufMu.Unlock()
	}
	ack := func(f frame, status byte, t0 time.Time) {
		wmu.Lock()
		defer wmu.Unlock()
		if f.kind == frameSlot && status == ackOK {
			rc.reg.Histogram("serve_replication_recv_us", latencyBoundsUs).Observe(time.Since(t0).Microseconds())
		}
		out = appendAck(out[:0], f.seq, status)
		if _, err := w.Write(out); err == nil {
			ctl.Flush()
		}
	}
	for {
		f, buf, err := readFrame(r.Body, take())
		var pair Pair
		if err == nil && f.kind == framePair {
			pair, err = decodePair(f.body)
		}
		if err != nil {
			if err != io.EOF {
				rc.reg.Counter("serve_replication_recv_errors").Inc()
			}
			return
		}
		t0 := time.Now()
		switch {
		case !rc.fresh(f.name, epoch, f.seq):
			ack(f, ackOK, t0) // a replay: acknowledged, not written again
			give(buf)
		case f.kind == frameRemove:
			rc.store.Remove(f.name) // best-effort: a leftover slot is harmless
			// The name is finished (session IDs are never reused), so its
			// bookkeeping goes with it: the map must not grow by one entry
			// per session ever mirrored.
			rc.mu.Lock()
			delete(rc.seen, f.name)
			rc.mu.Unlock()
			ack(f, ackOK, t0)
			give(buf)
		default:
			applies.Add(1)
			go func() {
				defer applies.Done()
				ack(f, rc.apply(f, pair), t0)
				give(buf)
			}()
		}
	}
}

// fresh records seq as name's newest frame unless it replays one already
// accepted from the same leader epoch.
func (rc *Receiver) fresh(name, epoch string, seq uint64) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if st, have := rc.seen[name]; have && st.epoch == epoch && seq <= st.seq {
		return false
	}
	rc.seen[name] = nameState{epoch: epoch, seq: seq}
	return true
}

// apply writes a slot frame as the name's latest checkpoint (rotating
// prev exactly as a local save does), or installs a pair frame's records.
func (rc *Receiver) apply(f frame, pair Pair) byte {
	var err error
	if f.kind == framePair {
		err = pair.Install(rc.store, f.name)
	} else {
		err = rc.store.Save(f.name, f.version, f.body)
	}
	if err != nil {
		rc.reg.Counter("serve_replication_recv_errors").Inc()
		return ackFailed
	}
	rc.reg.Counter("serve_replication_received").Inc()
	return ackOK
}
