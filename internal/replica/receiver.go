package replica

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
)

// Receiver is the follower side of checkpoint shipping: an http.Handler
// a serving node mounts under /v1/replica/. It verifies each shipment's
// CRC, applies it through the node's LOCAL store (never a replicated
// wrapper — two nodes replicating to each other must not relay
// shipments onward), and keeps per-name (epoch, seq) bookkeeping so
// replayed or reordered shipments acknowledge idempotently without a
// second write.
type Receiver struct {
	store checkpoint.Store
	reg   *metrics.Registry

	mu   sync.Mutex
	seen map[string]nameState // per checkpoint name
}

// nameState is the newest shipment applied for one name.
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
	return &Receiver{store: store, reg: reg, seen: map[string]nameState{}}
}

// Mount registers the replica endpoints on mux.
func (rc *Receiver) Mount(mux *http.ServeMux) {
	mux.HandleFunc(SlotPath, rc.handleSlot)
	mux.HandleFunc(SyncPath, rc.handleSync)
}

// validName rejects names that could escape the store directory or
// denote slot-internal files.
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return false
	}
	return true
}

// readShipment parses and verifies the common shipment envelope,
// answering the request itself on any failure. stale means the shipment
// is older than what is already applied for the name — acknowledged
// without a write so leader retries are idempotent.
func (rc *Receiver) readShipment(w http.ResponseWriter, r *http.Request) (name string, seq uint64, version uint32, body []byte, stale, ok bool) {
	name = r.URL.Query().Get("name")
	if !validName(name) {
		http.Error(w, "bad checkpoint name", http.StatusBadRequest)
		return
	}
	epoch := r.Header.Get("X-Replica-Epoch")
	if epoch == "" {
		http.Error(w, "missing X-Replica-Epoch", http.StatusBadRequest)
		return
	}
	seq, err := strconv.ParseUint(r.Header.Get("X-Replica-Seq"), 10, 64)
	if err != nil {
		http.Error(w, "bad X-Replica-Seq", http.StatusBadRequest)
		return
	}
	v64, err := strconv.ParseUint(r.Header.Get("X-Replica-Version"), 10, 32)
	if err != nil {
		http.Error(w, "bad X-Replica-Version", http.StatusBadRequest)
		return
	}
	version = uint32(v64)
	body, err = readBody(r.Body, r.Header.Get("X-Replica-CRC"))
	switch {
	case errors.Is(err, errBodyTooLarge):
		http.Error(w, "slot too large", http.StatusRequestEntityTooLarge)
		return
	case errors.Is(err, errChecksum):
		rc.reg.Counter("serve_replication_recv_errors").Inc()
		http.Error(w, "CRC mismatch", http.StatusBadRequest)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	rc.mu.Lock()
	st, have := rc.seen[name]
	if have && st.epoch == epoch && seq <= st.seq {
		stale = true // replay within the same leader incarnation
	} else {
		rc.seen[name] = nameState{epoch: epoch, seq: seq}
	}
	rc.mu.Unlock()
	ok = true
	return
}

// handleSlot applies one shipped slot: POST writes the payload as the
// latest checkpoint of the name (rotating prev exactly as a local save
// does); DELETE retires the name's slots.
func (rc *Receiver) handleSlot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost, http.MethodDelete:
	default:
		http.Error(w, "POST or DELETE only", http.StatusMethodNotAllowed)
		return
	}
	name, _, version, body, stale, ok := rc.readShipment(w, r)
	if !ok {
		return
	}
	if stale {
		w.WriteHeader(http.StatusOK) // idempotent ack, no write
		return
	}
	if r.Method == http.MethodDelete {
		rc.store.Remove(name) // best-effort: a leftover slot is harmless
		// The name is finished (session IDs are never reused), so its
		// bookkeeping goes with it: the map must not grow by one entry
		// per session ever mirrored. A stale POST arriving after this can
		// only recreate a slot, which Store.Remove documents as harmless.
		rc.mu.Lock()
		delete(rc.seen, name)
		rc.mu.Unlock()
		w.WriteHeader(http.StatusOK)
		return
	}
	if err := rc.store.Save(name, version, body); err != nil {
		rc.reg.Counter("serve_replication_recv_errors").Inc()
		http.Error(w, "save failed", http.StatusInternalServerError)
		return
	}
	rc.reg.Counter("serve_replication_received").Inc()
	w.WriteHeader(http.StatusOK)
}

// handleSync applies one resync Pair: the name's latest and (when there
// is one) previous-good record in one request.
func (rc *Receiver) handleSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name, _, _, body, stale, ok := rc.readShipment(w, r)
	if !ok {
		return
	}
	if stale {
		w.WriteHeader(http.StatusOK)
		return
	}
	pair, err := decodePair(body)
	if err != nil {
		rc.reg.Counter("serve_replication_recv_errors").Inc()
		http.Error(w, "malformed sync record", http.StatusBadRequest)
		return
	}
	if err := pair.Install(rc.store, name); err != nil {
		http.Error(w, "save failed", http.StatusInternalServerError)
		return
	}
	rc.reg.Counter("serve_replication_received").Inc()
	w.WriteHeader(http.StatusOK)
}
