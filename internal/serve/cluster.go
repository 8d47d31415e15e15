// Cluster membership and live session handoff.
//
// A serve node in a cluster knows its peers (Config.Peers), probes
// their health when a session is about to move, and can hand a live
// session to one of them without breaking the client's exactly-once
// stream:
//
//  1. the session drains to a checkpoint at its next loop boundary (the
//     same save-then-flush barrier a periodic capture uses, so the
//     client holds exactly the reports the slot accounts for);
//  2. the latest and previous-good slots travel to the target as one
//     replica pair frame, named for the session's slot, in one POST
//     /v1/migrate/accept; the target verifies the app is resident with
//     the same build fingerprint (409 otherwise), runs full admission (a
//     target at capacity answers 503/429 and the session stays suspended
//     at the source — never stranded), warms the app's compiled image,
//     and writes the slots through its own store (replicating onward if
//     it has followers);
//  3. the source emits `moved <addr> <pos>` to the client and retires
//     its local slots; the client reconnects to <addr> with its report
//     count and resumes bit-identically.
//
// The transfer is idempotent: re-sending a pair after a partial or
// duplicated attempt converges to the same latest+prev state on the
// target, so a source that dies between transfer and `moved` leaves a
// target the client can still fail over to.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sparseap/internal/checkpoint"
	"sparseap/internal/replica"
)

// migratePath is where a peer accepts session transfers.
const migratePath = "/v1/migrate/accept"

// errPeerRefused marks a target that answered but would not take the
// session (shed, mismatch); the source falls back to suspend.
var errPeerRefused = errors.New("serve: peer refused migration")

// probeTimeout bounds one peer health probe; transferTimeout bounds one
// session transfer.
const (
	probeTimeout    = 500 * time.Millisecond
	transferTimeout = 10 * time.Second
)

// localStore returns the store shipments and migration cleanup must
// write through: the node's own disk, never a replicated wrapper. A
// replicated Remove after a handoff would propagate to the follower the
// session just moved to and delete the slots it needs.
func (s *Server) localStore() checkpoint.Store {
	if l, ok := s.cfg.Store.(interface{ Local() checkpoint.Store }); ok {
		return l.Local()
	}
	return s.cfg.Store
}

// pickPeer returns the first configured peer, starting at a round-robin
// cursor, whose /healthz answers 200 within probeTimeout, or "" when none
// does. Peers are probed only here, when a session is about to move, so a
// node runs no background watcher and a dead peer costs one failed probe.
func (s *Server) pickPeer() string {
	n := len(s.cfg.Peers)
	if n == 0 {
		return ""
	}
	s.mu.Lock()
	start := s.peerNext
	s.peerNext = (start + 1) % n
	s.mu.Unlock()
	for i := range n {
		url := strings.TrimRight(s.cfg.Peers[(start+i)%n], "/")
		if s.healthy(url) {
			return url
		}
	}
	return ""
}

// healthy reports whether the peer at url answers GET /healthz with 200
// within probeTimeout; a draining peer answers 503.
func (s *Server) healthy(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// handleMigrate hands sessions to a peer: POST /v1/migrate?session=ID&to=URL.
// An empty session migrates every active session; an empty to picks a
// peer with pickPeer. Live sessions drain to a checkpoint at their next
// loop boundary and transfer from there; suspended sessions (slots only)
// transfer immediately. The response maps each session ID to "ok" or the
// failure reason — a failed live migration falls back to suspend, so the
// session is never lost, only not moved.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	to := strings.TrimRight(r.URL.Query().Get("to"), "/")
	if to == "" {
		to = s.pickPeer()
	}
	if to == "" {
		http.Error(w, "no healthy peer to migrate to", http.StatusServiceUnavailable)
		return
	}

	var ids []string
	if id := r.URL.Query().Get("session"); id != "" {
		if !validSessionID(id) {
			http.Error(w, "invalid session id", http.StatusBadRequest)
			return
		}
		ids = []string{id}
	} else {
		s.mu.Lock()
		for id := range s.active {
			ids = append(ids, id)
		}
		s.mu.Unlock()
		if len(ids) == 0 {
			// No live sessions; migrate every suspended slot instead.
			names, _ := s.cfg.Store.Names()
			for _, n := range names {
				if id, ok := strings.CutPrefix(n, "sess-"); ok {
					ids = append(ids, id)
				}
			}
		}
	}

	out := map[string]string{}
	for _, id := range ids {
		if err := s.migrateOne(r, id, to); err != nil {
			out[id] = err.Error()
		} else {
			out[id] = "ok"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// migrateOne moves one session (live or suspended) to the target.
func (s *Server) migrateOne(r *http.Request, id, to string) error {
	s.mu.Lock()
	sess := s.active[id]
	s.mu.Unlock()
	if sess != nil {
		// Live: ask the stream loop to hand off at its next boundary and
		// wait for the outcome (bounded by the migrate request context).
		done := make(chan error, 1)
		sess.requestMove(to, done)
		select {
		case err := <-done:
			return err
		case <-r.Context().Done():
			return r.Context().Err()
		}
	}
	// Suspended: only slots exist; transfer and retire them directly.
	s.reg.Counter("serve_migrations_started").Inc()
	if err := s.transferSession(id, to); err != nil {
		s.reg.Counter("serve_migrations_failed").Inc()
		return err
	}
	s.localStore().Remove(slotName(id))
	s.reg.Counter("serve_migrations_completed").Inc()
	return nil
}

// transferSession ships a session's slot pair (replica.Pair: latest
// and, when present, previous-good) to the target as one pair frame
// under the session's slot name, the only place its ID travels. Reads go
// through cfg.Store (local reads on a replicated store).
func (s *Server) transferSession(id, to string) error {
	pair, err := replica.LoadPair(s.cfg.Store, slotName(id))
	if err != nil {
		return fmt.Errorf("no session state: %w", err)
	}
	resp, err := s.peerClient.Post(to+migratePath, "application/octet-stream",
		bytes.NewReader(pair.Frame(slotName(id))))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s answered %d: %s", errPeerRefused, to, resp.StatusCode,
			strings.TrimSpace(string(msg)))
	}
	return nil
}

// handleMigrateAccept is the target side of a handoff. It admits the
// session as if it were a new stream (full admission ladder — an
// overloaded target sheds with Retry-After and the source keeps the
// session), verifies app residency and build fingerprint, warms the
// compiled image's worst-case bound, and installs the slots through its
// configured store so they replicate onward to its own followers.
func (s *Server) handleMigrateAccept(w http.ResponseWriter, r *http.Request) {
	// One pair frame and nothing after it. An oversized, truncated,
	// corrupted or malformed transfer is rejected atomically — nothing is
	// installed, and the source's idempotent re-send starts clean.
	name, pair, err := replica.ReceivePair(r.Body)
	if err != nil {
		http.Error(w, "bad transfer: "+err.Error(), http.StatusBadRequest)
		return
	}
	if n, _ := io.CopyN(io.Discard, r.Body, 1); n > 0 {
		http.Error(w, "bad transfer: bytes after the frame", http.StatusBadRequest)
		return
	}
	id, ok := strings.CutPrefix(name, "sess-")
	if !ok || !validSessionID(id) {
		http.Error(w, "invalid session id", http.StatusBadRequest)
		return
	}
	if pair.LatestVersion != sessionStateVersion {
		http.Error(w, "transfer of an unknown session state version", http.StatusBadRequest)
		return
	}
	st, err := decodeSessionState(pair.Latest)
	if err != nil {
		http.Error(w, "undecodable session state", http.StatusBadRequest)
		return
	}
	a := s.lookupApp(st.appName)
	if a == nil {
		http.Error(w, "app not resident here", http.StatusNotFound)
		return
	}
	if a.fingerprint != st.fingerprint {
		http.Error(w, "app fingerprint mismatch", http.StatusConflict)
		return
	}
	// Full admission: the migrated session will consume a real engine
	// when its client reconnects; a target without room for it must say
	// so now, while the source can still keep the session.
	adm := s.admit(st.tenant, a.engineCost())
	if !adm.ok {
		s.shed(w, st.tenant, adm.status, adm.retryAfter, adm.reason)
		return
	}
	adm.release()     // capacity verified; the reconnect admits for real
	a.frontierBound() // pre-warm so the reconnect restores without the analysis stall

	if err := pair.Install(s.cfg.Store, slotName(id)); err != nil {
		http.Error(w, "store save failed", http.StatusInternalServerError)
		return
	}
	s.reg.Counter("serve_migrations_accepted").Inc()
	w.WriteHeader(http.StatusOK)
}

// migrateOut is the stream loop's handoff step: the window is already
// durable and released (saveFlush ran), so transfer the slots, tell the
// client where to go, and retire the local copies. On any failure the
// session falls back to a plain suspend — the client resumes here.
func (s *Server) migrateOut(w http.ResponseWriter, rc *http.ResponseController, sess *session, to string) {
	s.reg.Counter("serve_migrations_started").Inc()
	if err := s.transferSession(sess.id, to); err != nil {
		s.reg.Counter("serve_migrations_failed").Inc()
		fmt.Fprintf(w, "suspend %d\n", sess.st.Pos())
		s.reg.Tenant("serve_sessions_suspended", sess.tenant).Inc()
		rc.Flush()
		sess.finishMove(err)
		return
	}
	fmt.Fprintf(w, "moved %s %d\n", to, sess.st.Pos())
	rc.Flush()
	s.localStore().Remove(slotName(sess.id))
	s.reg.Counter("serve_migrations_completed").Inc()
	s.reg.Tenant("serve_sessions_migrated", sess.tenant).Inc()
	sess.finishMove(nil)
}

// DrainMigrate is Drain with relocation: instead of suspending every
// in-flight session (leaving clients to wait out the restart), each one
// is handed to the peer pickPeer finds answering and told `moved`.
// Sessions that cannot move (no peer answers, target refusal) fall back
// to suspend exactly as Drain would. apserve's SIGTERM path uses this so
// a rolling restart never parks clients.
func (s *Server) DrainMigrate(timeout time.Duration) error {
	to := s.pickPeer()
	if to == "" {
		return s.Drain(timeout)
	}
	return s.drain(timeout, "drain-migrate", func(sess *session) { sess.requestMove(to, nil) })
}
