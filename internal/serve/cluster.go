// Cluster membership and live session handoff.
//
// A serve node in a cluster knows its peers (Config.Peers), watches
// their health with hysteresis, and can hand a live session to one of
// them without breaking the client's exactly-once stream:
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

// probeInterval is how often peers are health-probed, and how long one
// probe may take.
const probeInterval = 500 * time.Millisecond

// peer is one watched sibling node.
type peer struct {
	url  string
	up   bool // guarded by Server.mu
	oks  int
	errs int
}

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

// startPeerWatch launches the health prober when peers are configured.
// Peers start optimistically up (a cold cluster must be able to migrate
// before the first probe round) and flip with hysteresis: two
// consecutive probe failures mark a peer down, two successes bring it
// back, so one dropped probe never flaps the routing.
func (s *Server) startPeerWatch() {
	for _, u := range s.cfg.Peers {
		s.peers = append(s.peers, &peer{url: strings.TrimRight(u, "/"), up: true})
	}
	if len(s.peers) == 0 {
		return
	}
	s.reg.Gauge("serve_peers_up").Set(int64(len(s.peers)))
	client := &http.Client{Timeout: probeInterval}
	s.peerWG.Add(1)
	go func() {
		defer s.peerWG.Done()
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.peerStop:
				return
			case <-tick.C:
			}
			s.probePeers(client)
		}
	}()
}

// probePeers runs one health round over all peers.
func (s *Server) probePeers(client *http.Client) {
	type result struct {
		p  *peer
		ok bool
	}
	results := make(chan result, len(s.peers))
	for _, p := range s.peers {
		go func(p *peer) {
			resp, err := client.Get(p.url + "/healthz")
			ok := err == nil && resp.StatusCode == http.StatusOK
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			results <- result{p, ok}
		}(p)
	}
	up := 0
	s.mu.Lock()
	for range s.peers {
		r := <-results
		if r.ok {
			r.p.oks, r.p.errs = r.p.oks+1, 0
			if r.p.oks >= 2 {
				r.p.up = true
			}
		} else {
			r.p.errs, r.p.oks = r.p.errs+1, 0
			if r.p.errs >= 2 {
				r.p.up = false
			}
		}
	}
	for _, p := range s.peers {
		if p.up {
			up++
		}
	}
	s.mu.Unlock()
	s.reg.Gauge("serve_peers_up").Set(int64(up))
}

// stopPeers halts the health prober. Idempotent.
func (s *Server) stopPeers() {
	s.mu.Lock()
	if !s.peerStopped {
		s.peerStopped = true
		close(s.peerStop)
	}
	s.mu.Unlock()
	s.peerWG.Wait()
}

// upPeer returns the next healthy peer URL round-robin, or "".
func (s *Server) upPeer() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < len(s.peers); i++ {
		p := s.peers[(s.peerNext+i)%len(s.peers)]
		if p.up {
			s.peerNext = (s.peerNext + i + 1) % len(s.peers)
			return p.url
		}
	}
	return ""
}

// handleMigrate hands sessions to a peer: POST /v1/migrate?session=ID&to=URL.
// An empty session migrates every active session; an empty to picks the
// next healthy peer. Live sessions drain to a checkpoint at their next
// loop boundary and transfer from there; suspended sessions (slots only)
// transfer immediately. The response maps each session ID to "ok" or the
// failure reason — a failed live migration falls back to suspend, so the
// session is never lost, only not moved.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		http.Error(w, "not resumable: no checkpoint store", http.StatusConflict)
		return
	}
	to := strings.TrimRight(r.URL.Query().Get("to"), "/")
	if to == "" {
		to = s.upPeer()
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
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(to+migratePath, "application/octet-stream",
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
	if s.cfg.Store == nil {
		http.Error(w, "not resumable: no checkpoint store", http.StatusConflict)
		return
	}
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
// is handed to a healthy peer and told `moved`. Sessions that cannot
// move (no healthy peer, target refusal) fall back to suspend exactly
// as Drain would. The SIGTERM path of a clustered apserve uses this so
// a rolling restart never parks clients.
func (s *Server) DrainMigrate(timeout time.Duration) error {
	to := s.upPeer()
	if to == "" {
		return s.Drain(timeout)
	}
	return s.drain(timeout, "drain-migrate", func(sess *session) { sess.requestMove(to, nil) })
}
