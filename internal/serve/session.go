// Streaming sessions: checkpoint-backed, exactly-once, bit-identical
// across server kills.
//
// # Wire protocol
//
// A session is a POST /v1/stream?app=NAME with a streamed request body
// (the input symbols) and a streamed response of newline-framed records:
//
//	r <pos> <state>    one match report
//	suspend <pos>      server is draining; reconnect and resume
//	moved <addr> <pos> session handed to the peer at base URL <addr>;
//	                   reconnect THERE with X-Session and X-Have-Reports
//	                   and the stream resumes bit-identically
//	end <pos> <n>      stream complete after pos symbols, n reports total
//
// A record is its keyword and fields, one space between them, none before
// or after, ended by one newline (no carriage return). Numbers are decimal
// without sign or leading zero; pos and n lie in [0, MaxInt64], state in
// [0, MaxInt32], and pos counts from the start of the input on every
// connection of the session. Only a record whose newline arrived counts:
// what a dying connection leaves behind it is discarded, never read. The
// client holds r to that grammar byte for byte (parseReportLine in
// wire.go) and breaks the attempt on a line that starts like a report and
// is not one; the other records come once a session and are read by
// field, end completing the stream only with pos the input's length and n
// the number of reports the client holds.
//
// Request headers: X-Tenant, X-Session (resume an existing session),
// X-Have-Reports (how many reports the client retains), X-Restart
// (discard server-side state), X-Deadline-Ms, X-Failover (set to 1 when
// the client switched nodes since its last attempt — counted, not acted
// on). Response headers: X-Session (assigned ID), X-Resume-Pos (input
// offset to send from).
//
// # Exactly-once delivery
//
// Reports are released to the client only after the checkpoint covering
// them is durable: the session buffers a window of reports between
// captures, saves {snapshot, window} atomically, then flushes the window.
// The client therefore never holds a report the store cannot account for.
// On reconnect the client states how many reports it has (N). The latest
// slot stores a snapshot at position P with cursor C and the window of
// reports generated since the previous capture (delivery floor F = C -
// len(window)):
//
//   - N ≥ F: replay window[N-F:], restore the snapshot, continue at P —
//     the client receives each report exactly once;
//   - N < F: the client missed a whole flush (killed mid-write); fall
//     back to the previous-good slot, one capture interval further back,
//     and apply the same rule;
//   - otherwise the client and store have diverged (or the client asked
//     to restart): the session restarts from symbol 0 and the client
//     discards everything — still exactly-once in the final stream.
//
// Because the engine is deterministic and a snapshot at P contains
// exactly the history of positions < P, the concatenated stream the
// client assembles is bit-identical to an uninterrupted run.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/sim"
)

// sessionStateVersion versions the session checkpoint record.
const sessionStateVersion = 1

// sessionOverheadBytes is the fixed per-session memory charge on top of
// the engine estimate (buffers, bookkeeping, HTTP plumbing).
const sessionOverheadBytes = 64 << 10

// readChunk is the body read granularity (capped at the distance to the
// next checkpoint boundary so captures land exactly on schedule).
const readChunk = 32 << 10

// maxPooledBytes caps a buffer that goes back to the Server's pool: one a
// report storm grew past it (RF1, RF2) is dropped, so the pool never pins
// a storm's memory for the sessions after it.
const maxPooledBytes = 1 << 20

// sessionBufs are the buffers a session's reads, captures and deliveries
// reuse. They come from the Server's pool when the session starts and go
// back to it once handleStream has unwound.
type sessionBufs struct {
	window []sim.Report   // reports not yet released to the client
	snap   *sim.Snapshot  // capture buffer
	enc    checkpoint.Enc // encode buffer
	out    []byte         // buffer a window is rendered into
	in     []byte         // request body read buffer, readChunk long
}

func newSessionBufs() any {
	return &sessionBufs{snap: &sim.Snapshot{}, in: make([]byte, readChunk)}
}

// oversized reports whether b's backing array holds more than
// maxPooledBytes.
func oversized[T any](b []T) bool {
	var z T
	return uintptr(cap(b))*unsafe.Sizeof(z) > maxPooledBytes
}

// pooled returns b emptied for the pool, or nil when it is oversized.
func pooled[T any](b []T) []T {
	if oversized(b) {
		return nil
	}
	return b[:0]
}

// putBufs returns a finished session's buffers to the pool, truncated,
// dropping each one grown past maxPooledBytes. Nothing may read them
// afterwards: the caller is handleStream's last deferred step, once the
// session is unregistered and its stream loop, any transfer and every
// save of it have returned.
func (s *Server) putBufs(b *sessionBufs) {
	b.window = pooled(b.window)
	b.out = pooled(b.out)
	if oversized(b.enc.Bytes()) {
		b.enc = checkpoint.Enc{}
	}
	b.enc.Reset()
	if oversized(b.snap.Frontier) || oversized(b.snap.Ever) {
		b.snap = &sim.Snapshot{}
	}
	s.bufs.Put(b)
}

// session is one live stream session. Its sessionBufs (the report
// window, the capture, the encoded record, the rendered reports and the
// body read buffer) are borrowed from the Server's pool for the life of
// handleStream and returned, truncated, after the session is unregistered
// and its loop has unwound, so no goroutine or transfer can still read
// them; a buffer past maxPooledBytes (1 MiB) is dropped instead.
type session struct {
	id     string
	tenant string
	app    *app
	st     *sim.Streamer

	*sessionBufs
	floor int64 // reports already released (delivery floor)

	savedPos int64 // input position of the last durable capture (-1: none yet)

	drainCh chan struct{}

	moveMu   sync.Mutex
	moveTo   string     // peer to hand off to ("" = no move requested)
	moveDone chan error // outcome channel a migrate caller waits on
}

// requestDrain asks the session to checkpoint, suspend, and unwind.
// Idempotent; called with s.mu held.
func (sess *session) requestDrain() {
	select {
	case <-sess.drainCh:
	default:
		close(sess.drainCh)
	}
}

func (sess *session) draining() bool {
	select {
	case <-sess.drainCh:
		return true
	default:
		return false
	}
}

// requestMove asks the session to hand itself to the peer at to; the
// stream loop performs the transfer at its next boundary. done (may be
// nil) receives the outcome. First request wins.
func (sess *session) requestMove(to string, done chan error) {
	sess.moveMu.Lock()
	if sess.moveTo == "" {
		sess.moveTo = to
		sess.moveDone = done
	} else if done != nil {
		done <- fmt.Errorf("serve: move already in progress")
	}
	sess.moveMu.Unlock()
}

// moveTarget returns the requested handoff target, or "".
func (sess *session) moveTarget() string {
	sess.moveMu.Lock()
	defer sess.moveMu.Unlock()
	return sess.moveTo
}

// finishMove delivers the handoff outcome to a waiting migrate caller.
func (sess *session) finishMove(err error) {
	sess.moveMu.Lock()
	done := sess.moveDone
	sess.moveDone = nil
	sess.moveMu.Unlock()
	if done != nil {
		done <- err
	}
}

// slotName is the checkpoint-store name of a session.
func slotName(id string) string { return "sess-" + id }

// validSessionID accepts store-safe IDs (they become file names).
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// encodeSessionState renders the durable record: identity (so a resumed
// request cannot splice a different tenant/app/build), the engine
// snapshot, and the undelivered report window.
func encodeSessionState(e *checkpoint.Enc, sess *session, snap *sim.Snapshot) {
	e.Reset()
	e.String(sess.tenant)
	e.String(sess.app.name)
	e.String(sess.app.fingerprint)
	snap.Encode(e)
	e.U64(uint64(len(sess.window)))
	for _, r := range sess.window {
		e.I64(r.Pos)
		e.I32(int32(r.State))
	}
}

// sessionState is a decoded session checkpoint.
type sessionState struct {
	tenant, appName, fingerprint string
	snap                         *sim.Snapshot
	window                       []sim.Report
}

// floorOf returns the delivery floor of the record: reports released to
// the client before this capture's window.
func (st *sessionState) floorOf() int64 { return st.snap.NumReports - int64(len(st.window)) }

func decodeSessionState(payload []byte) (*sessionState, error) {
	d := checkpoint.NewDec(payload)
	st := &sessionState{
		tenant:      d.String(),
		appName:     d.String(),
		fingerprint: d.String(),
		snap:        &sim.Snapshot{},
	}
	if err := st.snap.Decode(d); err != nil {
		return nil, err
	}
	n := d.Len(12)
	for i := 0; i < n && d.Err() == nil; i++ {
		pos := d.I64()
		state := automata.StateID(d.I32())
		st.window = append(st.window, sim.Report{Pos: pos, State: state})
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// registerSession claims the session ID; a second live request on the
// same ID is refused (one writer per slot).
func (s *Server) registerSession(id string, sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.active[id]; busy {
		return false
	}
	s.active[id] = sess
	if s.draining {
		// A drain racing the registration still reaches this session.
		sess.requestDrain()
	}
	return true
}

func (s *Server) unregisterSession(id string) {
	s.mu.Lock()
	delete(s.active, id)
	s.mu.Unlock()
}

// resumeDecision is what the windowed-resume rule picked.
type resumeDecision struct {
	state  *sessionState // nil: start fresh from symbol 0
	replay []sim.Report  // window suffix the client is missing
}

// planResume applies the exactly-once resume rule for a client holding
// have reports. A nil decision with ok=false means the store and client
// diverged irrecoverably (client restarts from scratch).
func (s *Server) planResume(id string, a *app, tenant string, have int64) (dec resumeDecision, ok bool, err error) {
	payload, version, _, lerr := s.cfg.Store.Load(slotName(id))
	if errors.Is(lerr, checkpoint.ErrNoCheckpoint) {
		return resumeDecision{}, true, nil // nothing stored: fresh session
	}
	if lerr != nil {
		return resumeDecision{}, false, lerr
	}
	if version != sessionStateVersion {
		return resumeDecision{}, false, nil
	}
	try := func(payload []byte) (resumeDecision, bool) {
		st, derr := decodeSessionState(payload)
		if derr != nil {
			return resumeDecision{}, false
		}
		if st.appName != a.name || st.fingerprint != a.fingerprint || st.tenant != tenant {
			return resumeDecision{}, false
		}
		floor := st.floorOf()
		if have < floor || have > st.snap.NumReports {
			return resumeDecision{}, false
		}
		return resumeDecision{state: st, replay: st.window[have-floor:]}, true
	}
	if dec, ok := try(payload); ok {
		return dec, true, nil
	}
	// The client fell behind the latest capture's delivery floor (a kill
	// mid-flush): one capture interval further back is the previous-good
	// slot.
	if prev, pver, perr := s.cfg.Store.LoadPrevious(slotName(id)); perr == nil && pver == sessionStateVersion {
		if dec, ok := try(prev); ok {
			return dec, true, nil
		}
	}
	return resumeDecision{}, false, nil
}

// handleStream runs one streaming session end to end.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// One connection per stream attempt. Without this, an early refusal
	// (shed, 404, 409) deadlocks a pipe-bodied client: net/http drains
	// the unread request body before flushing the response to keep the
	// connection reusable, while the client cannot start its body writer
	// until it sees the response. Connection: close skips the drain.
	w.Header().Set("Connection", "close")
	tenant := tenantName(r.Header)
	if r.Header.Get("X-Failover") == "1" {
		s.reg.Counter("serve_failovers").Inc()
	}
	a := s.lookupApp(r.URL.Query().Get("app"))
	if a == nil {
		http.Error(w, "unknown app", http.StatusNotFound)
		return
	}
	deadline, err := headerInt(r.Header, "X-Deadline-Ms", maxDeadlineMs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	have, err := headerInt(r.Header, "X-Have-Reports", math.MaxInt64)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	adm := s.admit(tenant, a.engineCost())
	if !adm.ok {
		s.shed(w, tenant, adm.status, adm.retryAfter, adm.reason)
		return
	}
	defer adm.release()

	id := r.Header.Get("X-Session")
	if id == "" {
		id = newSessionID()
	} else if !validSessionID(id) {
		http.Error(w, "invalid session id", http.StatusBadRequest)
		return
	}
	sess := &session{
		id:      id,
		tenant:  tenant,
		app:     a,
		drainCh: make(chan struct{}),

		savedPos: -1,
	}
	if !s.registerSession(id, sess) {
		http.Error(w, "session busy", http.StatusConflict)
		return
	}
	sess.sessionBufs = s.bufs.Get().(*sessionBufs)
	defer func() {
		s.unregisterSession(id)
		// A migrate request can land just as this stream unwinds; its
		// requestMove would otherwise park a waiter forever. finishMove
		// is idempotent, so a handoff that already answered is a no-op.
		sess.finishMove(errors.New("serve: session ended before handoff"))
		s.putBufs(sess.sessionBufs)
	}()

	// Deadline propagation: the header deadline joins the request
	// context (which already cancels on client disconnect) and reaches
	// the engine through the Streamer's context poll.
	ctx := r.Context()
	rc := http.NewResponseController(w)
	if deadline > 0 {
		var cancel context.CancelFunc
		d := time.Duration(deadline) * time.Millisecond
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
		rc.SetReadDeadline(time.Now().Add(d)) // body reads obey it too
	}

	var dec resumeDecision
	if r.Header.Get("X-Restart") == "1" {
		s.cfg.Store.Remove(slotName(id))
	} else {
		var ok bool
		dec, ok, err = s.planResume(id, a, tenant, have)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			// Divergence: tell the client to restart from scratch.
			http.Error(w, "session state diverged; restart", http.StatusConflict)
			return
		}
	}

	sess.st = sim.NewStreamer(a.net)
	sess.st.SetContext(ctx)
	sess.st.OnReport = func(pos int64, state automata.StateID) {
		sess.window = append(sess.window, sim.Report{Pos: pos, State: state})
	}
	resumePos := int64(0)
	if dec.state != nil {
		if err := sess.st.Restore(dec.state.snap); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		resumePos = dec.state.snap.Pos
		sess.savedPos = resumePos
		sess.floor = dec.state.snap.NumReports
		s.reg.Tenant("serve_sessions_resumed", tenant).Inc()
	} else {
		s.reg.Tenant("serve_sessions_started", tenant).Inc()
	}

	w.Header().Set("X-Session", id)
	w.Header().Set("X-Resume-Pos", strconv.FormatInt(resumePos, 10))
	w.WriteHeader(http.StatusOK)
	rc.EnableFullDuplex() // HTTP/1.1: interleave body reads with writes
	// Replay the window suffix the client is missing, then go live.
	sess.writeReports(w, dec.replay)
	s.reg.Counter("serve_reports_delivered").Add(int64(len(dec.replay)))
	rc.Flush()

	s.streamLoop(ctx, w, rc, r.Body, sess)
}

// saveFlush makes the current window durable, then releases it to the
// client — the ordering exactly-once delivery rests on.
func (s *Server) saveFlush(w http.ResponseWriter, rc *http.ResponseController, sess *session) error {
	if err := s.saveSlot(sess); err != nil {
		return err
	}
	s.reg.Counter("serve_checkpoint_saves").Inc()
	sess.savedPos = sess.snap.Pos
	if err := sess.writeReports(w, sess.window); err != nil {
		// The client is gone; the reports stay durable in the slot and
		// the reconnect replays (and then counts) them.
		sess.releaseWindow()
		return err
	}
	s.reg.Counter("serve_reports_delivered").Add(int64(len(sess.window)))
	sess.releaseWindow()
	return rc.Flush()
}

// errKilled stops a session's save once Abort has fired.
var errKilled = errors.New("serve: node killed")

// saveSlot captures the session into its slot. A killed node saves
// nothing: a SIGKILLed process cannot, and Abort has ended the
// replication streams a save would dial again. A save Abort overtook
// fails too, since its ship may have been cut and its window must not
// reach the client.
func (s *Server) saveSlot(sess *session) error {
	sess.st.Snapshot(sess.snap)
	encodeSessionState(&sess.enc, sess, sess.snap)
	if s.killed() {
		return errKilled
	}
	if err := s.cfg.Store.Save(slotName(sess.id), sessionStateVersion, sess.enc.Bytes()); err != nil {
		return err
	}
	if s.killed() {
		return errKilled
	}
	return nil
}

// writeReports renders reports as "r" records and hands them to w in one
// write.
func (sess *session) writeReports(w io.Writer, reports []sim.Report) error {
	if len(reports) == 0 {
		return nil
	}
	sess.out = appendReportLines(sess.out[:0], reports)
	_, err := w.Write(sess.out)
	return err
}

func (sess *session) releaseWindow() {
	sess.floor += int64(len(sess.window))
	sess.window = sess.window[:0]
}

// streamLoop feeds the request body through the matcher, checkpointing
// and releasing reports at every capture boundary.
func (s *Server) streamLoop(ctx context.Context, w http.ResponseWriter, rc *http.ResponseController, body io.Reader, sess *session) {
	every := s.cfg.Every
	buf := sess.in
	pos := sess.st.Pos()

	suspend := func(reason string) {
		// Server-side stop (drain or deadline): make the state durable,
		// release what is covered, and tell the client to come back.
		if err := s.saveFlush(w, rc, sess); err != nil {
			return
		}
		fmt.Fprintf(w, "suspend %d\n", sess.st.Pos())
		s.reg.Tenant("serve_sessions_suspended", sess.tenant).Inc()
		rc.Flush()
		if reason == "deadline" {
			s.reg.Tenant("serve_deadline_cancels", sess.tenant).Inc()
		}
	}

	for {
		if s.killed() {
			return // crash semantics: no save, the last capture stands
		}
		if to := sess.moveTarget(); to != "" {
			// Handoff boundary: make the window durable and released
			// (exactly as a periodic capture would), then transfer the
			// slots and point the client at the peer.
			if err := s.saveFlush(w, rc, sess); err != nil {
				sess.finishMove(err)
				return
			}
			s.migrateOut(w, rc, sess, to)
			return
		}
		if sess.draining() {
			suspend("drain")
			return
		}
		limit := (pos/every+1)*every - pos
		if limit > int64(len(buf)) {
			limit = int64(len(buf))
		}
		n, rerr := body.Read(buf[:limit])
		if n > 0 {
			wn, werr := sess.st.Write(buf[:n])
			pos += int64(wn)
			if werr != nil {
				// Deadline or cancellation surfaced mid-write.
				if s.killed() {
					return
				}
				suspend("deadline")
				return
			}
			if pos%every == 0 {
				if err := s.saveFlush(w, rc, sess); err != nil {
					return
				}
			}
		}
		switch {
		case rerr == nil:
			continue
		case errors.Is(rerr, io.EOF):
			// Clean end of input: flush the tail, mark the stream done,
			// and retire the session's slots. When the input ended on a
			// capture boundary the slot already holds this very state.
			if pos != sess.savedPos || len(sess.window) > 0 {
				if err := s.saveFlush(w, rc, sess); err != nil {
					return
				}
			}
			fmt.Fprintf(w, "end %d %d\n", sess.st.Pos(), sess.st.NumReports())
			rc.Flush()
			s.cfg.Store.Remove(slotName(sess.id))
			s.reg.Tenant("serve_sessions_completed", sess.tenant).Inc()
			return
		default:
			// Body read failed: client disconnect, deadline, or kill.
			if s.killed() {
				return
			}
			if ctx.Err() != nil {
				suspend("deadline")
				return
			}
			// Disconnect: capture so the reconnect resumes here instead
			// of one interval back. The write side is likely dead; the
			// durable slot is what matters.
			if s.saveSlot(sess) == nil {
				s.reg.Counter("serve_checkpoint_saves").Inc()
			}
			s.reg.Tenant("serve_sessions_suspended", sess.tenant).Inc()
			return
		}
	}
}
