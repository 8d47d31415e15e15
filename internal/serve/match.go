// One-shot matching with graceful degradation. Each app is routed once
// (app.route): SpAP gains only by configuring fewer AP batches, so an app
// that fits one batch, or whose hot half needs as many batches as the
// whole network, runs every match on the baseline kernel without
// consulting any ladder. The other apps run the SpAP guarded executor,
// and a tenant whose inputs keep tripping the guard is routed down the
// per-tenant ladder to the baseline kernel — slower but immune to hot-set
// mispredictions — then probed back up after a cooldown. Every executor
// produces the same report stream, so routing and degradation change
// latency, never answers.
//
// # Reply
//
// The body of a 200 is one JSON object on one line, newline-terminated,
// with Content-Length stated:
//
//	{"app":"<name>","mode":"<mode>","numReports":<n>,"reports":[[<pos>,<state>],…]}
//
// The strings are escaped as encoding/json escapes them (<, >, & and
// U+2028/9 as \u sequences, invalid UTF-8 as U+FFFD); mode is guarded,
// probe or baseline, baseline meaning the kernel ran, because SpAP saves
// the app no batch or because the tenant is demoted; n, pos and state are
// decimal integers without sign, leading zero, fraction or exponent, n
// and pos in [0, MaxInt64] and state in [0, MaxInt32]; reports are in
// the order the engine emitted them and an input without reports carries
// []. The server writes no whitespace; the client (decodeMatchReply in
// wire.go) allows it wherever JSON does, takes the keys in any order, and
// refuses an unknown, repeated or missing key and a number spelled or
// sized any other way.
package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"sparseap/internal/sim"
	"sparseap/internal/spap"
)

// maxMatchBytes bounds a /v1/match request body; a longer one is answered
// 413.
const maxMatchBytes = 8 << 20

// matchResponse is the /v1/match reply as Client.Match returns it. The
// handler fills the first three fields and renders the executor's reports
// straight to the wire, so Reports exists on the client only.
type matchResponse struct {
	App        string     `json:"app"`
	Mode       string     `json:"mode"` // guarded | probe | baseline
	NumReports int64      `json:"numReports"`
	Reports    [][2]int64 `json:"reports"` // [pos, state]
}

// handleMatch runs one bounded input through the resident application.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	tenant := tenantName(r.Header)
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
	adm := s.admit(tenant, a.engineCost())
	if !adm.ok {
		s.shed(w, tenant, adm.status, adm.retryAfter, adm.reason)
		return
	}
	defer adm.release()

	ctx := r.Context()
	if deadline > 0 {
		c, cancel := context.WithTimeout(ctx, time.Duration(deadline)*time.Millisecond)
		defer cancel()
		ctx = c
	}
	input, err := readMatchBody(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	resp := matchResponse{App: a.name}
	var reports []sim.Report
	kernel, part, perr := a.route(s.cfg.AP.Capacity)
	var ladder *spap.Ladder
	mode := spap.ModeBaseline
	if !kernel {
		ladder = s.tenantOf(tenant).ladder
		mode = ladder.Next()
		if mode != spap.ModeBaseline && perr != nil {
			// Partitioning failure is permanent for this app: run the
			// baseline kernel rather than failing the tenant's request.
			mode = spap.ModeBaseline
		}
		if mode == spap.ModeBaseline {
			s.reg.Tenant("serve_degraded", tenant).Inc()
		}
	}
	resp.Mode = mode.String()

	if mode == spap.ModeBaseline {
		sres, serr := sim.RunContext(ctx, a.net, input, sim.Options{CollectReports: true})
		if serr != nil {
			matchError(w, serr)
			return
		}
		reports, resp.NumReports = sres.Reports, sres.NumReports
	} else {
		res, rerr := spap.RunGuarded(ctx, part, input, s.cfg.AP, spap.Guard{}, spap.Options{CollectReports: true})
		if rerr != nil {
			matchError(w, rerr)
			return
		}
		tripped := spap.Tripped(res)
		ladder.ObserveGuarded(mode, tripped)
		if tripped {
			s.reg.Tenant("serve_guard_trips", tenant).Inc()
		}
		reports, resp.NumReports = res.Reports, res.NumReports
	}

	s.finishMatch(w, tenant, &resp, reports)
}

// readMatchBody reads the request body, at most maxMatchBytes of it. A
// declared length within the bound is read into one allocation of that
// size; a chunked or oversized body goes through io.ReadAll, whose
// MaxBytesError the caller answers 413.
func readMatchBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxMatchBytes)
	if n := r.ContentLength; n >= 0 && n <= maxMatchBytes {
		input := make([]byte, n)
		_, err := io.ReadFull(body, input)
		return input, err
	}
	return io.ReadAll(body)
}

// finishMatch counts the served match and writes the reply: resp's header
// fields and the executor's reports, rendered into one pooled buffer (a
// pair of five-digit numbers takes 14 bytes) and handed over in one write.
// The write copies or sends the bytes before it returns, so the buffer
// goes back to the pool then, unless it grew past maxPooledBytes.
func (s *Server) finishMatch(w http.ResponseWriter, tenant string, resp *matchResponse, reports []sim.Report) {
	s.reg.Tenant("serve_matches", tenant).Inc()
	buf := s.replies.Get().(*[]byte)
	body := appendMatchReply(slices.Grow((*buf)[:0], 128+16*len(reports)), resp.App, resp.Mode, resp.NumReports, reports)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
	*buf = pooled(body)
	s.replies.Put(buf)
}

// matchError maps executor errors to HTTP: deadline and cancellation are
// the caller's timeout (504), anything else is a server fault.
func matchError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
