// One-shot matching with graceful degradation: /v1/match runs the SpAP
// guarded executor by default, and a tenant whose inputs keep tripping
// the guard is routed down the per-tenant ladder to the baseline kernel
// — slower but immune to hot-set mispredictions — then probed back up
// after a cooldown. Every mode produces the same report multiset, so
// degradation changes latency, never answers.
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
// probe or baseline; n, pos and state are decimal integers without sign,
// leading zero, fraction or exponent, n and pos in [0, MaxInt64] and state
// in [0, MaxInt32]; reports are in the order the engine emitted them and an
// input without reports carries []. The server writes no whitespace; the
// client (decodeMatchReply in wire.go) allows it wherever JSON does, takes
// the keys in any order, and refuses an unknown, repeated or missing key
// and a number spelled or sized any other way.
package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"sparseap/internal/sim"
	"sparseap/internal/spap"
)

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
	input, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxMatchBytes))
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
	t := s.tenantOf(tenant)
	mode := t.ladder.Next()
	resp.Mode = mode.String()

	switch mode {
	case spap.ModeGuarded, spap.ModeProbe:
		part, perr := a.partition(s.cfg.Capacity)
		if perr != nil {
			// Partitioning failure is permanent for this app: run the
			// baseline kernel rather than failing the tenant's request.
			s.reg.Tenant("serve_degraded", tenant).Inc()
			resp.Mode = spap.ModeBaseline.String()
			sres, serr := sim.RunContext(ctx, a.net, input, sim.Options{CollectReports: true}, nil)
			if serr != nil {
				matchError(w, serr)
				return
			}
			reports, resp.NumReports = sres.Reports, sres.NumReports
			break
		}
		res, rerr := spap.RunGuarded(ctx, part, input, s.apCfg, s.cfg.Guard, spap.Options{CollectReports: true})
		if rerr != nil {
			matchError(w, rerr)
			return
		}
		tripped := spap.Tripped(res)
		t.ladder.ObserveGuarded(mode, tripped)
		if tripped {
			s.reg.Tenant("serve_guard_trips", tenant).Inc()
		}
		reports, resp.NumReports = res.Reports, res.NumReports
	default: // spap.ModeBaseline
		s.reg.Tenant("serve_degraded", tenant).Inc()
		sres, serr := sim.RunContext(ctx, a.net, input, sim.Options{CollectReports: true}, nil)
		if serr != nil {
			matchError(w, serr)
			return
		}
		reports, resp.NumReports = sres.Reports, sres.NumReports
	}

	s.finishMatch(w, tenant, &resp, reports)
}

// finishMatch counts the served match and writes the reply: resp's header
// fields and the executor's reports, rendered into one buffer (a pair of
// five-digit numbers takes 14 bytes) and handed over in one write.
func (s *Server) finishMatch(w http.ResponseWriter, tenant string, resp *matchResponse, reports []sim.Report) {
	s.reg.Tenant("serve_matches", tenant).Inc()
	body := appendMatchReply(make([]byte, 0, 128+16*len(reports)), resp.App, resp.Mode, resp.NumReports, reports)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
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
