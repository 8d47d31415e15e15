// One-shot matching with graceful degradation: /v1/match runs the SpAP
// guarded executor by default, and a tenant whose inputs keep tripping
// the guard is routed down the per-tenant ladder to the baseline kernel
// — slower but immune to hot-set mispredictions — then probed back up
// after a cooldown. Every mode produces the same report multiset, so
// degradation changes latency, never answers.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"sparseap/internal/sim"
	"sparseap/internal/spap"
)

// matchResponse is the /v1/match reply.
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
			sres, serr := sim.RunContext(ctx, a.net, input, sim.Options{CollectReports: true})
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
		sres, serr := sim.RunContext(ctx, a.net, input, sim.Options{CollectReports: true})
		if serr != nil {
			matchError(w, serr)
			return
		}
		reports, resp.NumReports = sres.Reports, sres.NumReports
	}

	s.finishMatch(w, tenant, &resp, reports)
}

// finishMatch encodes the reply and counts the served match.
func (s *Server) finishMatch(w http.ResponseWriter, tenant string, resp *matchResponse, reports []sim.Report) {
	resp.Reports = make([][2]int64, len(reports))
	for i, rep := range reports {
		resp.Reports[i] = [2]int64{rep.Pos, int64(rep.State)}
	}
	s.reg.Tenant("serve_matches", tenant).Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
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
