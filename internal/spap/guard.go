// The adaptive guard, one of the phase machine's hooks (machine.go): a
// mid-run watchdog over BaseAP mode plus a per-batch stall pre-flight over
// SpAP mode, degrading gracefully when a partition turns out to be
// storm-prone (the PEN pathology of the paper's own evaluation:
// simultaneous intermediate reports serialize through the single enable
// port and SpAP mode ends up slower than the baseline).
//
// The degradation ladder is:
//
//  1. abort BaseAP mode as soon as the intermediate-report volume and the
//     predicted enable-stall rate both exceed their budgets (the trip costs
//     only the cycles streamed so far, not a full run);
//  2. retry with every NFA's partition layer k_U widened by WidenFactor
//     (pulling storm states into the hot set), at most MaxRetries times;
//  3. fall back to plain baseline batched execution of the whole network.
//
// Independently, a batch whose routed report list predicts more stalls
// than the budget allows is not executed in SpAP mode at all; its NFAs run
// un-split as ordinary baseline batches instead (per-batch fallback).
//
// Both fallbacks preserve the report multiset exactly — they re-derive the
// same matches through a different execution system — so the guard is
// invisible to correctness, and its regret is bounded: the total cost is
// at most the aborted attempts (each cut short at the trip position) plus
// one baseline execution.
package spap

import (
	"context"
	"sort"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/hotcold"
	"sparseap/internal/lint"
	"sparseap/internal/sim"
)

// Guard configures the adaptive executor's budgets. The zero value of any
// field is replaced by its DefaultGuard counterpart, except MaxRetries
// where negative means "no widened retries" (zero takes the default).
type Guard struct {
	// ReportBudget is the tolerated intermediate-report density in BaseAP
	// mode: reports per processed input symbol.
	ReportBudget float64
	// StallBudget is the tolerated predicted enable-stall rate: stalls per
	// input symbol, applied both to the BaseAP watchdog and to each SpAP
	// batch's pre-flight.
	StallBudget float64
	// MinReports is the intermediate-report floor below which the BaseAP
	// watchdog never trips, so short transients cannot abort a run.
	MinReports int64
	// MaxRetries caps widened-k_U retries before the baseline fallback;
	// negative disables them.
	MaxRetries int
	// WidenFactor multiplies every NFA's partition layer on each retry.
	WidenFactor int32
	// HopelessFactor classifies a trip as hopeless when the recent-window
	// report rate exceeds HopelessFactor × ReportBudget: widening the
	// partition cannot tame a storm that severe, so the run skips the
	// retries and falls back to baseline immediately, keeping the wasted
	// work to one short aborted attempt.
	HopelessFactor float64
	// Preflight runs the certified worst-case pre-flight before the
	// first attempt: Safe partitions skip the watchdog, storm-bounded
	// ones start at statically sized layers, and certified-hopeless ones
	// go straight to the baseline fallback without paying for a trip.
	// See PreflightPartition for the trade-off.
	Preflight bool
}

// DefaultGuard returns budgets tuned on the suite: every healthy
// application stays far below them (the worst observed density is ~0.06
// reports/symbol) while PEN-shaped storms (~2.6 reports/symbol) trip
// within a few thousand symbols.
func DefaultGuard() Guard {
	return Guard{
		ReportBudget:   lint.DefaultReportBudget,
		StallBudget:    lint.DefaultReportBudget,
		MinReports:     512,
		MaxRetries:     1,
		WidenFactor:    2,
		HopelessFactor: 8,
	}
}

// withDefaults fills zero-valued fields from DefaultGuard.
func (g Guard) withDefaults() Guard {
	d := DefaultGuard()
	if g.ReportBudget <= 0 {
		g.ReportBudget = d.ReportBudget
	}
	if g.StallBudget <= 0 {
		g.StallBudget = d.StallBudget
	}
	if g.MinReports <= 0 {
		g.MinReports = d.MinReports
	}
	if g.MaxRetries == 0 {
		g.MaxRetries = d.MaxRetries
	} else if g.MaxRetries < 0 {
		g.MaxRetries = 0
	}
	if g.WidenFactor < 2 {
		g.WidenFactor = d.WidenFactor
	}
	if g.HopelessFactor <= 1 {
		g.HopelessFactor = d.HopelessFactor
	}
	return g
}

// GuardStats records what the guard did during one RunGuarded call.
type GuardStats struct {
	// Attempts counts BaseAP-mode attempts (1 = no trip ever).
	Attempts int
	// Trips counts aborted BaseAP-mode attempts.
	Trips int
	// TripPos holds the input position of each trip.
	TripPos []int64
	// WastedCycles is the total cost of aborted attempts: for each,
	// batches × symbols streamed before the trip.
	WastedCycles int64
	// Widened reports whether any retry ran with widened partition layers.
	Widened bool
	// FallbackBaseline reports whether the run degraded all the way to
	// plain baseline batched execution of the whole network.
	FallbackBaseline bool
	// BatchFallbacks counts SpAP batches replaced by baseline execution of
	// their un-split NFAs (per-batch pre-flight trips).
	BatchFallbacks int
	// FallbackCycles is the cost of all fallback executions (baseline
	// batches × symbols processed).
	FallbackCycles int64
	// Preflight is the static pre-flight verdict (Guard.Preflight only).
	Preflight *Preflight
}

// watchdogStride is how often the watchdog checkpoints its counters for
// the recent-window rate; watchdogWindow is the window length in symbols.
const (
	watchdogStride = 256
	watchdogWindow = 1024
)

// watchdog tracks intermediate-report volume and the enable-stall count
// those reports would produce if replayed through SpAP mode. The stall
// estimate treats all reports as routed to one batch, an upper bound on
// the per-batch truth — conservative in the right direction for an abort
// decision.
type watchdog struct {
	g        Guard
	ports    int
	stalls   int64
	tripped  bool
	pos      int64
	rate     float64 // recent report rate at the trip
	firstPos int64   // position of the first intermediate report

	// hist checkpoints the cumulative report count every watchdogStride
	// symbols, giving the windowed rate that separates a hopeless storm
	// (instantaneous rate far above budget) from a borderline trip that a
	// cumulative average — diluted by a quiet prefix — cannot distinguish.
	hist []int64
}

// observe ingests one cycle: burst reports were generated at this cycle,
// total have been generated so far, processed symbols are done.
func (w *watchdog) observe(processed int64, burst int, total int64) {
	if burst > w.ports {
		w.stalls += int64((burst+w.ports-1)/w.ports - 1)
	}
	if burst > 0 && w.firstPos == 0 && total == int64(burst) {
		w.firstPos = processed - 1
	}
	if processed%watchdogStride == 0 {
		w.hist = append(w.hist, total)
	}
	if total < w.g.MinReports {
		return
	}
	// Trip only when BOTH budgets are exceeded: a high report volume whose
	// entries arrive alone replays efficiently through SpAP jumps (PEN at
	// small scale: 0.31 reports/symbol, near-zero stalls, 1.13× speedup);
	// the pathology needs simultaneous reports serializing through the
	// enable ports as well.
	p := float64(processed)
	if float64(total) > w.g.ReportBudget*p && float64(w.stalls) > w.g.StallBudget*p {
		w.tripped = true
		w.pos = processed
		// The storm rate: the larger of the recent-window rate and the
		// rate since reports began. A quiet prefix dilutes the cumulative
		// average; a storm that only just started dilutes the fixed
		// window; the max is robust to both.
		w.rate = w.windowRate(processed, total)
		span := processed - w.firstPos
		if span < 1 {
			span = 1
		}
		if r := float64(total) / float64(span); r > w.rate {
			w.rate = r
		}
	}
}

// windowRate returns reports per symbol over roughly the last
// watchdogWindow symbols (falling back to the cumulative rate early on).
func (w *watchdog) windowRate(processed, total int64) float64 {
	back := int(watchdogWindow / watchdogStride)
	if len(w.hist) < back {
		return float64(total) / float64(processed)
	}
	prev := w.hist[len(w.hist)-back]
	span := processed - int64(len(w.hist)-back+1)*watchdogStride
	if span <= 0 {
		return float64(total) / float64(processed)
	}
	return float64(total-prev) / float64(span)
}

// hopeless reports whether the trip's recent rate is beyond what widened
// partition layers could plausibly absorb.
func (w *watchdog) hopeless() bool {
	return w.rate > w.g.HopelessFactor*w.g.ReportBudget
}

// RunGuarded executes the partition under the BaseAP/SpAP system with the
// adaptive guard. When no budget is exceeded the result is cycle-for-cycle
// identical to RunBaseAPSpAPContext (plus a populated Result.Guard and a
// (pos, state)-sorted report stream); when a budget trips, execution
// degrades per the ladder above and Result.TotalCycles additionally
// accounts the wasted and fallback cycles, so TimeNS remains the honest
// end-to-end figure. The report multiset is preserved in every path. On
// cancellation the partial result is returned with ctx.Err().
func RunGuarded(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, g Guard, opts Options) (*Result, error) {
	return RunGuardedCheckpointed(ctx, p, input, cfg, g, opts, nil)
}

// RunGuardedCheckpointed is RunGuarded with the checkpoint runner
// attached: the guard ladder (pre-flight verdict, attempt count, widened
// layers, watchdog counters, batch fallbacks) is part of the persisted
// state, so a run killed mid-attempt, mid-batch, or mid-fallback resumes
// exactly where it was — including re-entering BaseAP mode on an
// already-widened partition.
func RunGuardedCheckpointed(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, g Guard, opts Options, ck *checkpoint.Runner) (*Result, error) {
	g = g.withDefaults()
	return run(ctx, p, input, cfg, &g, opts, ck)
}

// widenPartition rebuilds the partition with every NFA's layer multiplied
// by factor (capped at the NFA's depth). It returns false when no layer
// can grow — the partition is already fully hot — or the rebuild fails.
func widenPartition(p *hotcold.Partition, factor int32) (*hotcold.Partition, bool) {
	k2 := make([]int32, len(p.K))
	changed := false
	for i, k := range p.K {
		nk := k * factor
		if mx := p.Topo.MaxPerNFA[i]; nk > mx {
			nk = mx
		}
		if nk != k {
			changed = true
		}
		k2[i] = nk
	}
	if !changed {
		return nil, false
	}
	np, err := hotcold.Build(p.Net, p.Topo, k2, hotcold.Options{})
	if err != nil {
		return nil, false
	}
	return np, true
}

// predictStalls computes, exactly, the enable stalls Algorithm 1 will pay
// to replay this (position-sorted) report list through a batch.
func predictStalls(reports []IntermediateReport, ports int) int64 {
	var stalls int64
	for i := 0; i < len(reports); {
		j := i
		for j < len(reports) && reports[j].Pos == reports[i].Pos {
			j++
		}
		if burst := j - i; burst > ports {
			stalls += int64((burst+ports-1)/ports - 1)
		}
		i = j
	}
	return stalls
}

// batchFallback replaces one SpAP batch with baseline batched execution of
// its NFAs, un-split: the full original NFAs owning the batch's cold
// fragments re-run over the whole input, and their reports replace both
// the skipped SpAP-mode reports and the BaseAP-mode final reports those
// NFAs already produced (the full-NFA run regenerates them). NFAs are
// independent, so the overall report multiset is exactly preserved.
func batchFallback(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, res *Result, batch ap.Batch, gs *GuardStats) error {
	fb := make(map[int32]bool)
	for _, cn := range batch.NFAs {
		lo, _ := p.Cold.NFAStates(cn)
		fb[p.Net.NFAOf[p.ColdOrig[lo]]] = true
	}
	sub, origOf := p.Net.Subset(func(s automata.StateID) bool { return fb[p.Net.NFAOf[s]] })
	fbBatches, err := ap.PartitionNFAs(sub, cfg.Capacity)
	if err != nil {
		return err
	}
	kept := res.Reports[:0]
	var removed int64
	for _, r := range res.Reports {
		if fb[p.Net.NFAOf[r.State]] {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	res.Reports = kept
	res.NumReports -= removed
	sres, err := sim.RunContext(ctx, sub, input, sim.Options{CollectReports: true}, nil)
	for _, r := range sres.Reports {
		res.Reports = append(res.Reports, sim.Report{Pos: r.Pos, State: origOf[r.State]})
	}
	res.NumReports += sres.NumReports
	gs.BatchFallbacks++
	gs.FallbackCycles += int64(len(fbBatches)) * sres.Symbols
	return err
}

// sortReports orders reports by (position, state) for deterministic
// output after fallback splicing.
func sortReports(rs []sim.Report) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Pos != rs[b].Pos {
			return rs[a].Pos < rs[b].Pos
		}
		return rs[a].State < rs[b].State
	})
}
