// Package spap implements the paper's hardware contribution (Section V):
// the two-mode execution of a partitioned application.
//
// BaseAP mode runs the predicted hot network as ordinary batched AP
// execution; activated intermediate reporting states produce intermediate
// reports (input position, cold state ID). SpAP mode then runs the
// predicted cold network driven by both the input stream and the
// intermediate-report list, using two new operations:
//
//   - enable: turn on the STE named by a report's hierarchical address;
//   - jump:   when no STE is enabled, skip the input position register
//     forward to the next report's position (Algorithm 1).
//
// Multiple reports at one input position serialize through the single
// enable port, stalling input processing (enable stalls). One phase
// machine (machine.go) implements both modes; every Run* entry point is
// that machine with a different set of hooks attached. The package also
// provides the AP–CPU comparison system, where mis-prediction handling runs
// on a modeled CPU instead of SpAP mode.
package spap

import (
	"context"
	"fmt"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/fault"
	"sparseap/internal/hotcold"
	"sparseap/internal/sim"
)

// cancelCheckInterval is how many cycles an execution loop runs between
// context polls — the same granularity the sim package uses, far below one
// batch, so every entry point returns well within a batch of cancellation.
const cancelCheckInterval = 4096

// cancelled polls ctx without blocking.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// loadConfigs models loading count batch configurations (global batch IDs
// base..base+count-1) onto the fabric under an injector's load-failure
// plan: each failed attempt is retried, counting into st.ConfigRetries,
// until the fault.MaxLoadRetries cap trips fault.ErrConfigLoad.
func loadConfigs(inj *fault.Injector, st *fault.Stats, base, count int) error {
	if !inj.Active() {
		return nil
	}
	for b := base; b < base+count; b++ {
		for attempt := 0; inj.LoadFails(b, attempt); attempt++ {
			st.ConfigRetries++
			if attempt+1 >= fault.MaxLoadRetries {
				return fmt.Errorf("spap: batch %d: %w", b, fault.ErrConfigLoad)
			}
		}
	}
	return nil
}

// IntermediateReport is one mis-prediction event: the original cold state
// Target must be enabled at input position Pos.
type IntermediateReport struct {
	Pos    int64
	Target automata.StateID // original network ID
}

// Result summarizes a partitioned execution (either system).
type Result struct {
	// BaseAPBatches is the number of BaseAP-mode configurations.
	BaseAPBatches int
	// ColdBatches is the number of SpAP-mode configurations built; only
	// SpAPExecutions of them receive reports and actually run.
	ColdBatches int
	// SpAPExecutions counts cold batches that executed (Table IV).
	SpAPExecutions int
	// IntermediateReports is the number of intermediate reports
	// generated in BaseAP mode.
	IntermediateReports int64
	// EnableStalls counts cycles stalled on simultaneous enables.
	EnableStalls int64
	// QueueRefills counts 128-entry report-queue refills from device
	// memory during SpAP mode.
	QueueRefills int64
	// BaseAPCycles = BaseAPBatches × input length.
	BaseAPCycles int64
	// SpAPCycles is the total SpAP-mode cycle count, including stalls.
	SpAPCycles int64
	// SpAPProcessed counts input symbols actually processed in SpAP mode
	// (SpAPCycles minus the enable stalls).
	SpAPProcessed int64
	// SpAPBatchCycles holds the cycle count of each executed SpAP batch
	// (len == SpAPExecutions); board-level schedulers use these to
	// overlap batches across half-cores.
	SpAPBatchCycles []int64
	// CPUTimeNS is the modeled CPU handling time (AP–CPU system only).
	CPUTimeNS float64
	// TotalCycles = BaseAPCycles + SpAPCycles (BaseAP/SpAP system).
	TotalCycles int64
	// TimeNS is the end-to-end time of the system.
	TimeNS float64
	// JumpRatio is the proportion of input positions skipped in SpAP mode
	// thanks to jump operations (stall cycles are accounted in SpAPCycles
	// but are not "unskipped positions"); NaN if SpAP mode never ran.
	JumpRatio float64
	// NumReports counts final (application) reports.
	NumReports int64
	// Reports holds final reports in original state IDs, when collected.
	Reports []sim.Report
	// Fault counts the runtime faults an active injector applied (all
	// zero when Options.Faults is nil or inactive).
	Fault fault.Stats
	// Guard holds the guard's statistics; nil exactly when the run had no
	// guard (the RunBaseAPSpAP* and RunAPCPU* entry points).
	Guard *GuardStats
	// Resume holds checkpoint/resume bookkeeping; nil exactly when the
	// run had no checkpoint runner (a nil *checkpoint.Runner). A runner
	// without a Store yields a non-nil Resume with zero Saves.
	Resume *ResumeStats
}

// Options configures an execution.
type Options struct {
	// CollectReports retains the final report list (original IDs).
	CollectReports bool
	// Faults, when non-nil and active, injects runtime faults during
	// execution: transient enable-bit flips in both modes,
	// intermediate-report queue drops, and batch-configuration load
	// failures (retried until fault.MaxLoadRetries attempts failed, after which
	// the run fails with fault.ErrConfigLoad). Counters accumulate in
	// Result.Fault. Stuck-at STE faults are a compile-time transformation;
	// apply them to the network with fault.Injector.InjectStuck before
	// partitioning.
	Faults *fault.Injector
}

// RunBaseAPSpAP executes the partition under the BaseAP/SpAP system of
// Table III and returns cycle-accurate statistics.
func RunBaseAPSpAP(p *hotcold.Partition, input []byte, cfg ap.Config, opts Options) (*Result, error) {
	return run(context.Background(), p, input, cfg, nil, opts, nil)
}

// RunBaseAPSpAPContext is RunBaseAPSpAP with cancellation and durable
// checkpoints. Both execution modes poll ctx and stop within
// cancelCheckInterval cycles of it firing. A non-nil ck captures the state
// every Runner.Every processed symbols (and at every phase and batch
// boundary), a rerun resumes from the newest valid checkpoint with
// exactly-once report delivery, and Result.Resume holds the bookkeeping.
// On cancellation, an injected crash or configuration-load failure the
// partial result accumulated so far is returned together with the error;
// the result is nil only when the run never started (invalid
// configuration, or a stored checkpoint that does not fit).
func RunBaseAPSpAPContext(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, opts Options, ck *checkpoint.Runner) (*Result, error) {
	return run(ctx, p, input, cfg, nil, opts, ck)
}

// routeReports assigns each intermediate report to the cold batch owning
// its target's cold NFA.
func routeReports(p *hotcold.Partition, coldBatches []ap.Batch, inter []IntermediateReport) [][]IntermediateReport {
	batchOfNFA := make([]int, p.Cold.NumNFAs())
	for bi, b := range coldBatches {
		for _, nfa := range b.NFAs {
			batchOfNFA[nfa] = bi
		}
	}
	perBatch := make([][]IntermediateReport, len(coldBatches))
	for _, r := range inter {
		cid := p.ColdID[r.Target]
		bi := batchOfNFA[p.Cold.NFAOf[cid]]
		perBatch[bi] = append(perBatch[bi], r)
	}
	return perBatch
}

// The AP–CPU handler cost model substituted for the paper's wall-clock CPU
// measurements (see DESIGN.md), reflecting a software NFA interpreter:
// ~2 µs to dispatch a report from the AP's output queue into the
// interpreter, and ~300 ns per input symbol it processes while any cold
// state is enabled (about 40× the AP's 7.5 ns streaming cycle).
const (
	cpuDispatchNS = 2000
	cpuSymbolNS   = 300
)

// RunAPCPU executes the partition under the AP–CPU system of Table III:
// BaseAP mode is unchanged, but the predicted cold set runs on a CPU. The
// CPU needs no capacity batching; it interprets the cold network from each
// report position until the frontier dies. Like RunBaseAPSpAPContext it
// returns the partial result together with ctx.Err() when cancelled.
// Injected faults apply to the AP side only (flips, queue drops,
// configuration loads); the software interpreter is modeled fault-free.
func RunAPCPU(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, opts Options) (*Result, error) {
	x, err := newMachine(ctx, p, input, cfg, nil, opts, nil)
	if err != nil {
		return nil, err
	}
	err = x.runBase()
	base, inter := x.st.res, x.st.inter
	res := &base
	if err != nil {
		res.TotalCycles = res.BaseAPCycles
		res.TimeNS = float64(res.BaseAPCycles) * cfg.CycleNS
		return res, err
	}
	if len(inter) > 0 {
		eng := sim.AcquireEngine(p.Cold, sim.Options{})
		defer eng.Release()
		eng.OnReport = func(pos int64, s automata.StateID) {
			res.NumReports++
			if opts.CollectReports {
				res.Reports = append(res.Reports, sim.Report{Pos: pos, State: p.ColdOrig[s]})
			}
		}
		var processed int64
		n := int64(len(input))
		i := int64(0)
		j := 0
		for i < n {
			if processed&(cancelCheckInterval-1) == 0 && cancelled(ctx) {
				err = ctx.Err()
				break
			}
			if eng.FrontierEmpty() {
				if j >= len(inter) {
					break
				}
				i = inter[j].Pos
			}
			for j < len(inter) && inter[j].Pos == i {
				eng.EnableState(p.ColdID[inter[j].Target])
				j++
			}
			eng.Step(i, input[i])
			processed++
			i++
		}
		res.CPUTimeNS = float64(j)*cpuDispatchNS + float64(processed)*cpuSymbolNS
	}
	res.TotalCycles = res.BaseAPCycles
	res.TimeNS = float64(res.BaseAPCycles)*cfg.CycleNS + res.CPUTimeNS
	return res, err
}
