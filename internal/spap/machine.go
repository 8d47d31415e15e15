// The BaseAP/SpAP phase machine: the one executor behind every entry
// point of the package.
//
//	         ┌──────── widened retry (guard) ────────┐
//	         ▼                                       │
//	start ─► base ──► cold ──────────────────────► done
//	  │        │        └ per batch: Algorithm 1, or  ▲
//	  │        │          (guard) un-split baseline   │
//	  │        └─ trip, no retry left (guard) ─┐      │
//	  └─ certified hopeless (pre-flight) ──────┴► fallback
//
// base streams the input through the hot network, separating final from
// intermediate reports; cold routes the intermediate reports to the cold
// batches and replays each under Algorithm 1 (enable, jump, stall);
// fallback runs the whole un-partitioned network as plain baseline
// batches. What else happens is decided by three hooks, each off when nil:
//
//   - the guard (*Guard): a watchdog over base, a stall pre-flight per cold
//     batch, the widen/fallback ladder of guard.go, and — with
//     Guard.Preflight — the static verdict of preflight.go before the
//     first symbol;
//   - the checkpoint runner (*checkpoint.Runner): the complete dynamic
//     state — engine snapshot, intermediate-report list, per-batch cursors,
//     watchdog counters, ladder position, pre-flight verdict and the
//     accumulated Result — serializes into one record every Runner.Every
//     symbols and at every phase and batch boundary, and a rerun resumes
//     from the newest valid record: mid-attempt in base, mid-batch in cold,
//     mid-stream in fallback. A runner without a Store saves nothing but
//     still polls its chaos hook;
//   - the fault injector (Options.Faults).
//
// With nothing attached the loops pay one integer compare per symbol for
// the runner and one nil test for the watchdog, retain no reports the
// caller did not ask for, and take no snapshot.
//
// Exactly-once report delivery follows from the prefix property of engine
// snapshots (see internal/sim/snapshot.go): a checkpoint taken before
// processing position P persists exactly the reports for positions < P
// inside Result.Reports, and the engine re-runs deterministically from P,
// so the resumed stream is bit-identical to an uninterrupted run — no
// duplicated and no lost reports across the boundary. Phase transitions
// and batch completions are checkpointed atomically: the store writes
// each record in place into the slot region holding neither the latest
// nor the previous record and fdatasyncs it (only a name's first image
// is temp + rename + directory sync), so a crash between saves merely
// repeats work, never corrupts state.
package spap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/fault"
	"sparseap/internal/hotcold"
	"sparseap/internal/sim"
)

// spapStateVersion versions the serialized phase-machine state. Bump on
// any layout change; Load rejects other versions with ErrMismatch.
// Version 2 added the pre-flight verdict.
const spapStateVersion = 2

// Execution phases of the machine, in ladder order.
const (
	phaseBase     uint8 = iota // BaseAP mode over the hot network
	phaseCold                  // SpAP mode over the cold network, batch by batch
	phaseFallback              // guard's whole-network baseline fallback
	phaseDone                  // finished; the record holds the final result
)

// phaseName renders a phase for ResumeStats.
func phaseName(p uint8) string {
	switch p {
	case phaseBase:
		return "baseap"
	case phaseCold:
		return "spap"
	case phaseFallback:
		return "fallback"
	case phaseDone:
		return "done"
	}
	return fmt.Sprintf("phase%d", p)
}

// ResumeStats records checkpoint/resume bookkeeping of a run that was
// given a checkpoint runner.
type ResumeStats struct {
	// Resumed reports whether the run continued from a stored checkpoint.
	Resumed bool
	// Phase names the phase the run resumed into ("" when not resumed).
	Phase string
	// Pos is the input position within that phase's stream at resume.
	Pos int64
	// Recovered reports whether the latest checkpoint slot was corrupt
	// and the run fell back to the previous good one.
	Recovered bool
	// Saves counts checkpoints persisted during this call.
	Saves int64
}

// batchStats carries per-batch SpAP accounting.
type batchStats struct {
	cycles  int64 // symbols processed (enable stalls are added when folded)
	stalls  int64
	refills int64
}

// machineState is the complete resumable state of a run. Every field that
// influences the remaining execution is here; nothing else is consulted on
// resume (the partition is rebuilt deterministically from k).
type machineState struct {
	phase   uint8
	guarded bool

	// Guard ladder: current partition layers (nil = the caller's
	// partition), guard statistics including the pre-flight verdict, and
	// fault counters accumulated from aborted attempts.
	k   []int32
	gs  GuardStats
	acc fault.Stats

	// Watchdog counters of the in-flight BaseAP attempt.
	wdStalls   int64
	wdFirstPos int64
	wdHist     []int64

	// Stream progress of the current phase: next input position and the
	// engine snapshot to resume from (meaningful when pos > 0 or, in the
	// cold phase, when inBatch is set).
	pos     int64
	snap    sim.Snapshot
	inBatch bool

	// BaseAP products.
	inter     []IntermediateReport
	interSeen int64 // generated intermediate reports, including dropped

	// Cold-phase bookkeeping: which batches completed, which one is
	// mid-flight, and its report cursor and partial stats.
	coldDone  []bool
	coldCur   int32
	coldJ     int64
	coldStats batchStats

	res Result
}

// encode serializes the state in field order; decode mirrors it exactly.
func (st *machineState) encode(e *checkpoint.Enc) {
	e.U8(st.phase)
	e.Bool(st.guarded)
	e.I32s(st.k)

	e.I64(int64(st.gs.Attempts))
	e.I64(int64(st.gs.Trips))
	e.I64s(st.gs.TripPos)
	e.I64(st.gs.WastedCycles)
	e.Bool(st.gs.Widened)
	e.Bool(st.gs.FallbackBaseline)
	e.I64(int64(st.gs.BatchFallbacks))
	e.I64(st.gs.FallbackCycles)
	pf := st.gs.Preflight
	e.Bool(pf != nil)
	if pf != nil {
		e.F64(pf.Density)
		e.F64(pf.WitnessDensity)
		e.I64(int64(pf.WitnessPeak))
		e.Bool(pf.Safe)
		e.I32s(pf.K)
		e.Bool(pf.Hopeless)
	}

	e.I64(st.acc.Flips)
	e.I64(st.acc.DroppedReports)
	e.I64(st.acc.ConfigRetries)

	e.I64(st.wdStalls)
	e.I64(st.wdFirstPos)
	e.I64s(st.wdHist)

	e.I64(st.pos)
	st.snap.Encode(e)
	e.Bool(st.inBatch)

	e.U64(uint64(len(st.inter)))
	for _, r := range st.inter {
		e.I64(r.Pos)
		e.I32(int32(r.Target))
	}
	e.I64(st.interSeen)

	e.U64(uint64(len(st.coldDone)))
	for _, d := range st.coldDone {
		e.Bool(d)
	}
	e.I32(st.coldCur)
	e.I64(st.coldJ)
	e.I64(st.coldStats.cycles)
	e.I64(st.coldStats.stalls)
	e.I64(st.coldStats.refills)

	r := &st.res
	e.I64(int64(r.BaseAPBatches))
	e.I64(int64(r.ColdBatches))
	e.I64(int64(r.SpAPExecutions))
	e.I64(r.IntermediateReports)
	e.I64(r.EnableStalls)
	e.I64(r.QueueRefills)
	e.I64(r.BaseAPCycles)
	e.I64(r.SpAPCycles)
	e.I64(r.SpAPProcessed)
	e.I64s(r.SpAPBatchCycles)
	e.F64(r.JumpRatio)
	e.I64(r.NumReports)
	e.U64(uint64(len(r.Reports)))
	for _, rp := range r.Reports {
		e.I64(rp.Pos)
		e.I32(int32(rp.State))
	}
	e.I64(r.Fault.Flips)
	e.I64(r.Fault.DroppedReports)
	e.I64(r.Fault.ConfigRetries)
}

func (st *machineState) decode(payload []byte) error {
	d := checkpoint.NewDec(payload)
	st.phase = d.U8()
	st.guarded = d.Bool()
	st.k = d.I32s()

	st.gs.Attempts = int(d.I64())
	st.gs.Trips = int(d.I64())
	st.gs.TripPos = d.I64s()
	st.gs.WastedCycles = d.I64()
	st.gs.Widened = d.Bool()
	st.gs.FallbackBaseline = d.Bool()
	st.gs.BatchFallbacks = int(d.I64())
	st.gs.FallbackCycles = d.I64()
	st.gs.Preflight = nil
	if d.Bool() {
		st.gs.Preflight = &Preflight{
			Density:        d.F64(),
			WitnessDensity: d.F64(),
			WitnessPeak:    int(d.I64()),
			Safe:           d.Bool(),
			K:              d.I32s(),
			Hopeless:       d.Bool(),
		}
	}

	st.acc.Flips = d.I64()
	st.acc.DroppedReports = d.I64()
	st.acc.ConfigRetries = d.I64()

	st.wdStalls = d.I64()
	st.wdFirstPos = d.I64()
	st.wdHist = d.I64s()

	st.pos = d.I64()
	if err := st.snap.Decode(d); err != nil {
		return err
	}
	st.inBatch = d.Bool()

	n := d.Len(12)
	st.inter = st.inter[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		pos := d.I64()
		tgt := automata.StateID(d.I32())
		st.inter = append(st.inter, IntermediateReport{Pos: pos, Target: tgt})
	}
	st.interSeen = d.I64()

	n = d.Len(1)
	st.coldDone = st.coldDone[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		st.coldDone = append(st.coldDone, d.Bool())
	}
	st.coldCur = d.I32()
	st.coldJ = d.I64()
	st.coldStats.cycles = d.I64()
	st.coldStats.stalls = d.I64()
	st.coldStats.refills = d.I64()

	r := &st.res
	r.BaseAPBatches = int(d.I64())
	r.ColdBatches = int(d.I64())
	r.SpAPExecutions = int(d.I64())
	r.IntermediateReports = d.I64()
	r.EnableStalls = d.I64()
	r.QueueRefills = d.I64()
	r.BaseAPCycles = d.I64()
	r.SpAPCycles = d.I64()
	r.SpAPProcessed = d.I64()
	r.SpAPBatchCycles = d.I64s()
	r.JumpRatio = d.F64()
	r.NumReports = d.I64()
	n = d.Len(12)
	r.Reports = r.Reports[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		pos := d.I64()
		s := automata.StateID(d.I32())
		r.Reports = append(r.Reports, sim.Report{Pos: pos, State: s})
	}
	r.Fault.Flips = d.I64()
	r.Fault.DroppedReports = d.I64()
	r.Fault.ConfigRetries = d.I64()
	return d.Done()
}

// stepQuiet makes runBase step the symbols it would skip. Only tests set
// it, to hold the skipping loop to the per-symbol one.
var stepQuiet bool

// machine drives one run. g and ck are the optional hooks: nil means the
// run is unguarded, respectively neither checkpointed nor crash-injected.
type machine struct {
	ctx   context.Context
	input []byte
	cfg   ap.Config
	opts  Options
	g     *Guard
	ck    *checkpoint.Runner
	// keep retains final reports in Result.Reports: the caller asked for
	// them, the guard's per-batch fallback splices them, or a store must
	// persist the delivered prefix.
	keep bool
	st   machineState
	cur  *hotcold.Partition
	enc  checkpoint.Enc
	rs   ResumeStats
}

// run executes p under the BaseAP/SpAP system from wherever the machine
// starts — symbol 0, or the runner's newest checkpoint — to completion.
// The result is nil only when the machine never started (invalid
// configuration, unreadable or mismatched checkpoint); every later error
// (cancellation, injected crash or load failure, a network that does not
// fit the capacity) comes with the partial result accumulated so far.
func run(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, g *Guard, opts Options, ck *checkpoint.Runner) (*Result, error) {
	x, err := newMachine(ctx, p, input, cfg, g, opts, ck)
	if err != nil {
		return nil, err
	}
	for x.st.phase != phaseDone {
		switch x.st.phase {
		case phaseBase:
			err = x.runBase()
		case phaseCold:
			err = x.runCold()
		case phaseFallback:
			err = x.runFallback()
		default:
			return nil, fmt.Errorf("%w: unknown phase %d", checkpoint.ErrMismatch, x.st.phase)
		}
		if err != nil {
			break
		}
	}
	return x.finish(err)
}

// newMachine positions a machine at its starting state: the runner's
// newest checkpoint when there is one, otherwise phase base at symbol 0
// after the guard's static pre-flight (when asked for) has chosen the
// partition layers or sent the run straight to the fallback. The verdict
// is persisted at once, so a resumed run never analyzes again.
func newMachine(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, g *Guard, opts Options, ck *checkpoint.Runner) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := &machine{ctx: ctx, input: input, cfg: cfg, opts: opts, g: g, ck: ck, cur: p,
		keep: opts.CollectReports || g != nil || ck.Enabled()}
	st := &x.st
	st.guarded = g != nil
	st.coldCur = -1
	st.res.JumpRatio = math.NaN()

	payload, ver, fellback, err := ck.Load()
	if err == nil {
		if ver != spapStateVersion {
			return nil, fmt.Errorf("%w: spap state version %d, want %d", checkpoint.ErrMismatch, ver, spapStateVersion)
		}
		if err := st.decode(payload); err != nil {
			return nil, err
		}
		if st.guarded != (g != nil) {
			return nil, fmt.Errorf("%w: checkpoint is for a %s run", checkpoint.ErrMismatch, map[bool]string{true: "guarded", false: "plain"}[st.guarded])
		}
		x.rs = ResumeStats{Resumed: true, Phase: phaseName(st.phase), Pos: st.pos, Recovered: fellback}
		if st.k != nil {
			np, err := hotcold.Build(p.Net, p.Topo, st.k, hotcold.Options{})
			if err != nil {
				return nil, fmt.Errorf("spap: rebuilding widened partition: %w", err)
			}
			x.cur = np
		}
		return x, nil
	}
	if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil, err
	}
	if g == nil {
		return x, nil
	}
	st.gs.Attempts = 1
	if !g.Preflight {
		return x, nil
	}
	pf := PreflightPartition(p, *g, cfg.EnablePorts)
	st.gs.Preflight = pf
	switch {
	case pf.Hopeless:
		st.gs.Attempts = 0
		st.gs.FallbackBaseline = true
		st.phase = phaseFallback
	case pf.K != nil:
		if np, err := hotcold.Build(p.Net, p.Topo, pf.K, hotcold.Options{}); err == nil {
			x.cur, st.k, st.gs.Widened = np, pf.K, true
		}
	}
	return x, x.save()
}

// save persists the full state through the runner; without a store it
// does not even encode.
func (x *machine) save() error {
	if !x.ck.Enabled() {
		return nil
	}
	x.enc.Reset()
	x.st.encode(&x.enc)
	if err := x.ck.Save(spapStateVersion, x.enc.Bytes()); err != nil {
		return err
	}
	x.rs.Saves++
	return nil
}

// atHook gives the runner control inside a streaming loop, at the
// positions Runner.Next names: when a capture is due at cadence position
// due, capture fills the loop's cursor and engine snapshot into the state
// and the record is saved; then the chaos hook is polled with input
// position pos. It returns the next cadence position to call it at.
func (x *machine) atHook(due, pos int64, capture func()) (int64, error) {
	if x.ck.Due(due) {
		capture()
		if err := x.save(); err != nil {
			return 0, err
		}
	}
	return x.ck.Next(due + 1), x.ck.Check(pos)
}

// finish assembles the caller-facing Result from the machine state: fault
// counters from aborted attempts fold in, a guarded run's report stream is
// sorted (fallback splicing breaks order), the internally kept report
// list is dropped when the caller did not ask for it, and the totals are
// derived — TotalCycles includes the guard's wasted and fallback cycles,
// so TimeNS stays the honest end-to-end figure.
func (x *machine) finish(runErr error) (*Result, error) {
	// The caller's Result is a copy, so holding on to it does not keep the
	// machine's snapshot, encoder and intermediate-report buffers alive.
	st, res := &x.st, x.st.res
	res.Fault.Add(st.acc)
	if x.g != nil {
		gs := st.gs
		res.Guard = &gs
		// The partitioned phases emit hot-network finals, then each cold
		// batch's reports, then spliced per-batch fallbacks; the
		// whole-network fallback emits in (pos, state) order already.
		if st.phase == phaseCold || (st.phase == phaseDone && !gs.FallbackBaseline) {
			sortReports(res.Reports)
		}
	}
	if x.ck != nil {
		rs := x.rs
		res.Resume = &rs
	}
	if !x.opts.CollectReports {
		res.Reports = nil
	}
	res.TotalCycles = res.BaseAPCycles + res.SpAPCycles + st.gs.WastedCycles + st.gs.FallbackCycles
	res.TimeNS = float64(res.TotalCycles) * x.cfg.CycleNS
	return &res, runErr
}

// resetAttempt zeroes all per-attempt state before a widened retry or the
// baseline fallback; ladder state (k, gs, acc) survives.
func (x *machine) resetAttempt() {
	st := &x.st
	st.res = Result{JumpRatio: math.NaN()}
	st.inter = nil
	st.interSeen = 0
	st.pos = 0
	st.inBatch = false
	st.coldDone = nil
	st.coldCur = -1
	st.coldJ = 0
	st.coldStats = batchStats{}
	st.wdStalls, st.wdFirstPos, st.wdHist = 0, 0, nil
}

// runBase is BaseAP mode: the hot network streams the input in batches,
// final reports are counted (and kept) and intermediate reports queued for
// the cold phase. A guarded attempt runs under the watchdog — unless the
// pre-flight certified it can never trip — and restores the watchdog's
// counters on resume, keeping trip decisions identical to an uninterrupted
// run. On any abort BaseAPCycles reflects the symbols actually processed.
func (x *machine) runBase() error {
	st, res := &x.st, &x.st.res
	hotBatches, err := ap.PartitionNFAs(x.cur.Hot, x.cfg.Capacity)
	if err != nil {
		return fmt.Errorf("spap: hot network: %w", err)
	}
	res.BaseAPBatches = len(hotBatches)
	inj := x.opts.Faults
	if st.pos == 0 {
		if err := loadConfigs(inj, &res.Fault, 0, len(hotBatches)); err != nil {
			return err
		}
	}
	var wd *watchdog
	if x.g != nil && (st.gs.Preflight == nil || !st.gs.Preflight.Safe) {
		wd = &watchdog{g: *x.g, ports: x.cfg.EnablePorts,
			stalls: st.wdStalls, firstPos: st.wdFirstPos, hist: st.wdHist}
	}
	eng := sim.AcquireEngine(x.cur.Hot, sim.Options{})
	defer eng.Release()
	if st.pos > 0 {
		if err := eng.Restore(&st.snap); err != nil {
			return err
		}
	}
	eng.OnReport = func(pos int64, s automata.StateID) {
		if orig := x.cur.HotOrig[s]; orig != automata.None {
			res.NumReports++
			if x.keep {
				res.Reports = append(res.Reports, sim.Report{Pos: pos, State: orig})
			}
			return
		}
		idx := st.interSeen
		st.interSeen++
		if inj.DropReport(idx) {
			res.Fault.DroppedReports++
			return
		}
		st.inter = append(st.inter, IntermediateReport{Pos: pos, Target: x.cur.Intermediate[s]})
	}
	active := inj.Active()
	abort := func(processed int64, err error) error {
		res.BaseAPCycles = int64(len(hotBatches)) * processed
		res.IntermediateReports = int64(len(st.inter))
		return err
	}
	n := int64(len(x.input))
	i := st.pos
	capture := func() {
		st.pos = i
		eng.Snapshot(&st.snap, i)
		if wd != nil {
			st.wdStalls, st.wdFirstPos, st.wdHist = wd.stalls, wd.firstPos, wd.hist
		}
	}
	// due is the input up to the next position with a duty of its own — a
	// hook, a poll, a watchdog sample — and as far as a quiet run
	// (sim.Engine.Skip) is crossed in one go. The run reports nothing, so
	// the watchdog sees it as one burst-free cycle: total stands still while
	// the budgets grow with the position, and nothing in between could have
	// tripped. A fault plan flips at any position, so under one every symbol
	// is stepped.
	skips, due := !active && !stepQuiet, x.input[:0]
	for hook := x.ck.Next(i); i < n; {
		if i >= int64(len(due)) {
			if i >= hook {
				if hook, err = x.atHook(i, i, capture); err != nil {
					return abort(i, err)
				}
			}
			if i&(cancelCheckInterval-1) == 0 && cancelled(x.ctx) {
				return abort(i, x.ctx.Err())
			}
			due = x.input[:min(hook, n, (i|(cancelCheckInterval-1))+1, (i|(watchdogStride-1))+1)]
		}
		k, burst := 0, 0
		if skips {
			k = eng.Skip(due, int(i))
		} else if active {
			if s, ok := inj.FlipAt(i, x.cur.Hot.Len()); ok {
				eng.ToggleState(s)
				res.Fault.Flips++
			}
		}
		if k == 0 {
			before := len(st.inter)
			eng.Step(i, x.input[i])
			k, burst = 1, len(st.inter)-before
		}
		i += int64(k)
		if wd != nil {
			wd.observe(i, burst, int64(len(st.inter)))
			if wd.tripped {
				return x.handleTrip(wd, i)
			}
		}
	}
	res.IntermediateReports = int64(len(st.inter))
	res.BaseAPCycles = int64(len(hotBatches)) * n
	// The engine emits reports in cycle order (and ascending state order
	// within a cycle), which Algorithm 1 permits (all same-position
	// reports are enabled together). Sort defensively by position for the
	// queue model.
	sort.SliceStable(st.inter, func(a, b int) bool { return st.inter[a].Pos < st.inter[b].Pos })
	st.phase = phaseCold
	st.pos = 0
	st.inBatch = false
	st.coldCur = -1
	st.wdStalls, st.wdFirstPos, st.wdHist = 0, 0, nil
	return x.save()
}

// handleTrip advances the guard ladder after a watchdog trip: widened
// retry when allowed, baseline fallback otherwise. The new ladder
// position is checkpointed immediately, so a crash right after a trip
// resumes into the correct next stage without repeating the aborted
// attempt.
func (x *machine) handleTrip(wd *watchdog, processed int64) error {
	st := &x.st
	st.gs.Trips++
	st.gs.TripPos = append(st.gs.TripPos, wd.pos)
	st.gs.WastedCycles += int64(st.res.BaseAPBatches) * processed
	st.acc.Add(st.res.Fault)
	if st.gs.Attempts-1 < x.g.MaxRetries && !wd.hopeless() {
		if np, ok := widenPartition(x.cur, x.g.WidenFactor); ok {
			st.gs.Widened = true
			st.gs.Attempts++
			x.cur = np
			st.k = np.K
			x.resetAttempt()
			return x.save()
		}
	}
	st.gs.FallbackBaseline = true
	st.phase = phaseFallback
	x.resetAttempt()
	return x.save()
}

// runCold is SpAP mode: intermediate reports are routed to the cold batch
// owning their target and each batch that received any is replayed under
// Algorithm 1 — or, under the guard, run un-split as baseline batches when
// its report list predicts more stalls than StallBudget × len(input).
// Batch completion is the durability unit: coldDone marks finished
// batches, and the in-flight batch checkpoints its engine snapshot plus
// report cursor every Every cycles. Per-batch baseline fallbacks are
// atomic between saves — a crash inside one repeats just that batch.
func (x *machine) runCold() error {
	st, res := &x.st, &x.st.res
	if x.cur.Cold.Len() == 0 {
		st.phase = phaseDone
		return x.save()
	}
	coldBatches, err := ap.PartitionNFAs(x.cur.Cold, x.cfg.Capacity)
	if err != nil {
		return fmt.Errorf("spap: cold network: %w", err)
	}
	res.ColdBatches = len(coldBatches)
	if len(st.inter) == 0 {
		st.phase = phaseDone
		return x.save()
	}
	if len(st.coldDone) != len(coldBatches) {
		st.coldDone = make([]bool, len(coldBatches))
	}
	perBatch := routeReports(x.cur, coldBatches, st.inter)
	var stallCap int64
	if x.g != nil {
		stallCap = int64(x.g.StallBudget * float64(len(x.input)))
	}
	for bi, reports := range perBatch {
		if len(reports) == 0 || st.coldDone[bi] {
			continue
		}
		if cancelled(x.ctx) {
			return x.ctx.Err()
		}
		resuming := st.inBatch && int(st.coldCur) == bi
		if !resuming {
			// The pre-flight is deterministic over the routed list, so a
			// batch that started SpAP execution before a crash passed it
			// and must not re-run it after resume.
			if x.g != nil && predictStalls(reports, x.cfg.EnablePorts) > stallCap {
				if err := batchFallback(x.ctx, x.cur, x.input, x.cfg, res, coldBatches[bi], &st.gs); err != nil {
					return err
				}
				st.coldDone[bi] = true
				if err := x.save(); err != nil {
					return err
				}
				continue
			}
			// Cold batches share the global configuration-ID space with
			// the BaseAP batches, and load lazily: a batch that receives
			// no reports is never configured.
			if err := loadConfigs(x.opts.Faults, &res.Fault, res.BaseAPBatches+bi, 1); err != nil {
				return err
			}
			res.SpAPExecutions++
			st.coldCur = int32(bi)
			st.coldJ = 0
			st.coldStats = batchStats{}
			st.pos = 0
			st.inBatch = true
		}
		if err := x.runSpAPBatch(reports, resuming); err != nil {
			return err
		}
		st.coldDone[bi] = true
		st.inBatch = false
		st.pos = 0
		st.coldJ = 0
		st.coldStats = batchStats{}
		if err := x.save(); err != nil {
			return err
		}
	}
	if res.SpAPExecutions > 0 {
		denom := float64(res.SpAPExecutions) * float64(len(x.input))
		res.JumpRatio = 1 - float64(res.SpAPProcessed)/denom
	}
	st.phase = phaseDone
	return x.save()
}

// runSpAPBatch is Algorithm 1. The whole cold network is simulated, driven
// only by this batch's reports; because NFAs are independent, states
// outside the batch are never enabled, so the result is identical to
// simulating the batch alone. The capture cadence counts executed cycles
// (not input positions — jumps skip those) and persists the engine
// snapshot, the report-list cursor, and the partial batch stats. Stats
// fold into the Result only at completion (or into the in-memory partial
// result on abort), so a mid-batch checkpoint never double-counts.
func (x *machine) runSpAPBatch(reports []IntermediateReport, resuming bool) error {
	st, res := &x.st, &x.st.res
	eng := sim.AcquireEngine(x.cur.Cold, sim.Options{})
	defer eng.Release()
	if resuming {
		if err := eng.Restore(&st.snap); err != nil {
			return err
		}
	}
	eng.OnReport = func(pos int64, s automata.StateID) {
		res.NumReports++
		if x.keep {
			res.Reports = append(res.Reports, sim.Report{Pos: pos, State: x.cur.ColdOrig[s]})
		}
	}
	inj := x.opts.Faults
	active := inj.Active()
	bst := st.coldStats
	n := int64(len(x.input))
	i := st.pos
	j := int(st.coldJ)
	fold := func(err error) error {
		c := bst.cycles + bst.stalls
		res.SpAPBatchCycles = append(res.SpAPBatchCycles, c)
		res.SpAPCycles += c
		res.SpAPProcessed += bst.cycles
		res.EnableStalls += bst.stalls
		res.QueueRefills += bst.refills
		return err
	}
	capture := func() {
		st.pos, st.coldJ, st.coldStats = i, int64(j), bst
		eng.Snapshot(&st.snap, i)
	}
	for hook := x.ck.Next(bst.cycles); i < n; {
		if bst.cycles >= hook {
			var err error
			if hook, err = x.atHook(bst.cycles, i, capture); err != nil {
				return fold(err)
			}
		}
		if bst.cycles&(cancelCheckInterval-1) == 0 && cancelled(x.ctx) {
			return fold(x.ctx.Err())
		}
		if eng.FrontierEmpty() {
			if j >= len(reports) {
				break
			}
			i = reports[j].Pos // jump operation
		}
		if active {
			if s, ok := inj.FlipAt(i, x.cur.Cold.Len()); ok {
				eng.ToggleState(s)
				res.Fault.Flips++
			}
		}
		// Enable every report generated at this position. EnablePorts
		// enables overlap with one symbol cycle; each additional full
		// port-width of simultaneous reports stalls input processing for
		// one cycle (Section V-B describes the 1-port design).
		enabled := 0
		for j < len(reports) && reports[j].Pos == i {
			eng.EnableState(x.cur.ColdID[reports[j].Target])
			if j%x.cfg.ReportQueueLen == x.cfg.ReportQueueLen-1 {
				bst.refills++
			}
			j++
			enabled++
		}
		if enabled > x.cfg.EnablePorts {
			bst.stalls += int64((enabled+x.cfg.EnablePorts-1)/x.cfg.EnablePorts - 1)
		}
		eng.Step(i, x.input[i])
		bst.cycles++
		i++
	}
	return fold(nil)
}

// runFallback is the guard's last rung: the whole original network runs as
// plain baseline batches — one engine pass, since batches are independent
// — and its entire cost lands in GuardStats.FallbackCycles (beside the
// already-recorded WastedCycles). FallbackCycles is assigned (not
// accumulated) from symbols processed, so resumes cannot double-count it.
func (x *machine) runFallback() error {
	st, res := &x.st, &x.st.res
	batches, err := ap.PartitionNFAs(x.cur.Net, x.cfg.Capacity)
	if err != nil {
		return err
	}
	if st.pos == 0 {
		if err := loadConfigs(x.opts.Faults, &res.Fault, 0, len(batches)); err != nil {
			return err
		}
	}
	eng := sim.AcquireEngine(x.cur.Net, sim.Options{})
	defer eng.Release()
	if st.pos > 0 {
		if err := eng.Restore(&st.snap); err != nil {
			return err
		}
	}
	eng.OnReport = func(pos int64, s automata.StateID) {
		res.NumReports++
		if x.keep {
			res.Reports = append(res.Reports, sim.Report{Pos: pos, State: s})
		}
	}
	abort := func(processed int64, err error) error {
		st.gs.FallbackCycles = int64(len(batches)) * processed
		return err
	}
	n := int64(len(x.input))
	i := st.pos
	capture := func() {
		st.pos = i
		eng.Snapshot(&st.snap, i)
	}
	for hook := x.ck.Next(i); i < n; {
		if i >= hook {
			if hook, err = x.atHook(i, i, capture); err != nil {
				return abort(i, err)
			}
		}
		if i&(cancelCheckInterval-1) == 0 && cancelled(x.ctx) {
			return abort(i, x.ctx.Err())
		}
		end := min(hook, n, (i|(cancelCheckInterval-1))+1)
		eng.Run(i, x.input[i:end])
		i = end
	}
	st.gs.FallbackCycles = int64(len(batches)) * n
	st.phase = phaseDone
	st.pos = 0
	return x.save()
}
