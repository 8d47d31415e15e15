// Package fault is a deterministic, seeded fault-injection framework for
// the modeled Automata Processor, in the spirit of the redundancy/repair
// machinery real AP boards ship with (spare STEs per block, remapped at
// configuration time).
//
// Four hardware fault classes are modeled:
//
//   - stuck-off STEs: the STE's match logic never fires (its 256-row
//     column reads as all zeros);
//   - stuck-on STEs: the match logic fires on every symbol;
//   - transient enable-bit flips: a single enable bit inverts during one
//     cycle (soft error in the routing-matrix latches);
//   - intermediate-report queue drops: an entry of the 128-deep SpAP
//     report queue is lost before the refill reaches device memory;
//   - batch-configuration load failures: loading a batch onto the fabric
//     fails and must be retried.
//
// Every decision is a pure hash of (seed, fault domain, index), so a Plan
// reproduces the same fault pattern regardless of call order or batch
// interleaving — the property the resilience test-suite relies on.
//
// Stuck faults are repairable: Injection.Repair relocates each faulty
// state to a spare STE in the same block (spare-STE remapping), restoring
// the original match behaviour, or fails with ErrSparesExhausted when a
// block has more faults than spares.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// Kind classifies a fault.
type Kind uint8

const (
	// StuckOff marks an STE whose match logic never fires.
	StuckOff Kind = iota
	// StuckOn marks an STE whose match logic fires on every symbol.
	StuckOn
	// EnableFlip is a transient single-cycle enable-bit inversion.
	EnableFlip
	// ReportDrop loses one intermediate-report queue entry.
	ReportDrop
	// LoadFail is a failed batch-configuration load.
	LoadFail
	// Crash is a hard process death at a seeded input position — the
	// chaos-soak fault class. Unlike the hardware classes it is not
	// absorbed by the executors: a hit kills the run, and recovery means
	// resuming from the last durable checkpoint.
	Crash
)

// String names the kind as the -fault flag spells it.
func (k Kind) String() string {
	switch k {
	case StuckOff:
		return "stuckoff"
	case StuckOn:
		return "stuckon"
	case EnableFlip:
		return "flip"
	case ReportDrop:
		return "drop"
	case LoadFail:
		return "loadfail"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Plan describes a fault-injection campaign. Rates are probabilities in
// [0, 1]; a zero Plan injects nothing.
type Plan struct {
	// Seed drives every deterministic decision.
	Seed int64
	// StuckOffRate is the fraction of STEs stuck off.
	StuckOffRate float64
	// StuckOnRate is the fraction of STEs stuck on.
	StuckOnRate float64
	// EnableFlipRate is the per-cycle probability of one enable-bit flip
	// at a hash-chosen STE.
	EnableFlipRate float64
	// ReportDropRate is the per-entry probability that an intermediate
	// report is lost from the SpAP queue.
	ReportDropRate float64
	// LoadFailRate is the per-attempt probability that a batch
	// configuration fails to load.
	LoadFailRate float64
	// CrashRate is the per-symbol probability of a hard process crash
	// (checked only by checkpointed execution loops; see Injector.CrashAt).
	CrashRate float64
}

// MaxLoadRetries bounds consecutive reload attempts per batch before the
// run errors out with ErrConfigLoad.
const MaxLoadRetries = 8

// Active reports whether any fault class has a nonzero rate.
func (p Plan) Active() bool {
	return p.StuckOffRate > 0 || p.StuckOnRate > 0 || p.EnableFlipRate > 0 ||
		p.ReportDropRate > 0 || p.LoadFailRate > 0 || p.CrashRate > 0
}

// ParsePlan parses the -fault flag syntax: a comma-separated list of
// kind=rate pairs, e.g. "stuckoff=0.01,drop=0.05". Kinds are the Kind
// String names.
func ParsePlan(s string, seed int64) (Plan, error) {
	p := Plan{Seed: seed}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("fault: %q is not kind=rate", part)
		}
		rate, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || rate < 0 || rate > 1 {
			return p, fmt.Errorf("fault: bad rate in %q (want 0..1)", part)
		}
		switch kv[0] {
		case "stuckoff":
			p.StuckOffRate = rate
		case "stuckon":
			p.StuckOnRate = rate
		case "flip":
			p.EnableFlipRate = rate
		case "drop":
			p.ReportDropRate = rate
		case "loadfail":
			p.LoadFailRate = rate
		case "crash":
			p.CrashRate = rate
		default:
			return p, fmt.Errorf("fault: unknown kind %q (stuckoff|stuckon|flip|drop|loadfail|crash)", kv[0])
		}
	}
	return p, nil
}

// Injector makes the Plan's runtime decisions. It is stateless beyond the
// plan itself — safe for concurrent use — because every decision is a pure
// hash of its arguments.
type Injector struct {
	plan Plan
}

// New returns an injector for the plan.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// Active reports whether the injector injects anything.
func (in *Injector) Active() bool { return in != nil && in.plan.Active() }

// splitmix64 is the SplitMix64 finalizer — a strong 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes the seed, a per-domain tag, and an index into a uniform
// [0, 1) float.
func (in *Injector) hash(domain uint64, index uint64) float64 {
	h := splitmix64(uint64(in.plan.Seed)*0x9e3779b97f4a7c15 ^ domain<<48 ^ index)
	return float64(h>>11) / float64(1<<53)
}

const (
	domStuck   = 1
	domFlip    = 2
	domFlipWho = 3
	domDrop    = 4
	domLoad    = 5
	domStuckOn = 6
	domCrash   = 7
)

// DropReport reports whether the idx-th intermediate report of the run is
// lost from the queue.
func (in *Injector) DropReport(idx int64) bool {
	if in == nil || in.plan.ReportDropRate == 0 {
		return false
	}
	return in.hash(domDrop, uint64(idx)) < in.plan.ReportDropRate
}

// FlipAt reports whether an enable-bit flip strikes at input position pos,
// and if so which of the netLen STEs it hits.
func (in *Injector) FlipAt(pos int64, netLen int) (automata.StateID, bool) {
	if in == nil || in.plan.EnableFlipRate == 0 || netLen == 0 {
		return automata.None, false
	}
	if in.hash(domFlip, uint64(pos)) >= in.plan.EnableFlipRate {
		return automata.None, false
	}
	who := splitmix64(uint64(in.plan.Seed)^domFlipWho<<48^uint64(pos)) % uint64(netLen)
	return automata.StateID(who), true
}

// LoadFails reports whether the attempt-th load (0-based) of batch fails.
// For any plan with LoadFailRate < 1 the sequence of failures for one
// batch is finite with probability 1; MaxLoadRetries bounds it anyway.
func (in *Injector) LoadFails(batch, attempt int) bool {
	if in == nil || in.plan.LoadFailRate == 0 {
		return false
	}
	return in.hash(domLoad, uint64(batch)<<20|uint64(attempt)) < in.plan.LoadFailRate
}

// CrashAt reports whether the chaos plan kills the process before input
// position pos of resume epoch `epoch` (0 on the first run, incremented
// by the checkpoint manifest on every resume). Hashing the epoch in means
// each resume rolls a fresh crash schedule: the soak loop keeps dying at
// new seeded points but finishes with probability 1, while within one
// epoch the schedule is a pure function of (seed, epoch, pos) — the same
// determinism contract as every other fault class.
func (in *Injector) CrashAt(epoch, pos int64) bool {
	if in == nil || in.plan.CrashRate == 0 {
		return false
	}
	return in.hash(domCrash, splitmix64(uint64(epoch))^uint64(pos)) < in.plan.CrashRate
}

// ErrConfigLoad is returned when a batch configuration cannot be loaded
// within MaxLoadRetries attempts.
var ErrConfigLoad = errors.New("fault: batch configuration load failed after retries")

// StuckFault is one injected stuck-at STE fault.
type StuckFault struct {
	State automata.StateID
	Kind  Kind // StuckOff or StuckOn
}

// Injection is a network with stuck-at faults applied, retaining what is
// needed to repair it.
type Injection struct {
	// Net is the faulty network (a modified clone; the original is not
	// touched).
	Net *automata.Network
	// Faults lists the injected stuck faults, ordered by state.
	Faults []StuckFault

	orig []symset.Set // original match sets of the faulted states
}

// InjectStuck applies the plan's stuck-off/stuck-on faults to a clone of
// net: stuck-off states match nothing, stuck-on states match everything.
// The decision for state s depends only on (seed, s), so growing the
// network keeps earlier faults stable.
func (in *Injector) InjectStuck(net *automata.Network) *Injection {
	inj := &Injection{Net: net}
	if in == nil || (in.plan.StuckOffRate == 0 && in.plan.StuckOnRate == 0) {
		return inj
	}
	out := net.Clone()
	for s := 0; s < net.Len(); s++ {
		var kind Kind
		switch {
		case in.hash(domStuck, uint64(s)) < in.plan.StuckOffRate:
			kind = StuckOff
		case in.hash(domStuckOn, uint64(s)) < in.plan.StuckOnRate:
			kind = StuckOn
		default:
			continue
		}
		inj.Faults = append(inj.Faults, StuckFault{State: automata.StateID(s), Kind: kind})
		inj.orig = append(inj.orig, out.States[s].Match)
		if kind == StuckOff {
			out.States[s].Match = symset.Empty()
		} else {
			out.States[s].Match = symset.All()
		}
	}
	if len(inj.Faults) > 0 {
		inj.Net = out
	}
	return inj
}

// RepairStats summarizes a spare-STE remapping.
type RepairStats struct {
	// Remapped counts faulty STEs relocated to spares.
	Remapped int
	// BlocksTouched counts blocks that consumed at least one spare.
	BlocksTouched int
	// MaxPerBlock is the largest spare demand of any block.
	MaxPerBlock int
}

// ErrSparesExhausted is returned when a block needs more spares than it
// has.
var ErrSparesExhausted = errors.New("fault: spare STEs exhausted in a block")

// Repair performs spare-STE remapping: each faulty state is relocated to a
// spare STE within its own block (row-major placement under cfg, wrapping
// around the configured hierarchy for states beyond one half-core), which
// restores its original match behaviour. sparesPerBlock is the number of
// spare STEs each block reserves; the repair fails with ErrSparesExhausted
// when any block's fault count exceeds it.
func (inj *Injection) Repair(cfg ap.Config, sparesPerBlock int) (*automata.Network, *RepairStats, error) {
	st := &RepairStats{}
	if len(inj.Faults) == 0 {
		return inj.Net, st, nil
	}
	perBlock := cfg.RowsPerBlock * cfg.STEsPerRow
	if perBlock <= 0 {
		return nil, nil, fmt.Errorf("fault: config has no block hierarchy")
	}
	demand := map[int]int{}
	for _, f := range inj.Faults {
		// Placement wraps per half-core load: the block is determined by
		// the STE's offset within its configuration.
		blk := int(f.State) % cfg.Capacity / perBlock
		demand[blk]++
	}
	for blk, d := range demand {
		if d > st.MaxPerBlock {
			st.MaxPerBlock = d
		}
		if d > sparesPerBlock {
			return nil, nil, fmt.Errorf("%w: block %d needs %d spares, has %d",
				ErrSparesExhausted, blk, d, sparesPerBlock)
		}
	}
	st.BlocksTouched = len(demand)
	st.Remapped = len(inj.Faults)
	repaired := inj.Net.Clone()
	for i, f := range inj.Faults {
		repaired.States[f.State].Match = inj.orig[i]
	}
	return repaired, st, nil
}

// MinSparesPerBlock returns the smallest sparesPerBlock for which Repair
// succeeds — the per-block maximum fault demand.
func (inj *Injection) MinSparesPerBlock(cfg ap.Config) int {
	perBlock := cfg.RowsPerBlock * cfg.STEsPerRow
	if perBlock <= 0 {
		return 0
	}
	demand := map[int]int{}
	mx := 0
	for _, f := range inj.Faults {
		blk := int(f.State) % cfg.Capacity / perBlock
		demand[blk]++
		if demand[blk] > mx {
			mx = demand[blk]
		}
	}
	return mx
}

// Summary renders a one-line fault tally for command-line output.
func (inj *Injection) Summary() string {
	if len(inj.Faults) == 0 {
		return "no stuck faults"
	}
	byKind := map[Kind]int{}
	for _, f := range inj.Faults {
		byKind[f.Kind]++
	}
	kinds := make([]Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%d %s", byKind[k], k))
	}
	return strings.Join(parts, ", ")
}

// Stats carries the runtime fault counters an executor accumulates; the
// executor embeds one in its Result when an injector is active.
type Stats struct {
	// Flips counts transient enable-bit flips applied.
	Flips int64
	// DroppedReports counts intermediate reports lost from the queue.
	DroppedReports int64
	// ConfigRetries counts batch-configuration reload attempts.
	ConfigRetries int64
}

// Add accumulates another counter set.
func (s *Stats) Add(o Stats) {
	s.Flips += o.Flips
	s.DroppedReports += o.DroppedReports
	s.ConfigRetries += o.ConfigRetries
}

// Any reports whether any counter is nonzero.
func (s Stats) Any() bool { return s.Flips != 0 || s.DroppedReports != 0 || s.ConfigRetries != 0 }

// String renders the counters.
func (s Stats) String() string {
	return fmt.Sprintf("%d flips, %d dropped reports, %d config retries",
		s.Flips, s.DroppedReports, s.ConfigRetries)
}

// RateForCount returns the per-item rate that yields an expected count of
// want over n items (clamped to [0,1]); used by sweeps that want a fixed
// absolute fault count at any network size.
func RateForCount(want float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Min(1, want/float64(n))
}
