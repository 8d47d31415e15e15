// Package sparseap is a Go reproduction of "Architectural Support for
// Efficient Large-Scale Automata Processing" (MICRO 2018): a toolchain for
// running large homogeneous-NFA applications on a modeled Automata
// Processor (AP) with profiling-based hot/cold state partitioning and the
// SparseAP (SpAP) sparse execution mode.
//
// The typical pipeline is:
//
//	net, _ := sparseap.CompileRegex([]string{"virus[0-9]+", "worm.{4}sig"})
//	eng := sparseap.NewEngine(sparseap.DefaultAPConfig())
//	part, _ := eng.Partition(net, profilingInput)           // compile time
//	res, _ := eng.RunBaseAPSpAP(part, input)                // BaseAP + SpAP
//	base, _ := eng.RunBaseline(net, input)                  // batched AP
//	fmt.Println(sparseap.Speedup(base.Cycles, res.TotalCycles))
//
// Each execution system of the paper's Table III has one plain Engine
// method and one context-taking method; where the system can checkpoint,
// the context-taking method also takes a *CheckpointRunner, and a nil
// runner means no checkpointing. The heavy lifting lives in the internal
// packages (automata model, functional simulator, AP hardware model,
// partitioner, SpAP executor, checkpoint store, workload generators); this
// package holds what the commands and examples reach of them.
package sparseap

import (
	"context"
	"io"

	"sparseap/internal/anml"
	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/fault"
	"sparseap/internal/graph"
	"sparseap/internal/hotcold"
	"sparseap/internal/metrics"
	"sparseap/internal/regexc"
	"sparseap/internal/rewrite"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/workloads"
)

type (
	// Network is an application: a set of NFAs in one global state space.
	Network = automata.Network
	// NFA is a single homogeneous automaton.
	NFA = automata.NFA
	// StateID identifies a state within an NFA or Network.
	StateID = automata.StateID
	// Report is one match event (input position, reporting state).
	Report = sim.Report
	// APConfig describes an AP half-core.
	APConfig = ap.Config
	// Partition is a compiled hot/cold split with intermediate reporting
	// states and translation table.
	Partition = hotcold.Partition
	// ExecResult summarizes a partitioned execution.
	ExecResult = spap.Result
	// BaselineResult summarizes a baseline batched execution.
	BaselineResult = ap.BaselineResult
	// MinimizeStats summarizes a Minimize run: states/edges/NFAs before
	// and after, and what each rewrite phase removed.
	MinimizeStats = rewrite.Stats
	// Guard configures the adaptive executor's report/stall budgets.
	Guard = spap.Guard
	// FaultPlan describes a seeded fault-injection campaign.
	FaultPlan = fault.Plan
	// FaultInjector makes a plan's deterministic runtime decisions.
	FaultInjector = fault.Injector
	// CheckpointStore is a directory-backed durable store. A name owns
	// one slot file of three records; a save overwrites the oldest record
	// in place and fdatasyncs it, so the latest and previous records stay
	// loadable whenever a process dies. Only a name's first image is
	// written as temp + rename followed by a directory sync.
	CheckpointStore = checkpoint.DirStore
	// CheckpointRunner bundles a store with one checkpoint stream and its
	// capture policy (interval, chaos hook). A nil runner, or one without
	// a store, persists nothing.
	CheckpointRunner = checkpoint.Runner
	// CheckpointManifest ties the checkpoint streams of a run together and
	// carries the resume count (the chaos epoch).
	CheckpointManifest = checkpoint.Manifest
)

// ErrCrashInjected is the chaos hook's injected process kill.
var ErrCrashInjected = checkpoint.ErrCrashInjected

// DefaultAPConfig returns the 1/8-scaled AP half-core used throughout the
// repository's experiments (3K STEs); see ap.PaperConfig for the full 24K
// half-core.
func DefaultAPConfig() APConfig { return ap.DefaultConfig() }

// CompileRegex compiles each pattern into one NFA and flattens them into a
// network. See internal/regexc for the supported syntax.
func CompileRegex(patterns []string) (*Network, error) {
	return regexc.CompileAll(patterns, regexc.Options{})
}

// NewNetwork flattens NFAs into a Network.
func NewNetwork(nfas ...*NFA) *Network { return automata.NewNetwork(nfas...) }

// HammingNFA builds a bounded-mismatch automaton accepting every string
// within Hamming distance d of pattern (the ANMLZoo BMIA construction).
func HammingNFA(pattern []byte, d int) *NFA { return workloads.BMIA(pattern, d) }

// ReadANML parses an ANML document into a network.
func ReadANML(r io.Reader) (*Network, error) { return anml.Read(r) }

// Match runs the network functionally over input and returns all reports —
// the plain software-simulation path, independent of any AP model.
func Match(net *Network, input []byte) []Report {
	return sim.Run(net, input, sim.Options{CollectReports: true}).Reports
}

// Speedup returns baselineCycles / newCycles.
func Speedup(baselineCycles, newCycles int64) float64 {
	return metrics.Speedup(baselineCycles, newCycles)
}

// Minimize runs the proof-carrying semantic rewriter (dataflow-based
// unreachable/dead elimination, edge pruning, subsumption, and
// capacity-guarded bisimulation merging, including cross-NFA start
// folding). Every removal and merge carries a certificate that is
// machine-checked before being applied, and the report stream is
// bit-identical up to state renumbering.
func Minimize(net *Network) (*Network, MinimizeStats, error) {
	res, err := rewrite.Rewrite(net, rewrite.Options{})
	if err != nil {
		return nil, MinimizeStats{}, err
	}
	return res.Net, res.Stats, nil
}

// DefaultGuard returns the suite-tuned guard budgets.
func DefaultGuard() Guard { return spap.DefaultGuard() }

// ParseFaultPlan parses the "kind=rate,..." fault-flag syntax (e.g.
// "stuckoff=0.01,drop=0.05") into a plan with the given seed.
func ParseFaultPlan(s string, seed int64) (FaultPlan, error) { return fault.ParsePlan(s, seed) }

// NewFaultInjector returns the deterministic injector for a plan; assign
// it to Engine.Faults to exercise runtime faults, or use its InjectStuck
// method to apply compile-time stuck-at faults to a network.
func NewFaultInjector(p FaultPlan) *FaultInjector { return fault.New(p) }

// OpenCheckpointStore opens (creating if needed) a checkpoint directory.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return checkpoint.Open(dir) }

// Analysis holds the summary statistics used across the paper's
// characterization: state/NFA counts, the maximum topological order, and
// the hot fraction under the given input.
type Analysis struct {
	States    int
	NFAs      int
	Reporting int
	MaxTopo   int32
	Hot       int
	HotFrac   float64
}

// Analyze characterizes a network against an input (Figures 1 and 5).
func Analyze(net *Network, input []byte) Analysis {
	st := net.ComputeStats()
	topo := graph.TopoOrder(net)
	maxTopo := int32(0)
	for _, m := range topo.MaxPerNFA {
		if m > maxTopo {
			maxTopo = m
		}
	}
	hot := sim.HotStates(net, input).Count()
	hotFrac := 0.0
	if st.States > 0 {
		hotFrac = float64(hot) / float64(st.States)
	}
	return Analysis{
		States:    st.States,
		NFAs:      st.NFAs,
		Reporting: st.Reporting,
		MaxTopo:   maxTopo,
		Hot:       hot,
		HotFrac:   hotFrac,
	}
}

// Engine bundles an AP configuration with the three execution systems of
// the paper's Table III.
type Engine struct {
	AP APConfig
	// Faults, when non-nil, injects runtime faults into every partitioned
	// execution the engine runs (see NewFaultInjector); Result.Fault
	// reports what was applied.
	Faults *FaultInjector
}

// NewEngine returns an engine for the given AP configuration.
func NewEngine(cfg APConfig) *Engine { return &Engine{AP: cfg} }

// execOpts is the execution configuration every partitioned run shares.
func (e *Engine) execOpts() spap.Options {
	return spap.Options{CollectReports: true, Faults: e.Faults}
}

// Partition profiles the network on profInput and builds the hot/cold
// partition with the batch-filling optimization at the engine's capacity.
func (e *Engine) Partition(net *Network, profInput []byte) (*Partition, error) {
	return hotcold.BuildFromProfile(net, profInput, hotcold.Options{Capacity: e.AP.Capacity})
}

// PartitionStatic builds the hot/cold partition from the static hotness
// analysis alone — no profiling input required. The report stream of any
// partitioned execution is identical to Partition's; only the cycle cost
// differs with prediction quality.
func (e *Engine) PartitionStatic(net *Network) (*Partition, error) {
	return hotcold.BuildWithStrategy(net, hotcold.StrategyStatic, hotcold.StrategyInput{},
		hotcold.Options{Capacity: e.AP.Capacity})
}

// RunBaseline executes the baseline batched AP system: NFA-granularity
// batches, each re-streaming the whole input.
func (e *Engine) RunBaseline(net *Network, input []byte) (*BaselineResult, error) {
	return ap.RunBaseline(net, input, e.AP)
}

// RunBaselineContext is RunBaseline with cancellation and durable
// checkpoints through ck (nil: none), returning the full report stream
// too: the restored prefix plus the re-run suffix, bit-identical to an
// uninterrupted run's. On cancellation or an injected crash the partial
// result is returned with the error, and the last persisted checkpoint
// stays valid for the next attempt.
func (e *Engine) RunBaselineContext(ctx context.Context, net *Network, input []byte, ck *CheckpointRunner) (*BaselineResult, []Report, error) {
	return ap.RunBaselineContext(ctx, net, input, e.AP, true, ck)
}

// RunBaseAPSpAP executes a partition under the BaseAP/SpAP system and
// collects the final reports.
func (e *Engine) RunBaseAPSpAP(p *Partition, input []byte) (*ExecResult, error) {
	return spap.RunBaseAPSpAP(p, input, e.AP, e.execOpts())
}

// RunBaseAPSpAPContext is RunBaseAPSpAP with cancellation and durable
// checkpoints through ck (nil: none): per-batch progress (completed
// batches, the intermediate-report list, mid-batch engine snapshots and
// report cursors) persists, so an interrupted run resumes mid-batch with
// exactly-once report delivery instead of re-streaming from symbol 0.
func (e *Engine) RunBaseAPSpAPContext(ctx context.Context, p *Partition, input []byte, ck *CheckpointRunner) (*ExecResult, error) {
	return spap.RunBaseAPSpAPContext(ctx, p, input, e.AP, e.execOpts(), ck)
}

// RunAPCPU executes a partition under the AP–CPU system (mis-prediction
// handling on a modeled CPU) and collects the final reports.
func (e *Engine) RunAPCPU(p *Partition, input []byte) (*ExecResult, error) {
	return e.RunAPCPUContext(context.Background(), p, input)
}

// RunAPCPUContext is RunAPCPU with cancellation.
func (e *Engine) RunAPCPUContext(ctx context.Context, p *Partition, input []byte) (*ExecResult, error) {
	return spap.RunAPCPU(ctx, p, input, e.AP, e.execOpts())
}

// RunGuarded executes a partition under the BaseAP/SpAP system with the
// adaptive guard: a mid-run watchdog aborts storm-prone executions early,
// retries with widened partition layers, and falls back to baseline
// batched execution, bounding the regret of a bad partition while
// preserving the report multiset. Result.Guard records what happened. The
// guard ladder is part of the state checkpointed through ck (nil: none),
// so a run killed mid-retry or mid-fallback resumes exactly where it was.
func (e *Engine) RunGuarded(ctx context.Context, p *Partition, input []byte, g Guard, ck *CheckpointRunner) (*ExecResult, error) {
	return spap.RunGuardedCheckpointed(ctx, p, input, e.AP, g, e.execOpts(), ck)
}
