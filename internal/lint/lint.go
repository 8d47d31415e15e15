// Package lint implements a registry-based static-analysis pass over
// automata networks — the compile-time checking layer of AP toolchains
// (VASim's validation passes, the ANML compiler's network checks).
//
// Each Analyzer owns one stable diagnostic code (AP001, AP002, …) and
// reports every violation it finds as a structured Diagnostic instead of a
// first-error-wins error value: code, severity, NFA/state location, human
// message and an optional suggested fix. Analyzers fall into two groups:
//
//   - network analyzers, run by Run over any automata.Network (from a
//     workload generator, an ANML file or a compiled regex set), and
//   - partition analyzers, run by RunPartition over a hot/cold partition's
//     PartitionInfo; hotcold.Partition.CheckInvariants is a thin wrapper
//     over them.
//
// The structure analyzers (AP001/AP002) are themselves thin wrappers over
// automata.StructuralProblems — the one shared implementation that also
// backs NFA.Validate and Network.Validate (automata cannot import this
// package, so the core lives there and both layers format its findings).
//
// cmd/aplint exposes the registry on the command line; workloads.Build,
// cmd/apgen and cmd/apsim run it as part of the pipeline.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"sparseap/internal/automata"
	"sparseap/internal/dataflow"
	"sparseap/internal/graph"
	"sparseap/internal/hotness"
	"sparseap/internal/symset"
	"sparseap/internal/worstcase"
)

// Severity ranks a diagnostic.
type Severity uint8

const (
	// Info marks an optimization opportunity; the network is correct.
	Info Severity = iota
	// Warning marks a structure that is almost certainly unintended but
	// does not break execution or partitioning.
	Warning
	// Error marks a violation of an invariant the pipeline relies on.
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// MarshalText renders the severity for JSON output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity name.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("lint: unknown severity %q", b)
	}
	return nil
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Code is the stable analyzer code ("AP001"…).
	Code string `json:"code"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// NFA is the owning NFA index, or -1 for network-level findings.
	NFA int `json:"nfa"`
	// State is the offending state's global ID, or -1 (automata.None) for
	// NFA- and network-level findings.
	State automata.StateID `json:"state"`
	// Name is the state's ANML name, when it has one.
	Name string `json:"name,omitempty"`
	// Msg describes the finding.
	Msg string `json:"msg"`
	// Fix optionally suggests a remedy.
	Fix string `json:"fix,omitempty"`
}

// String renders the diagnostic in the one-line text format of cmd/aplint:
//
//	AP005 warning: nfa 3 state 17 "foo": unreachable from any start state
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: ", d.Code, d.Severity)
	switch {
	case d.State != automata.None:
		if d.NFA >= 0 {
			fmt.Fprintf(&b, "nfa %d ", d.NFA)
		}
		fmt.Fprintf(&b, "state %d", d.State)
		if d.Name != "" {
			fmt.Fprintf(&b, " %q", d.Name)
		}
		b.WriteString(": ")
	case d.NFA >= 0:
		fmt.Fprintf(&b, "nfa %d: ", d.NFA)
	}
	b.WriteString(d.Msg)
	if d.Fix != "" {
		fmt.Fprintf(&b, " (fix: %s)", d.Fix)
	}
	return b.String()
}

// Analyzer is one registered check.
type Analyzer struct {
	// Code is the stable diagnostic code ("AP001"…), unique in the
	// registry. All diagnostics the analyzer emits carry this code.
	Code string
	// Name is a short kebab-case identifier.
	Name string
	// Doc is a one-line description for -list output and documentation.
	Doc string
	// Default is the severity of a typical finding (individual diagnostics
	// may deviate, e.g. AP008 upgrades invalid start kinds to errors).
	Default Severity
	// NeedsSound marks analyzers that traverse successor edges and
	// therefore require a structurally sound network (no AP001 errors);
	// they are skipped, and recorded in Result.Skipped, otherwise.
	NeedsSound bool
	// NeedsPartition marks partition analyzers: they run only under
	// RunPartition, where Pass.Part is set.
	NeedsPartition bool
	// Run reports the analyzer's findings. The analyzer itself is passed
	// in so the implementation can stamp its code without referring to its
	// own package-level variable (which would be an initialization cycle).
	Run func(*Pass, *Analyzer) []Diagnostic
}

// registry holds every analyzer keyed by code.
var registry = map[string]*Analyzer{}

// Register installs an analyzer. It panics on duplicate codes — analyzers
// are registered from init functions, so a duplicate is a programming
// error.
func Register(a *Analyzer) {
	if a.Code == "" || a.Run == nil {
		panic("lint: analyzer without code or run function")
	}
	if _, dup := registry[a.Code]; dup {
		panic("lint: duplicate analyzer code " + a.Code)
	}
	registry[a.Code] = a
}

// All returns every registered analyzer sorted by code.
func All() []*Analyzer {
	out := make([]*Analyzer, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Lookup returns the analyzer owning a code, or nil.
func Lookup(code string) *Analyzer { return registry[code] }

// Options configures a lint run.
type Options struct {
	// Capacity, when positive, is the AP half-core STE capacity the
	// capacity analyzer (AP009) checks NFA sizes against; 0 disables it.
	Capacity int
	// Enable, when non-empty, restricts the run to these codes.
	Enable []string
	// Disable skips these codes.
	Disable []string
	// MinSeverity skips analyzers whose Default severity is lower, and
	// drops weaker diagnostics from the ones that run. The zero value
	// (Info) runs everything.
	MinSeverity Severity
	// Alphabet is the assumed input alphabet for the semantic analyzers
	// (AP017–AP021) and the hotness and worst-case ones that read their
	// facts; the zero value means the full 256-symbol alphabet.
	Alphabet symset.Set
}

func (o Options) wants(a *Analyzer) bool {
	if a.Default < o.MinSeverity {
		return false
	}
	for _, c := range o.Disable {
		if c == a.Code || c == a.Name {
			return false
		}
	}
	if len(o.Enable) == 0 {
		return true
	}
	for _, c := range o.Enable {
		if c == a.Code || c == a.Name {
			return true
		}
	}
	return false
}

// Pass carries one network (and optionally one partition) through the
// analyzers, memoizing the shared graph analyses so each is computed at
// most once per run.
type Pass struct {
	// Net is the network under analysis.
	Net *automata.Network
	// Opts is the run configuration.
	Opts Options
	// Part is the partition under analysis (RunPartition only).
	Part *PartitionInfo

	problems     []automata.Problem
	haveProblems bool
	topo         *graph.Topo
	reach        []bool
	coreach      []bool
	facts        *dataflow.Facts
	hot          *hotness.Analysis
	wc           *worstcase.Analysis
	wcWit        *worstcase.Witness
	wcRep        *worstcase.Replay
	wcWitDone    bool
}

// Problems returns the network's structural problems, computed once.
func (p *Pass) Problems() []automata.Problem {
	if !p.haveProblems {
		p.problems = p.Net.StructuralProblems()
		p.haveProblems = true
	}
	return p.problems
}

// Sound reports whether the network is structurally sound enough for
// edge-traversing analyzers (no offsets/range/cross-NFA/empty problems;
// missing start states are tolerated).
func (p *Pass) Sound() bool {
	for _, pr := range p.Problems() {
		if pr.Kind != automata.ProblemNoStart {
			return false
		}
	}
	return true
}

// Topo returns the layered topological order, computed once.
func (p *Pass) Topo() *graph.Topo {
	if p.topo == nil {
		p.topo = graph.TopoOrder(p.Net)
	}
	return p.topo
}

// Reach returns per-state reachability from start states, computed once.
func (p *Pass) Reach() []bool {
	if p.reach == nil {
		p.reach = graph.ReachableFromStarts(p.Net)
	}
	return p.reach
}

// CoReach returns, per state, whether some reporting state is reachable
// from it (reporting states co-reach themselves), computed once.
func (p *Pass) CoReach() []bool {
	if p.coreach == nil {
		n := p.Net
		co := make([]bool, n.Len())
		topo := p.Topo()
		var stack []automata.StateID
		for s := range n.States {
			if n.States[s].Report {
				co[s] = true
				stack = append(stack, automata.StateID(s))
			}
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range topo.Preds(u) {
				if !co[v] {
					co[v] = true
					stack = append(stack, v)
				}
			}
		}
		p.coreach = co
	}
	return p.coreach
}

// Facts returns the dataflow fixpoint facts (fire sets and liveness)
// under the configured alphabet, computed once. Callers must only use it
// from NeedsSound analyzers — the analysis traverses successor edges.
func (p *Pass) Facts() *dataflow.Facts {
	if p.facts == nil {
		p.facts = dataflow.Analyze(p.Net, p.Topo(), p.Opts.Alphabet)
	}
	return p.facts
}

// Hotness returns the static hotness analysis under the configured
// alphabet and the default weights, computed once. It
// shares the memoized Topo and Facts. Callers must only use it from
// NeedsSound analyzers.
func (p *Pass) Hotness() *hotness.Analysis {
	if p.hot == nil {
		p.hot = hotness.Analyze(p.Net, hotness.Config{
			Topo:  p.Topo(),
			Facts: p.Facts(),
		})
	}
	return p.hot
}

// WorstCase returns the worst-case frontier/report analysis under the
// configured alphabet, computed once at a lint-sized layer-3 budget (the
// bound is sound at any budget; a CLI wanting the tightest bound runs
// worstcase.Analyze itself). Callers must only use it from NeedsSound
// analyzers.
func (p *Pass) WorstCase() *worstcase.Analysis {
	if p.wc == nil {
		p.wc = worstcase.Analyze(p.Net, worstcase.Config{
			Alphabet:   p.Opts.Alphabet,
			Facts:      p.Facts(),
			GramBudget: lintGramBudget,
		})
	}
	return p.wc
}

// WorstCaseWitness returns the adversarial witness synthesized against
// the worst-case bound and its engine replay, computed once at a
// lint-sized search budget. Callers must only use it from NeedsSound
// analyzers.
func (p *Pass) WorstCaseWitness() (*worstcase.Witness, *worstcase.Replay) {
	if !p.wcWitDone {
		w, r := p.WorstCase().Certify(worstcase.WitnessOptions{
			MaxLen:   lintWitnessLen,
			TopK:     lintWitnessTopK,
			Patience: lintWitnessPatience,
		})
		p.wcWit, p.wcRep = w, r
		p.wcWitDone = true
	}
	return p.wcWit, p.wcRep
}

// stateDiag builds a state-level diagnostic, filling NFA index and name
// from the network.
func (p *Pass) stateDiag(a *Analyzer, sev Severity, s automata.StateID, msg, fix string) Diagnostic {
	nfa := -1
	name := ""
	if int(s) < len(p.Net.NFAOf) {
		nfa = int(p.Net.NFAOf[s])
	}
	if int(s) < p.Net.Len() {
		name = p.Net.States[s].Name
	}
	return Diagnostic{Code: a.Code, Severity: sev, NFA: nfa, State: s, Name: name, Msg: msg, Fix: fix}
}

// nfaDiag builds an NFA-level diagnostic.
func nfaDiag(a *Analyzer, sev Severity, nfa int, msg, fix string) Diagnostic {
	return Diagnostic{Code: a.Code, Severity: sev, NFA: nfa, State: automata.None, Msg: msg, Fix: fix}
}

// Result is the outcome of a lint run.
type Result struct {
	// Diags holds every finding, sorted by (NFA, state, code).
	Diags []Diagnostic
	// Skipped lists codes of NeedsSound analyzers that could not run
	// because the network is structurally broken.
	Skipped []string
}

// Counts returns the number of diagnostics per code.
func (r *Result) Counts() map[string]int {
	m := make(map[string]int)
	for _, d := range r.Diags {
		m[d.Code]++
	}
	return m
}

// Count returns the number of diagnostics at exactly the given severity.
func (r *Result) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// Summary renders a one-line severity tally ("2 errors, 1 warning"), or
// "clean" when there are no findings.
func (r *Result) Summary() string {
	if len(r.Diags) == 0 {
		return "clean"
	}
	var parts []string
	add := func(n int, word string) {
		if n == 0 {
			return
		}
		if n > 1 {
			word += "s"
		}
		parts = append(parts, fmt.Sprintf("%d %s", n, word))
	}
	add(r.Count(Error), "error")
	add(r.Count(Warning), "warning")
	if n := r.Count(Info); n > 0 {
		parts = append(parts, fmt.Sprintf("%d info", n))
	}
	return strings.Join(parts, ", ")
}

// Err returns nil when no Error-severity diagnostic was reported, and an
// error summarizing the first one (plus a count) otherwise. It is how the
// linter degrades back into the classic Validate/CheckInvariants contract.
func (r *Result) Err() error { return r.ErrAt(Error) }

// ErrAt is Err with a configurable threshold: it returns an error
// summarizing the first diagnostic at or above min severity (plus a
// count of the rest). Strict mode (aplint -strict) uses ErrAt(Warning),
// so the exit path counts exactly the diagnostics the summary shows.
func (r *Result) ErrAt(min Severity) error {
	first := -1
	n := 0
	for i, d := range r.Diags {
		if d.Severity >= min {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if first < 0 {
		return nil
	}
	if n == 1 {
		return fmt.Errorf("lint: %s", r.Diags[first])
	}
	return fmt.Errorf("lint: %s (and %d more findings at %s or above)", r.Diags[first], n-1, min)
}

// run executes the selected analyzers over an initialized pass.
func run(p *Pass, partition bool) *Result {
	res := &Result{}
	for _, a := range All() {
		if a.NeedsPartition != partition || !p.Opts.wants(a) {
			continue
		}
		if a.NeedsSound && !p.Sound() {
			res.Skipped = append(res.Skipped, a.Code)
			continue
		}
		for _, d := range a.Run(p, a) {
			if d.Severity >= p.Opts.MinSeverity {
				res.Diags = append(res.Diags, d)
			}
		}
	}
	SortDiagnostics(res.Diags)
	return res
}

// SortDiagnostics orders diagnostics by (NFA, state, code) — the
// canonical emission order of both the text and JSON outputs. Callers
// that concatenate results (cmd/aplint merging network and partition
// findings) re-sort with this before emitting.
func SortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.NFA != b.NFA {
			return a.NFA < b.NFA
		}
		if a.State != b.State {
			return a.State < b.State
		}
		return a.Code < b.Code
	})
}

// Run executes every applicable network analyzer over the network.
func Run(net *automata.Network, opts Options) *Result {
	return run(&Pass{Net: net, Opts: opts}, false)
}

// RunPartition executes every applicable partition analyzer over a hot/cold
// partition. The network analyzers are not re-run; lint the original
// network separately with Run.
func RunPartition(pi *PartitionInfo, opts Options) *Result {
	return run(&Pass{Net: pi.Net, Opts: opts, Part: pi}, true)
}
