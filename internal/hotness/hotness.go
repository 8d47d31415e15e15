// Package hotness implements profile-free static hot/cold prediction: a
// probabilistic abstract interpretation over an automata network that
// estimates, from structure alone, how often each state activates — the
// information the paper otherwise extracts by profiling a 1% input prefix
// (Section IV-A).
//
// The analysis propagates expected per-cycle *activation mass* from the
// start states through the topology as a fixpoint over the SCC
// condensation (the same iteration scheme as internal/dataflow, but over
// the interval lattice [0,1] instead of the symbol-set lattice):
//
//	drive(s)  = 1                   if s is a start-all-input state
//	drive(s)  = 1/Horizon           if s is a start-of-data state
//	enable(s) = min(1, drive(s) + Σ_{p∈preds(s)} act(p))
//	act(s)    = enable(s) · q(s)
//
// where q(s) is the probability that one input symbol lands in the
// state's fire set (internal/dataflow's reachable-symbol refinement of
// the raw match set), measured under a configurable input byte
// distribution restricted to the live alphabet — the uniform model by
// default, or an empirical histogram when the operator knows the traffic
// shape. The transfer function is monotone on [0,1]^S, so iterating each
// strongly connected component to a local fixpoint in condensation order
// converges; acyclic regions are visited exactly once.
//
// The converged activity is combined with cheap structural features
// (normalized topological depth, symbol-set width and match entropy,
// fan-in/out, cycle membership) into a per-state hotness score in [0,1],
// and the score thresholds into a per-NFA static partition layer k_U —
// hotcold.StrategyStatic.
package hotness

import (
	"math"
	"math/bits"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/dataflow"
	"sparseap/internal/graph"
	"sparseap/internal/symset"
)

// Model is an input byte distribution: Model[b] is the relative weight of
// symbol b (weights need not be normalized). The zero value means the
// uniform distribution over all 256 symbols.
type Model [symset.AlphabetSize]float64

// Uniform returns the uniform byte distribution.
func Uniform() Model {
	var m Model
	for i := range m {
		m[i] = 1
	}
	return m
}

// FromHistogram returns the empirical byte distribution of a sample
// stream, with add-half smoothing so unseen symbols keep a small nonzero
// mass (a static analysis should never conclude "impossible" from a
// finite sample). An empty sample yields the uniform model.
func FromHistogram(sample []byte) Model {
	var m Model
	if len(sample) == 0 {
		return Uniform()
	}
	for i := range m {
		m[i] = 0.5
	}
	for _, b := range sample {
		m[b]++
	}
	return m
}

// mass returns the total weight of the symbols in set.
func (m *Model) mass(set symset.Set) float64 {
	var t float64
	for w := 0; w < 4; w++ {
		word := set[w]
		for word != 0 {
			b := w*64 + bits.TrailingZeros64(word)
			t += m[b]
			word &= word - 1
		}
	}
	return t
}

// ProbWithin returns the probability that a symbol drawn from the model,
// conditioned on landing inside universe, lands inside set. An empty or
// zero-mass universe yields 0. The zero-value model behaves uniformly.
func (m *Model) ProbWithin(set, universe symset.Set) float64 {
	m = m.orUniform()
	if u := m.mass(universe); u != 0 {
		return m.mass(set.Intersect(universe)) / u
	}
	return 0
}

// orUniform resolves the "uniform by default" zero value: it returns m
// unless every weight is zero, and the uniform model then.
func (m *Model) orUniform() *Model {
	for _, w := range m {
		if w != 0 {
			return m
		}
	}
	u := Uniform()
	return &u
}

// Weights combines the converged activity estimate with the structural
// features into the hotness score. Each feature is pre-squashed into
// [0,1]; the score is the clamped weighted sum.
type Weights struct {
	// Activity weighs the saturated expected-activation count
	// raw/(raw+1), where raw = act(s) × Horizon. This is the dominant
	// term: raw ≥ 1 (the state is expected to fire at least once over
	// the horizon) alone crosses the default 0.5 threshold.
	Activity float64
	// Depth weighs shallowness, 1 − NormalizedDepth (Section III-B:
	// shallow states are empirically hot).
	Depth float64
	// Width weighs the fire-set probability q(s) itself — wide matchers
	// stay warm even when the enabling chain is thin.
	Width float64
	// Entropy weighs the binary entropy of q(s): states whose match
	// event is maximally uncertain contribute prediction risk, so a
	// positive weight hedges them into the hot set.
	Entropy float64
	// FanIn and FanOut weigh squashed degree counts (x/(x+8)): hubs
	// accumulate and spread activation mass.
	FanIn  float64
	FanOut float64
	// Cycle weighs SCC/self-loop membership: a state inside a cycle
	// re-enables itself and tends to stay hot once struck.
	Cycle float64
	// Bias shifts every score.
	Bias float64
}

// DefaultWeights returns the weights tuned on the 26-application suite
// (see internal/exp.Predict): activity dominates, with small structural
// boosts for shallow, wide, well-connected and cyclic states.
func DefaultWeights() Weights {
	return Weights{
		Activity: 1.0,
		Depth:    0.10,
		Width:    0.05,
		Entropy:  0,
		FanIn:    0.02,
		FanOut:   0.02,
		Cycle:    0.05,
		Bias:     0,
	}
}

// Config parameterizes the analysis. The zero value uses the uniform
// input model, DefaultWeights, DefaultHorizon and DefaultThreshold.
type Config struct {
	// Model is the assumed input byte distribution (zero = uniform).
	Model Model
	// Weights combines activity and structure into the score; the zero
	// value means DefaultWeights.
	Weights Weights
	// Horizon is the number of input symbols the expected-activation
	// estimate raw = act × Horizon refers to — the static stand-in for
	// the profiling prefix length. 0 means DefaultHorizon.
	Horizon float64
	// Threshold is the score at or above which a state is predicted
	// hot. 0 means DefaultThreshold.
	Threshold float64
	// Alphabet restricts the underlying dataflow analysis; zero means
	// the full 256-symbol alphabet (matching lint.Options).
	Alphabet symset.Set
	// MaxIter caps fixpoint sweeps per strongly connected component; 0
	// means DefaultMaxIter.
	MaxIter int
	// Epsilon is the per-state convergence tolerance; 0 means
	// DefaultEpsilon.
	Epsilon float64
	// Topo, when non-nil, reuses an existing topological analysis.
	Topo *graph.Topo
	// Facts, when non-nil, reuses an existing dataflow analysis (its
	// alphabet wins over Alphabet).
	Facts *dataflow.Facts
}

// Analysis defaults.
const (
	// DefaultHorizon approximates the paper's 1% profiling prefix at
	// the repository's default 1/8 scale (0.01 × 131072 ≈ 1310).
	DefaultHorizon = 1310
	// DefaultThreshold is the hot-score cutoff.
	DefaultThreshold = 0.5
	// DefaultMaxIter bounds per-SCC fixpoint sweeps.
	DefaultMaxIter = 64
	// DefaultEpsilon is the per-state fixpoint tolerance.
	DefaultEpsilon = 1e-9
)

func (c Config) withDefaults() Config {
	if c.Weights == (Weights{}) {
		c.Weights = DefaultWeights()
	}
	if c.Horizon <= 0 {
		c.Horizon = DefaultHorizon
	}
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MaxIter <= 0 {
		c.MaxIter = DefaultMaxIter
	}
	if c.Epsilon <= 0 {
		c.Epsilon = DefaultEpsilon
	}
	return c
}

// Analysis holds the per-state results over one network. Slices are
// indexed by global state ID.
type Analysis struct {
	// Net is the analyzed network.
	Net *automata.Network
	// Topo is the layered topological order used for depth features and
	// cut selection.
	Topo *graph.Topo
	// Facts is the dataflow analysis supplying fire sets.
	Facts *dataflow.Facts
	// Cfg is the resolved configuration (defaults filled in).
	Cfg Config

	// FireP[s] = q(s): the model probability that one input symbol lies
	// in state s's fire set, conditioned on the live alphabet.
	FireP []float64
	// Activity[s] is the converged expected per-cycle activation mass.
	Activity []float64
	// Score[s] is the combined hotness score in [0,1].
	Score []float64
	// Iterations counts state re-evaluations of the fixpoint.
	Iterations int
}

// Analyze runs the activity fixpoint and scores every state.
func Analyze(net *automata.Network, cfg Config) *Analysis {
	cfg = cfg.withDefaults()
	a := &Analysis{
		Net:      net,
		Topo:     cfg.Topo,
		Facts:    cfg.Facts,
		Cfg:      cfg,
		FireP:    make([]float64, net.Len()),
		Activity: make([]float64, net.Len()),
		Score:    make([]float64, net.Len()),
	}
	if a.Topo == nil {
		a.Topo = graph.TopoOrder(net)
	}
	if a.Facts == nil {
		a.Facts = dataflow.Analyze(net, a.Topo, cfg.Alphabet)
	}
	// The model (2 KiB) and the live alphabet's mass are the same for
	// every state: resolve both once.
	model := cfg.Model.orUniform()
	live := a.Facts.LiveAlphabet()
	if total := model.mass(live); total != 0 {
		for s, fire := range a.Facts.Fire {
			a.FireP[s] = model.mass(fire.Intersect(live)) / total
		}
	}
	a.fixpoint()
	a.scoreAll()
	return a
}

// fixpoint iterates act(s) = min(1, drive + Σ act(pred)) · q(s) to
// convergence over the SCC condensation, walking Topo.CompOrder so each
// component's inputs are final when it runs. A component's value depends
// only on those final inputs, so any valid order yields the same floats.
func (a *Analysis) fixpoint() {
	n := a.Net
	scc := a.Topo.SCC
	preds := n.Preds()

	drive := func(s automata.StateID) float64 {
		switch n.States[s].Start {
		case automata.StartAllInput:
			return 1
		case automata.StartOfData:
			return 1 / a.Cfg.Horizon
		}
		return 0
	}
	eval := func(s automata.StateID) float64 {
		enable := drive(s)
		for _, p := range preds[s] {
			enable += a.Activity[p]
		}
		if enable > 1 {
			enable = 1
		}
		a.Iterations++
		return enable * a.FireP[s]
	}
	for _, c := range a.Topo.CompOrder {
		ms := scc.Members(c)
		if !scc.Cyclic[c] {
			a.Activity[ms[0]] = eval(ms[0])
			continue
		}
		// Cyclic component: iterate to a local fixpoint. Starting from
		// bottom (0) the sequence is monotone non-decreasing and
		// bounded by 1, so it converges; Epsilon/MaxIter bound the tail
		// when a cycle's product of fire probabilities approaches 1.
		for iter := 0; iter < a.Cfg.MaxIter; iter++ {
			delta := 0.0
			for _, s := range ms {
				v := eval(s)
				if d := math.Abs(v - a.Activity[s]); d > delta {
					delta = d
				}
				a.Activity[s] = v
			}
			if delta <= a.Cfg.Epsilon {
				break
			}
		}
	}
}

// scoreAll combines activity and structural features into Score.
func (a *Analysis) scoreAll() {
	n := a.Net
	preds := n.Preds()
	scc := a.Topo.SCC
	w := a.Cfg.Weights
	for s := 0; s < n.Len(); s++ {
		id := automata.StateID(s)
		raw := a.Activity[s] * a.Cfg.Horizon
		sat := raw / (raw + 1)
		depth := a.Topo.NormalizedDepth(n, id)
		q := a.FireP[s]
		cyc := 0.0
		if scc.Cyclic[scc.Comp[s]] {
			cyc = 1
		}
		score := w.Activity*sat +
			w.Depth*(1-depth) +
			w.Width*q +
			w.Entropy*binaryEntropy(q) +
			w.FanIn*squashDegree(len(preds[s])) +
			w.FanOut*squashDegree(len(n.States[s].Succ)) +
			w.Cycle*cyc +
			w.Bias
		if score < 0 {
			score = 0
		} else if score > 1 {
			score = 1
		}
		a.Score[s] = score
	}
}

// binaryEntropy is H(q) in bits, 0 at q ∈ {0, 1}.
func binaryEntropy(q float64) float64 {
	if q <= 0 || q >= 1 {
		return 0
	}
	return -(q*math.Log2(q) + (1-q)*math.Log2(1-q))
}

// squashDegree maps a degree count into [0,1).
func squashDegree(d int) float64 {
	x := float64(d)
	return x / (x + 8)
}

// ExpectedActivations returns act(s) × Horizon: how many times the state
// is expected to fire over one horizon of input.
func (a *Analysis) ExpectedActivations(s automata.StateID) float64 {
	return a.Activity[s] * a.Cfg.Horizon
}

// Hot returns the predicted hot set: states whose score reaches the
// configured threshold.
func (a *Analysis) Hot() *bitvec.Vec {
	v := bitvec.New(a.Net.Len())
	for s := 0; s < a.Net.Len(); s++ {
		if a.Score[s] >= a.Cfg.Threshold {
			v.Set(s)
		}
	}
	return v
}

// HotFrac returns the predicted hot fraction of the network (0 for an
// empty network).
func (a *Analysis) HotFrac() float64 {
	if a.Net.Len() == 0 {
		return 0
	}
	return float64(a.Hot().Count()) / float64(a.Net.Len())
}

// Layers returns the static partition layer k_U of every NFA: the
// maximum topological order of any predicted-hot state, at least 1 (the
// start layer is hot by construction — start states carry drive mass).
// The result is not SCC-aligned; hotcold.Layers applies the same
// alignment it applies to the other behaviour-blind strategies.
func (a *Analysis) Layers() []int32 {
	k := make([]int32, a.Net.NumNFAs())
	for s := 0; s < a.Net.Len(); s++ {
		if a.Score[s] < a.Cfg.Threshold {
			continue
		}
		u := a.Net.NFAOf[s]
		if o := a.Topo.Order[s]; o > k[u] {
			k[u] = o
		}
	}
	for i := range k {
		if k[i] == 0 {
			k[i] = 1
		}
	}
	return k
}

// ResidualActivity returns, for NFA u, the total per-cycle activation
// mass of states strictly above the cut layer k — the analysis's
// estimate of the misprediction (intermediate-report) density the cut
// will pay per input symbol.
func (a *Analysis) ResidualActivity(u int, k int32) float64 {
	lo, hi := a.Net.NFAStates(u)
	var t float64
	for s := lo; s < hi; s++ {
		if a.Topo.Order[s] > k {
			t += a.Activity[s]
		}
	}
	return t
}
