// Package hotness implements profile-free static hot/cold prediction: a
// probabilistic abstract interpretation over an automata network that
// estimates, from structure alone, how often each state activates — the
// information the paper otherwise extracts by profiling a 1% input prefix
// (Section IV-A).
//
// The analysis propagates expected per-cycle *activation mass* from the
// start states through the topology as a fixpoint over the SCC
// condensation, on the interval lattice [0,1]. (internal/dataflow's
// symbol-set fixpoint reduces to one reachability walk; these floats keep
// growing around a cycle, so a cyclic component iterates.)
//
//	drive(s)  = 1                   if s is a start-all-input state
//	drive(s)  = 1/horizon           if s is a start-of-data state
//	enable(s) = min(1, drive(s) + Σ_{p∈preds(s)} act(p))
//	act(s)    = enable(s) · q(s)
//
// where q(s) is dataflow's FireProb: the probability that one input
// symbol, drawn uniformly from the live alphabet, lands in the state's
// fire set (internal/dataflow's reachable-symbol refinement of the raw
// match set). The transfer function is monotone on [0,1]^S, so iterating
// each strongly connected component to a local fixpoint in condensation
// order converges; acyclic regions are visited exactly once.
//
// The converged activity is combined with cheap structural features
// (normalized topological depth, symbol-set width and match entropy,
// fan-in/out, cycle membership) into a per-state hotness score in [0,1],
// and the score thresholds into a per-NFA static partition layer k_U —
// hotcold.StrategyStatic.
package hotness

import (
	"math"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/dataflow"
	"sparseap/internal/graph"
	"sparseap/internal/symset"
)

// Weights combines the converged activity estimate with the structural
// features into the hotness score. Each feature is pre-squashed into
// [0,1]; the score is the clamped weighted sum.
type Weights struct {
	// Activity weighs the saturated expected-activation count
	// raw/(raw+1), where raw = act(s) × horizon. This is the dominant
	// term: raw ≥ 1 (the state is expected to fire at least once over
	// the horizon) alone crosses the 0.5 threshold.
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

// Config parameterizes the analysis. The zero value uses DefaultWeights
// and runs the topological and dataflow analyses itself.
type Config struct {
	// Weights combines activity and structure into the score; the zero
	// value means DefaultWeights.
	Weights Weights
	// Topo, when non-nil, reuses an existing topological analysis.
	Topo *graph.Topo
	// Facts, when non-nil, reuses an existing dataflow analysis, and with
	// it its alphabet; otherwise the full 256-symbol alphabet is assumed.
	Facts *dataflow.Facts
}

// Analysis constants.
const (
	// horizon is the number of input symbols the expected-activation
	// estimate raw = act × horizon refers to — the static stand-in for
	// the profiling prefix length: the paper's 1% prefix at the
	// repository's default 1/8 scale (0.01 × 131072 ≈ 1310).
	horizon float64 = 1310
	// threshold is the hot-score cutoff.
	threshold = 0.5
	// maxIter bounds per-SCC fixpoint sweeps.
	maxIter = 64
	// epsilon is the per-state fixpoint tolerance.
	epsilon = 1e-9
)

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
	// Cfg is the resolved configuration (default weights filled in).
	Cfg Config

	// FireP[s] = q(s) = Facts.FireProb(s): the probability that one input
	// symbol, uniform over the live alphabet, lies in state s's fire set.
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
	if cfg.Weights == (Weights{}) {
		cfg.Weights = DefaultWeights()
	}
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
		a.Facts = dataflow.Analyze(net, a.Topo, symset.All())
	}
	for s := range a.FireP {
		a.FireP[s] = a.Facts.FireProb(automata.StateID(s))
	}
	a.fixpoint()
	a.scoreAll()
	return a
}

// fixpoint iterates act(s) = min(1, drive + Σ act(pred)) · q(s) to
// convergence over the SCC condensation, walking the component numbers
// downward (a topological order, see graph.SCCResult.Comp) so each
// component's inputs are final when it runs. A component's value depends
// only on those final inputs, so any valid order yields the same floats.
func (a *Analysis) fixpoint() {
	n := a.Net
	scc := a.Topo.SCC

	drive := func(s automata.StateID) float64 {
		switch n.States[s].Start {
		case automata.StartAllInput:
			return 1
		case automata.StartOfData:
			return 1 / horizon
		}
		return 0
	}
	eval := func(s automata.StateID) float64 {
		enable := drive(s)
		for _, p := range a.Topo.Preds(s) {
			enable += a.Activity[p]
		}
		if enable > 1 {
			enable = 1
		}
		a.Iterations++
		return enable * a.FireP[s]
	}
	for c := int32(scc.NumComps) - 1; c >= 0; c-- {
		ms := scc.Members(c)
		if !scc.Cyclic[c] {
			a.Activity[ms[0]] = eval(ms[0])
			continue
		}
		// Cyclic component: iterate to a local fixpoint. Starting from
		// bottom (0) the sequence is monotone non-decreasing and
		// bounded by 1, so it converges; epsilon/maxIter bound the tail
		// when a cycle's product of fire probabilities approaches 1.
		for iter := 0; iter < maxIter; iter++ {
			delta := 0.0
			for _, s := range ms {
				v := eval(s)
				if d := math.Abs(v - a.Activity[s]); d > delta {
					delta = d
				}
				a.Activity[s] = v
			}
			if delta <= epsilon {
				break
			}
		}
	}
}

// scoreAll combines activity and structural features into Score.
func (a *Analysis) scoreAll() {
	n := a.Net
	scc := a.Topo.SCC
	w := a.Cfg.Weights
	for s := 0; s < n.Len(); s++ {
		id := automata.StateID(s)
		raw := a.Activity[s] * horizon
		sat := raw / (raw + 1)
		depth := a.Topo.NormalizedDepth(n, id)
		q := a.FireP[s]
		cyc := 0.0
		if scc.Cyclic[scc.Comp[s]] {
			cyc = 1
		}
		// The default weights give entropy none: skip the logarithms.
		// The term is then +0, as w.Entropy × H(q) would be.
		entropy := 0.0
		if w.Entropy != 0 {
			entropy = w.Entropy * binaryEntropy(q)
		}
		score := w.Activity*sat +
			w.Depth*(1-depth) +
			w.Width*q +
			entropy +
			w.FanIn*squashDegree(len(a.Topo.Preds(id))) +
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

// Hot returns the predicted hot set: states whose score reaches the
// threshold.
func (a *Analysis) Hot() *bitvec.Vec {
	v := bitvec.New(a.Net.Len())
	for s := 0; s < a.Net.Len(); s++ {
		if a.Score[s] >= threshold {
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
		if a.Score[s] < threshold {
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
