package hotcold

import (
	"fmt"
	"math"

	"sparseap/internal/automata"
	"sparseap/internal/bitvec"
	"sparseap/internal/graph"
	"sparseap/internal/hotness"
)

// Strategy selects how partition layers are chosen. The paper's scheme is
// StrategyProfiled; the others are ablation baselines quantifying what the
// profiling information buys.
type Strategy int

const (
	// StrategyProfiled is the paper's Section IV-B scheme: k_U is the
	// maximum topological order of any state the profiling input enabled.
	StrategyProfiled Strategy = iota
	// StrategyFixedLayers cuts every NFA at the same absolute layer
	// (param = layer count), ignoring runtime behaviour entirely.
	StrategyFixedLayers
	// StrategyNormalizedDepth cuts every NFA at the same normalized depth
	// (param in (0,1]): k_U = ceil(param × MaxTopo_U). This uses the
	// Section III-B correlation but no profiling.
	StrategyNormalizedDepth
	// StrategyOracle chooses k_U from the hot set of the *actual* test
	// input — the unattainable upper bound of Section III-C.
	StrategyOracle
	// StrategyStatic predicts the hot set from structure alone via the
	// internal/hotness abstract interpretation — zero profiling cost.
	StrategyStatic
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyProfiled:
		return "profiled"
	case StrategyFixedLayers:
		return "fixed-layers"
	case StrategyNormalizedDepth:
		return "normalized-depth"
	case StrategyOracle:
		return "oracle"
	case StrategyStatic:
		return "static"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyInput bundles what each strategy needs.
type StrategyInput struct {
	// ProfiledHot is the profiling-run hot set (StrategyProfiled).
	ProfiledHot *bitvec.Vec
	// OracleHot is the test-input hot set (StrategyOracle).
	OracleHot *bitvec.Vec
	// Param is the layer count (StrategyFixedLayers) or normalized depth
	// threshold (StrategyNormalizedDepth).
	Param float64
}

// Layers computes per-NFA partition layers under the given strategy.
func Layers(net *automata.Network, topo *graph.Topo, s Strategy, in StrategyInput) ([]int32, error) {
	switch s {
	case StrategyProfiled:
		if in.ProfiledHot == nil {
			return nil, fmt.Errorf("hotcold: %v needs ProfiledHot", s)
		}
		if net.Len() > 0 && in.ProfiledHot.Count() == 0 {
			return nil, fmt.Errorf("hotcold: %v got an empty ProfiledHot set (a profiling run always enables start states; an empty set means the profile is missing, and cutting at layer 0 would be silently wrong)", s)
		}
		return PartitionLayers(net, topo, in.ProfiledHot), nil
	case StrategyOracle:
		if in.OracleHot == nil {
			return nil, fmt.Errorf("hotcold: %v needs OracleHot", s)
		}
		if net.Len() > 0 && in.OracleHot.Count() == 0 {
			return nil, fmt.Errorf("hotcold: %v got an empty OracleHot set", s)
		}
		return PartitionLayers(net, topo, in.OracleHot), nil
	case StrategyStatic:
		a := hotness.Analyze(net, hotness.Config{Topo: topo})
		// The analysis floors each cut at layer 1; alignToSCCs then
		// raises it over deep-seated start states exactly as for the
		// other behaviour-blind strategies.
		return alignToSCCs(net, topo, a.Layers()), nil
	case StrategyFixedLayers:
		if in.Param < 1 {
			return nil, fmt.Errorf("hotcold: %v needs Param >= 1", s)
		}
		k := make([]int32, net.NumNFAs())
		for u := range k {
			k[u] = int32(in.Param)
			if k[u] > topo.MaxPerNFA[u] {
				k[u] = topo.MaxPerNFA[u]
			}
		}
		return alignToSCCs(net, topo, k), nil
	case StrategyNormalizedDepth:
		if in.Param <= 0 || in.Param > 1 {
			return nil, fmt.Errorf("hotcold: %v needs Param in (0,1]", s)
		}
		k := make([]int32, net.NumNFAs())
		for u := range k {
			k[u] = int32(math.Ceil(in.Param * float64(topo.MaxPerNFA[u])))
			if k[u] < 1 {
				k[u] = 1
			}
		}
		return alignToSCCs(net, topo, k), nil
	}
	return nil, fmt.Errorf("hotcold: unknown strategy %v", s)
}

// alignToSCCs raises layers so that every start state stays in the hot set
// regardless of the (behaviour-blind) cut choice. Profiled/oracle layers
// satisfy this by construction; fixed cuts might not when a start state
// sits inside a deep SCC.
func alignToSCCs(net *automata.Network, topo *graph.Topo, k []int32) []int32 {
	for s := 0; s < net.Len(); s++ {
		if net.States[s].Start == automata.StartNone {
			continue
		}
		u := net.NFAOf[s]
		if topo.Order[s] > k[u] {
			k[u] = topo.Order[s]
		}
	}
	return k
}

// BuildWithStrategy is Build parameterized by strategy.
func BuildWithStrategy(net *automata.Network, s Strategy, in StrategyInput, opts Options) (*Partition, error) {
	topo := graph.TopoOrder(net)
	k, err := Layers(net, topo, s, in)
	if err != nil {
		return nil, err
	}
	return Build(net, topo, k, opts)
}
