// Package exp implements the paper's evaluation (Section VI-VII): one
// driver per table and figure, sharing a Suite that caches the expensive
// per-application artifacts (generated networks, topological analyses,
// oracle hot sets, partitions, and executions).
//
// The experimental protocol follows Section IV-A: each application's input
// is split into two halves; profiling inputs are prefixes of the first half
// sized as a fraction of the *entire* input (0.1%, 1%, 10%, 50%), and the
// second half is the testing input — except for the start-of-data
// applications (Fermi, SPM), which use the entire input for the actual
// evaluation, as the paper's footnote prescribes.
package exp

import (
	"fmt"
	"sync"

	"sparseap/internal/ap"
	"sparseap/internal/bitvec"
	"sparseap/internal/graph"
	"sparseap/internal/hotcold"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/workloads"
)

// ProfileFractions are the profiling input sizes of Table I, as fractions
// of the entire input.
var ProfileFractions = []float64{0.001, 0.01, 0.1, 0.5}

// Suite shares generated applications and derived artifacts across
// experiments.
type Suite struct {
	WL  workloads.Config
	AP  ap.Config
	CPU spap.CPUModel

	mu   sync.Mutex
	apps map[string]*AppData
}

// NewSuite creates a suite with the given workload scaling and AP
// configuration.
func NewSuite(wl workloads.Config, apCfg ap.Config) *Suite {
	return &Suite{
		WL:   wl,
		AP:   apCfg,
		CPU:  spap.DefaultCPUModel(),
		apps: make(map[string]*AppData),
	}
}

// App returns (building and caching on first use) the data for one
// application.
func (s *Suite) App(abbr string) (*AppData, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.apps[abbr]; ok {
		return a, nil
	}
	app, err := workloads.Build(abbr, s.WL)
	if err != nil {
		return nil, err
	}
	a := &AppData{
		App:   app,
		suite: s,
		parts: make(map[partKey]*hotcold.Partition),
		execs: make(map[execKey]*spap.Result),
		bases: make(map[int]int),
	}
	s.apps[abbr] = a
	return a, nil
}

// Apps resolves a list of abbreviations.
func (s *Suite) Apps(abbrs []string) ([]*AppData, error) {
	out := make([]*AppData, 0, len(abbrs))
	for _, n := range abbrs {
		a, err := s.App(n)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

type partKey struct {
	frac     float64
	capacity int
}

type execKey struct {
	frac     float64
	capacity int
	cpu      bool
}

// AppData caches one application's derived artifacts. Its lazy caches are
// not synchronized: drive a given application from one goroutine at a time
// (Suite.App itself is safe for concurrent use).
type AppData struct {
	App   *workloads.App
	suite *Suite

	topo    *graph.Topo
	fullHot *bitvec.Vec
	testHot *bitvec.Vec
	parts   map[partKey]*hotcold.Partition
	execs   map[execKey]*spap.Result
	bases   map[int]int // capacity -> baseline batch count
}

// Abbr returns the application abbreviation.
func (a *AppData) Abbr() string { return a.App.Abbr }

// Topo returns the topological analysis of the network.
func (a *AppData) Topo() *graph.Topo {
	if a.topo == nil {
		a.topo = graph.TopoOrder(a.App.Net)
	}
	return a.topo
}

// FullHot returns the hot set under the entire input (Figures 1, 5, 8).
func (a *AppData) FullHot() *bitvec.Vec {
	if a.fullHot == nil {
		a.fullHot = sim.HotStates(a.App.Net, a.App.Input)
	}
	return a.fullHot
}

// TestInput returns the actual-evaluation input: the second half, or the
// entire input for start-of-data applications.
func (a *AppData) TestInput() []byte {
	if a.App.StartOfData {
		return a.App.Input
	}
	return a.App.Input[len(a.App.Input)/2:]
}

// TestHot returns the hot set under the testing input (Table I ground
// truth).
func (a *AppData) TestHot() *bitvec.Vec {
	if a.testHot == nil {
		a.testHot = sim.HotStates(a.App.Net, a.TestInput())
	}
	return a.testHot
}

// ProfileInput returns the profiling prefix sized as frac of the entire
// input, drawn from the first half.
func (a *AppData) ProfileInput(frac float64) []byte {
	n := int(frac * float64(len(a.App.Input)))
	if n < 1 {
		n = 1
	}
	if half := len(a.App.Input) / 2; n > half && !a.App.StartOfData {
		n = half
	}
	return a.App.Input[:n]
}

// Partition returns the partition built from the given profiling fraction
// with the batch-filling optimization at the given capacity.
func (a *AppData) Partition(frac float64, capacity int) (*hotcold.Partition, error) {
	key := partKey{frac: frac, capacity: capacity}
	if p, ok := a.parts[key]; ok {
		return p, nil
	}
	p, err := hotcold.BuildFromProfile(a.App.Net, a.ProfileInput(frac), hotcold.Options{Capacity: capacity})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Abbr(), err)
	}
	a.parts[key] = p
	return p, nil
}

// BaselineBatches returns the baseline batch count at the given capacity.
func (a *AppData) BaselineBatches(capacity int) (int, error) {
	if b, ok := a.bases[capacity]; ok {
		return b, nil
	}
	batches, err := ap.PartitionNFAs(a.App.Net, capacity)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", a.Abbr(), err)
	}
	a.bases[capacity] = len(batches)
	return len(batches), nil
}

// BaselineCycles returns the baseline cycle count over the testing input.
func (a *AppData) BaselineCycles(capacity int) (int64, error) {
	b, err := a.BaselineBatches(capacity)
	if err != nil {
		return 0, err
	}
	return int64(b) * int64(len(a.TestInput())), nil
}

// RunBaseAPSpAP executes the BaseAP/SpAP system at the given profiling
// fraction and capacity over the testing input.
func (a *AppData) RunBaseAPSpAP(frac float64, capacity int) (*spap.Result, error) {
	key := execKey{frac: frac, capacity: capacity}
	if r, ok := a.execs[key]; ok {
		return r, nil
	}
	p, err := a.Partition(frac, capacity)
	if err != nil {
		return nil, err
	}
	res, err := spap.RunBaseAPSpAP(p, a.TestInput(), a.suite.AP.WithCapacity(capacity), spap.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Abbr(), err)
	}
	a.execs[key] = res
	return res, nil
}

// RunAPCPU executes the AP-CPU system at the given profiling fraction and
// capacity over the testing input.
func (a *AppData) RunAPCPU(frac float64, capacity int) (*spap.Result, error) {
	key := execKey{frac: frac, capacity: capacity, cpu: true}
	if r, ok := a.execs[key]; ok {
		return r, nil
	}
	p, err := a.Partition(frac, capacity)
	if err != nil {
		return nil, err
	}
	res, err := spap.RunAPCPU(p, a.TestInput(), a.suite.AP.WithCapacity(capacity), a.suite.CPU, spap.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Abbr(), err)
	}
	a.execs[key] = res
	return res, nil
}

// SpeedupBaseAPSpAP returns baselineCycles / (BaseAP+SpAP cycles).
func (a *AppData) SpeedupBaseAPSpAP(frac float64, capacity int) (float64, error) {
	base, err := a.BaselineCycles(capacity)
	if err != nil {
		return 0, err
	}
	res, err := a.RunBaseAPSpAP(frac, capacity)
	if err != nil {
		return 0, err
	}
	return float64(base) / float64(res.TotalCycles), nil
}

// SpeedupAPCPU returns baselineTime / AP-CPU time.
func (a *AppData) SpeedupAPCPU(frac float64, capacity int) (float64, error) {
	base, err := a.BaselineCycles(capacity)
	if err != nil {
		return 0, err
	}
	res, err := a.RunAPCPU(frac, capacity)
	if err != nil {
		return 0, err
	}
	baseNS := float64(base) * a.suite.AP.CycleNS
	return baseNS / res.TimeNS, nil
}
