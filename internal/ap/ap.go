// Package ap models the Automata Processor hardware of Section II-B: a
// DRAM-based spatial fabric where each NFA state occupies one STE (a
// 256-row memory column), a half-core holds a fixed number of STEs, and an
// application larger than the half-core runs as a sequence of batches, each
// re-streaming the entire input at one symbol per cycle.
//
// The package provides the capacity/batching/cycle-accounting model, the
// hierarchical block/row/STE addressing used by the SpAP enable operation,
// and the baseline batched execution the paper compares against.
package ap

import (
	"context"
	"fmt"
	"sort"

	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/sim"
)

// Config describes one AP half-core (the paper's basic processing unit).
type Config struct {
	// Capacity is the number of STEs (NFA states) the half-core holds.
	// The paper's half-core holds 24K; experiments here default to the
	// 1/8-scaled 3K (see DESIGN.md).
	Capacity int
	// CycleNS is the symbol cycle time in nanoseconds (7.5 in the paper).
	CycleNS float64
	// Blocks, RowsPerBlock and STEsPerRow describe the routing-matrix
	// hierarchy used by the SpAP enable decoder (96 × 16 × 16 = 24K).
	Blocks       int
	RowsPerBlock int
	STEsPerRow   int
	// ReportQueueLen is the on-chip intermediate-report queue length
	// (128 entries × 6 bytes in the paper).
	ReportQueueLen int
	// EnablePorts is the number of simultaneous SpAP enable operations
	// that can overlap with one input cycle. The paper's design has 1
	// (each extra same-position report stalls a cycle); higher values
	// model a wider enable decoder for sensitivity studies.
	EnablePorts int
	// ReconfigNS is the board reconfiguration latency (50 ms in the
	// paper); the evaluation excludes it, as the paper does, but the
	// model exposes it for sensitivity studies.
	ReconfigNS float64
}

// DefaultConfig returns the paper's half-core scaled by 1/8: 3K STEs with
// a proportionally scaled block hierarchy. Timing parameters are unscaled.
func DefaultConfig() Config {
	return Config{
		Capacity:       3000,
		CycleNS:        7.5,
		Blocks:         12,
		RowsPerBlock:   16,
		STEsPerRow:     16,
		ReportQueueLen: 128,
		EnablePorts:    1,
		ReconfigNS:     50e6,
	}
}

// PaperConfig returns the unscaled 24K half-core of the paper.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Capacity = 24000
	c.Blocks = 96
	return c
}

// WithCapacity returns a copy of c with the given STE capacity and a block
// count scaled to cover it.
func (c Config) WithCapacity(capacity int) Config {
	c.Capacity = capacity
	per := c.RowsPerBlock * c.STEsPerRow
	c.Blocks = (capacity + per - 1) / per
	return c
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("ap: capacity must be positive")
	}
	if c.Blocks*c.RowsPerBlock*c.STEsPerRow < c.Capacity {
		return fmt.Errorf("ap: hierarchy %d×%d×%d holds fewer STEs than capacity %d",
			c.Blocks, c.RowsPerBlock, c.STEsPerRow, c.Capacity)
	}
	if c.ReportQueueLen <= 0 {
		return fmt.Errorf("ap: report queue must be positive")
	}
	if c.EnablePorts <= 0 {
		return fmt.Errorf("ap: enable ports must be positive")
	}
	return nil
}

// Address is a hierarchical STE address: the SpAP enable operation selects
// the block, then the row, then the STE (Section V-B).
type Address struct {
	Block int
	Row   int
	STE   int
}

// EncodeAddress packs an address into the 16-bit state-ID wire format used
// by the enable decoders: 8 bits of block, 4 of row, 4 of STE.
func (c Config) EncodeAddress(a Address) (uint16, error) {
	if a.Block < 0 || a.Block >= c.Blocks || a.Row < 0 || a.Row >= c.RowsPerBlock ||
		a.STE < 0 || a.STE >= c.STEsPerRow {
		return 0, fmt.Errorf("ap: address %+v outside hierarchy", a)
	}
	if c.RowsPerBlock > 16 || c.STEsPerRow > 16 || c.Blocks > 256 {
		return 0, fmt.Errorf("ap: hierarchy too large for 16-bit addresses")
	}
	return uint16(a.Block)<<8 | uint16(a.Row)<<4 | uint16(a.STE), nil
}

// DecodeAddress unpacks a 16-bit state ID into a hierarchical address.
func (c Config) DecodeAddress(w uint16) Address {
	return Address{Block: int(w >> 8), Row: int(w >> 4 & 0xf), STE: int(w & 0xf)}
}

// AddressOf returns the hierarchical address of the i-th STE placed in a
// half-core under row-major placement.
func (c Config) AddressOf(i int) (Address, error) {
	if i < 0 || i >= c.Capacity {
		return Address{}, fmt.Errorf("ap: STE index %d outside capacity %d", i, c.Capacity)
	}
	perBlock := c.RowsPerBlock * c.STEsPerRow
	return Address{
		Block: i / perBlock,
		Row:   i % perBlock / c.STEsPerRow,
		STE:   i % c.STEsPerRow,
	}, nil
}

// Batch is one AP configuration: a set of NFA indices that collectively fit
// in the half-core.
type Batch struct {
	NFAs   []int
	States int
}

// PartitionNFAs packs the network's NFAs into batches of at most capacity
// states using first-fit decreasing, the standard bin-packing heuristic for
// the AP compiler's NFA-granularity placement. It fails if any single NFA
// exceeds the capacity.
func PartitionNFAs(net *automata.Network, capacity int) ([]Batch, error) {
	type item struct{ idx, size int }
	items := make([]item, net.NumNFAs())
	for i := range items {
		items[i] = item{idx: i, size: net.NFASize(i)}
		if items[i].size > capacity {
			return nil, fmt.Errorf("ap: NFA %d has %d states, exceeding half-core capacity %d",
				i, items[i].size, capacity)
		}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].size != items[b].size {
			return items[a].size > items[b].size
		}
		return items[a].idx < items[b].idx
	})
	var batches []Batch
	for _, it := range items {
		placed := false
		for bi := range batches {
			if batches[bi].States+it.size <= capacity {
				batches[bi].NFAs = append(batches[bi].NFAs, it.idx)
				batches[bi].States += it.size
				placed = true
				break
			}
		}
		if !placed {
			batches = append(batches, Batch{NFAs: []int{it.idx}, States: it.size})
		}
	}
	for bi := range batches {
		sort.Ints(batches[bi].NFAs)
	}
	return batches, nil
}

// BaselineResult summarizes the baseline batched AP execution.
type BaselineResult struct {
	// Batches is the number of configurations (Table IV column 1).
	Batches int
	// Cycles is Batches × input length: each batch re-streams the input.
	Cycles int64
	// Reports is the total number of reports across batches.
	Reports int64
	// TimeNS is Cycles × CycleNS.
	TimeNS float64
}

// RunBaseline executes the baseline AP system: the network is packed into
// NFA-granularity batches and each batch consumes the entire input. Reports
// are produced functionally (they are identical to a single full-network
// pass because batches are independent); cycles follow the batching model.
func RunBaseline(net *automata.Network, input []byte, cfg Config) (*BaselineResult, error) {
	res, _, err := RunBaselineContext(context.Background(), net, input, cfg, false, nil)
	return res, err
}

// RunBaselineContext is RunBaseline with cancellation and durable
// checkpoints: the simulation pass (sim.RunContext) polls ctx, snapshots
// its engine through ck every Runner.Every symbols, and resumes from the
// newest valid checkpoint instead of re-streaming from symbol 0; a nil ck
// checkpoints nothing. The batching model is unchanged — every batch is
// charged for the symbols processed — so a resumed run returns what an
// uninterrupted one does. When collect is true the report stream
// (restored prefix + re-run suffix, bit-identical to an uninterrupted
// run's) is returned alongside the summary. On cancellation or an injected
// crash the partial result is returned with the error; the result is nil
// only for configuration, partitioning or checkpoint-load errors.
func RunBaselineContext(ctx context.Context, net *automata.Network, input []byte, cfg Config, collect bool, ck *checkpoint.Runner) (*BaselineResult, []sim.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	batches, err := PartitionNFAs(net, cfg.Capacity)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.RunContext(ctx, net, input, sim.Options{CollectReports: collect}, ck)
	if res == nil {
		return nil, nil, err
	}
	return &BaselineResult{
		Batches: len(batches),
		Cycles:  int64(len(batches)) * res.Symbols,
		Reports: res.NumReports,
		TimeNS:  float64(len(batches)) * float64(res.Symbols) * cfg.CycleNS,
	}, res.Reports, err
}

// BaselineCycles returns the cycle count of the batching model without
// running the simulator (used by sweeps that only need timing).
func BaselineCycles(net *automata.Network, inputLen int, capacity int) (batches int, cycles int64, err error) {
	bs, err := PartitionNFAs(net, capacity)
	if err != nil {
		return 0, 0, err
	}
	return len(bs), int64(len(bs)) * int64(inputLen), nil
}

// Throughput returns symbols per cycle for a run of the given cycle count
// over inputLen symbols.
func Throughput(inputLen int, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(inputLen) / float64(cycles)
}

// PerfPerSTE is the paper's performance-per-STE metric: throughput divided
// by the half-core capacity, a proxy for performance per die area.
func PerfPerSTE(inputLen int, cycles int64, capacity int) float64 {
	return Throughput(inputLen, cycles) / float64(capacity)
}
