package sparseap

import (
	"sparseap/internal/rewrite"
	"sparseap/internal/sim"
)

// This file exposes the toolchain extensions around the core pipeline:
// compile-time automata minimization and streaming matching.

// MinimizeStats summarizes a Minimize run: states/edges/NFAs before and
// after, and what each rewrite phase removed.
type MinimizeStats = rewrite.Stats

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

// Streamer is an incremental matcher implementing io.Writer; reports are
// delivered through its OnReport callback as input arrives, or buffered
// (bounded, see sim.DefaultStreamBuffer) for TakeReports otherwise.
type Streamer = sim.Streamer

// ErrReportOverflow is returned by Streamer.Write when the bounded report
// buffer fills up.
var ErrReportOverflow = sim.ErrReportOverflow

// NewStreamer builds a streaming matcher over net; Streamer.SetContext
// attaches a cancellation context.
func NewStreamer(net *Network) *Streamer { return sim.NewStreamer(net) }
