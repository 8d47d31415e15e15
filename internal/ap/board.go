package ap

import (
	"fmt"

	"sparseap/internal/automata"
)

// Board models rank-level parallelism: a D480 chip carries two half-cores
// and boards carry many chips, all consuming the same input broadcast.
// Batches therefore execute HalfCores at a time — the baseline's
// re-execution cost shrinks by the board width, while per-half-core
// capacity (and the half-core NFA containment rule) is unchanged.
type Board struct {
	// HalfCore is the per-half-core configuration.
	HalfCore Config
	// HalfCores is the number of half-cores sharing the input broadcast.
	HalfCores int
}

// Validate checks the board description.
func (b Board) Validate() error {
	if err := b.HalfCore.Validate(); err != nil {
		return err
	}
	if b.HalfCores <= 0 {
		return fmt.Errorf("ap: board needs at least one half-core")
	}
	return nil
}

// Rounds returns how many input re-executions a batch sequence costs on
// this board: batches run HalfCores at a time.
func (b Board) Rounds(batches int) int {
	return (batches + b.HalfCores - 1) / b.HalfCores
}

// BaselineCycles returns the board-level baseline cycle count: rounds of
// batches, each streaming the entire input once.
func (b Board) BaselineCycles(net *automata.Network, inputLen int) (rounds int, cycles int64, err error) {
	if err := b.Validate(); err != nil {
		return 0, 0, err
	}
	batches, err := PartitionNFAs(net, b.HalfCore.Capacity)
	if err != nil {
		return 0, 0, err
	}
	rounds = b.Rounds(len(batches))
	return rounds, int64(rounds) * int64(inputLen), nil
}
