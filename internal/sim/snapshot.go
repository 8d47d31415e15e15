// Crash-consistent snapshot/restore for the execution engine.
//
// A Snapshot captures the complete dynamic state of an Engine between two
// Step calls: the frontier bitmap (the authoritative representation — the
// sparse list is a cache rematerialized on restore, and a pending start
// plan is written out as the bits it stands for, so the bytes do not say
// which kernel took them), the ever-enabled vector, the report cursor, and
// the kernel counters. Because reports are flushed within Step and the
// per-cycle buffers are empty between steps, a snapshot at input position P
// contains exactly the execution history of positions < P; the engine is
// deterministic, so restoring it and re-streaming from P yields a report
// stream bit-identical to the uninterrupted run — the equivalence bar the
// checkpoint layer proves.
//
// Capture cost is O(bitmap words + pending plan), with zero allocation in
// steady state (the Snapshot's buffers are reused across captures), so
// taking one every few thousand symbols is invisible next to the step
// kernel.
package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"sparseap/internal/checkpoint"
)

// SnapshotVersion is the binary format version of an encoded Snapshot.
// Bump it on any layout change; Decode rejects other versions.
const SnapshotVersion = 1

// ErrSnapshotMismatch is returned by Restore when the snapshot does not
// fit the engine's compiled image (different network or format drift).
var ErrSnapshotMismatch = errors.New("sim: snapshot does not match this engine's network")

// Snapshot is the serializable dynamic state of an Engine at an input
// position. Buffers are reused across captures into the same Snapshot.
type Snapshot struct {
	// N is the state count of the network the snapshot belongs to.
	N int
	// Pos is the number of input symbols fully processed.
	Pos int64
	// Frontier is the dynamic-enable bitmap (all-input starts excluded,
	// exactly as the engine tracks it).
	Frontier []uint64
	// FrontierLen is the bitmap's population count.
	FrontierLen int
	// Ever is the ever-enabled vector; nil when tracking was off.
	Ever []uint64
	// NumReports is the report cursor: reports emitted for positions
	// < Pos. Exactly-once delivery across a resume hinges on it — a
	// consumer that persists its progress as this cursor replays nothing
	// and skips nothing.
	NumReports int64
	// DenseSteps and SparseSteps are the kernel counters.
	DenseSteps, SparseSteps int64
}

// Snapshot captures the engine's dynamic state into `into` (allocated
// when nil) and stamps it with pos, the number of symbols processed so
// far. Must be called between Step calls, never from OnReport.
func (e *Engine) Snapshot(into *Snapshot, pos int64) *Snapshot {
	if into == nil {
		into = &Snapshot{}
	}
	into.N = e.img.n
	into.Pos = pos
	into.Frontier = append(into.Frontier[:0], e.cur...)
	into.FrontierLen = e.curLen
	for _, v := range e.pending() {
		w, m := int(v)>>6, uint64(1)<<(uint(v)&63)
		if into.Frontier[w]&m == 0 {
			into.Frontier[w] |= m
			into.FrontierLen++
		}
	}
	if e.ever != nil {
		into.Ever = append(into.Ever[:0], e.ever.Words()...)
	} else {
		into.Ever = nil
	}
	into.NumReports = e.numReports
	into.DenseSteps = e.denseSteps
	into.SparseSteps = e.sparseSteps
	return into
}

// Restore loads a snapshot into the engine, replacing all dynamic state:
// the next Step must be for input position s.Pos. The engine must be
// built over the same network the snapshot was taken from, and with
// matching ever-enabled tracking. Collected reports are cleared — the
// caller owns the persisted report prefix (see Snapshot.NumReports).
//
// Snapshots come back from disk and from replica peers, so everything the
// kernels will index with is checked on s before the engine is touched: a
// snapshot that does not fit returns ErrSnapshotMismatch and leaves the
// engine exactly as it was.
func (e *Engine) Restore(s *Snapshot) error {
	img := e.img
	if s.N != img.n || len(s.Frontier) != len(e.cur) {
		return fmt.Errorf("%w: snapshot for %d states, engine has %d", ErrSnapshotMismatch, s.N, img.n)
	}
	if (s.Ever != nil) != (e.ever != nil) {
		return fmt.Errorf("%w: ever-enabled tracking differs (snapshot %v, engine %v)",
			ErrSnapshotMismatch, s.Ever != nil, e.ever != nil)
	}
	if s.Ever != nil && (len(s.Ever) != len(s.Frontier) || pastEnd(s.Ever, img.n)) {
		return fmt.Errorf("%w: ever-enabled vector of %d words does not fit %d states", ErrSnapshotMismatch, len(s.Ever), img.n)
	}
	if pastEnd(s.Frontier, img.n) {
		return fmt.Errorf("%w: frontier bit past state %d", ErrSnapshotMismatch, img.n-1)
	}
	pop := 0
	for w, x := range s.Frontier {
		if x&img.allInput[w] != 0 {
			return fmt.Errorf("%w: all-input start in the frontier (word %d)", ErrSnapshotMismatch, w)
		}
		pop += bits.OnesCount64(x)
	}
	if pop != s.FrontierLen {
		return fmt.Errorf("%w: frontier popcount %d, recorded %d", ErrSnapshotMismatch, pop, s.FrontierLen)
	}
	copy(e.cur, s.Frontier)
	e.curLen = pop
	e.pendLen = 0
	e.materializeFrontier()
	for w := range e.nxt {
		e.nxt[w] = 0
	}
	e.next = e.next[:0]
	e.nxtLen = 0
	e.repBuf = e.repBuf[:0]
	e.reports = e.reports[:0]
	if e.ever != nil {
		e.ever.SetWords(s.Ever)
	}
	e.numReports = s.NumReports
	e.denseSteps = s.DenseSteps
	e.sparseSteps = s.SparseSteps
	return nil
}

// pastEnd reports whether a bitmap over n states has a bit set at or past
// state n (in the unused tail of its last word).
func pastEnd(words []uint64, n int) bool {
	return n&63 != 0 && len(words) > 0 && words[len(words)-1]>>(uint(n)&63) != 0
}

// Encode appends the snapshot to a checkpoint record.
func (s *Snapshot) Encode(e *checkpoint.Enc) {
	e.U32(SnapshotVersion)
	e.I64(int64(s.N))
	e.I64(s.Pos)
	e.U64s(s.Frontier)
	e.I64(int64(s.FrontierLen))
	e.Bool(s.Ever != nil)
	if s.Ever != nil {
		e.U64s(s.Ever)
	}
	e.I64(s.NumReports)
	e.I64(s.DenseSteps)
	e.I64(s.SparseSteps)
}

// Decode reads a snapshot from a checkpoint record into s (buffers are
// replaced, not reused — decode is the rare path).
func (s *Snapshot) Decode(d *checkpoint.Dec) error {
	if v := d.U32(); v != SnapshotVersion && d.Err() == nil {
		return fmt.Errorf("%w: snapshot version %d, want %d", ErrSnapshotMismatch, v, SnapshotVersion)
	}
	s.N = int(d.I64())
	s.Pos = d.I64()
	s.Frontier = d.U64s()
	s.FrontierLen = int(d.I64())
	if d.Bool() {
		s.Ever = d.U64s()
	} else {
		s.Ever = nil
	}
	s.NumReports = d.I64()
	s.DenseSteps = d.I64()
	s.SparseSteps = d.I64()
	return d.Err()
}

// Snapshot captures the streamer's matcher state (engine plus stream
// position) between Write calls. Undrained reports in the buffer are NOT part
// of the snapshot — drain TakeReports and persist them alongside it, or
// deliver through OnReport; Restore starts with an empty buffer either
// way, so a report is never replayed into the buffer twice.
func (st *Streamer) Snapshot(into *Snapshot) *Snapshot {
	return st.eng.Snapshot(into, st.pos)
}

// Restore loads a streamer snapshot: the next Write continues from
// stream position s.Pos with an empty report buffer and a cleared
// overflow condition.
func (st *Streamer) Restore(s *Snapshot) error {
	if err := st.eng.Restore(s); err != nil {
		return err
	}
	st.pos = s.Pos
	st.buf = st.buf[:0]
	st.overflow = false
	return nil
}
