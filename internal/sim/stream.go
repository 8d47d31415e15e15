package sim

import (
	"context"
	"fmt"

	"sparseap/internal/automata"
)

// DefaultStreamBuffer is a Streamer's report-buffer cap: 1<<20 reports
// (16 MiB at 16 bytes per report). A long-lived stream that neither sets
// OnReport nor drains TakeReports hits ErrReportOverflow at this bound
// instead of growing memory without limit.
const DefaultStreamBuffer = 1 << 20

// ErrReportOverflow is returned by Streamer.Write when the internal report
// buffer reaches its cap. Drain with TakeReports, or set OnReport to
// consume matches as they happen.
var ErrReportOverflow = fmt.Errorf("sim: streamer report buffer full (drain TakeReports or set OnReport)")

// Streamer adapts an Engine to incremental io.Writer-style feeding, so a
// matcher can sit inside a network pipeline and consume data as it
// arrives. The position counter persists across Write calls.
//
// Matches are delivered through OnReport when set; otherwise they
// accumulate in an internal buffer bounded at DefaultStreamBuffer and read
// with TakeReports. When the buffer is full Write stops at the overflowing
// symbol and returns ErrReportOverflow — memory use is bounded no matter
// how long the stream lives.
type Streamer struct {
	eng *Engine
	pos int64
	ctx context.Context
	cap int // DefaultStreamBuffer; in-package tests lower it
	buf []Report
	// OnReport receives each match as it happens; setting it bypasses the
	// internal buffer.
	OnReport func(pos int64, s automata.StateID)
	overflow bool
}

// NewStreamer builds a streaming matcher over net. Write polls no context
// until SetContext attaches one.
func NewStreamer(net *automata.Network) *Streamer {
	st := &Streamer{cap: DefaultStreamBuffer}
	st.eng = NewEngine(net, Options{})
	st.eng.OnReport = func(pos int64, s automata.StateID) {
		if st.OnReport != nil {
			st.OnReport(pos, s)
			return
		}
		if len(st.buf) < st.cap {
			st.buf = append(st.buf, Report{Pos: pos, State: s})
		} else {
			st.overflow = true
		}
	}
	return st
}

// Write consumes p, stopping early on buffer overflow or context
// cancellation; it returns how many bytes were consumed and the
// corresponding error (nil on a full write, so a Streamer can terminate
// io.Copy / MultiWriter plumbing in the happy path).
func (st *Streamer) Write(p []byte) (int, error) {
	// due is p up to where the next poll is: a quiet run is crossed no
	// further. It reports nothing, so only a step can overflow.
	due := p[:0]
	for i := 0; i < len(p); {
		if i >= len(due) {
			if st.ctx != nil && st.pos&(cancelCheckInterval-1) == 0 && cancelled(st.ctx) {
				return i, st.ctx.Err()
			}
			due = p[:min(len(p), i+cancelCheckInterval-int(st.pos&(cancelCheckInterval-1)))]
		}
		k := st.eng.Skip(due, i)
		if k == 0 {
			st.eng.Step(st.pos, p[i])
			k = 1
		}
		st.pos += int64(k)
		i += k
		if st.overflow {
			// The overflowing symbol was fully processed; reports beyond
			// the cap for it are lost, so surface the error at once.
			st.overflow = false
			return i, ErrReportOverflow
		}
	}
	return len(p), nil
}

// SetContext replaces the cancellation context polled by Write. A serving
// session outlives any single request: each reconnect restores the
// matcher and rebinds it to the new request's deadline with SetContext
// before feeding more input. A nil ctx disables cancellation polling.
func (st *Streamer) SetContext(ctx context.Context) { st.ctx = ctx }

// TakeReports returns the buffered reports and resets the buffer, freeing
// its capacity for further matches.
func (st *Streamer) TakeReports() []Report {
	out := st.buf
	st.buf = nil
	return out
}

// NumReports returns the total number of reports emitted since the last
// Reset, whether buffered, delivered to OnReport, or lost to overflow
// handling.
func (st *Streamer) NumReports() int64 { return st.eng.NumReports() }

// Pos returns the number of symbols consumed so far.
func (st *Streamer) Pos() int64 { return st.pos }

// Reset rewinds the matcher to position 0 with no enabled states beyond
// the start states and an empty report buffer.
func (st *Streamer) Reset() {
	st.eng.Reset()
	st.pos = 0
	st.buf = nil
	st.overflow = false
}
