package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// everyA builds a one-state network reporting on every 'a'.
func everyA() *automata.Network {
	m := automata.NewNFA()
	m.Add(symset.Single('a'), automata.StartAllInput, true)
	return automata.NewNetwork(m)
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := bytes.Repeat([]byte("a"), 3*cancelCheckInterval)
	res, err := RunContext(ctx, everyA(), input, Options{CollectReports: true}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result must be non-nil")
	}
	if res.Symbols != 0 {
		t.Errorf("pre-cancelled run processed %d symbols, want 0", res.Symbols)
	}
	// The partial result stays internally consistent.
	if int64(len(res.Reports)) != res.NumReports {
		t.Errorf("reports %d != NumReports %d", len(res.Reports), res.NumReports)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	input := bytes.Repeat([]byte("a"), 64*cancelCheckInterval)
	// Cancel from the report callback partway through: deterministic, and
	// the loop must notice within one cancelCheckInterval.
	net := everyA()
	e := NewEngine(net, Options{})
	fired := int64(0)
	e.OnReport = func(pos int64, s automata.StateID) {
		if fired++; fired == 10*cancelCheckInterval {
			cancel()
		}
	}
	processed := int64(0)
	for i, b := range input {
		if i&(cancelCheckInterval-1) == 0 && cancelled(ctx) {
			break
		}
		e.Step(int64(i), b)
		processed++
	}
	if processed >= int64(len(input)) {
		t.Fatal("run was not cut short by cancellation")
	}
	if processed > 11*cancelCheckInterval {
		t.Errorf("run overshot cancellation by %d symbols", processed-10*cancelCheckInterval)
	}
	cancel()
}

func TestStreamerMatchesBatch(t *testing.T) {
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	b := m.Add(symset.Single('b'), automata.StartNone, true)
	m.Connect(a, b)
	net := automata.NewNetwork(m)

	var got []Report
	st := NewStreamer(net)
	st.OnReport = func(pos int64, s automata.StateID) {
		got = append(got, Report{Pos: pos, State: s})
	}
	// Feed in awkward fragments, crossing the "ab" boundary.
	if _, err := io.Copy(st, strings.NewReader("xa")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("bxxab")); err != nil {
		t.Fatal(err)
	}
	want := Run(net, []byte("xabxxab"), Options{CollectReports: true}).Reports
	if len(got) != len(want) {
		t.Fatalf("streaming reports %v, batch %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("streaming reports %v, batch %v", got, want)
		}
	}
	if st.Pos() != 7 {
		t.Fatalf("Pos = %d", st.Pos())
	}
	st.Reset()
	if st.Pos() != 0 {
		t.Fatal("Reset did not rewind position")
	}
	got = got[:0]
	st.Write([]byte("ab"))
	if len(got) != 1 || got[0].Pos != 1 {
		t.Fatalf("after Reset: %v", got)
	}
}

func TestStreamerOverflowAndResume(t *testing.T) {
	st := NewStreamer(everyA())
	st.cap = 4
	input := bytes.Repeat([]byte("a"), 10)
	n, err := st.Write(input)
	if !errors.Is(err, ErrReportOverflow) {
		t.Fatalf("err = %v, want ErrReportOverflow", err)
	}
	// The buffer holds exactly its cap; the overflowing symbol (the fifth)
	// was consumed, its report lost.
	if n != 5 || st.Buffered() != 4 {
		t.Fatalf("n = %d, buffered = %d; want 5 and 4", n, st.Buffered())
	}
	got := st.TakeReports()
	if len(got) != 4 || got[0].Pos != 0 || got[3].Pos != 3 {
		t.Fatalf("TakeReports = %v", got)
	}
	if st.Buffered() != 0 {
		t.Fatal("TakeReports did not drain the buffer")
	}
	// Draining frees capacity: the stream resumes where Write stopped and
	// overflows again on the last of the 5 remaining symbols.
	n, err = st.Write(input[n:])
	if !errors.Is(err, ErrReportOverflow) || n != 5 {
		t.Fatalf("resumed write: n = %d, err = %v", n, err)
	}
	if got := st.TakeReports(); len(got) != 4 || got[0].Pos != 5 || got[3].Pos != 8 {
		t.Fatalf("resumed reports = %v", got)
	}
	if st.NumReports() != 10 {
		t.Errorf("NumReports = %d, want 10 (every symbol reported, including lost ones)", st.NumReports())
	}
}

func TestStreamerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := NewStreamer(everyA())
	st.SetContext(ctx)
	n, err := st.Write(bytes.Repeat([]byte("a"), 2*cancelCheckInterval))
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("Write = %d, %v; want 0, context.Canceled", n, err)
	}
}

func TestDisableAndToggleState(t *testing.T) {
	// Chain: a (all-input start) -> b (report). "ab" normally reports at 1.
	build := func() (*Engine, automata.StateID) {
		m := automata.NewNFA()
		a := m.Add(symset.Single('a'), automata.StartAllInput, false)
		b := m.Add(symset.Single('b'), automata.StartNone, true)
		m.Connect(a, b)
		return NewEngine(automata.NewNetwork(m), Options{}), b
	}

	e, b := build()
	e.Step(0, 'a') // enables b for the next cycle
	e.DisableState(b)
	if e.FrontierLen() != 0 {
		t.Fatal("DisableState left b enabled")
	}
	e.Step(1, 'b')
	if e.NumReports() != 0 {
		t.Errorf("disabled state still reported")
	}

	// Toggle re-enables what Disable removed, and the double toggle is a
	// no-op overall.
	e, b = build()
	e.Step(0, 'a')
	e.ToggleState(b) // disable
	e.ToggleState(b) // re-enable
	e.Step(1, 'b')
	if e.NumReports() != 1 {
		t.Errorf("toggle pair broke the frontier: %d reports, want 1", e.NumReports())
	}

	// Toggling an idle state enables it (the constructive half of a flip).
	e, b = build()
	e.ToggleState(b)
	e.Step(0, 'b')
	if e.NumReports() != 1 {
		t.Errorf("toggle-enable did not take: %d reports, want 1", e.NumReports())
	}

	// Disabling a state that is not enabled, and disabling an all-input
	// start, are both no-ops.
	e, _ = build()
	e.DisableState(b)
	e.DisableState(0)
	e.Step(0, 'a')
	e.Step(1, 'b')
	if e.NumReports() != 1 {
		t.Errorf("no-op disables changed behaviour: %d reports, want 1", e.NumReports())
	}
}

// pollCtx is a context that cancels itself on the n-th poll of Done, so a
// test can stop a run at a position it names.
type pollCtx struct {
	context.Context
	polls, at int
	done      chan struct{}
}

func newPollCtx(at int) *pollCtx {
	return &pollCtx{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls++; c.polls == c.at {
		close(c.done)
	}
	return c.done
}

func (c *pollCtx) Err() error {
	if c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// quietStream returns the a→b network of TestStreamerMatchesBatch and n
// symbols of filler no state matches with an "ab" dropped in every few
// hundred: the runs between them are quiet, which the test is told.
func quietStream(t *testing.T, n int) (*automata.Network, []byte) {
	t.Helper()
	m := automata.NewNFA()
	a := m.Add(symset.Single('a'), automata.StartAllInput, false)
	m.Connect(a, m.Add(symset.Single('b'), automata.StartNone, true))
	net := automata.NewNetwork(m)
	input := bytes.Repeat([]byte("x"), n)
	if got := NewEngine(net, Options{}).Skip(input, 0); got != n {
		t.Fatalf("Skip took %d of %d filler symbols", got, n)
	}
	r := rand.New(rand.NewSource(int64(n)))
	for i := r.Intn(300); i+1 < n; i += 2 + r.Intn(600) {
		input[i], input[i+1] = 'a', 'b'
	}
	return net, input
}

// RunContext polls once per cancelCheckInterval symbols whatever Skip
// crosses in between: cancelled at its k-th poll it has processed k-1 whole
// intervals and reported what a full run reports in them.
func TestRunContextCancelMidRunSkipping(t *testing.T) {
	net, input := quietStream(t, 9*cancelCheckInterval+77)
	full := Run(net, input, Options{CollectReports: true})
	for _, at := range []int{1, 2, 5, 10} {
		res, err := RunContext(newPollCtx(at), net, input, Options{CollectReports: true}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("poll %d: err = %v, want context.Canceled", at, err)
		}
		want := int64(at-1) * cancelCheckInterval
		if res.Symbols != want {
			t.Fatalf("poll %d: %d symbols processed, want %d", at, res.Symbols, want)
		}
		for i, rp := range res.Reports {
			if rp != full.Reports[i] || rp.Pos >= want {
				t.Fatalf("poll %d: report %d = %+v, the full run's %+v", at, i, rp, full.Reports[i])
			}
		}
		if n := len(res.Reports); n < len(full.Reports) && full.Reports[n].Pos < want {
			t.Fatalf("poll %d: %d reports, but the full run's next is at %d", at, n, full.Reports[n].Pos)
		}
	}
	if res, err := RunContext(newPollCtx(11), net, input, Options{}, nil); err != nil || res.Symbols != int64(len(input)) || res.NumReports != full.NumReports {
		t.Fatalf("ten polls cover the input: got %+v, %v", res, err)
	}
}

// writeStepping is Streamer.Write as it was before Skip: every symbol
// stepped, the context polled where the position is a multiple of
// cancelCheckInterval, the overflow flag read after every step.
func writeStepping(st *Streamer, p []byte) (int, error) {
	for i, b := range p {
		if st.ctx != nil && st.pos&(cancelCheckInterval-1) == 0 && cancelled(st.ctx) {
			return i, st.ctx.Err()
		}
		st.eng.Step(st.pos, b)
		st.pos++
		if st.overflow {
			st.overflow = false
			return i + 1, ErrReportOverflow
		}
	}
	return len(p), nil
}

// Write keeps the duties the per-symbol loop had at each position. Fed the
// same chunks, with a context cancelled from OnReport or a buffer that
// overflows every third report, it returns what writeStepping returns —
// the consumed count, the error — and leaves the same snapshot, count and
// buffer, chunk sizes straddling the poll interval.
func TestStreamerWriteKeepsPerSymbolDuties(t *testing.T) {
	net, input := quietStream(t, 6*cancelCheckInterval+123)
	for _, chunk := range []int{1, 4095, 4096, 4097, 5000} {
		for _, mode := range []string{"cancel", "overflow"} {
			var sts [2]*Streamer
			for i := range sts {
				st := NewStreamer(net)
				if mode == "overflow" {
					st.cap = 2
				} else {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					st.SetContext(ctx)
					st.OnReport = func(int64, automata.StateID) {
						if st.NumReports() == 7 {
							cancel()
						}
					}
				}
				sts[i] = st
			}
			got, ref := sts[0], sts[1]
			stops := 0
			for off := 0; off < len(input); {
				p := input[off:min(len(input), off+chunk)]
				n, err := got.Write(p)
				wantN, wantErr := writeStepping(ref, p)
				if n != wantN || err != wantErr {
					t.Fatalf("%s, chunks of %d: Write at %d = (%d, %v), stepping every symbol (%d, %v)", mode, chunk, off, n, err, wantN, wantErr)
				}
				if !reflect.DeepEqual(got.Snapshot(nil), ref.Snapshot(nil)) || got.NumReports() != ref.NumReports() || got.Buffered() != ref.Buffered() {
					t.Fatalf("%s, chunks of %d: streamers apart after the write at %d", mode, chunk, off)
				}
				off += n
				if err != nil {
					stops++
					if err != ErrReportOverflow {
						break
					}
					if !reflect.DeepEqual(got.TakeReports(), ref.TakeReports()) {
						t.Fatalf("%s, chunks of %d: buffers differ at the overflow at %d", mode, chunk, off)
					}
				}
			}
			if stops == 0 || (mode == "cancel") != (got.Pos() < int64(len(input))) {
				t.Fatalf("%s, chunks of %d: %d early returns, stopped at %d of %d", mode, chunk, stops, got.Pos(), len(input))
			}
		}
	}
}
