package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
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
	res, err := RunContext(ctx, everyA(), input, Options{CollectReports: true})
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
