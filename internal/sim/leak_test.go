package sim

import (
	"context"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
	"sparseap/internal/testleak"
)

// leakNet builds a small acyclic network shaped like the workload NFAs:
// an all-input start fanning into a chain, so every input symbol keeps
// the frontier non-empty.
func leakNet(t *testing.T) *automata.Network {
	t.Helper()
	nfa := automata.NewNFA()
	prev := nfa.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	for i := 0; i < 12; i++ {
		s := nfa.Add(symset.Range('a', 'z'), automata.StartNone, i == 11)
		nfa.Connect(prev, s)
		prev = s
	}
	return automata.NewNetwork(nfa)
}

func leakInput(n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte('a' + i%26)
	}
	return in
}

// TestRunAllocations pins what Run allocates on a warm pooled engine: the
// Result alone with reports off, and with reports on the growth of the
// report slice that Run then hands over (16 384 reports end above
// maxPooledReportCap, so the next run grows a new one). The checkpoint
// loop Run shares with RunContext must add to neither.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the counts do not hold")
	}
	m := automata.NewNFA()
	m.Add(symset.Single('a'), automata.StartAllInput, true)
	m.Add(symset.Single('b'), automata.StartAllInput, true)
	net := automata.NewNetwork(m)
	input := make([]byte, 64<<10)
	for i := range input {
		input[i] = 'x'
		if i%4 == 0 {
			input[i] = 'a'
		}
	}
	for _, tc := range []struct {
		collect bool
		max     float64
	}{{false, 1}, {true, 23}} {
		opts := Options{CollectReports: tc.collect}
		if n := Run(net, input, opts).NumReports; n != 16384 {
			t.Fatalf("%d reports, want 16384", n)
		}
		if got := testing.AllocsPerRun(20, func() { Run(net, input, opts) }); got > tc.max {
			t.Errorf("CollectReports=%v: Run allocates %.1f times, want <= %.0f", tc.collect, got, tc.max)
		}
	}
}

// TestStreamerCancelNoLeak drives a Streamer under an already-expired
// context: Write must return promptly with the context error, consuming
// no further symbols and leaving nothing running.
func TestStreamerCancelNoLeak(t *testing.T) {
	testleak.Check(t)
	net := leakNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStreamer(net)
	st.SetContext(ctx)
	if _, err := st.Write(leakInput(8192)); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	cancel()
	n, err := st.Write(leakInput(1 << 16))
	if err == nil {
		t.Fatal("expected context error after cancel")
	}
	if n == 1<<16 {
		t.Fatal("cancelled write consumed the whole buffer")
	}
	// Rebinding to a live context resumes the stream where it stopped.
	st.SetContext(context.Background())
	if _, err := st.Write(leakInput(4096)); err != nil {
		t.Fatalf("write after SetContext: %v", err)
	}
}
