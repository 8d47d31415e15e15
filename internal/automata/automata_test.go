package automata

import (
	"testing"

	"sparseap/internal/symset"
)

// chain builds an NFA a -> b -> c accepting "abc" with reporting tail.
func chain(t *testing.T) *NFA {
	t.Helper()
	m := NewNFA()
	a := m.Add(symset.Single('a'), StartAllInput, false)
	b := m.Add(symset.Single('b'), StartNone, false)
	c := m.Add(symset.Single('c'), StartNone, true)
	m.Connect(a, b)
	m.Connect(b, c)
	return m
}

func TestNFABuildAndValidate(t *testing.T) {
	m := chain(t)
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNFAValidateErrors(t *testing.T) {
	if err := NewNFA().Validate(); err == nil {
		t.Error("empty NFA validated")
	}
	m := NewNFA()
	m.Add(symset.Single('a'), StartNone, false)
	if err := m.Validate(); err == nil {
		t.Error("NFA with no start validated")
	}
	m2 := NewNFA()
	a := m2.Add(symset.Single('a'), StartAllInput, false)
	m2.States[a].Succ = append(m2.States[a].Succ, 99)
	if err := m2.Validate(); err == nil {
		t.Error("out-of-range successor validated")
	}
}

func TestDedup(t *testing.T) {
	m := NewNFA()
	a := m.Add(symset.Single('a'), StartAllInput, false)
	b := m.Add(symset.Single('b'), StartNone, true)
	m.Connect(a, b)
	m.Connect(a, b)
	m.Connect(a, a)
	m.Dedup()
	if got := len(m.States[a].Succ); got != 2 {
		t.Fatalf("successors after Dedup = %d, want 2", got)
	}
}

func TestNetworkFlattening(t *testing.T) {
	n := NewNetwork(chain(t), chain(t))
	if n.Len() != 6 || n.NumNFAs() != 2 {
		t.Fatalf("Len=%d NumNFAs=%d", n.Len(), n.NumNFAs())
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Second NFA's edges must be rebased.
	if n.States[3].Succ[0] != 4 {
		t.Errorf("rebased successor = %d, want 4", n.States[3].Succ[0])
	}
	if n.NFAOf[0] != 0 || n.NFAOf[5] != 1 {
		t.Error("NFAOf wrong")
	}
	lo, hi := n.NFAStates(1)
	if lo != 3 || hi != 6 {
		t.Errorf("NFAStates(1) = %d,%d", lo, hi)
	}
	if n.NFASize(0) != 3 {
		t.Errorf("NFASize = %d", n.NFASize(0))
	}
}

func TestNetworkAppend(t *testing.T) {
	n := NewNetwork(chain(t))
	idx := n.Append(chain(t))
	if idx != 1 || n.NumNFAs() != 2 || n.Len() != 6 {
		t.Fatalf("Append gave idx=%d NumNFAs=%d Len=%d", idx, n.NumNFAs(), n.Len())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	m := chain(t)
	m.States[0].Start = StartOfData
	n := NewNetwork(m, chain(t))
	st := n.ComputeStats()
	if st.States != 6 || st.NFAs != 2 || st.Reporting != 2 || st.Starts != 2 || st.Edges != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.StartOfData {
		t.Error("StartOfData not detected")
	}
}

func TestClone(t *testing.T) {
	n := NewNetwork(chain(t))
	c := n.Clone()
	c.States[0].Succ[0] = 2
	if n.States[0].Succ[0] != 1 {
		t.Error("Clone shares successor storage")
	}
	if c.Len() != n.Len() || c.NumNFAs() != n.NumNFAs() {
		t.Error("Clone size mismatch")
	}
}

func TestExtractNFA(t *testing.T) {
	n := NewNetwork(chain(t), chain(t))
	m := n.ExtractNFA(1)
	if m.Len() != 3 {
		t.Fatalf("extracted Len = %d", m.Len())
	}
	if m.States[0].Succ[0] != 1 {
		t.Errorf("extracted successor = %d, want local 1", m.States[0].Succ[0])
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetKeepsPrefix(t *testing.T) {
	n := NewNetwork(chain(t), chain(t))
	// Keep first two states of each NFA.
	sub, orig := n.Subset(func(s StateID) bool {
		lo, _ := n.NFAStates(int(n.NFAOf[s]))
		return s-lo < 2
	})
	if sub.Len() != 4 || sub.NumNFAs() != 2 {
		t.Fatalf("subset Len=%d NFAs=%d", sub.Len(), sub.NumNFAs())
	}
	// Edge b->c must be dropped; a->b kept.
	if len(sub.States[0].Succ) != 1 || sub.States[0].Succ[0] != 1 {
		t.Errorf("subset state 0 succ = %v", sub.States[0].Succ)
	}
	if len(sub.States[1].Succ) != 0 {
		t.Errorf("subset state 1 succ = %v", sub.States[1].Succ)
	}
	if orig[2] != 3 {
		t.Errorf("orig mapping = %v", orig)
	}
}

func TestSubsetDropsEmptyNFAs(t *testing.T) {
	n := NewNetwork(chain(t), chain(t))
	sub, orig := n.Subset(func(s StateID) bool { return n.NFAOf[s] == 1 })
	if sub.NumNFAs() != 1 || sub.Len() != 3 {
		t.Fatalf("subset NFAs=%d Len=%d", sub.NumNFAs(), sub.Len())
	}
	if orig[0] != 3 {
		t.Errorf("orig = %v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStartKindString(t *testing.T) {
	if StartNone.String() != "none" || StartAllInput.String() != "all-input" || StartOfData.String() != "start-of-data" {
		t.Error("StartKind.String wrong")
	}
	if StartKind(9).String() == "" {
		t.Error("unknown StartKind empty")
	}
}
