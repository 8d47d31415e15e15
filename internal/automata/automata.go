// Package automata defines the homogeneous NFA model used throughout the
// repository.
//
// A homogeneous NFA is one where all incoming transitions to a state accept
// the same symbol set; the symbol set therefore becomes a property of the
// state itself, exactly matching the AP's state-transition elements (STEs).
// Two containers are provided:
//
//   - NFA: a single machine (usually one weakly-connected pattern), with
//     dense local state IDs.
//   - Network: an application, i.e. an ordered collection of NFAs flattened
//     into one global ID space. All execution, profiling and partitioning
//     operates on Networks.
package automata

import (
	"fmt"
	"sync/atomic"

	"sparseap/internal/symset"
)

// StateID identifies a state. Within an NFA it is a dense local index;
// within a Network it is a dense global index.
type StateID int32

// None is the sentinel for "no state".
const None StateID = -1

// StartKind describes when a state is self-enabled, mirroring ANML.
type StartKind uint8

const (
	// StartNone marks a state enabled only by a predecessor's activation.
	StartNone StartKind = iota
	// StartAllInput marks a state enabled on every input position
	// (ANML "all-input").
	StartAllInput
	// StartOfData marks a state enabled only at input position 0
	// (ANML "start-of-data").
	StartOfData
)

// String returns the ANML name of the start kind.
func (k StartKind) String() string {
	switch k {
	case StartNone:
		return "none"
	case StartAllInput:
		return "all-input"
	case StartOfData:
		return "start-of-data"
	}
	return fmt.Sprintf("StartKind(%d)", uint8(k))
}

// State is one homogeneous NFA state (one STE).
type State struct {
	// Match is the symbol set this state accepts.
	Match symset.Set
	// Start is the state's self-enable behaviour.
	Start StartKind
	// Report marks an accepting/reporting state.
	Report bool
	// Succ lists successor state IDs (local to the owning container).
	Succ []StateID
	// Name is an optional human-readable identifier (kept for ANML I/O).
	Name string
}

// NFA is a single homogeneous automaton with dense local IDs.
type NFA struct {
	States []State
}

// NewNFA returns an empty NFA.
func NewNFA() *NFA { return &NFA{} }

// AddState appends a state and returns its ID.
func (m *NFA) AddState(s State) StateID {
	m.States = append(m.States, s)
	return StateID(len(m.States) - 1)
}

// Add is a convenience wrapper building a State from its fields.
func (m *NFA) Add(match symset.Set, start StartKind, report bool) StateID {
	return m.AddState(State{Match: match, Start: start, Report: report})
}

// Connect adds an edge from u to v. Duplicate edges are allowed at build
// time and removed by Dedup.
func (m *NFA) Connect(u, v StateID) {
	m.States[u].Succ = append(m.States[u].Succ, v)
}

// Len returns the number of states.
func (m *NFA) Len() int { return len(m.States) }

// Dedup removes duplicate successor entries in place.
func (m *NFA) Dedup() {
	seen := make(map[StateID]struct{})
	for i := range m.States {
		succ := m.States[i].Succ
		if len(succ) < 2 {
			continue
		}
		clear(seen)
		out := succ[:0]
		for _, v := range succ {
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
		m.States[i].Succ = out
	}
}

// ProblemKind classifies a structural finding of StructuralProblems.
type ProblemKind uint8

const (
	// ProblemEmpty flags an empty NFA or network.
	ProblemEmpty ProblemKind = iota
	// ProblemOffsets flags inconsistent Offsets/NFAOf bookkeeping.
	ProblemOffsets
	// ProblemSuccRange flags a successor ID outside the state range.
	ProblemSuccRange
	// ProblemCrossNFA flags an edge crossing NFA boundaries.
	ProblemCrossNFA
	// ProblemNoStart flags an NFA without any start state.
	ProblemNoStart
)

// Problem is one structural finding. It is the shared core behind
// NFA.Validate, Network.Validate and the internal/lint structure analyzers:
// the checks run once here, and both consumers format the results.
type Problem struct {
	Kind ProblemKind
	// NFA is the owning NFA index (-1 for container-level findings or
	// standalone NFAs).
	NFA int
	// State is the offending state (global for a Network, local for an
	// NFA); None for NFA- or container-level findings.
	State StateID
	// Msg is the human-readable description, including NFA/state context.
	Msg string
}

// describe names a state with its NFA index and optional name for messages.
func describe(nfa int, s StateID, name string) string {
	loc := fmt.Sprintf("state %d", s)
	if nfa >= 0 {
		loc += fmt.Sprintf(" (nfa %d", nfa)
		if name != "" {
			loc += fmt.Sprintf(" %q", name)
		}
		loc += ")"
	} else if name != "" {
		loc += fmt.Sprintf(" (%q)", name)
	}
	return loc
}

// StructuralProblems returns every structural invariant violation of the
// NFA: emptiness, out-of-range successors, and a missing start state.
// Unlike Validate it does not stop at the first finding.
func (m *NFA) StructuralProblems() []Problem {
	var out []Problem
	if m.Len() == 0 {
		return []Problem{{Kind: ProblemEmpty, NFA: -1, State: None, Msg: "empty NFA"}}
	}
	starts := 0
	for i, s := range m.States {
		if s.Start != StartNone {
			starts++
		}
		for _, v := range s.Succ {
			if v < 0 || int(v) >= m.Len() {
				out = append(out, Problem{
					Kind: ProblemSuccRange, NFA: -1, State: StateID(i),
					Msg: fmt.Sprintf("%s has out-of-range successor %d (valid range [0,%d))",
						describe(-1, StateID(i), s.Name), v, m.Len()),
				})
			}
		}
	}
	if starts == 0 {
		out = append(out, Problem{Kind: ProblemNoStart, NFA: -1, State: None,
			Msg: "NFA has no start state"})
	}
	return out
}

// problemsToError collapses a problem list into a single error, or nil.
func problemsToError(problems []Problem) error {
	switch len(problems) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("automata: %s", problems[0].Msg)
	}
	return fmt.Errorf("automata: %s (and %d more structural problems)",
		problems[0].Msg, len(problems)-1)
}

// Validate checks structural invariants: successor IDs in range and at
// least one start state. It is a thin wrapper over StructuralProblems.
func (m *NFA) Validate() error {
	return problemsToError(m.StructuralProblems())
}

// Network is an application: a set of NFAs flattened into one global state
// ID space. NFAOf maps each global state to the index of its owning NFA;
// states of one NFA occupy a contiguous ID range.
type Network struct {
	States []State
	// NFAOf[s] is the NFA index owning global state s.
	NFAOf []int32
	// Offsets[i] is the first global StateID of NFA i; Offsets has one
	// extra trailing entry equal to len(States).
	Offsets []StateID

	// exec caches a compiled execution image derived from this network.
	// The slot is opaque here — it is owned by internal/sim, which stores
	// its flattened CSR image through ExecImage/StoreExecImage so every
	// engine over the same network shares one read-only compilation. The
	// slot is atomic because simulators compile lazily from concurrent
	// worker goroutines; Append clears it. Mutate States in place only
	// on a Clone, or clear the slot with StoreExecImage(nil).
	exec atomic.Pointer[execBox]
}

// execBox wraps the cached execution image so the atomic slot can hold
// any concrete type (and distinguish "cleared" from "stored nil").
type execBox struct{ v any }

// ExecImage returns the cached compiled execution image, or nil if none
// has been stored since the last structural mutation.
func (n *Network) ExecImage() any {
	if b := n.exec.Load(); b != nil {
		return b.v
	}
	return nil
}

// StoreExecImage publishes a compiled execution image for this network.
// Concurrent stores are permitted (last one wins); callers must only
// store images compiled from the network's current structure.
func (n *Network) StoreExecImage(v any) {
	if v == nil {
		n.exec.Store(nil)
		return
	}
	n.exec.Store(&execBox{v: v})
}

// NewNetwork flattens the given NFAs into a Network. Local successor IDs
// are rebased to global IDs. The input NFAs are not retained.
func NewNetwork(nfas ...*NFA) *Network {
	total := 0
	for _, m := range nfas {
		total += m.Len()
	}
	net := &Network{
		States:  make([]State, 0, total),
		NFAOf:   make([]int32, 0, total),
		Offsets: make([]StateID, 0, len(nfas)+1),
	}
	for idx, m := range nfas {
		net.Append(m)
		_ = idx
	}
	return net
}

// Append adds one more NFA to the network and returns its NFA index.
func (n *Network) Append(m *NFA) int {
	base := StateID(len(n.States))
	idx := n.NumNFAs()
	if len(n.Offsets) == 0 {
		n.Offsets = append(n.Offsets, 0)
	}
	for _, s := range m.States {
		g := s // copy
		g.Succ = make([]StateID, len(s.Succ))
		for i, v := range s.Succ {
			g.Succ[i] = v + base
		}
		n.States = append(n.States, g)
		n.NFAOf = append(n.NFAOf, int32(idx))
	}
	n.Offsets = append(n.Offsets, StateID(len(n.States)))
	n.exec.Store(nil)
	return idx
}

// Len returns the number of global states.
func (n *Network) Len() int { return len(n.States) }

// NumNFAs returns the number of NFAs in the network.
func (n *Network) NumNFAs() int {
	if len(n.Offsets) == 0 {
		return 0
	}
	return len(n.Offsets) - 1
}

// NFASize returns the number of states in NFA i.
func (n *Network) NFASize(i int) int {
	return int(n.Offsets[i+1] - n.Offsets[i])
}

// NFAStates returns the global ID range [lo, hi) of NFA i.
func (n *Network) NFAStates(i int) (lo, hi StateID) {
	return n.Offsets[i], n.Offsets[i+1]
}

// StructuralProblems returns every structural invariant violation of the
// network: emptiness, inconsistent Offsets/NFAOf bookkeeping, out-of-range
// or NFA-crossing successors, and NFAs without a start state. Unlike
// Validate it does not stop at the first finding; internal/lint's structure
// analyzers are thin wrappers over it.
func (n *Network) StructuralProblems() []Problem {
	var out []Problem
	if n.NumNFAs() == 0 {
		return []Problem{{Kind: ProblemEmpty, NFA: -1, State: None, Msg: "empty network"}}
	}
	if end := n.Offsets[len(n.Offsets)-1]; end != StateID(n.Len()) {
		out = append(out, Problem{Kind: ProblemOffsets, NFA: -1, State: None,
			Msg: fmt.Sprintf("offsets end %d != %d states", end, n.Len())})
	}
	if len(n.NFAOf) != n.Len() {
		out = append(out, Problem{Kind: ProblemOffsets, NFA: -1, State: None,
			Msg: fmt.Sprintf("NFAOf has %d entries for %d states", len(n.NFAOf), n.Len())})
		return out // per-state checks below index NFAOf
	}
	startsPerNFA := make([]int, n.NumNFAs())
	for u := range n.States {
		nfa := int(n.NFAOf[u])
		if nfa < 0 || nfa >= n.NumNFAs() {
			out = append(out, Problem{Kind: ProblemOffsets, NFA: -1, State: StateID(u),
				Msg: fmt.Sprintf("state %d claims NFA %d of %d", u, nfa, n.NumNFAs())})
			continue
		}
		if n.States[u].Start != StartNone {
			startsPerNFA[nfa]++
		}
		loc := describe(nfa, StateID(u), n.States[u].Name)
		for _, v := range n.States[u].Succ {
			if v < 0 || int(v) >= n.Len() {
				out = append(out, Problem{Kind: ProblemSuccRange, NFA: nfa, State: StateID(u),
					Msg: fmt.Sprintf("%s has out-of-range successor %d (valid range [0,%d))",
						loc, v, n.Len())})
				continue
			}
			if int(n.NFAOf[v]) != nfa {
				out = append(out, Problem{Kind: ProblemCrossNFA, NFA: nfa, State: StateID(u),
					Msg: fmt.Sprintf("edge %d->%d crosses NFA boundary %d->%d",
						u, v, nfa, n.NFAOf[v])})
			}
		}
	}
	for i, c := range startsPerNFA {
		if c == 0 {
			lo, hi := n.NFAStates(i)
			out = append(out, Problem{Kind: ProblemNoStart, NFA: i, State: None,
				Msg: fmt.Sprintf("NFA %d (states %d..%d) has no start state", i, lo, hi-1)})
		}
	}
	return out
}

// Validate checks the network invariants: consistent offsets, successor IDs
// within the same NFA, and each NFA has a start state. It is a thin wrapper
// over StructuralProblems.
func (n *Network) Validate() error {
	return problemsToError(n.StructuralProblems())
}

// Stats summarizes a network for Table II-style reporting.
type Stats struct {
	States    int
	NFAs      int
	Reporting int
	Starts    int
	Edges     int
	// StartOfData reports whether any start state is start-of-data.
	StartOfData bool
}

// ComputeStats returns summary statistics for the network.
func (n *Network) ComputeStats() Stats {
	st := Stats{States: n.Len(), NFAs: n.NumNFAs()}
	for i := range n.States {
		s := &n.States[i]
		if s.Report {
			st.Reporting++
		}
		if s.Start != StartNone {
			st.Starts++
			if s.Start == StartOfData {
				st.StartOfData = true
			}
		}
		st.Edges += len(s.Succ)
	}
	return st
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{
		States:  make([]State, len(n.States)),
		NFAOf:   make([]int32, len(n.NFAOf)),
		Offsets: make([]StateID, len(n.Offsets)),
	}
	copy(c.NFAOf, n.NFAOf)
	copy(c.Offsets, n.Offsets)
	for i, s := range n.States {
		c.States[i] = s
		c.States[i].Succ = make([]StateID, len(s.Succ))
		copy(c.States[i].Succ, s.Succ)
	}
	return c
}

// ExtractNFA materializes NFA i as a standalone NFA with local IDs.
func (n *Network) ExtractNFA(i int) *NFA {
	lo, hi := n.NFAStates(i)
	m := &NFA{States: make([]State, hi-lo)}
	for g := lo; g < hi; g++ {
		s := n.States[g]
		local := s
		local.Succ = make([]StateID, len(s.Succ))
		for j, v := range s.Succ {
			local.Succ[j] = v - lo
		}
		m.States[g-lo] = local
	}
	return m
}

// Subset builds a new network containing, for each NFA, only the states
// keep(s) selects, dropping edges to excluded states. NFAs with no kept
// states are omitted. It returns the new network and a mapping from new
// global IDs to original global IDs.
//
// The result may violate the "has a start state" invariant if keep excludes
// all starts of an NFA; callers that need runnable fragments must arrange
// keep accordingly (the partitioner does).
func (n *Network) Subset(keep func(StateID) bool) (*Network, []StateID) {
	newID := make([]StateID, n.Len())
	for i := range newID {
		newID[i] = None
	}
	out := &Network{Offsets: []StateID{0}}
	var origOf []StateID
	for i := 0; i < n.NumNFAs(); i++ {
		lo, hi := n.NFAStates(i)
		first := len(out.States)
		for g := lo; g < hi; g++ {
			if !keep(g) {
				continue
			}
			newID[g] = StateID(len(out.States))
			s := n.States[g]
			cp := s
			cp.Succ = nil // filled below
			out.States = append(out.States, cp)
			origOf = append(origOf, g)
		}
		if len(out.States) == first {
			continue // NFA fully excluded
		}
		nfaIdx := out.NumNFAs()
		for k := first; k < len(out.States); k++ {
			out.NFAOf = append(out.NFAOf, int32(nfaIdx))
		}
		out.Offsets = append(out.Offsets, StateID(len(out.States)))
	}
	// Rewire edges among kept states.
	for k := range out.States {
		g := origOf[k]
		for _, v := range n.States[g].Succ {
			if nv := newID[v]; nv != None {
				out.States[k].Succ = append(out.States[k].Succ, nv)
			}
		}
	}
	return out, origOf
}
