package oracle

import (
	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// Source is where the generator's draws come from: a *rand.Rand in the
// seeded tests, Bytes in a fuzz target.
type Source interface {
	// Intn returns a draw in [0, n) for n > 0.
	Intn(n int) int
}

// Bytes reads draws from fuzz bytes — one byte for a draw of up to 256
// values, as many as it needs for a larger one — and returns zero once they
// run out.
func Bytes(data []byte) Source { return &byteSource{data} }

type byteSource struct{ data []byte }

func (b *byteSource) Intn(n int) int {
	v := 0
	for m := n - 1; m > 0 && len(b.data) > 0; m >>= 8 {
		v = v<<8 | int(b.data[0])
		b.data = b.data[1:]
	}
	return v % n
}

// Network draws a network of one to four NFAs and at most limit states in
// all (3 000 when no limit is given). Each NFA draws its shape:
//   - a few states with any edges at all: cycles, self-loops, duplicates
//     and edges into starts;
//   - a DAG, edges only forward;
//   - 60–400 states of chain, s → s+1 with skips, self-loops, back edges
//     and one class of +delta edges that crosses bitmap words;
//   - a grid whose rows feed the next row straight and diagonally;
//   - 60–400 states of free edges, most longer than a word;
//   - 2 500–3 000 states of forward chains with two hubs of 100–120
//     successors each, one of them an all-input start.
//
// Every state draws its symbol set (a few letters of "abcd", Σ, empty, a
// byte range, a complement, scattered bytes), its start kind and its
// report flag.
func Network(src Source, limit ...int) *automata.Network {
	budget := 3000
	if len(limit) > 0 {
		budget = limit[0]
	}
	nfas := make([]*automata.NFA, 1+src.Intn(4))
	for u := range nfas {
		nfas[u] = nfa(src, max(1, budget/(len(nfas)-u)))
		budget -= nfas[u].Len()
	}
	return automata.NewNetwork(nfas...)
}

func nfa(src Source, limit int) *automata.NFA {
	shape := src.Intn(16)
	var n int
	switch {
	case shape < 6:
		n = 1 + src.Intn(20)
	case shape < 9:
		n = 2 + src.Intn(10)
	case shape < 15:
		n = 60 + src.Intn(341)
	default:
		n = 2500 + src.Intn(501)
	}
	n = min(n, limit)
	m := automata.NewNFA()
	for s := 0; s < n; s++ {
		start := automata.StartNone
		switch k := src.Intn(8); {
		case s == 0 && k < 4, k == 6:
			start = automata.StartAllInput
		case s == 0 && k == 4, k == 7:
			start = automata.StartOfData
		}
		m.Add(matchSet(src), start, src.Intn(4) == 0)
	}
	connect := func(u, v int) {
		if v >= 0 && v < n {
			m.Connect(automata.StateID(u), automata.StateID(v))
		}
	}
	switch {
	case shape < 6:
		for k := src.Intn(3*n + 1); k > 0; k-- {
			connect(src.Intn(n), src.Intn(n))
		}
		if src.Intn(2) == 0 {
			return m
		}
	case shape < 9:
		for k := src.Intn(2*n) + 1; k > 0 && n > 1; k-- {
			u := src.Intn(n - 1)
			connect(u, u+1+src.Intn(n-u-1))
		}
	case shape < 11, shape == 15:
		for s := 0; s < n; s++ {
			if src.Intn(10) != 0 {
				connect(s, s+1)
			}
			switch src.Intn(12) {
			case 0:
				connect(s, s+2)
			case 1:
				connect(s, s)
			case 2:
				if shape != 15 {
					connect(s, s-1-src.Intn(40))
				}
			}
		}
		if shape == 15 {
			for h := 0; h < 2; h++ {
				hub := src.Intn(n)
				if h == 0 {
					m.States[hub].Start = automata.StartAllInput
				}
				for k := 100 + src.Intn(21); k > 0; k-- {
					connect(hub, src.Intn(n))
				}
			}
		} else {
			delta, every := 1+src.Intn(130), 1+src.Intn(8)
			for s := src.Intn(every); s < n; s += every {
				connect(s, s+delta)
			}
		}
	case shape < 13:
		width := 5 + src.Intn(60)
		for s := 0; s < n; s++ {
			connect(s, s+width)
			if src.Intn(2) == 0 {
				connect(s, s+width+1)
			}
			if src.Intn(8) == 0 {
				connect(s, s+width-1)
			}
		}
	default:
		for k := 2 * n; k > 0; k-- {
			connect(src.Intn(n), src.Intn(n))
		}
	}
	m.Dedup()
	return m
}

// matchSet draws a state's symbol set.
func matchSet(src Source) symset.Set {
	var set symset.Set
	switch k := src.Intn(12); {
	case k < 7:
		for j := src.Intn(3); j >= 0; j-- {
			set.Add("abcd"[src.Intn(4)])
		}
	case k == 7:
		set = symset.All()
	case k == 8: // empty: the state never fires
	case k == 9:
		lo := src.Intn(256)
		set = symset.Range(byte(lo), byte(min(255, lo+src.Intn(64))))
	case k == 10:
		set = symset.Single("abcdx"[src.Intn(5)]).Complement()
	default:
		for j := src.Intn(8); j >= 0; j-- {
			set.Add(byte(src.Intn(256)))
		}
	}
	return set
}

// Input draws n symbols: letters of "abcdx", or any byte at all.
func Input(src Source, n int) []byte {
	in := make([]byte, n)
	full := src.Intn(4) == 3
	for i := range in {
		if full {
			in[i] = byte(src.Intn(256))
		} else {
			in[i] = "abcdx"[src.Intn(5)]
		}
	}
	return in
}
