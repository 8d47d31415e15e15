// Package symset implements 256-bit symbol sets (character classes) for
// homogeneous NFA states.
//
// Each state-transition element (STE) on the Automata Processor stores a
// 256-row column of DRAM; row b is set iff the STE accepts input symbol b.
// Set mirrors that column as four 64-bit words. The zero value is the empty
// set and is ready to use.
package symset

import (
	"fmt"
	"math/bits"
	"strings"
)

// AlphabetSize is the number of distinct input symbols the AP address
// decoder can select (one DRAM row per symbol).
const AlphabetSize = 256

// Set is a set of byte-valued input symbols.
type Set [4]uint64

// Empty returns the empty symbol set.
func Empty() Set { return Set{} }

// All returns the set accepting every symbol (the ANML "*" star set).
func All() Set {
	return Set{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// Single returns the set containing only symbol b.
func Single(b byte) Set {
	var s Set
	s.Add(b)
	return s
}

// Of returns the set containing exactly the given symbols.
func Of(syms ...byte) Set {
	var s Set
	for _, b := range syms {
		s.Add(b)
	}
	return s
}

// Range returns the set containing all symbols in [lo, hi]. It panics if
// lo > hi.
func Range(lo, hi byte) Set {
	if lo > hi {
		panic(fmt.Sprintf("symset: invalid range [%d,%d]", lo, hi))
	}
	var s Set
	s.AddRange(lo, hi)
	return s
}

// Add inserts symbol b.
func (s *Set) Add(b byte) { s[b>>6] |= 1 << (b & 63) }

// Remove deletes symbol b.
func (s *Set) Remove(b byte) { s[b>>6] &^= 1 << (b & 63) }

// AddRange inserts every symbol in [lo, hi].
func (s *Set) AddRange(lo, hi byte) {
	for c := int(lo); c <= int(hi); c++ {
		s.Add(byte(c))
	}
}

// Contains reports whether symbol b is in the set.
func (s Set) Contains(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }

// IsEmpty reports whether the set contains no symbols.
func (s Set) IsEmpty() bool { return s == Set{} }

// Len returns the number of symbols in the set.
func (s Set) Len() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	return Set{s[0] | t[0], s[1] | t[1], s[2] | t[2], s[3] | t[3]}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	return Set{s[0] & t[0], s[1] & t[1], s[2] & t[2], s[3] & t[3]}
}

// Complement returns the set of symbols not in s.
func (s Set) Complement() Set {
	return Set{^s[0], ^s[1], ^s[2], ^s[3]}
}

// Equal reports whether s and t contain the same symbols.
func (s Set) Equal(t Set) bool { return s == t }

// Symbols returns the members of the set in ascending order.
func (s Set) Symbols() []byte {
	out := make([]byte, 0, s.Len())
	for w := 0; w < 4; w++ {
		word := s[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, byte(w*64+b))
			word &= word - 1
		}
	}
	return out
}

// Min returns the smallest symbol in the set and ok=false if the set is
// empty.
func (s Set) Min() (byte, bool) {
	for w := 0; w < 4; w++ {
		if s[w] != 0 {
			return byte(w*64 + bits.TrailingZeros64(s[w])), true
		}
	}
	return 0, false
}

// ranges returns the maximal runs [lo,hi] of consecutive members.
func (s Set) ranges() [][2]byte {
	var out [][2]byte
	inRun := false
	var lo byte
	for c := 0; c < AlphabetSize; c++ {
		if s.Contains(byte(c)) {
			if !inRun {
				inRun = true
				lo = byte(c)
			}
		} else if inRun {
			inRun = false
			out = append(out, [2]byte{lo, byte(c - 1)})
		}
	}
	if inRun {
		out = append(out, [2]byte{lo, 255})
	}
	return out
}

// String renders the set in ANML symbol-set syntax: "*" for the full
// alphabet, a bare escaped symbol for singletons, and a bracket expression
// (possibly negated) otherwise.
func (s Set) String() string {
	if s == All() {
		return "*"
	}
	if s.IsEmpty() {
		return "[]"
	}
	if s.Len() == 1 {
		b, _ := s.Min()
		return escapeSym(b)
	}
	// Prefer the shorter of positive and negated renderings.
	pos := bracket(s, false)
	neg := bracket(s.Complement(), true)
	if len(neg) < len(pos) {
		return neg
	}
	return pos
}

func bracket(s Set, negate bool) string {
	var b strings.Builder
	b.WriteByte('[')
	if negate {
		b.WriteByte('^')
	}
	for _, r := range s.ranges() {
		lo, hi := r[0], r[1]
		switch hi - lo {
		case 0:
			b.WriteString(escapeSym(lo))
		case 1:
			b.WriteString(escapeSym(lo))
			b.WriteString(escapeSym(hi))
		default:
			b.WriteString(escapeSym(lo))
			b.WriteByte('-')
			b.WriteString(escapeSym(hi))
		}
	}
	b.WriteByte(']')
	return b.String()
}

// escapeSym renders one symbol for use inside an ANML symbol-set.
func escapeSym(b byte) string {
	switch b {
	case '\\', '[', ']', '^', '-', '*':
		return "\\" + string(b)
	}
	if b >= 0x20 && b < 0x7f {
		return string(b)
	}
	return fmt.Sprintf("\\x%02x", b)
}

// Parse parses ANML symbol-set syntax as produced by String: "*", a single
// (possibly escaped) symbol, or a bracket expression with ranges, escapes
// (\xHH and \d \D \w \W \s \S shorthands) and optional leading ^ negation.
func Parse(src string) (Set, error) {
	if src == "*" {
		return All(), nil
	}
	if src == "" {
		return Set{}, fmt.Errorf("symset: empty expression")
	}
	if src[0] != '[' {
		// Single symbol, possibly escaped.
		b, n, err := parseSym(src, 0)
		if err != nil {
			return Set{}, err
		}
		if n != len(src) {
			return Set{}, fmt.Errorf("symset: trailing input in %q", src)
		}
		return Single(b), nil
	}
	if src[len(src)-1] != ']' {
		return Set{}, fmt.Errorf("symset: missing closing ] in %q", src)
	}
	body := src[1 : len(src)-1]
	negate := false
	if strings.HasPrefix(body, "^") {
		negate = true
		body = body[1:]
	}
	var s Set
	i := 0
	for i < len(body) {
		if cls, n, ok := parseClassShorthand(body, i); ok {
			s = s.Union(cls)
			i = n
			continue
		}
		lo, n, err := parseSym(body, i)
		if err != nil {
			return Set{}, err
		}
		i = n
		if i < len(body) && body[i] == '-' && i+1 < len(body) {
			hi, n2, err := parseSym(body, i+1)
			if err != nil {
				return Set{}, err
			}
			if hi < lo {
				return Set{}, fmt.Errorf("symset: inverted range %q", src)
			}
			s.AddRange(lo, hi)
			i = n2
			continue
		}
		s.Add(lo)
	}
	if negate {
		s = s.Complement()
	}
	return s, nil
}

// parseClassShorthand recognizes \d \D \w \W \s \S at src[i:].
func parseClassShorthand(src string, i int) (Set, int, bool) {
	if i+1 >= len(src) || src[i] != '\\' {
		return Set{}, 0, false
	}
	var cls Set
	switch src[i+1] {
	case 'd':
		cls = Digits()
	case 'D':
		cls = Digits().Complement()
	case 'w':
		cls = Word()
	case 'W':
		cls = Word().Complement()
	case 's':
		cls = Space()
	case 'S':
		cls = Space().Complement()
	default:
		return Set{}, 0, false
	}
	return cls, i + 2, true
}

// parseSym parses one symbol at src[i:], handling \xHH and single-character
// escapes, and returns the symbol and the index just past it.
func parseSym(src string, i int) (byte, int, error) {
	if i >= len(src) {
		return 0, 0, fmt.Errorf("symset: unexpected end of expression")
	}
	c := src[i]
	if c != '\\' {
		return c, i + 1, nil
	}
	if i+1 >= len(src) {
		return 0, 0, fmt.Errorf("symset: dangling backslash")
	}
	e := src[i+1]
	switch e {
	case 'x':
		if i+3 >= len(src) {
			return 0, 0, fmt.Errorf("symset: truncated \\x escape")
		}
		hi, ok1 := hexVal(src[i+2])
		lo, ok2 := hexVal(src[i+3])
		if !ok1 || !ok2 {
			return 0, 0, fmt.Errorf("symset: bad hex escape in %q", src[i:i+4])
		}
		return hi<<4 | lo, i + 4, nil
	case 'n':
		return '\n', i + 2, nil
	case 'r':
		return '\r', i + 2, nil
	case 't':
		return '\t', i + 2, nil
	case '0':
		return 0, i + 2, nil
	default:
		return e, i + 2, nil
	}
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Digits returns [0-9].
func Digits() Set { return Range('0', '9') }

// Word returns [0-9A-Za-z_].
func Word() Set {
	s := Digits()
	s = s.Union(Range('A', 'Z'))
	s = s.Union(Range('a', 'z'))
	s.Add('_')
	return s
}

// Space returns the ASCII whitespace class [\t\n\v\f\r ].
func Space() Set {
	return Of('\t', '\n', '\v', '\f', '\r', ' ')
}
