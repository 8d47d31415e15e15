package symset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyAndAll(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() || e.Len() != 0 {
		t.Fatalf("Empty() not empty: len=%d", e.Len())
	}
	a := All()
	if a.Len() != AlphabetSize {
		t.Fatalf("All() len = %d, want %d", a.Len(), AlphabetSize)
	}
	for c := 0; c < AlphabetSize; c++ {
		if e.Contains(byte(c)) {
			t.Fatalf("empty set contains %d", c)
		}
		if !a.Contains(byte(c)) {
			t.Fatalf("full set missing %d", c)
		}
	}
}

func TestAddRemoveContains(t *testing.T) {
	var s Set
	s.Add('a')
	s.Add(0)
	s.Add(255)
	for _, c := range []byte{'a', 0, 255} {
		if !s.Contains(c) {
			t.Errorf("missing %d after Add", c)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	s.Remove('a')
	if s.Contains('a') {
		t.Error("'a' still present after Remove")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestRange(t *testing.T) {
	s := Range('a', 'f')
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	for c := byte('a'); c <= 'f'; c++ {
		if !s.Contains(c) {
			t.Errorf("missing %c", c)
		}
	}
	if s.Contains('g') || s.Contains('`') {
		t.Error("range includes out-of-bounds symbols")
	}
}

func TestRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range('z','a') did not panic")
		}
	}()
	Range('z', 'a')
}

func TestSetAlgebra(t *testing.T) {
	a := Range('a', 'm')
	b := Range('h', 'z')
	u := a.Union(b)
	if u.Len() != 26 {
		t.Errorf("union len = %d, want 26", u.Len())
	}
	i := a.Intersect(b)
	if i.Len() != 6 { // h..m
		t.Errorf("intersect len = %d, want 6", i.Len())
	}
	c := a.Complement()
	if c.Len() != AlphabetSize-a.Len() {
		t.Errorf("complement len = %d", c.Len())
	}
	if !a.Complement().Complement().Equal(a) {
		t.Error("double complement is not identity")
	}
}

func TestSymbolsSorted(t *testing.T) {
	s := Of('z', 'a', 'm', 0, 255)
	syms := s.Symbols()
	if len(syms) != 5 {
		t.Fatalf("Symbols len = %d, want 5", len(syms))
	}
	for i := 1; i < len(syms); i++ {
		if syms[i-1] >= syms[i] {
			t.Fatalf("Symbols not strictly ascending: %v", syms)
		}
	}
}

func TestMin(t *testing.T) {
	if _, ok := Empty().Min(); ok {
		t.Error("Min on empty set returned ok")
	}
	s := Of('q', 'b', 200)
	if m, ok := s.Min(); !ok || m != 'b' {
		t.Errorf("Min = %d,%v want 'b'", m, ok)
	}
}

func TestStringSpecialForms(t *testing.T) {
	if got := All().String(); got != "*" {
		t.Errorf("All.String = %q, want *", got)
	}
	if got := Empty().String(); got != "[]" {
		t.Errorf("Empty.String = %q, want []", got)
	}
	if got := Single('a').String(); got != "a" {
		t.Errorf("Single('a').String = %q, want a", got)
	}
	if got := Single('[').String(); got != "\\[" {
		t.Errorf("Single('[').String = %q", got)
	}
	if got := Single(0x07).String(); got != "\\x07" {
		t.Errorf("Single(7).String = %q", got)
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want Set
	}{
		{"*", All()},
		{"a", Single('a')},
		{"\\x41", Single('A')},
		{"\\n", Single('\n')},
		{"[abc]", Of('a', 'b', 'c')},
		{"[a-c]", Range('a', 'c')},
		{"[a-cx-z]", Range('a', 'c').Union(Range('x', 'z'))},
		{"[^a]", Single('a').Complement()},
		{"[\\d]", Digits()},
		{"[\\w]", Word()},
		{"[\\s]", Space()},
		{"[\\D]", Digits().Complement()},
		{"[\\x00-\\x1f]", Range(0, 0x1f)},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", c.src, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.src, got.Symbols(), c.want.Symbols())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "[abc", "ab", "\\", "[\\x4]", "[z-a]", "\\xgg"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func randomSet(r *rand.Rand) Set {
	var s Set
	n := r.Intn(64)
	for i := 0; i < n; i++ {
		s.Add(byte(r.Intn(256)))
	}
	return s
}

// Property: String/Parse round-trips every set exactly.
func TestPropStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := randomSet(r)
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) error: %v (set %v)", s.String(), err, s.Symbols())
		}
		if !got.Equal(s) {
			t.Fatalf("round trip of %v via %q gave %v", s.Symbols(), s.String(), got.Symbols())
		}
	}
}

// Property: Len equals the number of members reported by Contains.
func TestPropLenMatchesContains(t *testing.T) {
	f := func(w0, w1, w2, w3 uint64) bool {
		s := Set{w0, w1, w2, w3}
		n := 0
		for c := 0; c < AlphabetSize; c++ {
			if s.Contains(byte(c)) {
				n++
			}
		}
		return n == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — complement of union is intersection of complements.
func TestPropDeMorgan(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 uint64) bool {
		a := Set{a0, a1, a2, a3}
		b := Set{b0, b1, b2, b3}
		return a.Union(b).Complement().Equal(a.Complement().Intersect(b.Complement()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShorthandClasses(t *testing.T) {
	if Digits().Len() != 10 {
		t.Errorf("Digits len = %d", Digits().Len())
	}
	if Word().Len() != 63 {
		t.Errorf("Word len = %d, want 63", Word().Len())
	}
	if Space().Len() != 6 {
		t.Errorf("Space len = %d, want 6", Space().Len())
	}
	if !Word().Contains('_') || Word().Contains('-') {
		t.Error("Word membership wrong")
	}
}
