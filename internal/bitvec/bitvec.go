// Package bitvec implements dynamic bit vectors used for NFA state vectors,
// ever-enabled (hot) sets, and other dense per-state flags.
package bitvec

import "math/bits"

// Vec is a fixed-length bit vector. Create one with New; the zero value is
// an empty vector of length 0.
type Vec struct {
	words []uint64
	n     int
}

// New returns a vector of n bits, all zero.
func New(n int) *Vec {
	return &Vec{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vec) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vec) Set(i int) { v.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear sets bit i to 0.
func (v *Vec) Clear(i int) { v.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is 1.
func (v *Vec) Get(i int) bool { return v.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Reset clears all bits.
func (v *Vec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Count returns the number of set bits.
func (v *Vec) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (v *Vec) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a copy of v.
func (v *Vec) Clone() *Vec {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vec{words: w, n: v.n}
}

// Equal reports whether v and u have identical length and contents.
func (v *Vec) Equal(u *Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for each set bit index in ascending order.
func (v *Vec) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Words returns the backing word slice (length ceil(n/64)). The slice is
// shared with the vector: callers must treat it as read-only. Snapshot
// serializers use it to copy the vector without bit-by-bit iteration.
func (v *Vec) Words() []uint64 { return v.words }

// SetWords overwrites the vector's contents from words, which must have
// exactly ceil(Len/64) entries. Bits beyond Len must be zero; restore
// paths use it to load a previously serialized vector in O(words).
func (v *Vec) SetWords(words []uint64) {
	if len(words) != len(v.words) {
		panic("bitvec: SetWords length mismatch")
	}
	copy(v.words, words)
}
