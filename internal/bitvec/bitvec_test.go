package bitvec

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSetGetClear(t *testing.T) {
	v := New(200)
	if v.Len() != 200 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 127, 199} {
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != 6 {
		t.Errorf("Count = %d, want 6", v.Count())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if v.Count() != 5 {
		t.Errorf("Count = %d, want 5", v.Count())
	}
}

func TestResetAny(t *testing.T) {
	v := New(100)
	if v.Any() {
		t.Error("fresh vector reports Any")
	}
	v.Set(77)
	if !v.Any() {
		t.Error("Any false after Set")
	}
	v.Reset()
	if v.Any() || v.Count() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestCloneEqual(t *testing.T) {
	a := New(90)
	a.Set(3)
	a.Set(89)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Set(4)
	if a.Equal(b) {
		t.Error("mutating clone affected equality check falsely")
	}
	if a.Get(4) {
		t.Error("clone shares storage with original")
	}
	if a.Equal(New(91)) {
		t.Error("vectors of different length compare equal")
	}
}

func TestForEachIndices(t *testing.T) {
	v := New(300)
	want := []int{0, 5, 63, 64, 65, 255, 299}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if !slices.Equal(got, want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
}

// Property: Count equals the number of set bits, and ForEach visits
// exactly the set bits, under random operations.
func TestPropRandomOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	v := New(517)
	ref := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		idx := r.Intn(517)
		if r.Intn(2) == 0 {
			v.Set(idx)
			ref[idx] = true
		} else {
			v.Clear(idx)
			delete(ref, idx)
		}
	}
	if v.Count() != len(ref) {
		t.Fatalf("Count = %d, want %d", v.Count(), len(ref))
	}
	v.ForEach(func(i int) {
		if !ref[i] {
			t.Fatalf("bit %d set but not in reference", i)
		}
	})
}
