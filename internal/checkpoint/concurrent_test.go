package checkpoint

import (
	"fmt"
	"sync"
	"testing"

	"sparseap/internal/checkpoint/ckpttest"
)

// TestConcurrentWritersSharedStore hammers one Store from many goroutines,
// each owning its own checkpoint name (the serve-session shape: one store
// directory, one writer per session). Every name's final load must return
// that writer's last payload intact — no torn files, no cross-name
// corruption, no lost sequence numbers.
func TestConcurrentWritersSharedStore(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const saves = 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("sess-%d", w)
			for i := 0; i < saves; i++ {
				payload := []byte(fmt.Sprintf("writer %d capture %d", w, i))
				if err := store.Save(name, 1, payload); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("sess-%d", w)
		payload, version, fellback, err := store.Load(name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if fellback {
			t.Fatalf("load %s fell back: latest slot lost under concurrency", name)
		}
		if version != 1 {
			t.Fatalf("load %s: version %d", name, version)
		}
		want := fmt.Sprintf("writer %d capture %d", w, saves-1)
		if string(payload) != want {
			t.Fatalf("load %s = %q, want %q", name, payload, want)
		}
	}
	names, err := store.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != writers {
		t.Fatalf("Names() = %v, want %d entries", names, writers)
	}
}

// TestConcurrentStoresSharedDir opens two independent Store handles over
// the same directory (two sessions of one server generation, or a
// restarted server beside a draining one) writing disjoint names: both
// streams must survive verbatim.
func TestConcurrentStoresSharedDir(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, st := range []*DirStore{a, b} {
		wg.Add(1)
		go func(i int, st *DirStore) {
			defer wg.Done()
			name := fmt.Sprintf("gen-%d", i)
			for k := 0; k < 40; k++ {
				if err := st.Save(name, 1, []byte(fmt.Sprintf("g%d k%d", i, k))); err != nil {
					t.Errorf("store %d: %v", i, err)
					return
				}
			}
		}(i, st)
	}
	wg.Wait()
	check, err := Open(dir) // fresh handle, like a restarted server
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		payload, _, _, err := check.Load(fmt.Sprintf("gen-%d", i))
		if err != nil {
			t.Fatalf("gen-%d: %v", i, err)
		}
		if want := fmt.Sprintf("g%d k39", i); string(payload) != want {
			t.Fatalf("gen-%d = %q, want %q", i, payload, want)
		}
	}
}

// TestConcurrentCorruptionFallback corrupts one session's latest slot
// while other sessions keep writing: the corrupted name must recover from
// its previous-good slot, and the bystanders must be unaffected.
func TestConcurrentCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two saves so the victim has a rotated previous-good slot.
	for i := 0; i < 2; i++ {
		if err := store.Save("victim", 1, []byte(fmt.Sprintf("victim %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 30; k++ {
			if err := store.Save("bystander", 1, []byte(fmt.Sprintf("by %d", k))); err != nil {
				t.Errorf("bystander: %v", err)
				return
			}
		}
	}()
	// Corrupt the victim's latest record mid-traffic.
	ckpttest.DamageLatest(t, dir, "victim")
	wg.Wait()

	payload, _, fellback, err := store.Load("victim")
	if err != nil {
		t.Fatalf("victim load: %v", err)
	}
	if !fellback {
		t.Fatal("victim load did not fall back to the previous-good slot")
	}
	if string(payload) != "victim 0" {
		t.Fatalf("victim fallback = %q, want %q", payload, "victim 0")
	}
	if p, _, err := store.LoadPrevious("victim"); err != nil || string(p) != "victim 0" {
		t.Fatalf("LoadPrevious(victim) = %q, %v", p, err)
	}
	payload, _, _, err = store.Load("bystander")
	if err != nil {
		t.Fatalf("bystander load: %v", err)
	}
	if string(payload) != "by 29" {
		t.Fatalf("bystander = %q, want %q", payload, "by 29")
	}
}
