package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// payloadOf is save number i's payload: n bytes nothing else saves.
func payloadOf(i, n int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26), byte(i)}, (n+1)/2)[:n]
}

func mustOpen(t testing.TB, dir string) *DirStore {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSave(t testing.TB, s *DirStore, name string, payload []byte) {
	t.Helper()
	if err := s.Save(name, 1, payload); err != nil {
		t.Fatal(err)
	}
}

// wantLoads checks Load and LoadPrevious of "run" against the payloads
// given; a nil prev means LoadPrevious must find nothing.
func wantLoads(t testing.TB, s *DirStore, latest, prev []byte) {
	t.Helper()
	got, _, _, err := s.Load("run")
	if err != nil || !bytes.Equal(got, latest) {
		t.Fatalf("Load = %d bytes %.12q, err %v; want %d bytes %.12q", len(got), got, err, len(latest), latest)
	}
	got, _, err = s.LoadPrevious("run")
	if prev == nil {
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("LoadPrevious = %.12q, err %v; want ErrNoCheckpoint", got, err)
		}
		return
	}
	if err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("LoadPrevious = %d bytes %.12q, err %v; want %d bytes %.12q", len(got), got, err, len(prev), prev)
	}
}

// slotOf is what the store remembers of name.
func (s *DirStore) slotOf(name string) (slot, bool) {
	st := s.lock(name)
	defer s.unlock(st)
	sl, ok := st.slots[name]
	return sl, ok
}

// onDisk returns the sequence numbers found in name's slot file, indexed
// by region (-1: no valid record there), and the file's size.
func onDisk(t testing.TB, s *DirStore, name string) (seqs [numRegions]int64, size int64) {
	t.Helper()
	sl, _ := s.slotOf(name)
	img, err := os.ReadFile(sl.path)
	if err != nil {
		t.Fatal(err)
	}
	c := regionCap(int64(len(img)))
	if c == 0 {
		t.Fatalf("%s: %d bytes is not a slot image", name, len(img))
	}
	for r := range seqs {
		seqs[r] = -1
		if rec, err := decodeRecord(img[int64(r)*c : int64(r+1)*c]); err == nil {
			seqs[r] = int64(rec.seq)
		}
	}
	return seqs, int64(len(img))
}

// TestSaveCrashPoints kills save n+1 at every point where its bytes can
// stop reaching the disk and reopens the directory: the last completed
// save and the one before it must both load, without an error, and the
// retried save must go through.
func TestSaveCrashPoints(t *testing.T) {
	const small, big = 1000, 100 << 10
	cuts := func(rec []byte) []int {
		return []int{0, 1, headerLen - 1, headerLen, headerLen + small/2, len(rec) - 1}
	}
	recoverAndRetry := func(t *testing.T, dir string, n int) {
		t.Helper()
		s := mustOpen(t, dir)
		wantLoads(t, s, payloadOf(n, small), payloadOf(n-1, small))
		mustSave(t, s, "run", payloadOf(n+1, small))
		wantLoads(t, s, payloadOf(n+1, small), payloadOf(n, small))
		if _, err := os.Stat(s.path("run") + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp image left behind: %v", err)
		}
	}
	// n = 1, 2, 3 puts the interrupted save in each of the three regions.
	for n := 1; n <= 3; n++ {
		completed := func(t *testing.T) (*DirStore, string) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			for i := 0; i <= n; i++ {
				mustSave(t, s, "run", payloadOf(i, small))
			}
			return s, dir
		}
		rec := appendRecord(nil, namedMagic, "run", 1, uint64(n+1), payloadOf(n+1, small))
		for _, cut := range cuts(rec) {
			t.Run(fmt.Sprintf("n=%d/overwrite cut at %d", n, cut), func(t *testing.T) {
				s, dir := completed(t)
				sl, _ := s.slotOf("run")
				f, err := os.OpenFile(s.path("run"), os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt(rec[:cut], int64(sl.seq%numRegions)*sl.cap); err != nil {
					t.Fatal(err)
				}
				recoverAndRetry(t, dir, n)
			})
		}
		// The regrow path: save n+1 no longer fits and writes a new image
		// beside the file.
		for _, c := range []struct {
			name string
			part func(int) int
		}{
			{"temp partial", func(n int) int { return n / 2 }},
			{"temp complete, not renamed", func(n int) int { return n }},
		} {
			t.Run(fmt.Sprintf("n=%d/regrow %s", n, c.name), func(t *testing.T) {
				s, dir := completed(t)
				old, err := os.ReadFile(s.path("run"))
				if err != nil {
					t.Fatal(err)
				}
				carry, _ := scan(old)
				img, _ := buildImage(uint64(n+1), appendRecord(nil, namedMagic, "run", 1, uint64(n+1), payloadOf(n+1, big)), carry, regionCap(int64(len(old))))
				if err := os.WriteFile(s.path("run")+".tmp", img[:c.part(len(img))], 0o644); err != nil {
					t.Fatal(err)
				}
				recoverAndRetry(t, dir, n)
			})
		}
	}
	// The first image of a name is written under its final name; cut
	// short it holds nothing, and there was nothing before it to keep.
	for _, part := range []int{0, 1, headerLen + small/2, blockSize, 2 * blockSize} {
		t.Run(fmt.Sprintf("first image cut at %d", part), func(t *testing.T) {
			dir := t.TempDir()
			rec := appendRecord(nil, namedMagic, "run", 1, 0, payloadOf(0, small))
			img, _ := buildImage(0, rec, nil, 0)
			if err := os.WriteFile(filepath.Join(dir, "run.ckpt"), img[:part], 0o644); err != nil {
				t.Fatal(err)
			}
			s := mustOpen(t, dir)
			first := payloadOf(0, small)
			if part < len(rec) {
				first = nil
				if got, _, _, err := s.Load("run"); !errors.Is(err, ErrNoCheckpoint) {
					t.Fatalf("Load of a cut first image = %.12q, err %v; want ErrNoCheckpoint", got, err)
				}
			} else {
				// The record itself made it; only padding is missing.
				wantLoads(t, s, first, nil)
			}
			mustSave(t, s, "run", payloadOf(1, small))
			wantLoads(t, s, payloadOf(1, small), first)
		})
	}
	// A new name's first save goes into the file a removed name left, in
	// place, after that name's tombstone. Cut short, it leaves the file
	// free: neither name loads, and the retried save goes through.
	rec := appendRecord(nil, namedMagic, "next", 1, 4, payloadOf(9, small))
	for _, cut := range cuts(rec) {
		t.Run(fmt.Sprintf("recycled first save cut at %d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			for i := 0; i < 3; i++ {
				mustSave(t, s, "run", payloadOf(i, small))
			}
			if err := s.Remove("run"); err != nil {
				t.Fatal(err)
			}
			free := s.free[0]
			if free.seq != 4 {
				t.Fatalf("the free file continues at %d, want 4 (3 saves and the tombstone)", free.seq)
			}
			f, err := os.OpenFile(free.path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(rec[:cut], int64(free.seq%numRegions)*free.cap); err != nil {
				t.Fatal(err)
			}
			s = mustOpen(t, dir)
			for _, name := range []string{"run", "next"} {
				if got, _, _, err := s.Load(name); !errors.Is(err, ErrNoCheckpoint) {
					t.Fatalf("Load(%s) = %.12q, %v; want ErrNoCheckpoint", name, got, err)
				}
			}
			mustSave(t, s, "next", payloadOf(10, small))
			for _, s := range []*DirStore{s, mustOpen(t, dir)} {
				if got, _, _, err := s.Load("next"); err != nil || !bytes.Equal(got, payloadOf(10, small)) {
					t.Fatalf("retried save: Load = %.12q, %v", got, err)
				}
			}
		})
	}
}

// TestFellbackMeansAWrittenRegionFailed pins the flag: damage a reader
// has to step over sets it, bytes no record owns do not.
func TestFellbackMeansAWrittenRegionFailed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fellback := func() bool {
		t.Helper()
		_, _, fb, err := s.Load("run")
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	poke := func(off int64, b byte) {
		t.Helper()
		f, err := os.OpenFile(s.path("run"), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{b}, off); err != nil {
			t.Fatal(err)
		}
	}
	mustSave(t, s, "run", payloadOf(0, 1000))
	if fellback() {
		t.Fatal("two regions never written count as damage")
	}
	// A shorter record over a longer one leaves the old tail behind it.
	for i := 1; i <= 3; i++ {
		mustSave(t, s, "run", payloadOf(i, 1000-300*i))
	}
	wantLoads(t, s, payloadOf(3, 100), payloadOf(2, 400))
	if fellback() {
		t.Fatal("the tail of an overwritten longer record counts as damage")
	}
	sl, _ := s.slotOf("run")
	poke(3*sl.cap-1, 0xee) // padding of the last region
	if fellback() {
		t.Fatal("a byte in region padding counts as damage")
	}
	poke(int64((sl.seq-2)%numRegions)*sl.cap+headerLen+5, 0xee) // payload of save 2
	if !fellback() {
		t.Fatal("a damaged record is not reported")
	}
	wantLoads(t, s, payloadOf(3, 100), payloadOf(1, 700))
}

// TestRegrowKeepsLatestAndPrevious walks a name through 1 KB → 100 KB →
// 1 KB records: both loadable records survive every step, the file grows
// once and never shrinks, and a reopened store continues the sequence and
// the rotation where the first one stopped.
func TestRegrowKeepsLatestAndPrevious(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	mustSave(t, s, "run", payloadOf(0, 1<<10))
	wantLoads(t, s, payloadOf(0, 1<<10), nil)
	mustSave(t, s, "run", payloadOf(1, 1<<10))
	wantLoads(t, s, payloadOf(1, 1<<10), payloadOf(0, 1<<10))
	_, smallSize := onDisk(t, s, "run")

	mustSave(t, s, "run", payloadOf(2, 100<<10))
	wantLoads(t, s, payloadOf(2, 100<<10), payloadOf(1, 1<<10))
	seqs, bigSize := onDisk(t, s, "run")
	if bigSize < 3*(100<<10) || bigSize <= smallSize {
		t.Fatalf("file is %d bytes after a 100 KB record (was %d)", bigSize, smallSize)
	}
	if seqs != [numRegions]int64{0, 1, 2} {
		t.Fatalf("regions hold %v after the regrow, want [0 1 2]", seqs)
	}

	mustSave(t, s, "run", payloadOf(3, 1<<10))
	wantLoads(t, s, payloadOf(3, 1<<10), payloadOf(2, 100<<10))
	mustSave(t, s, "run", payloadOf(4, 1<<10))
	wantLoads(t, s, payloadOf(4, 1<<10), payloadOf(3, 1<<10))

	// A fresh process: its first save rewrites the image, and must keep
	// the size, the sequence and the region each number names.
	s = mustOpen(t, dir)
	mustSave(t, s, "run", payloadOf(5, 1<<10))
	wantLoads(t, s, payloadOf(5, 1<<10), payloadOf(4, 1<<10))
	mustSave(t, s, "run", payloadOf(6, 1<<10))
	wantLoads(t, s, payloadOf(6, 1<<10), payloadOf(5, 1<<10))
	seqs, size := onDisk(t, s, "run")
	if size != bigSize {
		t.Fatalf("file went from %d to %d bytes", bigSize, size)
	}
	if seqs != [numRegions]int64{6, 4, 5} {
		t.Fatalf("regions hold %v after the reopen, want [6 4 5]", seqs)
	}
}

// TestOpenSweepsTempAndClearEmpties: Open indexes a slot file under its
// name and deletes the temp image a killed rebuild left; after Remove of a
// file this process has sized, the free file stays and no handle loads or
// lists the name; Clear leaves an empty directory.
func TestOpenSweepsTempAndClearEmpties(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, mustOpen(t, dir), "run", payloadOf(0, 100))
	if err := os.WriteFile(filepath.Join(dir, "run.ckpt.tmp"), payloadOf(1, 40), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if names, err := s.Names(); err != nil || len(names) != 1 || names[0] != "run" {
		t.Fatalf("Names = %v, %v", names, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 || left[0].Name() != "run.ckpt" {
		t.Fatalf("Open left %v, want run.ckpt alone", left)
	}
	mustSave(t, s, "run", payloadOf(1, 100)) // sizes the file in this process
	if err := s.Remove("run"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DirStore{s, mustOpen(t, dir)} {
		if got, _, _, err := s.Load("run"); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("Load after Remove = %q, %v", got, err)
		}
		if got, _, err := s.LoadPrevious("run"); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("LoadPrevious after Remove = %q, %v", got, err)
		}
		if names, err := s.Names(); err != nil || len(names) != 0 {
			t.Fatalf("Names after Remove = %v, %v", names, err)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 || left[0].Name() != "run.ckpt" {
		t.Fatalf("Remove left %v behind, want the free run.ckpt alone", left)
	}
	if err := os.WriteFile(filepath.Join(dir, "run.ckpt.tmp"), payloadOf(2, 40), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("Clear left %v behind", left)
	}
}

// TestRemoveDropsInMemoryState: a long-lived server saves and retires one
// name per session; nothing of a retired name may stay in memory.
func TestRemoveDropsInMemoryState(t *testing.T) {
	dir, rounds := t.TempDir(), 200
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		// An image creation costs a file sync and a directory sync, a few
		// milliseconds on a disk and nothing on a memory filesystem.
		if dir, err = os.MkdirTemp("/dev/shm", "ckpt-leak-"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		rounds = 10000
	}
	s := mustOpen(t, dir)
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("sess-%d", i)
		mustSave(t, s, name, []byte("x"))
		if err := s.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.stripes {
		if n := len(s.stripes[i].slots); n != 0 {
			t.Fatalf("stripe %d still remembers %d removed names", i, n)
		}
	}
	// One name live at a time: every session reuses the one free file.
	if len(s.free) != 1 {
		t.Fatalf("%d free files after %d sessions one at a time, want 1", len(s.free), rounds)
	}
}

// dirEntries maps each entry of dir to what it is.
func dirEntries(t testing.TB, dir string) map[string]os.FileInfo {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, ent := range ents {
		fi, err := os.Stat(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = fi
	}
	return out
}

// TestRecycledSessionsLeaveDirectoryAlone: once each writer has retired a
// session, the sessions after it save and retire in the files those left,
// creating, renaming and deleting nothing.
func TestRecycledSessionsLeaveDirectoryAlone(t *testing.T) {
	const writers, sessions, saves = 2, 100, 16
	dir := t.TempDir()
	s := mustOpen(t, dir)
	// Warm-up: one session per writer, all live at once, then retired.
	for w := 0; w < writers; w++ {
		mustSave(t, s, fmt.Sprintf("warm-%d", w), payloadOf(w, 1000))
	}
	for w := 0; w < writers; w++ {
		if err := s.Remove(fmt.Sprintf("warm-%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	before := dirEntries(t, dir)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				name := fmt.Sprintf("sess-%d-%d", w, i)
				for k := 0; k < saves; k++ {
					if err := s.Save(name, 1, payloadOf(k, 1000)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.Remove(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	after := dirEntries(t, dir)
	if len(after) != len(before) {
		t.Fatalf("the directory went from %d entries to %d", len(before), len(after))
	}
	for name, fi := range before {
		if now, ok := after[name]; !ok || !os.SameFile(fi, now) {
			t.Fatalf("%s was replaced or deleted", name)
		}
	}
}

// TestRecycledPoolStaysBounded runs sessions of 1 KB and 24 KB records,
// one to four live at a time. A record that fits no free file regrows one
// rather than adding a file, so the directory never holds more slot files
// than the most names live at once; a live name loads its own last two
// saves, in process and after a reopen, and a removed one loads nothing.
func TestRecycledPoolStaysBounded(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	saved := map[string][]byte{} // live name → its payload; saved twice
	var live, removed []string
	peak := 0
	check := func(s *DirStore) {
		t.Helper()
		for _, name := range live {
			if got, _, _, err := s.Load(name); err != nil || !bytes.Equal(got, saved[name]) {
				t.Fatalf("Load(%s) = %d bytes, %v; want its own %d", name, len(got), err, len(saved[name]))
			}
			if got, _, err := s.LoadPrevious(name); err != nil || !bytes.Equal(got, saved[name]) {
				t.Fatalf("LoadPrevious(%s) = %d bytes, %v", name, len(got), err)
			}
		}
		for _, name := range removed {
			if got, _, _, err := s.Load(name); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("removed %s loads %d bytes, %v", name, len(got), err)
			}
		}
	}
	for i := 0; i < 48; i++ {
		name, size := fmt.Sprintf("sess-%d", i), 1<<10
		if i%3 == 1 {
			size = 24 << 10
		}
		saved[name] = payloadOf(i, size)
		mustSave(t, s, name, saved[name])
		mustSave(t, s, name, saved[name])
		live = append(live, name)
		peak = max(peak, len(live))
		for len(live) > 1+i*7%4 {
			if err := s.Remove(live[0]); err != nil {
				t.Fatal(err)
			}
			removed, live = append(removed, live[0]), live[1:]
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) > peak {
			t.Fatalf("session %d: %d slot files, at most %d names were ever live", i, len(files), peak)
		}
		check(s)
	}
	check(mustOpen(t, dir))
}

// TestConcurrentNamesClearLoad runs writers on distinct names with Names,
// Load and Clear beside them (the -race cell of the per-name locking): a
// Clear may take a name's checkpoints away at any moment, but whatever
// loads must be something that name's writer saved.
func TestConcurrentNamesClearLoad(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const writers, saves = 6, 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("sess-%d", w)
			for i := 0; i < saves; i++ {
				if err := s.Save(name, 1, []byte(fmt.Sprintf("%s capture %d", name, i))); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				for _, load := range []func() ([]byte, error){
					func() ([]byte, error) { p, _, _, err := s.Load(name); return p, err },
					func() ([]byte, error) { p, _, err := s.LoadPrevious(name); return p, err },
				} {
					p, err := load()
					if err != nil && !errors.Is(err, ErrNoCheckpoint) {
						t.Errorf("%s: %v", name, err)
					} else if err == nil && !bytes.HasPrefix(p, []byte(name+" capture ")) {
						t.Errorf("%s loaded %q", name, p)
					}
				}
			}
		}(w)
	}
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Names(); err != nil {
				t.Errorf("Names: %v", err)
			}
			if i%8 == 7 {
				if err := s.Clear(); err != nil {
					t.Errorf("Clear: %v", err)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()
}

// FuzzSlotFileDamage overwrites arbitrary bytes inside one region of a
// slot file, or truncates the file at an arbitrary length. Whatever is
// left, Load and LoadPrevious return exactly the newest and second-newest
// records whose bytes survived — never anything that was not saved — and
// damage confined to one region leaves the other two loadable. The same
// damage to a recycled file, holding a removed name's record, its
// tombstone and the next name's first record, never loads the removed
// name, and loads the next one's record exactly when it survived.
func FuzzSlotFileDamage(f *testing.F) {
	// Five saves, the first one the largest (it sizes the regions at two
	// blocks, so a truncation can land on another plausible image size):
	// the file holds saves 2, 3 and 4, each followed by an older tail.
	sizes := []int{3000, 2500, 2000, 900, 1500}
	src := mustOpen(f, f.TempDir())
	for i, n := range sizes {
		mustSave(f, src, "run", payloadOf(i, n))
	}
	pristine, err := os.ReadFile(src.path("run"))
	if err != nil {
		f.Fatal(err)
	}
	regionSize := regionCap(int64(len(pristine)))
	saved, _ := scan(pristine) // saves 4, 3, 2

	// a's saves 0-2 size the regions at two blocks; its tombstone (3) goes
	// to region 0 and b's first save (4) to region 1, over a's save 1.
	rsrc := mustOpen(f, f.TempDir())
	for i, n := range sizes[:3] {
		if err := rsrc.Save("a", 1, payloadOf(i, n)); err != nil {
			f.Fatal(err)
		}
	}
	if err := rsrc.Remove("a"); err != nil {
		f.Fatal(err)
	}
	if err := rsrc.Save("b", 1, payloadOf(4, sizes[4])); err != nil {
		f.Fatal(err)
	}
	recycled, err := os.ReadFile(rsrc.path("a"))
	if err != nil {
		f.Fatal(err)
	}
	rrecs, _ := scan(recycled)
	if len(rrecs) != numRegions || !rrecs[1].tomb || rrecs[0].name != "b" || rrecs[2].name != "a" {
		f.Fatalf("the recycled image holds %d records, want b's, a tombstone and a's", len(rrecs))
	}
	bRec, bOff := rrecs[0], int64(rrecs[0].seq%numRegions)*regionCap(int64(len(recycled)))

	f.Add([]byte("junk"), uint8(0), uint32(0), false)
	f.Add([]byte{0}, uint8(1), uint32(headerLen), false)
	f.Add(bytes.Repeat([]byte{0xff}, 9000), uint8(2), uint32(100), false)
	f.Add([]byte(namedMagic), uint8(0), uint32(0), false) // the recycled image's tombstone
	f.Add([]byte(nil), uint8(0), uint32(2*blockSize), true)
	f.Add([]byte(nil), uint8(0), uint32(numRegions*blockSize), true)
	f.Add([]byte(nil), uint8(0), uint32(len(pristine)-1), true)
	f.Add([]byte(tombMagic), uint8(1), uint32(0), false) // the newest record
	damage := func(pristine []byte, data []byte, region uint8, at uint32, truncate bool) []byte {
		img := append([]byte(nil), pristine...)
		if truncate {
			return img[:int(at)%(len(img)+1)]
		}
		regionSize := regionCap(int64(len(img)))
		start := int64(region%numRegions) * regionSize
		off := int64(at) % regionSize
		copy(img[start+off:start+regionSize], data)
		return img
	}
	f.Fuzz(func(t *testing.T, data []byte, region uint8, at uint32, truncate bool) {
		checkRecycled(t, damage(recycled, data, region, at, truncate), bRec, bOff)
		img := damage(pristine, data, region, at, truncate)
		var survivors []record
		for _, r := range saved {
			off := int64(r.seq%numRegions) * regionSize
			if end := off + int64(len(r.raw)); end <= int64(len(img)) && bytes.Equal(img[off:end], r.raw) {
				survivors = append(survivors, r)
			}
		}
		if !truncate && len(survivors) < numRegions-1 {
			t.Fatalf("damage to one region took %d records", numRegions-len(survivors))
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "run.ckpt"), img, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		latest, _, _, err := s.Load("run")
		prev, _, perr := s.LoadPrevious("run")
		switch len(survivors) {
		case 0:
			if !errors.Is(err, ErrNoCheckpoint) || !errors.Is(perr, ErrNoCheckpoint) {
				t.Fatalf("nothing survived, yet Load = %.12q (%v), LoadPrevious = %.12q (%v)", latest, err, prev, perr)
			}
		case 1:
			// LoadPrevious has nothing older to offer: the survivor again
			// (it is the previous-good record) or nothing, never anything else.
			if err != nil || !bytes.Equal(latest, survivors[0].payload()) {
				t.Fatalf("Load = %.12q (%v), want save %d", latest, err, survivors[0].seq)
			}
			if (perr == nil && !bytes.Equal(prev, survivors[0].payload())) || (perr != nil && !errors.Is(perr, ErrNoCheckpoint)) {
				t.Fatalf("LoadPrevious = %.12q (%v) with only save %d left", prev, perr, survivors[0].seq)
			}
		default:
			if err != nil || !bytes.Equal(latest, survivors[0].payload()) {
				t.Fatalf("Load = %.12q (%v), want save %d", latest, err, survivors[0].seq)
			}
			if perr != nil || !bytes.Equal(prev, survivors[1].payload()) {
				t.Fatalf("LoadPrevious = %.12q (%v), want save %d", prev, perr, survivors[1].seq)
			}
		}
	})
}

// checkRecycled opens a directory holding img as a.ckpt: a never loads
// (it was removed), and b loads its record exactly when its bytes
// survived at bOff.
func checkRecycled(t *testing.T, img []byte, bRec record, bOff int64) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.ckpt"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	for _, name := range []string{"a", "b"} {
		latest, _, _, err := s.Load(name)
		prev, _, perr := s.LoadPrevious(name)
		var want []byte
		if name == "b" && bOff < int64(len(img)) && bytes.HasPrefix(img[bOff:], bRec.raw) {
			want = bRec.payload()
		}
		if want == nil && (!errors.Is(err, ErrNoCheckpoint) || !errors.Is(perr, ErrNoCheckpoint)) {
			t.Fatalf("%s: Load = %.12q (%v), LoadPrevious = %.12q (%v); want nothing", name, latest, err, prev, perr)
		}
		if want != nil && (err != nil || !bytes.Equal(latest, want) || (perr == nil && !bytes.Equal(prev, want))) {
			t.Fatalf("%s: Load = %.12q (%v), LoadPrevious = %.12q (%v); want its first save", name, latest, err, prev, perr)
		}
	}
}

// TestSaveInPlaceAllocationBytes: an in-place save encodes its record
// into the stripe's buffer, so the bytes it allocates (the opened file and
// its path) do not follow the payload. A save of 56 KiB allocates under
// 4 KiB; encoding into a fresh record would allocate the whole 56 KiB.
func TestSaveInPlaceAllocationBytes(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	payload := payloadOf(1, 56<<10)
	for i := 0; i < 4; i++ { // sizes the file and the stripe's buffer
		mustSave(t, s, "run", payload)
	}
	const saves = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < saves; i++ {
		mustSave(t, s, "run", payload)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / saves
	t.Logf("%d bytes allocated per in-place save", per)
	if per >= 4<<10 {
		t.Fatalf("an in-place save of %d bytes allocates %d bytes, want < 4096", len(payload), per)
	}
}
