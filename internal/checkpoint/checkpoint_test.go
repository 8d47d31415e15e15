package checkpoint

import (
	"errors"
	"math"
	"os"
	"testing"

	"sparseap/internal/checkpoint/ckpttest"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.I32(-7)
	e.F64(3.5)
	e.BytesField([]byte("payload"))
	e.String("name")
	e.U64s([]uint64{1, 2, 3})
	e.I64s([]int64{-1, 0, 9})
	e.I32s([]int32{5, -5})

	d := NewDec(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round-trip failed")
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.I32(); v != -7 {
		t.Errorf("I32 = %d", v)
	}
	if v := d.F64(); v != 3.5 {
		t.Errorf("F64 = %v", v)
	}
	if v := string(d.BytesField()); v != "payload" {
		t.Errorf("BytesField = %q", v)
	}
	if v := d.String(); v != "name" {
		t.Errorf("String = %q", v)
	}
	if v := d.U64s(); len(v) != 3 || v[2] != 3 {
		t.Errorf("U64s = %v", v)
	}
	if v := d.I64s(); len(v) != 3 || v[0] != -1 {
		t.Errorf("I64s = %v", v)
	}
	if v := d.I32s(); len(v) != 2 || v[1] != -5 {
		t.Errorf("I32s = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestDecTruncationAndTrailing(t *testing.T) {
	var e Enc
	e.U64(1)
	d := NewDec(e.Bytes()[:4])
	d.U64()
	if d.Err() == nil {
		t.Fatal("truncated read did not error")
	}
	// Trailing bytes are an error too.
	d = NewDec(append(append([]byte(nil), e.Bytes()...), 0))
	d.U64()
	if err := d.Done(); err == nil {
		t.Fatal("trailing bytes not rejected")
	}
}

func TestDecImplausibleLength(t *testing.T) {
	var e Enc
	e.U64(1 << 40) // length prefix far beyond the record
	d := NewDec(e.Bytes())
	if v := d.U64s(); v != nil || d.Err() == nil {
		t.Fatalf("implausible length accepted: %v, err %v", v, d.Err())
	}
}

func TestSaveLoadRotation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Load("run"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: err = %v, want ErrNoCheckpoint", err)
	}
	if err := s.Save("run", 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	payload, ver, fellback, err := s.Load("run")
	if err != nil || ver != 1 || fellback || string(payload) != "second" {
		t.Fatalf("Load = %q v%d fellback=%v err=%v", payload, ver, fellback, err)
	}
}

func TestCorruptLatestFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the latest record; the previous one must win.
	ckpttest.DamageLatest(t, dir, "run")
	payload, _, fellback, err := s.Load("run")
	if err != nil || !fellback || string(payload) != "good" {
		t.Fatalf("fallback Load = %q fellback=%v err=%v, want \"good\" via prev", payload, fellback, err)
	}
}

func TestTruncatedLatestFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("newer-but-truncated")); err != nil {
		t.Fatal(err)
	}
	// Cut the file in the middle of the latest record.
	path, off, n := ckpttest.Latest(t, dir, "run")
	if err := os.Truncate(path, off+n/2); err != nil {
		t.Fatal(err)
	}
	payload, _, fellback, err := s.Load("run")
	if err != nil || !fellback || string(payload) != "good" {
		t.Fatalf("truncated Load = %q fellback=%v err=%v", payload, fellback, err)
	}
}

func TestBothSlotsCorruptIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	ckpttest.DamageLatest(t, dir, "run")
	ckpttest.DamageLatest(t, dir, "run")
	// Both records corrupt degrades to a fresh start (wrapped ErrNoCheckpoint
	// carrying the detail), never a torn resume.
	_, _, _, err = s.Load("run")
	if !errors.Is(err, ErrNoCheckpoint) || err == ErrNoCheckpoint {
		t.Fatalf("double corruption: err = %v, want wrapped ErrNoCheckpoint with detail", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	path, off, _ := ckpttest.Latest(t, dir, "run")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("WRONGMAG"), off); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Load("run"); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSeqSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	// A new store (fresh process) must continue the sequence so its next
	// save is recognized as newer than the surviving slots.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Save("run", 1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	payload, _, _, err := s2.Load("run")
	if err != nil || string(payload) != "two" {
		t.Fatalf("reopened Load = %q err=%v", payload, err)
	}
}

func TestRunnerDisabledDegradesToNoops(t *testing.T) {
	var r *Runner
	if r.Enabled() || r.Due(8192) {
		t.Fatal("nil runner claims to be enabled")
	}
	if err := r.Check(1); err != nil {
		t.Fatal(err)
	}
	r = &Runner{} // no store
	if (*Runner)(nil).Next(0) != math.MaxInt64 || r.Next(0) != math.MaxInt64 {
		t.Fatal("a runner with neither store nor crash hook asks for control")
	}
	if err := r.Save(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("disabled Load err = %v", err)
	}
}

func TestRunnerDueCadenceAndCrashHook(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Store: s, Name: "x", Every: 100}
	for _, pos := range []int64{0, 50, 100, 101, 200} {
		want := pos == 100 || pos == 200
		if got := r.Due(pos); got != want {
			t.Errorf("Due(%d) = %v, want %v", pos, got, want)
		}
	}
	// Next names exactly the due positions, from any starting point.
	for from := int64(0); from <= 201; from++ {
		want := from
		for !r.Due(want) {
			want++
		}
		if got := r.Next(from); got != want {
			t.Fatalf("Next(%d) = %d, want %d", from, got, want)
		}
	}
	// Crash hook fires even without a store, and is polled everywhere.
	bare := &Runner{CrashAt: func(pos int64) bool { return pos == 7 }}
	if got := bare.Next(5); got != 5 {
		t.Fatalf("Next(5) with a crash hook = %d, want 5", got)
	}
	if err := bare.Check(6); err != nil {
		t.Fatal(err)
	}
	if err := bare.Check(7); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("Check(7) = %v, want ErrCrashInjected", err)
	}
}

func TestManifestRoundTripAndResume(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.FreshManifest("app/d8", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumes != 0 {
		t.Fatalf("fresh Resumes = %d", m.Resumes)
	}
	m2, err := s.ResumeManifest("app/d8", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Resumes != 1 || m2.Fingerprint != "app/d8" || m2.InputLen != 1024 {
		t.Fatalf("resumed manifest = %+v", m2)
	}
	if m3, err := s.LoadManifest(); err != nil || *m3 != *m2 {
		t.Fatalf("reloaded manifest = %+v (%v), want %+v", m3, err, m2)
	}
	// A different run must be refused.
	if _, err := s.ResumeManifest("other/d8", 1024); !errors.Is(err, ErrMismatch) {
		t.Fatalf("fingerprint mismatch err = %v", err)
	}
	if _, err := s.ResumeManifest("app/d8", 2048); !errors.Is(err, ErrMismatch) {
		t.Fatalf("input-length mismatch err = %v", err)
	}
	// A manifest of another record version is refused, not misread.
	if err := s.Save(manifestName, manifestVersion-1, []byte("older")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResumeManifest("app/d8", 1024); !errors.Is(err, ErrMismatch) {
		t.Fatalf("older manifest version err = %v", err)
	}
}

func TestFreshManifestClearsStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("spap", 1, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FreshManifest("fp", 10); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Load("spap"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("stale checkpoint survived FreshManifest: %v", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("run", 3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	payload, ver, _, err := s.Load("run")
	if err != nil || ver != 3 || string(payload) != "x" {
		t.Fatalf("Load = %q v%d err=%v", payload, ver, err)
	}
}
