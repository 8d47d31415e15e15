// Package checkpoint persists execution state durably so interrupted
// automata runs — crash, cancellation, guard trip, or injected fault —
// restart from a recent snapshot instead of re-streaming from symbol 0,
// while still emitting a bit-identical report stream.
//
// The package deals in opaque payloads: the sim/ap/spap executors
// serialize their own state with Enc/Dec and hand the bytes to a Store.
// The Store's job is crash consistency:
//
//   - a name owns one slot file of three block-aligned regions; the save
//     with sequence number seq overwrites region seq%3 in place and
//     syncs it before returning, so it touches neither the latest nor
//     the previous record and a kill or power cut at any instant leaves
//     both loadable;
//   - the first save of a name, and one whose record outgrew its region,
//     writes a whole new image (create, or temp + rename), syncs it and
//     then the directory, carrying the latest and previous records over;
//   - every record carries a magic, a format version, a sequence number,
//     its length and a CRC32-C over all of those and the payload; Load
//     returns the newest record that verifies and LoadPrevious the one
//     before it, whatever happened to the rest of the file, and
//     ErrNoCheckpoint only when none survives.
//
// A Manifest ties the checkpoint files of one logical run together: the
// run's fingerprint (application, scale, seed, capacity, system, fault
// plan) and how many times it has resumed — the bookkeeping a multi-NFA
// batched run needs so `-resume` can refuse a mismatched invocation
// instead of corrupting state.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Magic identifies a checkpoint record (8 bytes, versioned separately).
const Magic = "SPAPCKPT"

// headerLen is magic(8) + version(4) + seq(8) + payloadLen(8) + crc(4).
const headerLen = 8 + 4 + 8 + 8 + 4

const (
	// numRegions is how many records a slot file holds: the one being
	// written, the latest completed one and the one before it.
	numRegions = 3
	// blockSize aligns the regions, so a torn write of one region cannot
	// reach a block a neighbouring record lives in.
	blockSize = 4096
	// numStripes is how many locks the names of a store are hashed onto.
	numStripes = 64
)

// ErrNoCheckpoint is returned by Load when no record of the name
// verifies.
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// ErrMismatch is returned when a checkpoint exists but does not belong to
// the run trying to resume from it (wrong fingerprint, network size,
// input length, or format version).
var ErrMismatch = errors.New("checkpoint: existing checkpoint belongs to a different run")

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is the durable slot-store contract the executors and the serve
// layer checkpoint through. DirStore is the concrete single-directory
// implementation; replica.Store wraps one and ships every committed slot
// to follower nodes. The contract every implementation must honor:
//
//   - Save is atomic and keeps the previous latest as the fallback; when
//     Save returns nil the payload is durable (an implementation with a
//     stronger barrier — e.g. a replication quorum — returns only once
//     that barrier holds, because callers release side effects the
//     moment Save returns);
//   - Load prefers the latest record and falls back to the previous good
//     one, returning ErrNoCheckpoint only when none survives;
//   - all methods are safe for concurrent use across names.
type Store interface {
	// Save atomically persists payload as the latest checkpoint of name;
	// the previous latest becomes the fallback.
	Save(name string, version uint32, payload []byte) error
	// Load returns the newest valid checkpoint of name; fellback reports
	// that a damaged record was skipped on the way. ErrNoCheckpoint means
	// none survives.
	Load(name string) (payload []byte, version uint32, fellback bool, err error)
	// LoadPrevious returns the checkpoint before the one Load returns, or
	// ErrNoCheckpoint.
	LoadPrevious(name string) (payload []byte, version uint32, err error)
	// Names lists the checkpoint names in the store, sorted.
	Names() ([]string, error)
	// Remove deletes every checkpoint of name.
	Remove(name string) error
	// Clear removes every checkpoint in the store.
	Clear() error
}

// DirStore persists named checkpoints in one directory, one slot file
// <name>.ckpt per name:
//
//	region 0            region 1            region 2
//	[record | zeros...] [record | zeros...] [record | zeros...]
//	0                   cap                 2*cap               3*cap
//
// cap is a multiple of blockSize, about twice the record that sized the
// file. The save with sequence number seq goes to region seq%3, so the
// two regions it leaves alone hold the latest completed save and the one
// before it. Only the first save of a name (in this process) and a record
// larger than cap write a whole image; every other save is one positioned
// write and one data sync of a file whose size and blocks do not change.
//
// A DirStore is safe for concurrent use: a serving process checkpoints
// many sessions through one shared store. Operations on one name are
// serialized (the serve layer guarantees one writer per session name
// anyway); operations on different names wait on one another only when
// their names hash to the same stripe, so their syncs overlap. Names and
// Clear wait for every operation in flight.
type DirStore struct {
	dir  string
	seed maphash.Seed

	// all is held shared by every per-name operation and exclusively by
	// Names and Clear, which need the whole directory to hold still.
	all     sync.RWMutex
	stripes [numStripes]stripe
}

// stripe serializes the names that hash to it and holds what this process
// knows of their slot files.
type stripe struct {
	mu    sync.Mutex
	slots map[string]slot
}

// slot is the in-memory state of a name this process has saved: enough to
// overwrite the next region without reading the file. Remove drops it.
type slot struct {
	seq uint64 // sequence number of the next save
	cap int64  // region capacity of the file on disk
}

var _ Store = (*DirStore)(nil)

// Open creates (if needed) and opens a checkpoint directory.
func Open(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &DirStore{dir: dir, seed: maphash.MakeSeed()}
	for i := range s.stripes {
		s.stripes[i].slots = map[string]slot{}
	}
	return s, nil
}

// path returns the slot file of name.
func (s *DirStore) path(name string) string { return filepath.Join(s.dir, name+".ckpt") }

// lock takes name's stripe (and the shared side of all); unlock undoes it.
func (s *DirStore) lock(name string) *stripe {
	s.all.RLock()
	st := &s.stripes[maphash.String(s.seed, name)%numStripes]
	st.mu.Lock()
	return st
}

func (s *DirStore) unlock(st *stripe) {
	st.mu.Unlock()
	s.all.RUnlock()
}

// record is one verified record of a slot file.
type record struct {
	seq     uint64
	version uint32
	raw     []byte // header + payload, aliasing the file image
}

func (r record) payload() []byte { return r.raw[headerLen:] }

// encodeRecord renders the on-disk record: header + payload, CRC over
// version|seq|len|payload so header corruption is also caught.
func encodeRecord(version uint32, seq uint64, payload []byte) []byte {
	var e Enc
	e.buf = make([]byte, 0, headerLen+len(payload))
	e.buf = append(e.buf, Magic...)
	e.U32(version)
	e.U64(seq)
	e.U64(uint64(len(payload)))
	crc := crc32.Update(0, castagnoli, e.buf[8:])
	crc = crc32.Update(crc, castagnoli, payload)
	e.U32(crc)
	e.buf = append(e.buf, payload...)
	return e.buf
}

// decodeRecord verifies the record that starts at b[0]. Whatever follows
// it in b — region padding, the tail of a longer record it overwrote — is
// ignored.
func decodeRecord(b []byte) (record, error) {
	if len(b) < headerLen || string(b[:8]) != Magic {
		return record{}, fmt.Errorf("bad magic")
	}
	d := NewDec(b[8:headerLen])
	version := d.U32()
	seq := d.U64()
	n := d.U64()
	crc := d.U32()
	if n > uint64(len(b)-headerLen) {
		return record{}, fmt.Errorf("truncated payload (%d of %d bytes)", len(b)-headerLen, n)
	}
	raw := b[:headerLen+int(n)]
	got := crc32.Update(crc32.Checksum(raw[8:headerLen-4], castagnoli), castagnoli, raw[headerLen:])
	if got != crc {
		return record{}, fmt.Errorf("CRC mismatch")
	}
	return record{seq: seq, version: version, raw: raw}, nil
}

// regionCap returns the region capacity of a slot file of the given size,
// or 0 for a size no slot image has: a file the parent format wrote (one
// record at offset 0) or one something truncated.
func regionCap(size int64) int64 {
	if size > 0 && size%(numRegions*blockSize) == 0 {
		return size / numRegions
	}
	return 0
}

// scan returns the records of a slot file image that verify, newest
// first, and the first verification failure of a region that has been
// written (nil when every written region verifies). A well-formed image is
// read at its three region offsets; any other file is searched at every
// block boundary, which finds the single record of a parent-format file
// and whatever records a truncation left whole.
func scan(img []byte) (recs []record, damage error) {
	step := regionCap(int64(len(img)))
	if step == 0 {
		step = blockSize
	}
	for off := int64(0); off < int64(len(img)); {
		r, err := decodeRecord(img[off:])
		if err == nil {
			recs = append(recs, r)
			off = roundUp(off+int64(len(r.raw)), step)
			continue
		}
		if damage == nil && !allZero(img[off:min(off+step, int64(len(img)))]) {
			damage = fmt.Errorf("record at offset %d: %v", off, err)
		}
		off += step
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].seq > recs[j].seq })
	return recs, damage
}

func roundUp(n, to int64) int64 { return (n + to - 1) / to * to }

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// buildImage lays out a slot image holding rec (sequence number seq) and
// up to two records carried over from the file it replaces, each in the
// region its sequence number names. Regions are about twice rec, never
// smaller than minCap and never smaller than a carried record.
func buildImage(seq uint64, rec []byte, carry []record, minCap int64) (img []byte, capacity int64) {
	carry = carry[:min(len(carry), numRegions-1)]
	capacity = max(roundUp(2*int64(len(rec)), blockSize), minCap)
	for _, r := range carry {
		capacity = max(capacity, roundUp(int64(len(r.raw)), blockSize))
	}
	img = make([]byte, numRegions*capacity)
	// Oldest first: should two sequence numbers name one region (only a
	// file this code did not write can do that), the newer record wins.
	for i := len(carry) - 1; i >= 0; i-- {
		copy(img[int64(carry[i].seq%numRegions)*capacity:], carry[i].raw)
	}
	copy(img[int64(seq%numRegions)*capacity:], rec)
	return img, capacity
}

// Save persists payload as the latest checkpoint of name and returns once
// it is durable. The records of the two saves before it are not touched,
// so a crash at any point leaves them loadable.
func (s *DirStore) Save(name string, version uint32, payload []byte) error {
	st := s.lock(name)
	defer s.unlock(st)
	sl, known := st.slots[name]
	var err error
	inPlace := known && headerLen+int64(len(payload)) <= sl.cap
	if inPlace {
		err = overwrite(s.path(name), encodeRecord(version, sl.seq, payload), int64(sl.seq%numRegions)*sl.cap)
		// A slot file that vanished under us is written anew.
		inPlace = !errors.Is(err, fs.ErrNotExist)
	}
	if !inPlace {
		// Also the first save of name in this process, and a record that
		// outgrew its region.
		sl, err = s.rebuild(name, version, payload, sl, known)
	}
	if err != nil {
		delete(st.slots, name)
		return fmt.Errorf("checkpoint: %w", err)
	}
	sl.seq++
	st.slots[name] = sl
	return nil
}

// overwrite writes rec at off in the existing slot file and syncs the
// data. The file's size and block map do not change, so the data sync
// needs no journal commit and nothing about the directory has to be
// flushed.
func overwrite(path string, rec []byte, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(rec, off)
	if err == nil {
		err = datasync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rebuild writes a whole new slot image for name: the new record plus the
// latest and previous ones of the file it replaces, which may be a slot
// file with smaller regions, a parent-format single-record file, or
// damaged. Without a file the image is created under the final name;
// otherwise it is written beside it and renamed over it, so the old
// records stay loadable until the new image is complete. Either way the
// directory is synced before returning: a new name has to survive a power
// cut too.
func (s *DirStore) rebuild(name string, version uint32, payload []byte, sl slot, known bool) (slot, error) {
	path := s.path(name)
	old, err := os.ReadFile(path)
	exists := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return sl, err
	}
	carry, _ := scan(old)
	if !known {
		// First save of this process: continue the on-disk sequence.
		sl.seq = 0
		if len(carry) > 0 {
			sl.seq = carry[0].seq + 1
		}
	}
	var img []byte
	img, sl.cap = buildImage(sl.seq, encodeRecord(version, sl.seq, payload), carry, regionCap(int64(len(old))))
	if exists {
		tmp := path + ".tmp"
		if err := writeSynced(tmp, os.O_TRUNC, img); err != nil {
			return sl, err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return sl, err
		}
	} else if err := writeSynced(path, os.O_EXCL, img); err != nil {
		return sl, err
	}
	return sl, syncDir(s.dir)
}

// writeSynced creates path (flag says what an existing file means), writes
// img and syncs it; a file it could not complete is removed.
func writeSynced(path string, flag int, img []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(img)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// read returns the verifying records of name's slot file, newest first,
// and what kept a written region (or the whole file) from being read. A
// missing file is no records and no damage.
func (s *DirStore) read(name string) (recs []record, damage error) {
	st := s.lock(name)
	defer s.unlock(st)
	img, err := os.ReadFile(s.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	return scan(img)
}

// noCheckpoint is ErrNoCheckpoint, carrying the damage that explains it.
func noCheckpoint(damage error) error {
	if damage == nil {
		return ErrNoCheckpoint
	}
	return fmt.Errorf("%w (%v)", ErrNoCheckpoint, damage)
}

// Load returns the newest checkpoint of name that verifies, whatever
// happened to the rest of the file (corruption detection with
// previous-good fallback). fellback is true exactly when a region that has
// been written fails verification — a save cut short by a crash, or
// damage at rest — so callers can log the recovery. ErrNoCheckpoint means
// no record survives.
func (s *DirStore) Load(name string) (payload []byte, version uint32, fellback bool, err error) {
	recs, damage := s.read(name)
	if len(recs) == 0 {
		return nil, 0, false, noCheckpoint(damage)
	}
	return recs[0].payload(), recs[0].version, damage != nil, nil
}

// LoadPrevious returns the checkpoint before the one Load returns. A
// session consumer that fell behind the latest checkpoint's delivery
// floor resumes one capture interval further back. When damage left a
// single record, that record is the previous-good one Load fell back to,
// and LoadPrevious returns it as well; ErrNoCheckpoint means there is no
// earlier checkpoint.
func (s *DirStore) LoadPrevious(name string) (payload []byte, version uint32, err error) {
	recs, damage := s.read(name)
	switch {
	case len(recs) >= 2:
		return recs[1].payload(), recs[1].version, nil
	case len(recs) == 1 && damage != nil:
		return recs[0].payload(), recs[0].version, nil
	}
	return nil, 0, noCheckpoint(damage)
}

// Names lists the checkpoint names in the store, sorted. A restarting
// server enumerates it to discover which sessions are resumable.
func (s *DirStore) Names() ([]string, error) {
	s.all.Lock()
	defer s.all.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if n, ok := strings.CutSuffix(ent.Name(), ".ckpt"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove deletes name's slot file and what this process remembers of it.
// A finished run uses it to retire per-section state while keeping the
// manifest. The .prev and .tmp files are what the parent format, or an
// image write cut short, may have left behind.
func (s *DirStore) Remove(name string) error {
	st := s.lock(name)
	defer s.unlock(st)
	delete(st.slots, name)
	cur := s.path(name)
	var first error
	for _, p := range []string{cur, cur + ".prev", cur + ".tmp"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// Clear removes every checkpoint file in the store's directory — the
// fresh-start path when a run begins without -resume.
func (s *DirStore) Clear() error {
	s.all.Lock()
	defer s.all.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ext := filepath.Ext(name); ext == ".ckpt" || ext == ".prev" || ext == ".tmp" {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	for i := range s.stripes {
		s.stripes[i].slots = map[string]slot{}
	}
	return nil
}
