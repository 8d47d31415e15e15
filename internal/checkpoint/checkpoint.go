// Package checkpoint persists execution state durably so interrupted
// automata runs — crash, cancellation, guard trip, or injected fault —
// restart from a recent snapshot instead of re-streaming from symbol 0,
// while still emitting a bit-identical report stream.
//
// The package deals in opaque payloads: the spap executors and the serve
// layer serialize their own state with Enc/Dec and hand the bytes to a
// Store.
// The Store's job is crash consistency:
//
//   - a name owns one slot file of three block-aligned regions; the save
//     with sequence number seq overwrites region seq%3 in place and
//     syncs it before returning, so it touches neither the latest nor
//     the previous record and a kill or power cut at any instant leaves
//     both loadable;
//   - Remove tombstones the file and a new name's first save takes it, in
//     place too; a record that outgrew its region, or a new name with no
//     free file, writes a whole image (temp + rename, or create), syncs
//     it and then the directory;
//   - every record carries a magic, a format version, a sequence number,
//     its length, its name and a CRC32-C over all of those and the
//     payload; Load returns name's newest record that verifies and
//     LoadPrevious the one before it, whatever happened to the rest of
//     the file, and ErrNoCheckpoint only when none survives.
//
// A Manifest ties the checkpoint files of one logical run together: the
// run's fingerprint (application, scale, seed, capacity, system, fault
// plan) and how many times it has resumed — the bookkeeping a multi-NFA
// batched run needs so `-resume` can refuse a mismatched invocation
// instead of corrupting state.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// The magics (8 bytes, versioned separately) of a record, which names its
// owner, and of a tombstone, which ends its owner's records.
const (
	namedMagic = "SPAPCKPN"
	tombMagic  = "SPAPCKPR"
)

// headerLen is magic(8) + version(4) + seq(8) + bodyLen(8) + crc(4).
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
	// maxRecordBuf caps the record buffer a stripe keeps between saves: a
	// larger record is encoded into a buffer that is dropped after it.
	maxRecordBuf = 1 << 20
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
//   - Save keeps no reference to payload once it returns, so a caller may
//     reuse the buffer for its next save;
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

// DirStore persists named checkpoints in one directory of slot files:
//
//	region 0            region 1            region 2
//	[record | zeros...] [record | zeros...] [record | zeros...]
//	0                   cap                 2*cap               3*cap
//
// cap is a multiple of blockSize, about twice the record that sized the
// file. The save with sequence number seq goes to region seq%3, so the
// two regions it leaves alone hold the latest completed save and the one
// before it. A file is created as <name>.ckpt and outlives that name:
// Remove tombstones it, and the next new name takes it. Only a file this
// process has not sized and a record larger than cap write a whole image;
// every other save is one positioned write and one data sync of a file
// whose size and blocks do not change.
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

	// free holds the slot files no name owns, for new names to take.
	freeMu sync.Mutex
	free   []slot
}

// stripe serializes the names that hash to it and indexes their files.
type stripe struct {
	mu    sync.Mutex
	slots map[string]slot
	rec   []byte // the buffer Save encodes a record into, reused under mu
}

// slot is what the store knows of a slot file: enough to overwrite the
// next region without reading the file.
type slot struct {
	path string // "" for a name that has no file yet
	seq  uint64 // sequence number of the next record
	cap  int64  // region capacity; 0 until this process has sized the file
	last string // of a free file: the name that owned it last
}

var _ Store = (*DirStore)(nil)

// Open creates (if needed) and opens a checkpoint directory: it indexes
// each slot file under the name of its newest record, and deletes the
// .tmp files a cut-short image left.
func Open(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &DirStore{dir: dir, seed: maphash.MakeSeed()}
	for i := range s.stripes {
		s.stripes[i].slots = map[string]slot{}
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		switch filepath.Ext(path) {
		case ".tmp":
			os.Remove(path) // one left behind is swept again next time
		case ".ckpt":
			img, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			recs, _ := scan(img)
			sl, name := slot{path: path}, ""
			if len(recs) > 0 {
				sl.seq, name = recs[0].seq+1, recs[0].name
			}
			if len(recs) == 0 || recs[0].tomb {
				s.release(name, sl)
			} else {
				s.stripes[maphash.String(s.seed, name)%numStripes].slots[name] = sl
			}
		}
	}
	return s, nil
}

// path returns the file a name that has none is created as.
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

// take hands name, which has no file here, the free file it owned last,
// else the newest that fits an n-byte record, else the newest (the save
// regrows it), else a slot without a file.
func (s *DirStore) take(name string, n int64) (sl slot) {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	pick := len(s.free) - 1
	for i := pick; i >= 0; i-- {
		if s.free[i].last == name {
			pick = i
			break
		}
		if n <= s.free[i].cap && s.free[pick].cap < n {
			pick = i
		}
	}
	if pick >= 0 {
		sl = s.free[pick]
		s.free = append(s.free[:pick], s.free[pick+1:]...)
	}
	return sl
}

// release puts a slot file last owned by name on the free list.
func (s *DirStore) release(name string, sl slot) {
	s.freeMu.Lock()
	sl.last = name
	s.free = append(s.free, sl)
	s.freeMu.Unlock()
}

// record is one verified record of a slot file.
type record struct {
	seq     uint64
	version uint32
	name    string // the owner
	tomb    bool
	raw     []byte // header + body, aliasing the file image
	body    int    // offset of the payload in raw
}

func (r record) payload() []byte { return r.raw[r.body:] }

// appendRecord appends a record (a tombstone with tombMagic) to dst: the
// header, then the length-prefixed name and the payload. The CRC covers
// the magic, the rest of the header, the name and the payload, so no
// header damage passes.
func appendRecord(dst []byte, magic, name string, version uint32, seq uint64, payload []byte) []byte {
	start := len(dst)
	e := Enc{buf: slices.Grow(dst, headerLen+8+len(name)+len(payload))}
	e.buf = append(e.buf, magic...)
	e.U32(version)
	e.U64(seq)
	e.U64(uint64(8 + len(name) + len(payload)))
	e.U32(0) // the CRC, once the body is in
	e.String(name)
	e.buf = append(e.buf, payload...)
	rec := e.buf[start:]
	crc := crc32.Update(crc32.Checksum(rec[:headerLen-4], castagnoli), castagnoli, rec[headerLen:])
	binary.LittleEndian.PutUint32(rec[headerLen-4:], crc)
	return e.buf
}

// decodeRecord verifies the record that starts at b[0]. Whatever follows
// it in b — region padding, the tail of a longer record it overwrote — is
// ignored.
func decodeRecord(b []byte) (record, error) {
	if len(b) < headerLen || (string(b[:8]) != namedMagic && string(b[:8]) != tombMagic) {
		return record{}, fmt.Errorf("bad magic")
	}
	d := NewDec(b[8:headerLen])
	version, seq, n, crc := d.U32(), d.U64(), d.U64(), d.U32()
	if n > uint64(len(b)-headerLen) {
		return record{}, fmt.Errorf("truncated payload (%d of %d bytes)", len(b)-headerLen, n)
	}
	raw := b[:headerLen+int(n)]
	if crc32.Update(crc32.Checksum(raw[:headerLen-4], castagnoli), castagnoli, raw[headerLen:]) != crc {
		return record{}, fmt.Errorf("CRC mismatch")
	}
	d = NewDec(raw[headerLen:])
	name := d.String()
	if d.Err() != nil {
		return record{}, fmt.Errorf("bad name: %v", d.Err())
	}
	return record{seq: seq, version: version, name: name, tomb: string(b[:8]) == tombMagic, raw: raw, body: headerLen + d.off}, nil
}

// own returns name's records among recs (newest first): the run of them
// from the newest on, ended by a tombstone or another name's record, so a
// file belongs to the name of its newest record.
func own(name string, recs []record) []record {
	for i, r := range recs {
		if r.tomb || r.name != name {
			return recs[:i]
		}
	}
	return recs
}

// regionCap returns the region capacity of a slot file of the given size,
// or 0 for a size no slot image has: one something truncated.
func regionCap(size int64) int64 {
	if size > 0 && size%(numRegions*blockSize) == 0 {
		return size / numRegions
	}
	return 0
}

// scan returns the records of a slot image that verify, newest first, and
// the first verification failure of a region that has been written (nil
// when every written region verifies). A well-formed image is read at its
// three region offsets; any other file is searched at every block
// boundary, which finds whatever records a truncation left whole.
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
// so a crash at any point leaves them loadable. The record is encoded
// into the stripe's buffer, so an in-place save allocates next to nothing
// however large its payload.
func (s *DirStore) Save(name string, version uint32, payload []byte) error {
	st := s.lock(name)
	defer s.unlock(st)
	sl, known := st.slots[name]
	if !known {
		sl = s.take(name, int64(headerLen+8+len(name)+len(payload)))
	}
	rec := appendRecord(st.rec[:0], namedMagic, name, version, sl.seq, payload)
	if st.rec = rec[:0]; cap(rec) > maxRecordBuf {
		st.rec = nil
	}
	var err error
	inPlace := int64(len(rec)) <= sl.cap
	if inPlace {
		err = overwrite(sl.path, rec, int64(sl.seq%numRegions)*sl.cap, true)
		// A slot file that vanished under us is written anew.
		inPlace = !errors.Is(err, fs.ErrNotExist)
	}
	if !inPlace {
		// Also the first save into a file this process has not sized, and
		// a record that outgrew its region.
		sl, err = s.rebuild(name, version, payload, sl)
	}
	if err != nil {
		if known {
			sl.cap = 0 // the next save rebuilds from what the file holds
			st.slots[name] = sl
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	sl.seq++
	st.slots[name] = sl
	return nil
}

// overwrite writes rec at off in the existing slot file and, if sync,
// syncs the data. The file's size and block map do not change, so the
// data sync needs no journal commit and nothing about the directory has
// to be flushed.
func overwrite(path string, rec []byte, off int64, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(rec, off)
	if err == nil && sync {
		err = datasync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rebuild writes a whole new slot image for name: the new record plus the
// latest and previous of name's records in the file it replaces, which
// may be a slot file with smaller regions, a free one, or damaged. A name
// without a file continues <name>.ckpt, or gets a new file if another
// name holds that one. A new file is created under its final name; an
// existing one is replaced by temp + rename, so its records stay loadable
// until the new image is complete. Either way the directory is synced
// before returning: a new name has to survive a power cut too.
func (s *DirStore) rebuild(name string, version uint32, payload []byte, sl slot) (slot, error) {
	fresh := sl.path == ""
	if fresh {
		sl.path = s.path(name)
	}
	old, err := os.ReadFile(sl.path)
	exists := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return sl, err
	}
	recs, _ := scan(old)
	carry := own(name, recs)
	if fresh && exists && len(carry) == 0 {
		sl.path, exists, old, recs = s.path(fmt.Sprintf("%s.%x", name, time.Now().UnixNano())), false, nil, nil
	}
	if len(recs) > 0 {
		sl.seq = max(sl.seq, recs[0].seq+1)
	}
	var img []byte
	img, sl.cap = buildImage(sl.seq, appendRecord(nil, namedMagic, name, version, sl.seq, payload), carry, regionCap(int64(len(old))))
	if exists {
		tmp := sl.path + ".tmp"
		if err := writeSynced(tmp, os.O_TRUNC, img); err != nil {
			return sl, err
		}
		if err := os.Rename(tmp, sl.path); err != nil {
			os.Remove(tmp)
			return sl, err
		}
	} else if err := writeSynced(sl.path, os.O_EXCL, img); err != nil {
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

// read returns name's verifying records, newest first, and what kept a
// written region (or the whole file) from being read. A name this handle
// has not indexed is looked for in <name>.ckpt, and indexed if found
// there. A missing file is no records and no damage.
func (s *DirStore) read(name string) (recs []record, damage error) {
	st := s.lock(name)
	defer s.unlock(st)
	sl, known := st.slots[name]
	if !known {
		sl.path = s.path(name)
	}
	img, err := os.ReadFile(sl.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	recs, damage = scan(img)
	if recs = own(name, recs); len(recs) > 0 && !known {
		st.slots[name] = sl // another handle saved it
	}
	return recs, damage
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

// Names lists the names this handle indexes, sorted. A restarting server
// enumerates it to discover which sessions are resumable.
func (s *DirStore) Names() ([]string, error) {
	s.all.Lock()
	defer s.all.Unlock()
	var names []string
	for i := range s.stripes {
		for name := range s.stripes[i].slots {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove retires name: a tombstone record, written like a save but not
// synced (the unlink it replaces was not synced either), ends the run of
// name's records, and the file joins the free list. A file this process
// has not sized is deleted instead.
func (s *DirStore) Remove(name string) error {
	st := s.lock(name)
	defer s.unlock(st)
	sl, known := st.slots[name]
	delete(st.slots, name)
	if !known {
		return nil
	} else if sl.cap == 0 {
		return os.Remove(sl.path)
	}
	err := overwrite(sl.path, appendRecord(nil, tombMagic, name, 0, sl.seq, nil), int64(sl.seq%numRegions)*sl.cap, false)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	sl.seq++
	s.release(name, sl)
	return err
}

// Clear removes every checkpoint file in the store's directory, free ones
// too — the fresh-start path when a run begins without -resume.
func (s *DirStore) Clear() error {
	s.all.Lock()
	defer s.all.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ext := filepath.Ext(name); ext == ".ckpt" || ext == ".tmp" {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	for i := range s.stripes {
		s.stripes[i].slots = map[string]slot{}
	}
	s.free = nil
	return nil
}
