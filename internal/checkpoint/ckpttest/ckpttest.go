// Package ckpttest lets tests damage a DirStore's files without knowing
// how a slot file is laid out. It parses the record header on its own
// (it cannot import checkpoint: that package's tests use it), so it also
// cross-checks the format the store writes.
package ckpttest

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

const (
	headerLen = 8 + 4 + 8 + 8 + 4 // magic, version, seq, body length, CRC32-C
	blockSize = 4096              // records start on block boundaries
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Latest locates the newest record of name that verifies: the path of the
// slot file whose newest record is name's, the record's offset in it and
// its length, header included. A record names its owner after the header.
// It fails the test when no file in dir is name's.
func Latest(t testing.TB, dir, name string) (path string, off, n int64) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		found, owner, newest := false, "", uint64(0)
		for o := 0; o+headerLen <= len(b); o += blockSize {
			magic := string(b[o : o+8])
			if magic != "SPAPCKPN" && magic != "SPAPCKPR" {
				continue
			}
			seq := binary.LittleEndian.Uint64(b[o+12:])
			blen := binary.LittleEndian.Uint64(b[o+20:])
			if blen > uint64(len(b)-o-headerLen) {
				continue
			}
			end := o + headerLen + int(blen)
			crc := crc32.Update(crc32.Checksum(b[o:o+28], castagnoli), castagnoli, b[o+headerLen:end])
			if crc != binary.LittleEndian.Uint32(b[o+28:]) {
				continue
			}
			who := "" // a tombstone (SPAPCKPR) belongs to no one
			if magic == "SPAPCKPN" {
				nlen := binary.LittleEndian.Uint64(b[o+headerLen:])
				who = string(b[o+headerLen+8 : o+headerLen+8+int(nlen)])
			}
			if !found || seq > newest {
				found, owner, newest, off, n = true, who, seq, int64(o), int64(end-o)
			}
		}
		if found && owner == name {
			return file, off, n
		}
	}
	t.Fatalf("ckpttest: no slot file in %s is %s's", dir, name)
	return "", 0, 0
}

// DamageLatest flips the last byte of the newest valid record of name, in
// place: the file keeps its size and every other record. Calling it again
// damages the record before that one.
func DamageLatest(t testing.TB, dir, name string) {
	t.Helper()
	path, off, n := Latest(t, dir, name)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off+n-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off+n-1); err != nil {
		t.Fatal(err)
	}
}
