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
	magic     = "SPAPCKPT"
	headerLen = 8 + 4 + 8 + 8 + 4 // magic, version, seq, payload length, CRC32-C
	blockSize = 4096              // records start on block boundaries
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Latest locates the newest record of name that verifies: the slot file's
// path, the record's offset in it and its length, header included. It
// fails the test when the file holds none.
func Latest(t testing.TB, dir, name string) (path string, off, n int64) {
	t.Helper()
	path = filepath.Join(dir, name+".ckpt")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var newest uint64
	for o := 0; o+headerLen <= len(b); o += blockSize {
		if string(b[o:o+8]) != magic {
			continue
		}
		seq := binary.LittleEndian.Uint64(b[o+12:])
		plen := binary.LittleEndian.Uint64(b[o+20:])
		if plen > uint64(len(b)-o-headerLen) {
			continue
		}
		end := o + headerLen + int(plen)
		crc := crc32.Update(crc32.Checksum(b[o+8:o+28], castagnoli), castagnoli, b[o+headerLen:end])
		if crc != binary.LittleEndian.Uint32(b[o+28:]) {
			continue
		}
		if !found || seq > newest {
			found, newest, off, n = true, seq, int64(o), int64(end-o)
		}
	}
	if !found {
		t.Fatalf("ckpttest: no valid record in %s", path)
	}
	return path, off, n
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
