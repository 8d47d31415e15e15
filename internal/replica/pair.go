package replica

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"sparseap/internal/checkpoint"
)

// Pair is what a store holds under one name: the latest record and, once
// a second save has rotated it, the previous-good one. A follower replays
// it after an outage (SyncPath) and a session takes it along when it
// moves to another node (internal/serve's migrate transfer). This file is
// the only place that knows its byte layout,
//
//	latestVersion u32, latest bytes, hasPrev bool[, prevVersion u32, prev bytes]
//
// in the checkpoint package's field encoding; the body's Checksum travels
// beside it in a request header.
type Pair struct {
	Latest        []byte
	LatestVersion uint32
	HasPrev       bool
	Prev          []byte
	PrevVersion   uint32
}

// maxBody bounds one shipped slot, resync pair or migration transfer.
// Session checkpoints are engine snapshot + report window — far below
// this; the cap keeps a misbehaving peer from ballooning a node's memory.
const maxBody = 64 << 20

// castagnoli is the CRC32-C table shared with the on-disk format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errBodyTooLarge = errors.New("body too large")
	errChecksum     = errors.New("CRC mismatch")
)

// Checksum returns the header value that guards body between nodes: its
// CRC32-C in decimal.
func Checksum(body []byte) string {
	return strconv.FormatUint(uint64(crc32.Checksum(body, castagnoli)), 10)
}

// readBody reads a request body of at most maxBody bytes and holds it to
// the Checksum its sender put in a header.
func readBody(r io.Reader, sum string) ([]byte, error) {
	want, err := strconv.ParseUint(sum, 10, 32)
	if err != nil {
		return nil, fmt.Errorf("bad checksum header %q", sum)
	}
	body, err := io.ReadAll(io.LimitReader(r, maxBody+1))
	switch {
	case err != nil:
		return nil, fmt.Errorf("short body: %w", err)
	case len(body) > maxBody:
		return nil, errBodyTooLarge
	case crc32.Checksum(body, castagnoli) != uint32(want):
		return nil, errChecksum
	}
	return body, nil
}

// LoadPair reads name's pair from st. Only a missing or unreadable latest
// record is an error: a name saved once has no previous record yet.
func LoadPair(st checkpoint.Store, name string) (p Pair, err error) {
	if p.Latest, p.LatestVersion, _, err = st.Load(name); err != nil {
		return Pair{}, err
	}
	if prev, ver, err := st.LoadPrevious(name); err == nil {
		p.Prev, p.PrevVersion, p.HasPrev = prev, ver, true
	}
	return p, nil
}

// Encode returns the pair's wire body.
func (p Pair) Encode() []byte {
	var e checkpoint.Enc
	e.U32(p.LatestVersion)
	e.BytesField(p.Latest)
	e.Bool(p.HasPrev)
	if p.HasPrev {
		e.U32(p.PrevVersion)
		e.BytesField(p.Prev)
	}
	return e.Bytes()
}

// decodePair parses a wire body, which must be one whole pair and nothing
// else: a truncated record, a length prefix reaching past the end, a set
// hasPrev with no record behind it and trailing bytes are all errors.
func decodePair(body []byte) (p Pair, err error) {
	d := checkpoint.NewDec(body)
	p.LatestVersion = d.U32()
	p.Latest = d.BytesField()
	if p.HasPrev = d.Bool(); p.HasPrev {
		p.PrevVersion = d.U32()
		p.Prev = d.BytesField()
	}
	if err := d.Done(); err != nil {
		return Pair{}, fmt.Errorf("malformed slot pair: %w", err)
	}
	return p, nil
}

// ReadPair takes a pair off a request body sent with the given Checksum.
// A body that is too large, fails its checksum or does not decode yields
// an error and no part of a pair.
func ReadPair(r io.Reader, sum string) (Pair, error) {
	body, err := readBody(r, sum)
	if err != nil {
		return Pair{}, err
	}
	return decodePair(body)
}

// Install saves the pair under name in st, previous record first: Save's
// own rotation then leaves st holding the latest + previous-good records
// the pair was loaded from, so a consumer behind the latest record's
// delivery floor still finds the one before it. Installing the same pair
// again converges to the same two records.
func (p Pair) Install(st checkpoint.Store, name string) error {
	if p.HasPrev {
		if err := st.Save(name, p.PrevVersion, p.Prev); err != nil {
			return err
		}
	}
	return st.Save(name, p.LatestVersion, p.Latest)
}
