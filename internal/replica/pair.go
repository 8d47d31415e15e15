package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"sparseap/internal/checkpoint"
)

// Pair is what a store holds under one name: the latest record and, once
// a second save has rotated it, the previous-good one. A follower replays
// it after an outage and a session takes it along when it moves to
// another node (internal/serve's migrate transfer), both as one pair
// frame (below). This file is the only place that knows its byte layout,
//
//	latestVersion u32, latest bytes, hasPrev bool[, prevVersion u32, prev bytes]
//
// in the checkpoint package's field encoding.
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

// encode returns the pair's wire body.
func (p Pair) encode() []byte {
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

// Frame returns the pair as one pair frame under name: the form a
// session's slots take to another node when it moves.
func (p Pair) Frame(name string) []byte {
	return appendFrame(nil, frame{kind: framePair, name: name, body: p.encode()})
}

// ReceivePair takes one pair frame off r. A frame that is not whole and
// verified (readFrame; io.EOF for an empty r), one of another kind, and a
// body that is not one whole pair yield an error and no part of a pair.
// What follows the frame on r is left unread.
func ReceivePair(r io.Reader) (name string, p Pair, err error) {
	f, _, err := readFrame(r, nil)
	switch {
	case err != nil:
		return "", Pair{}, err
	case f.kind != framePair:
		return "", Pair{}, fmt.Errorf("frame of kind %d, want a pair", f.kind)
	}
	if p, err = decodePair(f.body); err != nil {
		return "", Pair{}, err
	}
	return f.name, p, nil
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

// A replication stream (Store → Receiver) is a sequence of frames,
//
//	kind u8 | seq u64 | version u32 | nameLen u16 | bodyLen u32 | name | body | crc32c u32
//
// little-endian, the CRC32-C covering every byte before it, and the way
// back is a sequence of acknowledgements, seq u64 | status u8.
const (
	frameSlot   byte = 1 // body: one slot payload, saved as the name's latest
	framePair   byte = 2 // body: an encoded Pair, installed whole (resync)
	frameRemove byte = 3 // no body: the name's slots are retired

	frameHeader = 1 + 8 + 4 + 2 + 4
	ackLen      = 8 + 1

	ackOK     byte = 0 // applied, or a replay of what already was
	ackFailed byte = 1 // the follower's store refused the write
)

// frame is one decoded frame.
type frame struct {
	kind    byte
	seq     uint64
	version uint32
	name    string
	body    []byte
}

// appendFrame appends f's wire form to dst.
func appendFrame(dst []byte, f frame) []byte {
	start := len(dst)
	dst = append(dst, f.kind)
	dst = binary.LittleEndian.AppendUint64(dst, f.seq)
	dst = binary.LittleEndian.AppendUint32(dst, f.version)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.name)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.body)))
	dst = append(dst, f.name...)
	dst = append(dst, f.body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// readFrame takes one frame off r. io.EOF means the stream ended between
// frames. Any other error is a frame that is not whole and verified —
// truncated, of an unknown kind, over maxName or maxBody, failing its CRC
// or naming what validName refuses — and nothing of it is returned. The
// frame is read into buf when it fits, else into a new buffer, and rest
// is the buffer used: the body aliases rest, so a caller that reads the
// next frame into rest must be done with this one's body first. With a
// nil buf the body is the caller's to keep.
func readFrame(r io.Reader, buf []byte) (f frame, rest []byte, err error) {
	var h [frameHeader]byte
	if n, err := io.ReadFull(r, h[:]); err != nil {
		if n == 0 {
			return frame{}, nil, io.EOF
		}
		return frame{}, nil, fmt.Errorf("truncated frame header: %w", err)
	}
	f = frame{kind: h[0], seq: binary.LittleEndian.Uint64(h[1:]), version: binary.LittleEndian.Uint32(h[9:])}
	nameLen, bodyLen := binary.LittleEndian.Uint16(h[13:]), binary.LittleEndian.Uint32(h[15:])
	switch {
	case f.kind < frameSlot || f.kind > frameRemove:
		return frame{}, nil, fmt.Errorf("unknown frame kind %d", f.kind)
	case nameLen > maxName:
		return frame{}, nil, fmt.Errorf("frame name of %d bytes", nameLen)
	case bodyLen > maxBody:
		return frame{}, nil, errBodyTooLarge
	}
	// Past 1 MiB the buffer grows only as bytes arrive: a length is a claim.
	n := int(nameLen) + int(bodyLen) + 4
	if n <= 1<<20 {
		rest = slices.Grow(buf[:0], n)[:n]
		_, err = io.ReadFull(r, rest)
	} else if rest, err = io.ReadAll(io.LimitReader(r, int64(n))); err == nil && len(rest) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return frame{}, nil, fmt.Errorf("truncated frame: %w", err)
	}
	end := len(rest) - 4
	if crc32.Update(crc32.Checksum(h[:], castagnoli), castagnoli, rest[:end]) != binary.LittleEndian.Uint32(rest[end:]) {
		return frame{}, nil, errChecksum
	}
	if f.name = string(rest[:nameLen]); !validName(f.name) {
		return frame{}, nil, fmt.Errorf("bad checkpoint name %q", f.name)
	}
	f.body = rest[nameLen:end:end]
	return f, rest, nil
}

// appendAck appends the acknowledgement of frame seq to dst.
func appendAck(dst []byte, seq uint64, status byte) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, seq), status)
}

// parseAck splits an acknowledgement.
func parseAck(b *[ackLen]byte) (seq uint64, status byte) {
	return binary.LittleEndian.Uint64(b[:]), b[8]
}
