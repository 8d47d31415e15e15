package replica

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparseap/internal/checkpoint"
	"sparseap/internal/metrics"
)

// The pair body crosses between processes that may not run the same
// build, so its bytes are pinned, not just its round trip.
func TestPairLayout(t *testing.T) {
	full := Pair{Latest: []byte("new"), LatestVersion: 7, HasPrev: true, Prev: []byte("old!"), PrevVersion: 6}
	want := []byte{
		7, 0, 0, 0, // latest version
		3, 0, 0, 0, 0, 0, 0, 0, 'n', 'e', 'w',
		1,          // has a previous record
		6, 0, 0, 0, // its version
		4, 0, 0, 0, 0, 0, 0, 0, 'o', 'l', 'd', '!',
	}
	if got := full.encode(); !bytes.Equal(got, want) {
		t.Fatalf("pair encodes to % x, want % x", got, want)
	}
	single := Pair{Latest: []byte("new"), LatestVersion: 7}
	wantSingle := append(bytes.Clone(want[:15]), 0)
	if got := single.encode(); !bytes.Equal(got, wantSingle) {
		t.Fatalf("pair without a previous record encodes to % x, want % x", got, wantSingle)
	}
	for _, p := range []Pair{full, single} {
		got, err := decodePair(p.encode())
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", p, got, err)
		}
	}
}

// saveLog is a store that only records what is saved into it.
type saveLog struct {
	checkpoint.Store
	saved []Pair // one single-record Pair per Save, in order
}

func (s *saveLog) Save(name string, version uint32, payload []byte) error {
	s.saved = append(s.saved, Pair{Latest: bytes.Clone(payload), LatestVersion: version})
	return nil
}

// FuzzDecodePair sends arbitrary bodies, in a well-formed pair frame,
// through the receiver: none may panic; a body that is not exactly one
// pair is refused — counted, unacknowledged, nothing saved — and one that
// is saves its previous record, then its latest, and nothing else.
func FuzzDecodePair(f *testing.F) {
	whole := Pair{Latest: []byte("latest"), LatestVersion: 3, HasPrev: true, Prev: []byte("previous"), PrevVersion: 2}.encode()
	single := Pair{Latest: []byte("latest"), LatestVersion: 3}.encode()
	f.Add(whole)
	f.Add(single)
	f.Add([]byte{})
	f.Add(whole[:len(whole)-3])          // truncated inside the previous record
	f.Add(whole[:9])                     // truncated inside the latest record's length
	f.Add(append(bytes.Clone(whole), 0)) // trailing byte
	noRecord := bytes.Clone(single)
	noRecord[len(noRecord)-1] = 1 // hasPrev set, no record behind it
	f.Add(noRecord)
	past := bytes.Clone(whole)
	binary.LittleEndian.PutUint64(past[4:], 1<<40) // latest's length prefix reaches past the end
	f.Add(past)
	f.Fuzz(func(t *testing.T, body []byte) {
		st, reg := &saveLog{}, metrics.NewRegistry()
		req := httptest.NewRequest(http.MethodPost, StreamPath,
			bytes.NewReader(appendFrame(nil, frame{kind: framePair, seq: 1, name: "sess-a", body: body})))
		req.Header.Set(epochHeader, "ep")
		w := httptest.NewRecorder()
		NewReceiver(st, reg).handleStream(w, req)

		pair, err := decodePair(body)
		if err != nil {
			if !reflect.DeepEqual(pair, Pair{}) {
				t.Fatalf("failed decode returned %+v", pair)
			}
			if w.Body.Len() != 0 || len(st.saved) != 0 || reg.Snapshot()["serve_replication_recv_errors"] != 1 {
				t.Fatalf("damaged body % x: acks % x, %d records saved, %v", body, w.Body.Bytes(), len(st.saved), reg.Snapshot())
			}
			return
		}
		var want []Pair
		if pair.HasPrev {
			want = append(want, Pair{Latest: pair.Prev, LatestVersion: pair.PrevVersion})
		}
		want = append(want, Pair{Latest: pair.Latest, LatestVersion: pair.LatestVersion})
		if !bytes.Equal(w.Body.Bytes(), appendAck(nil, 1, ackOK)) || len(st.saved) != len(want) {
			t.Fatalf("body % x: acks % x and %d records saved, want one ack and %d", body, w.Body.Bytes(), len(st.saved), len(want))
		}
		for i := range want {
			if !bytes.Equal(st.saved[i].Latest, want[i].Latest) || st.saved[i].LatestVersion != want[i].LatestVersion {
				t.Fatalf("save %d is %+v, want %+v", i, st.saved[i], want[i])
			}
		}
		if again, err := decodePair(pair.encode()); err != nil || !reflect.DeepEqual(again, pair) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", pair, again, err)
		}
	})
}

// Frames, like the pair, cross between builds: their bytes are pinned.
func TestFrameLayout(t *testing.T) {
	want := []byte{
		1,                      // kind: slot
		2, 0, 0, 0, 0, 0, 0, 0, // seq
		3, 0, 0, 0, // version
		2, 0, // name length
		3, 0, 0, 0, // body length
		'a', 'b', 'x', 'y', 'z',
	}
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)))
	f := frame{kind: frameSlot, seq: 2, version: 3, name: "ab", body: []byte("xyz")}
	if got := appendFrame(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("frame encodes to % x, want % x", got, want)
	}
	if got, _, err := readFrame(bytes.NewReader(want), nil); err != nil || !reflect.DeepEqual(got, f) {
		t.Fatalf("readFrame = %+v, %v", got, err)
	}
	if got := appendAck(nil, 2, ackFailed); !bytes.Equal(got, []byte{2, 0, 0, 0, 0, 0, 0, 0, 1}) {
		t.Fatalf("ack encodes to % x", got)
	}
	// Past 1 MiB the body is read as it arrives; whole or cut, it decodes
	// as a small one does.
	big := frame{kind: frameSlot, seq: 1, name: "s", body: bytes.Repeat([]byte{7}, 2<<20)}
	enc := appendFrame(nil, big)
	if got, _, err := readFrame(bytes.NewReader(enc), nil); err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("2 MiB frame: %v", err)
	}
	if _, _, err := readFrame(bytes.NewReader(enc[:len(enc)-1]), nil); err == nil {
		t.Fatal("accepted a 2 MiB frame cut short")
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to readFrame. It must never
// panic. A frame it accepts has a known kind, a name validName takes and a
// body under the cap, and re-encodes to exactly the bytes it consumed;
// every truncation of those bytes, and every one of them flipped, is
// refused.
func FuzzDecodeFrame(f *testing.F) {
	pair := Pair{Latest: []byte("latest"), LatestVersion: 3, HasPrev: true, Prev: []byte("previous"), PrevVersion: 2}.encode()
	for _, fr := range []frame{
		{kind: frameSlot, seq: 7, version: 3, name: "sess-a", body: []byte("slot payload")},
		{kind: framePair, seq: 8, name: "sess-a", body: pair},
		{kind: frameRemove, seq: 9, name: "sess-a"},
	} {
		f.Add(appendFrame(nil, fr))
	}
	f.Add(appendFrame(nil, frame{kind: 4, seq: 1, name: "sess-a"}))      // unknown kind
	f.Add(appendFrame(nil, frame{kind: frameSlot, seq: 1, name: "a/b"})) // a name validName refuses
	past := appendFrame(nil, frame{kind: frameSlot, seq: 1, name: "s"})
	binary.LittleEndian.PutUint32(past[15:], maxBody+1) // a body length past the cap
	f.Add(past)
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, _, err := readFrame(bytes.NewReader(b), nil)
		if err != nil {
			return
		}
		if fr.kind < frameSlot || fr.kind > frameRemove || !validName(fr.name) || len(fr.body) > maxBody {
			t.Fatalf("accepted %+v", fr)
		}
		enc := appendFrame(nil, fr)
		if len(enc) > len(b) || !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("accepted % x, which re-encodes to % x", b, enc)
		}
		for n := range enc {
			if _, _, err := readFrame(bytes.NewReader(enc[:n]), nil); err == nil {
				t.Fatalf("accepted the frame cut to %d of %d bytes", n, len(enc))
			}
		}
		for i := range enc {
			flipped := bytes.Clone(enc)
			flipped[i] ^= 0xff
			if _, _, err := readFrame(bytes.NewReader(flipped), nil); err == nil {
				t.Fatalf("accepted the frame with byte %d flipped", i)
			}
		}
	})
}
