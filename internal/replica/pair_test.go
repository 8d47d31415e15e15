package replica

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparseap/internal/checkpoint"
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
	if got := full.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("pair encodes to % x, want % x", got, want)
	}
	single := Pair{Latest: []byte("new"), LatestVersion: 7}
	wantSingle := append(bytes.Clone(want[:15]), 0)
	if got := single.Encode(); !bytes.Equal(got, wantSingle) {
		t.Fatalf("pair without a previous record encodes to % x, want % x", got, wantSingle)
	}
	for _, p := range []Pair{full, single} {
		got, err := decodePair(p.Encode())
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

// FuzzDecodePair sends arbitrary bodies, correctly checksummed, through the
// receiver's sync endpoint: none may panic; a body that is not exactly one
// pair is answered 400 and saves nothing; one that is saves its previous
// record, then its latest, and nothing else.
func FuzzDecodePair(f *testing.F) {
	whole := Pair{Latest: []byte("latest"), LatestVersion: 3, HasPrev: true, Prev: []byte("previous"), PrevVersion: 2}.Encode()
	single := Pair{Latest: []byte("latest"), LatestVersion: 3}.Encode()
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
		st := &saveLog{}
		rc := NewReceiver(st, nil)
		req := httptest.NewRequest(http.MethodPost, SyncPath+"?name=sess-a", bytes.NewReader(body))
		setShipHeaders(req.Header, "ep", 1, 0, body)
		w := httptest.NewRecorder()
		rc.handleSync(w, req)

		pair, err := decodePair(body)
		if err != nil {
			if !reflect.DeepEqual(pair, Pair{}) {
				t.Fatalf("failed decode returned %+v", pair)
			}
			if w.Code != http.StatusBadRequest || len(st.saved) != 0 {
				t.Fatalf("damaged body % x answered %d and saved %d records", body, w.Code, len(st.saved))
			}
			return
		}
		var want []Pair
		if pair.HasPrev {
			want = append(want, Pair{Latest: pair.Prev, LatestVersion: pair.PrevVersion})
		}
		want = append(want, Pair{Latest: pair.Latest, LatestVersion: pair.LatestVersion})
		if w.Code != http.StatusOK || len(st.saved) != len(want) {
			t.Fatalf("body % x answered %d and saved %d records, want 200 and %d", body, w.Code, len(st.saved), len(want))
		}
		for i := range want {
			if !bytes.Equal(st.saved[i].Latest, want[i].Latest) || st.saved[i].LatestVersion != want[i].LatestVersion {
				t.Fatalf("save %d is %+v, want %+v", i, st.saved[i], want[i])
			}
		}
		if again, err := decodePair(pair.Encode()); err != nil || !reflect.DeepEqual(again, pair) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", pair, again, err)
		}
	})
}
