package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

// The reference arm: the wire as the parent of the codec wrote and read
// it. The golden cells, the fuzz targets and BenchmarkWire's ref rows hold
// wire.go to these.

// refEncodeMatchReply is what finishMatch did: copy the reports into
// pairs and hand the struct to encoding/json.
func refEncodeMatchReply(app, mode string, numReports int64, reports []sim.Report) []byte {
	resp := matchResponse{App: app, Mode: mode, NumReports: numReports, Reports: make([][2]int64, len(reports))}
	for i, rep := range reports {
		resp.Reports[i] = [2]int64{rep.Pos, int64(rep.State)}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(&resp)
	return buf.Bytes()
}

// refDecodeMatchReply is what Client.matchOnce did, with unknown keys
// refused so that it can vouch for a decoder that refuses them.
func refDecodeMatchReply(body []byte) (*matchResponse, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	m := new(matchResponse)
	if err := dec.Decode(m); err != nil {
		return nil, err
	}
	return m, nil
}

// refParseReportLine is what Client.streamAttempt did with an "r" record.
func refParseReportLine(line string) (pos, state int64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "r" {
		return 0, 0, false
	}
	pos, perr := strconv.ParseInt(fields[1], 10, 64)
	state, serr := strconv.ParseInt(fields[2], 10, 64)
	return pos, state, perr == nil && serr == nil
}

// replyWith wraps one spelling of the reports array's contents in an
// otherwise canonical reply.
func replyWith(pairs string) []byte {
	return []byte(`{"app":"a","mode":"guarded","numReports":1,"reports":[` + pairs + "]}\n")
}

// TestWireSpellings pins, spelling by spelling, what the two readers take
// for a report. A record has one spelling; a reply pair has JSON's
// whitespace and nothing else.
func TestWireSpellings(t *testing.T) {
	for _, c := range []struct {
		name   string
		line   string
		lineOK bool
		pair   string
		pairOK bool
	}{
		{"canonical", "r 5 7\n", true, "[5,7]", true},
		{"zeros", "r 0 0\n", true, "[0,0]", true},
		{"largest", "r 9223372036854775807 2147483647\n", true, "[9223372036854775807,2147483647]", true},
		{"state past int32", "r 5 2147483648\n", false, "[5,2147483648]", false},
		{"state that wraps to 1", "r 5 4294967297\n", false, "[5,4294967297]", false},
		{"position past int64", "r 9223372036854775808 1\n", false, "[9223372036854775808,1]", false},
		{"position of 20 digits", "r 10000000000000000000 1\n", false, "[10000000000000000000,1]", false},
		{"negative position", "r -5 1\n", false, "[-5,1]", false},
		{"negative state", "r 5 -1\n", false, "[5,-1]", false},
		{"negative zero", "r -0 1\n", false, "[-0,1]", false},
		{"leading plus", "r +5 1\n", false, "[+5,1]", false},
		{"leading zero", "r 05 1\n", false, "[05,1]", false},
		{"empty position", "r  1\n", false, "[,1]", false},
		{"empty state", "r 5 \n", false, "[5,]", false},
		{"double space", "r 5  1\n", false, "[5,  1]", true},
		{"tab", "r 5\t1\n", false, "[5,\t1]", true},
		{"leading space", " r 5 1\n", false, " [5,1]", true},
		{"trailing space", "r 5 1 \n", false, "[5,1 ] ", true},
		{"carriage return", "r 5 1\r\n", false, "[5,1]\r", true},
		{"missing newline", "r 5 1", false, "", false},
		{"one number", "r 5\n", false, "[5]", false},
		{"three numbers", "r 5 1 2\n", false, "[5,1,2]", false},
		{"fraction", "r 5.0 1\n", false, "[5.0,1]", false},
		{"exponent", "r 5e0 1\n", false, "[5e0,1]", false},
		{"hex", "r 0x5 1\n", false, "[0x5,1]", false},
		{"space inside a number", "r 5 1 0\n", false, "[5,1 0]", false},
		{"another record's keyword", "rr 5 1\n", false, "5,1", false},
	} {
		rep, ok := parseReportLine([]byte(c.line))
		if ok != c.lineOK {
			t.Errorf("%s: parseReportLine(%q) accepted = %v, want %v", c.name, c.line, ok, c.lineOK)
		}
		if ok {
			if pos, state, rok := refParseReportLine(c.line); !rok || pos != rep.Pos || state != int64(rep.State) {
				t.Errorf("%s: parseReportLine(%q) = %+v, the parent read (%d, %d, %v)", c.name, c.line, rep, pos, state, rok)
			}
		}
		if c.pair == "" {
			continue
		}
		m, err := decodeMatchReply(replyWith(c.pair))
		if (err == nil) != c.pairOK {
			t.Errorf("%s: decodeMatchReply(…%s…) err = %v, want accepted = %v", c.name, c.pair, err, c.pairOK)
		}
		if err == nil {
			if ref, rerr := refDecodeMatchReply(replyWith(c.pair)); rerr != nil || !reflect.DeepEqual(m, ref) {
				t.Errorf("%s: decodeMatchReply = %+v, encoding/json = %+v, %v", c.name, m, ref, rerr)
			}
		}
	}
}

// TestMatchReplyShape pins what decodeMatchReply takes for a reply around
// the pairs: the four keys once each in any order, JSON's whitespace,
// encoding/json's reading of the strings, nothing after the object.
func TestMatchReplyShape(t *testing.T) {
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"canonical", `{"app":"a","mode":"probe","numReports":2,"reports":[[1,2],[3,4]]}` + "\n", true},
		{"no newline", `{"app":"a","mode":"probe","numReports":2,"reports":[[1,2],[3,4]]}`, true},
		{"no reports", `{"app":"a","mode":"probe","numReports":0,"reports":[]}`, true},
		{"keys reordered", `{"reports":[[1,2]],"numReports":1,"mode":"probe","app":"a"}`, true},
		{"whitespace everywhere", " {\n\t\"app\" : \"a\" ,\r\n \"mode\" : \"probe\" , \"numReports\" : 1 , \"reports\" : [ [ 1 , 2 ] ] } \n", true},
		{"escaped strings", `{"app":"<a&b> \"q\" \\  ","mode":"😀","numReports":0,"reports":[]}`, true},
		{"invalid UTF-8 in a string", "{\"app\":\"a\xffb\",\"mode\":\"m\",\"numReports\":0,\"reports\":[]}", true},
		{"empty strings", `{"app":"","mode":"","numReports":0,"reports":[]}`, true},
		{"unknown key", `{"app":"a","mode":"probe","numReports":0,"reports":[],"extra":1}`, false},
		{"key in another case", `{"App":"a","mode":"probe","numReports":0,"reports":[]}`, false},
		{"repeated key", `{"app":"a","app":"b","mode":"probe","numReports":0,"reports":[]}`, false},
		{"missing reports", `{"app":"a","mode":"probe","numReports":0}`, false},
		{"missing app", `{"mode":"probe","numReports":0,"reports":[]}`, false},
		{"empty object", `{}`, false},
		{"null reports", `{"app":"a","mode":"probe","numReports":0,"reports":null}`, false},
		{"null string", `{"app":null,"mode":"probe","numReports":0,"reports":[]}`, false},
		{"negative count", `{"app":"a","mode":"probe","numReports":-1,"reports":[]}`, false},
		{"count past int64", `{"app":"a","mode":"probe","numReports":9223372036854775808,"reports":[]}`, false},
		{"count as a string", `{"app":"a","mode":"probe","numReports":"0","reports":[]}`, false},
		{"bad escape", `{"app":"\x","mode":"probe","numReports":0,"reports":[]}`, false},
		{"control byte in a string", "{\"app\":\"a\nb\",\"mode\":\"probe\",\"numReports\":0,\"reports\":[]}", false},
		{"unterminated string", `{"app":"a`, false},
		{"trailing comma", `{"app":"a","mode":"probe","numReports":0,"reports":[],}`, false},
		{"trailing comma in the pairs", `{"app":"a","mode":"probe","numReports":1,"reports":[[1,2],]}`, false},
		{"missing comma", `{"app":"a" "mode":"probe","numReports":0,"reports":[]}`, false},
		{"text after the object", `{"app":"a","mode":"probe","numReports":0,"reports":[]} x`, false},
		{"NUL after the object", "{\"app\":\"a\",\"mode\":\"probe\",\"numReports\":0,\"reports\":[]}\x00", false},
		{"truncated", `{"app":"a","mode":"probe","numReports":1,"reports":[[1,2`, false},
		{"an array", `[]`, false},
		{"empty", ``, false},
	} {
		m, err := decodeMatchReply([]byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
		if err == nil {
			if ref, rerr := refDecodeMatchReply([]byte(c.body)); rerr != nil || !reflect.DeepEqual(m, ref) {
				t.Errorf("%s: decodeMatchReply = %+v, encoding/json = %+v, %v", c.name, m, ref, rerr)
			}
		}
	}
}

// panelCase is one ledger application as serve_match sends it: 16 KiB of
// the seed-1 input.
type panelCase struct {
	name    string
	net     *automata.Network
	input   []byte
	reports []sim.Report
}

func buildPanelCase(tb testing.TB, name string) panelCase {
	tb.Helper()
	app, err := workloads.Build(name, workloads.Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	input := app.Input[:16384]
	return panelCase{name, app.Net, input, sim.Run(app.Net, input, sim.Options{CollectReports: true}).Reports}
}

// TestWireGolden holds the bytes on the socket to the parent's: the
// /v1/match body is encoding/json's rendering of the same reply, and a
// /v1/stream response is Fprintf's rendering of the same records.
func TestWireGolden(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store})
	var cases []panelCase
	for _, name := range []string{"HM", "PEN", "TCP"} {
		c := buildPanelCase(t, name)
		if err := s.AddApp(name, c.net, name+"/v1"); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fetch := func(path string, input []byte) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		return resp, body
	}
	for _, c := range cases {
		resp, body := fetch("/v1/match?app="+c.name, c.input)
		// SpAP saves none of the three apps a batch, so each runs on the
		// kernel.
		want := refEncodeMatchReply(c.name, "baseline", int64(len(c.reports)), c.reports)
		if !bytes.Equal(body, want) {
			t.Errorf("%s: /v1/match body (%d bytes) is not encoding/json's (%d bytes)", c.name, len(body), len(want))
		}
		if resp.ContentLength != int64(len(want)) {
			t.Errorf("%s: Content-Length %d on a body of %d bytes", c.name, resp.ContentLength, len(want))
		}

		_, body = fetch("/v1/stream?app="+c.name, c.input)
		var lines bytes.Buffer
		for _, rep := range c.reports {
			fmt.Fprintf(&lines, "r %d %d\n", rep.Pos, rep.State)
		}
		fmt.Fprintf(&lines, "end %d %d\n", len(c.input), len(c.reports))
		if !bytes.Equal(body, lines.Bytes()) {
			t.Errorf("%s: /v1/stream response (%d bytes) is not the parent's rendering (%d bytes)", c.name, len(body), lines.Len())
		}
	}
	if n := len(cases[1].reports); n != 11388 {
		t.Errorf("PEN reports %d times in 16 KiB, BenchmarkWire's figures assume 11388", n)
	}
}

// FuzzMatchReply holds both directions of the reply codec to
// encoding/json. On arbitrary bytes decodeMatchReply may refuse what
// encoding/json takes, never the reverse, and what both take they read
// alike. On arbitrary strings and reports appendMatchReply writes
// encoding/json's bytes, and they decode back to the reports.
func FuzzMatchReply(f *testing.F) {
	f.Add([]byte(`{"app":"PEN","mode":"guarded","numReports":2,"reports":[[1,2],[3,4]]}`+"\n"), "PEN", "guarded", []byte{})
	f.Add([]byte(` { "reports" : [ [ 0 , 0 ] ] , "numReports" : 1 , "mode" : "<" , "app" : "" } `), "<script>&\"q\"", "a b", []byte("0123456789ab"))
	f.Add([]byte(`{"app":"a","mode":"m","numReports":1,"reports":[[5,4294967297]]}`), "bad\xffutf8", "\x00\x1f", bytes.Repeat([]byte{0xff}, 24))
	f.Add([]byte(`{"app":"a","APP":"b","mode":"m","numReports":1e0,"reports":[[1],[1,2,3],null]}`), "é", "\\", []byte{1, 2, 3})
	f.Add([]byte(`{"app":"a\`), "", "", []byte{})
	f.Fuzz(func(t *testing.T, body []byte, app, mode string, raw []byte) {
		if m, err := decodeMatchReply(body); err == nil {
			ref, rerr := refDecodeMatchReply(body)
			if rerr != nil {
				t.Fatalf("decodeMatchReply took %q, encoding/json refuses it: %v", body, rerr)
			}
			if !reflect.DeepEqual(m, ref) {
				t.Fatalf("%q: decodeMatchReply = %+v, encoding/json = %+v", body, m, ref)
			}
		}

		// Twelve bytes a report, sign bits dropped: the range the engine
		// emits and the decoder takes.
		reports := make([]sim.Report, len(raw)/12)
		for i := range reports {
			reports[i].Pos = int64(binary.LittleEndian.Uint64(raw[12*i:]) >> 1)
			reports[i].State = automata.StateID(binary.LittleEndian.Uint32(raw[12*i+8:]) >> 1)
		}
		num := int64(len(raw))
		enc := appendMatchReply(nil, app, mode, num, reports)
		if ref := refEncodeMatchReply(app, mode, num, reports); !bytes.Equal(enc, ref) {
			t.Fatalf("appendMatchReply wrote %q, encoding/json %q", enc, ref)
		}
		m, err := decodeMatchReply(enc)
		if err != nil {
			t.Fatalf("decodeMatchReply refuses appendMatchReply's %q: %v", enc, err)
		}
		if ref, _ := refDecodeMatchReply(enc); !reflect.DeepEqual(m, ref) {
			t.Fatalf("%q: decodeMatchReply = %+v, encoding/json = %+v", enc, m, ref)
		}
		for i, rep := range reports {
			if m.Reports[i] != [2]int64{rep.Pos, int64(rep.State)} {
				t.Fatalf("report %d went out as %+v and came back as %v", i, rep, m.Reports[i])
			}
		}
	})
}

// FuzzReportLine: of all the newline-terminated lines the parent's
// Fields + ParseInt reading took for a report, parseReportLine takes
// exactly those appendReportLines writes — one spelling, in range — and
// reads them as the parent did.
func FuzzReportLine(f *testing.F) {
	for _, s := range []string{"r 5 7", "r 0 0", "r 9223372036854775807 2147483647", "r 5 4294967297", "r -5 1", "r +5 1",
		"r 05 1", "r  1", "r 5  1", "r 5\t1", " r 5 1", "r 5 1\r", "r 5", "r 5 1 2", "end 5 1", "", "r", "r 5 2147483648"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		if i := bytes.IndexByte(s, '\n'); i >= 0 {
			s = s[:i]
		}
		line := append(s[:len(s):len(s)], '\n')
		pos, state, refOK := refParseReportLine(string(line))
		canonical := refOK && pos >= 0 && state >= 0 && state <= math.MaxInt32 &&
			bytes.Equal(line, appendReportLines(nil, []sim.Report{{Pos: pos, State: automata.StateID(state)}}))
		rep, ok := parseReportLine(line)
		if ok != canonical {
			t.Fatalf("parseReportLine(%q) accepted = %v; the parent read (%d, %d, %v), canonical = %v", line, ok, pos, state, refOK, canonical)
		}
		if ok && (rep.Pos != pos || int64(rep.State) != state) {
			t.Fatalf("parseReportLine(%q) = %+v, the parent read (%d, %d)", line, rep, pos, state)
		}
		if _, ok := parseReportLine(s); ok {
			t.Fatalf("parseReportLine took %q, which no newline ends", s)
		}
	})
}

// wireArm is one direction of the codec over a fixed report list, as
// BenchmarkWire times it and TestWireAllocsDoNotScale counts it; ref is
// the parent's way of doing the same (nil where the code only moved).
type wireArm struct {
	name     string
	bytes    int
	run, ref func()
}

// wireSink keeps the arms' results live.
var wireSink int

func wireArms(reports []sim.Report) []wireArm {
	n := int64(len(reports))
	reply := appendMatchReply(nil, "PEN", "guarded", n, reports)
	lines := appendReportLines(nil, reports)
	buf := make([]byte, 0, len(reply))
	src := bytes.NewReader(nil)
	br := bufio.NewReaderSize(src, 64<<10)
	have := make([]sim.Report, 0, len(reports))
	return []wireArm{
		{"match_encode", len(reply),
			func() { buf = appendMatchReply(buf[:0], "PEN", "guarded", n, reports); wireSink += len(buf) },
			func() { wireSink += len(refEncodeMatchReply("PEN", "guarded", n, reports)) }},
		{"match_decode", len(reply),
			func() { m, _ := decodeMatchReply(reply); wireSink += len(m.Reports) },
			func() { m, _ := refDecodeMatchReply(reply); wireSink += len(m.Reports) }},
		{"lines_render", len(lines),
			func() { buf = appendReportLines(buf[:0], reports); wireSink += len(buf) },
			nil},
		{"lines_parse", len(lines),
			func() {
				src.Reset(lines)
				br.Reset(src)
				have = have[:0]
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						break
					}
					rep, ok := parseReportLine(line)
					if !ok {
						panic("parseReportLine refuses appendReportLines' " + string(line))
					}
					have = append(have, rep)
				}
				wireSink += len(have)
			},
			func() {
				src.Reset(lines)
				br.Reset(src)
				have = have[:0]
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						break
					}
					pos, state, _ := refParseReportLine(line)
					have = append(have, sim.Report{Pos: pos, State: automata.StateID(state)})
				}
				wireSink += len(have)
			}},
	}
}

// BenchmarkWire times the four directions of the codec on the largest
// reply the ledger's serve_match sees — PEN's 11 388 reports in 16 KiB of
// input — next to the parent's way (ref/…). ns/op ÷ 11 388 is ns/report.
func BenchmarkWire(b *testing.B) {
	arms := wireArms(buildPanelCase(b, "PEN").reports)
	for _, ref := range []bool{false, true} {
		for _, a := range arms {
			name, fn := a.name, a.run
			if ref {
				name, fn = "ref/"+a.name, a.ref
			}
			if fn == nil {
				continue
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(a.bytes))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
		}
	}
}

// TestWireAllocsDoNotScale is the codec's allocation gate: each direction
// allocates the same few objects for ten reports and for ten thousand (the
// reply's strings, the pair slice), never one per report. The counts may
// differ by the two trips through encoding/json's sync.Pool, which the race
// detector empties at random.
func TestWireAllocsDoNotScale(t *testing.T) {
	reports := make([]sim.Report, 10000)
	for i := range reports {
		reports[i] = sim.Report{Pos: int64(i) * 3, State: automata.StateID(i * 7 % 50000)}
	}
	few, many := wireArms(reports[:10]), wireArms(reports)
	for i := range few {
		a, b := testing.AllocsPerRun(20, few[i].run), testing.AllocsPerRun(20, many[i].run)
		t.Logf("%s: %v allocations for 10 reports, %v for 10000", few[i].name, a, b)
		if math.Abs(a-b) > 2 || b > 12 {
			t.Errorf("%s: %v allocations for 10 reports, %v for 10000; want the same, at most 12", few[i].name, a, b)
		}
	}
}
