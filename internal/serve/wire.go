// The report codec: how a report crosses the wire, in both directions and
// on both ends of the socket. A /v1/match reply carries its reports as
// JSON pairs and a /v1/stream session carries them as "r" records (the
// grammars are stated in match.go and session.go); an input that reports
// often puts ten thousand of them in one reply, so both spellings are
// rendered with strconv.AppendInt into one buffer and read back digit by
// digit — no reflection, and nothing allocated per report. The reply's two
// strings go through encoding/json, twice a reply.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"sparseap/internal/automata"
	"sparseap/internal/sim"
)

// parseDecimal reads the canonical decimal spelling of an integer in
// [0, max] off the front of b — "0", or digits without a leading zero, no
// sign — and returns it with the bytes it took; n == 0 when b does not
// start with one. max is at least 9.
func parseDecimal(b []byte, max int64) (v int64, n int) {
	for n < len(b) && b[n]-'0' <= 9 {
		d := int64(b[n] - '0')
		if v > (max-d)/10 {
			return 0, 0
		}
		v = v*10 + d
		n++
	}
	if n > 1 && b[0] == '0' {
		return 0, 0
	}
	return v, n
}

// appendReportLines renders reports as "r <pos> <state>\n" records.
func appendReportLines(b []byte, reports []sim.Report) []byte {
	for _, rep := range reports {
		b = append(b, "r "...)
		b = strconv.AppendInt(b, rep.Pos, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(rep.State), 10)
		b = append(b, '\n')
	}
	return b
}

// parseReportLine reads one record off a stream. It accepts exactly what
// appendReportLines writes for a report in [0, MaxInt64] × [0, MaxInt32],
// newline included: a line cut short by a dying connection, or spelled any
// other way, is not a report.
func parseReportLine(line []byte) (rep sim.Report, ok bool) {
	if len(line) < 2 || line[0] != 'r' || line[1] != ' ' {
		return rep, false
	}
	pos, n := parseDecimal(line[2:], math.MaxInt64)
	i := 2 + n
	if n == 0 || i == len(line) || line[i] != ' ' {
		return rep, false
	}
	state, n := parseDecimal(line[i+1:], math.MaxInt32)
	i += 1 + n
	if n == 0 || i != len(line)-1 || line[i] != '\n' {
		return rep, false
	}
	return sim.Report{Pos: pos, State: automata.StateID(state)}, true
}

// appendMatchReply renders the /v1/match body: byte for byte what
// json.NewEncoder(w).Encode of the matchResponse holding the same reports
// writes, trailing newline included.
func appendMatchReply(b []byte, app, mode string, numReports int64, reports []sim.Report) []byte {
	b = appendJSONString(append(b, `{"app":`...), app)
	b = appendJSONString(append(b, `,"mode":`...), mode)
	b = strconv.AppendInt(append(b, `,"numReports":`...), numReports, 10)
	b = append(b, `,"reports":[`...)
	for i, rep := range reports {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, rep.Pos, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(rep.State), 10)
		b = append(b, ']')
	}
	return append(b, "]}\n"...)
}

func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// decodeMatchReply reads a /v1/match body. It is a reader of that one
// schema, not of JSON: the four keys exactly once each in any order,
// insignificant whitespace anywhere JSON allows it, numbers as
// parseDecimal spells them, pairs of exactly two. Everything it accepts
// encoding/json accepts, into the same matchResponse.
func decodeMatchReply(body []byte) (*matchResponse, error) {
	r := replyReader{b: body}
	m := new(matchResponse)
	malformed := func() (*matchResponse, error) {
		return nil, fmt.Errorf("serve: malformed match reply at byte %d of %d", r.i, len(body))
	}
	if !r.take('{') {
		return malformed()
	}
	for seen := 0; ; {
		key := r.literal()
		if key == nil || !r.take(':') {
			return malformed()
		}
		var bit int
		var ok bool
		switch string(key) {
		case `"app"`:
			bit, ok = 1, r.str(&m.App)
		case `"mode"`:
			bit, ok = 2, r.str(&m.Mode)
		case `"numReports"`:
			bit = 4
			m.NumReports, ok = r.number(math.MaxInt64)
		case `"reports"`:
			bit = 8
			m.Reports, ok = r.pairs()
		default:
			return nil, fmt.Errorf("serve: match reply has unknown key %q", key[1:len(key)-1])
		}
		if !ok || seen&bit != 0 {
			return malformed()
		}
		seen |= bit
		if r.take(',') {
			continue
		}
		if !r.take('}') || seen != 1|2|4|8 || r.peek() != 0 || r.i != len(body) {
			return malformed()
		}
		return m, nil
	}
}

// replyReader is decodeMatchReply's cursor.
type replyReader struct {
	b []byte
	i int
}

// peek skips insignificant whitespace and returns the byte under the
// cursor, 0 at the end of the body.
func (r *replyReader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		if c := r.b[r.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// take consumes c if it is the next significant byte.
func (r *replyReader) take(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.i++
	return true
}

// literal consumes a JSON string and returns it undecoded, quotes
// included; nil when the cursor is not on a terminated one.
func (r *replyReader) literal() []byte {
	if r.peek() != '"' {
		return nil
	}
	for j := r.i + 1; j < len(r.b); j++ {
		switch r.b[j] {
		case '\\':
			j++
		case '"':
			lit := r.b[r.i : j+1]
			r.i = j + 1
			return lit
		}
	}
	return nil
}

// str decodes a JSON string value as encoding/json does: escapes
// resolved, invalid UTF-8 replaced, a control byte an error.
func (r *replyReader) str(dst *string) bool {
	lit := r.literal()
	return lit != nil && json.Unmarshal(lit, dst) == nil
}

func (r *replyReader) number(max int64) (int64, bool) {
	r.peek()
	v, n := parseDecimal(r.b[r.i:], max)
	r.i += n
	return v, n > 0
}

// pairs reads the reports array. The slice is allocated once: a pair
// opens with a bracket and takes six bytes at least, and the smaller of
// the two bounds is exact for a body without whitespace.
func (r *replyReader) pairs() ([][2]int64, bool) {
	if !r.take('[') {
		return nil, false
	}
	rest := r.b[r.i:]
	out := make([][2]int64, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/6))
	for !r.take(']') {
		var p [2]int64
		var ok bool
		if len(out) > 0 && !r.take(',') || !r.take('[') {
			return nil, false
		}
		if p[0], ok = r.number(math.MaxInt64); !ok || !r.take(',') {
			return nil, false
		}
		if p[1], ok = r.number(math.MaxInt32); !ok || !r.take(']') {
			return nil, false
		}
		out = append(out, p)
	}
	return out, true
}
