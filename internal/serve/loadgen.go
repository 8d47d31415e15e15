// Resilient client for the session protocol. The Client implements it
// from the consumer's side — retry with backoff across sheds, suspends,
// kills, restarts, migrations and node loss — and is what apserve's
// loadgen mode, the chaos tests and the bench ledger drive a server with.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseap/internal/sim"
)

// Client is a session-protocol client with retry, backoff, and cluster
// failover. The zero value is not usable; fill URL at least.
type Client struct {
	// URL returns the server base URL (a func so a chaos harness can
	// repoint the client at a restarted server between attempts).
	URL func() string
	// Peers are alternate server base URLs. On a connect failure, a
	// mid-stream break, or a 503 the client rotates to the next base and
	// resumes the same session from its delivery floor; a `moved` record
	// overrides the rotation and sends the next attempt straight to the
	// named peer. With no peers the client behaves as a single-node
	// client.
	Peers []string
	// Tenant is sent as X-Tenant.
	Tenant string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// Chunk is the body write granularity (default 4096).
	Chunk int
	// Pace sleeps between chunk writes, stretching a stream out so a
	// chaos test can kill the server mid-flight.
	Pace time.Duration

	// Sheds counts attempts refused by admission control.
	Sheds atomic.Int64
	// Resumes counts successful reconnects that resumed mid-stream.
	Resumes atomic.Int64
	// Retries counts all re-connection attempts after the first.
	Retries atomic.Int64
	// Restarts counts forced session restarts (409 responses after every
	// base refused, and resumed sessions the server could only start from
	// scratch).
	Restarts atomic.Int64
	// Failovers counts attempts sent to a different base than the
	// previous attempt (rotation or a moved record).
	Failovers atomic.Int64
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) chunk() int {
	if c.Chunk > 0 {
		return c.Chunk
	}
	return 4096
}

// bases returns the ordered base URLs to try: the primary, then the
// peers. Recomputed per attempt because URL may be repointed between
// attempts by a chaos harness.
func (c *Client) bases() []string {
	out := make([]string, 0, 1+len(c.Peers))
	out = append(out, strings.TrimRight(c.URL(), "/"))
	for _, p := range c.Peers {
		out = append(out, strings.TrimRight(p, "/"))
	}
	return out
}

// StreamResult is the outcome of one completed stream session.
type StreamResult struct {
	Session string
	Reports []sim.Report
}

// Stream's retry schedule: the delay before the first retry, doubled up
// to streamMaxBackoff, and the cap on connection attempts per stream.
const (
	streamBackoff     = 25 * time.Millisecond
	streamMaxBackoff  = time.Second
	streamMaxAttempts = 64
)

// Stream runs input through app as one session, surviving sheds,
// suspends, disconnects, server restarts, migrations, and node loss,
// and returns the exactly-once report stream. A `moved` record sends
// the next attempt to the named peer; connect failures, mid-stream
// breaks, and 503s rotate through the peer list, resuming the session
// from the client's delivery floor on whichever node holds (or was
// shipped) its slots. A 409 restarts the session from scratch with
// local state discarded — but only after every base refused, since a
// 409 can be node-specific (a peer with a different app build).
func (c *Client) Stream(ctx context.Context, appName string, input []byte) (*StreamResult, error) {
	id := newSessionID()
	backoff := streamBackoff
	list := reportLists.Get().(*[]sim.Report)
	have := (*list)[:0]
	defer func() {
		*list = pooled(have) // an oversized list may be the result: never pooled
		reportLists.Put(list)
	}()
	restart := false
	baseIdx := 0 // rotation cursor into bases()
	moved := ""  // non-empty: a moved record named the next base
	prevBase := ""
	conflicts := 0 // consecutive 409s this rotation round

	for attempt := 0; attempt < streamMaxAttempts; attempt++ {
		if attempt > 0 {
			c.Retries.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if backoff < streamMaxBackoff {
				backoff *= 2
			}
		}
		if restart {
			have = have[:0]
		}
		bases := c.bases()
		base := moved
		if base == "" {
			base = bases[baseIdx%len(bases)]
		}
		failover := prevBase != "" && base != prevBase
		if failover {
			c.Failovers.Add(1)
		}
		prevBase = base
		ar := c.streamAttempt(ctx, base, appName, id, input, have, restart, failover)
		have = ar.have
		restart = false
		if ar.err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Connection-level failure: the node may be gone; rotate.
			moved = ""
			baseIdx++
			continue
		}
		if ar.out != attemptRestart {
			conflicts = 0
		}
		switch ar.out {
		case attemptDone:
			res := &StreamResult{Session: id, Reports: have}
			if !oversized(have) {
				res.Reports = slices.Clone(have) // have goes back to the pool
			}
			return res, nil
		case attemptMoved:
			moved = ar.moved // reconnect where the session went
		case attemptShed:
			c.Sheds.Add(1)
			if ar.status == http.StatusServiceUnavailable {
				// Node-level pressure or drain: a sibling may have room.
				moved = ""
				baseIdx++
			} // 429 is this tenant's rate limit: same everywhere, just wait
		case attemptRestart:
			if conflicts+1 < len(bases) {
				// This node refused to resume; another may hold the
				// session's slots (replication, migration). Keep the
				// local reports and try it before giving up on them.
				conflicts++
				moved = ""
				baseIdx++
				continue
			}
			c.Restarts.Add(1)
			restart = true
			conflicts = 0
		case attemptSuspend:
			// Drain: reconnect to the same base (its successor process).
		case attemptBroken:
			moved = ""
			baseIdx++
		}
	}
	return nil, fmt.Errorf("serve: stream %s gave up after %d attempts", id, streamMaxAttempts)
}

type attemptOutcome int

const (
	attemptDone attemptOutcome = iota
	attemptShed
	attemptSuspend
	attemptBroken
	attemptRestart
	attemptMoved
)

// attemptResult is one connection attempt's outcome.
type attemptResult struct {
	out    attemptOutcome
	have   []sim.Report // updated report list
	moved  string       // base URL from a moved record (out == attemptMoved)
	status int          // HTTP status of a shed (0 otherwise)
	err    error
}

// brokenf is the outcome of an attempt the server's bytes broke: the
// reports held so far and what was wrong with the stream.
func brokenf(have []sim.Report, format string, args ...any) attemptResult {
	return attemptResult{out: attemptBroken, have: have, err: fmt.Errorf(format, args...)}
}

// readers holds the 64 KiB response readers of finished stream attempts.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// reportLists holds the report lists of finished streams. A stream
// collects its reports into one and returns a copy of exactly their
// length, so it allocates its result once; a list past maxPooledBytes is
// itself the result and never goes back.
var reportLists = sync.Pool{New: func() any { return new([]sim.Report) }}

// minHave is the report capacity a list starts at once it gets its first
// report.
const minHave = 1024

// appendReport appends rep to have, doubling the capacity from minHave
// when it is full: the lists a list outgrows sum to less than the one
// that holds it, where append's ~1.25x steps on a large list sum to ~4x.
func appendReport(have []sim.Report, rep sim.Report) []sim.Report {
	if len(have) == cap(have) {
		have = append(make([]sim.Report, 0, max(minHave, 2*cap(have))), have...)
	}
	return append(have, rep)
}

// streamAttempt makes one connection to base and runs it until end,
// suspend, moved, or failure, returning the updated report list.
func (c *Client) streamAttempt(ctx context.Context, base, appName, id string, input []byte, have []sim.Report, restart, failover bool) attemptResult {
	pr, pw := io.Pipe()
	defer pr.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/stream?app="+appName, pr)
	if err != nil {
		return attemptResult{out: attemptBroken, have: have, err: err}
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	req.Header.Set("X-Session", id)
	req.Header.Set("X-Have-Reports", strconv.Itoa(len(have)))
	if restart {
		req.Header.Set("X-Restart", "1")
	}
	if failover {
		req.Header.Set("X-Failover", "1")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		pw.CloseWithError(err)
		return attemptResult{out: attemptBroken, have: have, err: err}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		pw.CloseWithError(io.ErrClosedPipe)
		return attemptResult{out: attemptShed, have: have, status: resp.StatusCode}
	case http.StatusConflict:
		pw.CloseWithError(io.ErrClosedPipe)
		return attemptResult{out: attemptRestart, have: have}
	default:
		pw.CloseWithError(io.ErrClosedPipe)
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return attemptResult{out: attemptBroken, have: have,
			err: fmt.Errorf("serve: stream status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
	// A missing or garbled position is a broken attempt, not position 0:
	// read as 0 it would discard the reports held and count a restart.
	resumePos, perr := strconv.ParseInt(resp.Header.Get("X-Resume-Pos"), 10, 64)
	if perr != nil || resumePos < 0 || resumePos > int64(len(input)) {
		pw.CloseWithError(io.ErrClosedPipe)
		return brokenf(have, "serve: bad resume pos %q", resp.Header.Get("X-Resume-Pos"))
	}
	if resumePos > 0 {
		c.Resumes.Add(1)
	} else if len(have) > 0 {
		// A session starting at position 0 re-delivers every report (the
		// slot is gone, as after node loss without replication): drop the
		// local copies so the assembled stream stays exactly-once. This
		// is the explicit degradation path — counted as a restart, never
		// silent.
		c.Restarts.Add(1)
		have = have[:0]
	}

	// Feed the remaining input in the background while reading reports.
	go func() {
		chunk := c.chunk()
		for off := int(resumePos); off < len(input); off += chunk {
			end := off + chunk
			if end > len(input) {
				end = len(input)
			}
			if _, werr := pw.Write(input[off:end]); werr != nil {
				return
			}
			if c.Pace > 0 {
				select {
				case <-time.After(c.Pace):
				case <-ctx.Done():
					pw.CloseWithError(ctx.Err())
					return
				}
			}
		}
		pw.Close()
	}()
	defer pw.CloseWithError(io.ErrClosedPipe) // unblock the writer on any exit

	br := readers.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil) // drop the body; what the lines aliased is dead by now
		readers.Put(br)
	}()
	for {
		line, rerr := br.ReadSlice('\n')
		if rerr != nil {
			// Connection died mid-stream (server killed): retry and
			// resume. Any unterminated trailing fragment may be a record
			// truncated mid-number — a truncated "r 1234 567" still
			// reads as a valid-looking but wrong report — so only
			// newline-terminated lines count; the fragment is discarded
			// and the resume replays that report in full.
			return attemptResult{out: attemptBroken, have: have}
		}
		if rep, ok := parseReportLine(line); ok {
			have = appendReport(have, rep)
			continue
		}
		// Everything else comes once a session.
		fields := strings.Fields(string(line))
		keyword := ""
		if len(fields) > 0 {
			keyword = fields[0]
		}
		switch keyword {
		case "r":
			return brokenf(have, "serve: malformed report %q", line)
		case "suspend":
			return attemptResult{out: attemptSuspend, have: have}
		case "moved":
			// The session was handed to a peer: reconnect there.
			if len(fields) != 3 {
				return brokenf(have, "serve: malformed moved record %q", line)
			}
			return attemptResult{out: attemptMoved, have: have, moved: strings.TrimRight(fields[1], "/")}
		case "end":
			// The position is absolute on every path — a resumed or moved
			// session restores it from the snapshot — so a stream is
			// complete only if it ends at the input's length holding the
			// reports it declares.
			if len(fields) != 3 {
				return brokenf(have, "serve: malformed end record %q", line)
			}
			pos, perr := strconv.ParseInt(fields[1], 10, 64)
			n, nerr := strconv.ParseInt(fields[2], 10, 64)
			if perr != nil || nerr != nil {
				return brokenf(have, "serve: malformed end record %q", line)
			}
			if pos != int64(len(input)) {
				return brokenf(have, "serve: stream ended at %d of %d symbols", pos, len(input))
			}
			if n != int64(len(have)) {
				return brokenf(have, "serve: end declares %d reports, client holds %d", n, len(have))
			}
			return attemptResult{out: attemptDone, have: have}
		default:
			// A record the protocol does not have is a server the
			// client cannot follow: skipping it could complete a stream
			// the server meant to stop.
			return brokenf(have, "serve: unknown record %q", line)
		}
	}
}

// Match runs one /v1/match request. Shed responses return shed=true with
// a nil result and no error; retryAfter carries the server's Retry-After
// delay (zero when absent) so callers can back off at the rate the
// server asked for. With peers configured, a base that cannot be reached
// at all is skipped and the next one tried — one-shot matches are
// stateless, so any node can serve them.
func (c *Client) Match(ctx context.Context, appName string, input []byte) (res *matchResponse, shed bool, retryAfter time.Duration, err error) {
	bases := c.bases()
	for i, base := range bases {
		res, shed, retryAfter, err = c.matchOnce(ctx, base, appName, input)
		var ue *url.Error
		if err != nil && errors.As(err, &ue) && ctx.Err() == nil && i+1 < len(bases) {
			c.Failovers.Add(1)
			continue
		}
		return res, shed, retryAfter, err
	}
	return res, shed, retryAfter, err
}

// matchOnce runs one /v1/match request against one base.
func (c *Client) matchOnce(ctx context.Context, base, appName string, input []byte) (res *matchResponse, shed bool, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/match?app="+appName, bytes.NewReader(input))
	if err != nil {
		return nil, false, 0, err
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, false, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		c.Sheds.Add(1)
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return nil, true, retryAfter, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, false, 0, fmt.Errorf("serve: match status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	body, err := readReply(resp)
	if err != nil {
		return nil, false, 0, err
	}
	res, err = decodeMatchReply(body)
	return res, false, 0, err
}

// readReply reads a reply body into one buffer of its declared length, as
// readMatchBody does on the server. Without a length, or past
// maxMatchBytes (a length is a claim), io.ReadAll grows the buffer only as
// bytes arrive.
func readReply(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxMatchBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(resp.Body)
}
