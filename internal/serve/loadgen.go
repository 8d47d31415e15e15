// Load generator and resilient client for the serve benchmark. The
// Client implements the session protocol from the consumer's side —
// retry with backoff across sheds, suspends, kills, and restarts — and
// RunLoadgen drives it through three phases: verified streaming (every
// session's report stream compared against an uninterrupted local run),
// match latency (p50/p99 over accepted requests), and overload (prove
// the server sheds explicitly instead of failing accepted work).
package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
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
	// Backoff is the initial retry delay (default 25ms, doubling to 1s).
	Backoff time.Duration
	// MaxAttempts bounds connection attempts per stream (default 64).
	MaxAttempts int

	// Sheds counts attempts refused by admission control.
	Sheds atomic.Int64
	// Resumes counts successful reconnects that resumed mid-stream.
	Resumes atomic.Int64
	// Retries counts all re-connection attempts after the first.
	Retries atomic.Int64
	// Restarts counts forced session restarts (409 responses after every
	// base refused, in-stream restart records, and resumed sessions the
	// server could only start from scratch).
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
	// EndPos and EndReports echo the server's end record.
	EndPos, EndReports int64
}

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
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 64
	}
	var have []sim.Report
	restart := false
	baseIdx := 0 // rotation cursor into bases()
	moved := ""  // non-empty: a moved record named the next base
	prevBase := ""
	conflicts := 0 // consecutive 409s this rotation round

	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.Retries.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if backoff < time.Second {
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
			return &StreamResult{Session: id, Reports: have}, nil
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
	return nil, fmt.Errorf("serve: stream %s gave up after %d attempts", id, maxAttempts)
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
	resumePos, _ := strconv.ParseInt(resp.Header.Get("X-Resume-Pos"), 10, 64)
	if resumePos < 0 || resumePos > int64(len(input)) {
		pw.CloseWithError(io.ErrClosedPipe)
		return attemptResult{out: attemptBroken, have: have, err: fmt.Errorf("serve: bad resume pos %d", resumePos)}
	}
	if resumePos > 0 {
		c.Resumes.Add(1)
	} else if len(have) > 0 {
		// A session starting at position 0 re-delivers every report (a
		// non-resumable server restarted, or the slot is gone): drop the
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

	br := bufio.NewReaderSize(resp.Body, 64<<10)
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
			have = append(have, rep)
			continue
		}
		// Everything else comes once a session.
		fields := strings.Fields(string(line))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "r":
			return brokenf(have, "serve: malformed report %q", line)
		case "suspend":
			return attemptResult{out: attemptSuspend, have: have}
		case "restart":
			// The server cannot resume this session (no durable store
			// behind it): reconnect from scratch.
			return attemptResult{out: attemptRestart, have: have}
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, 0, err
	}
	res, err = decodeMatchReply(body)
	return res, false, 0, err
}

// LoadgenOptions configures RunLoadgen.
type LoadgenOptions struct {
	// URL is the server base URL (e.g. "http://127.0.0.1:8425").
	URL string
	// Peers are alternate server base URLs clients fail over to (and
	// follow moved records to) when the primary dies mid-run.
	Peers []string
	// Apps are workload abbreviations to exercise (default HM, PEN, TCP).
	Apps []string
	// AppConfig scales the generated workloads; must match the server's.
	AppConfig workloads.Config
	// StreamsPerApp is the number of verified stream sessions per app
	// (default 2).
	StreamsPerApp int
	// Requests is the number of match requests in the latency phase
	// (default 64).
	Requests int
	// Concurrency is the number of parallel loadgen workers (default 8).
	Concurrency int
	// Tenants spreads sessions across this many tenant identities
	// (default 4).
	Tenants int
	// Overload, when positive, fires this many concurrent no-retry match
	// requests to provoke explicit shedding (default 0: skip the phase).
	Overload int
	// Pace stretches phase-1 streams by sleeping between chunk writes,
	// widening the window in which an external chaos harness can kill
	// the server mid-stream (default 0: full speed).
	Pace time.Duration
	// Timeout bounds the whole run (default 5 minutes).
	Timeout time.Duration
}

func (o LoadgenOptions) withDefaults() LoadgenOptions {
	if len(o.Apps) == 0 {
		o.Apps = []string{"HM", "PEN", "TCP"}
	}
	if o.StreamsPerApp <= 0 {
		o.StreamsPerApp = 2
	}
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Tenants <= 0 {
		o.Tenants = 4
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Minute
	}
	return o
}

// BenchServe is the loadgen's record: what RunLoadgen verified and
// measured.
type BenchServe struct {
	Apps          []string `json:"apps"`
	Streams       int      `json:"streams"`
	StreamsOK     int      `json:"streamsVerified"`
	Requests      int      `json:"matchRequests"`
	MatchAccepted int64    `json:"matchAccepted"`

	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MeanMs float64 `json:"meanMs"`

	Sheds          int64 `json:"sheds"`
	Resumes        int64 `json:"resumes"`
	Retries        int64 `json:"retries"`
	Restarts       int64 `json:"restarts"`
	Failovers      int64 `json:"failovers"`
	OverloadShed   int64 `json:"overloadShed"`
	OverloadOK     int64 `json:"overloadAccepted"`
	FailedAccepted int64 `json:"failedAccepted"`
}

// RunLoadgen drives a running server through verification, latency, and
// overload phases and returns the benchmark record. It fails hard on any
// correctness violation: a stream whose report sequence differs from the
// uninterrupted local run, or an accepted request that then fails.
func RunLoadgen(ctx context.Context, o LoadgenOptions) (*BenchServe, error) {
	o = o.withDefaults()
	ctx, cancel := context.WithTimeout(ctx, o.Timeout)
	defer cancel()

	type appCase struct {
		abbr     string
		net      *automata.Network
		input    []byte
		expected []sim.Report
	}
	cases := make([]appCase, 0, len(o.Apps))
	for _, abbr := range o.Apps {
		app, err := workloads.Build(abbr, o.AppConfig)
		if err != nil {
			return nil, fmt.Errorf("loadgen: build %s: %w", abbr, err)
		}
		res := sim.Run(app.Net, app.Input, sim.Options{CollectReports: true})
		cases = append(cases, appCase{abbr: abbr, net: app.Net, input: app.Input, expected: res.Reports})
	}

	bench := &BenchServe{Apps: o.Apps, Requests: o.Requests}
	cl := &Client{URL: func() string { return o.URL }}

	// Phase 1: verified streams. Every session's assembled report stream
	// must be bit-identical to the uninterrupted local run.
	type streamJob struct {
		c      appCase
		tenant string
	}
	var jobs []streamJob
	for i, c := range cases {
		for s := 0; s < o.StreamsPerApp; s++ {
			jobs = append(jobs, streamJob{c: c, tenant: fmt.Sprintf("tenant-%d", (i*o.StreamsPerApp+s)%o.Tenants)})
		}
	}
	bench.Streams = len(jobs)
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, o.Concurrency)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j streamJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sc := &Client{URL: cl.URL, Peers: o.Peers, Tenant: j.tenant, Pace: o.Pace}
			res, err := sc.Stream(ctx, j.c.abbr, j.c.input)
			mu.Lock()
			defer mu.Unlock()
			bench.Sheds += sc.Sheds.Load()
			bench.Resumes += sc.Resumes.Load()
			bench.Retries += sc.Retries.Load()
			bench.Restarts += sc.Restarts.Load()
			bench.Failovers += sc.Failovers.Load()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if err := sameReports(res.Reports, j.c.expected); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("loadgen: %s stream diverged: %w", j.c.abbr, err)
				}
				return
			}
			bench.StreamsOK++
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return bench, firstErr
	}

	// Phase 2: match latency over accepted requests.
	lat := make([]float64, 0, o.Requests)
	for i := 0; i < o.Requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cases[i%len(cases)]
			mc := &Client{URL: cl.URL, Peers: o.Peers, Tenant: fmt.Sprintf("tenant-%d", i%o.Tenants)}
			input := c.input
			if len(input) > 16384 {
				input = input[:16384]
			}
			// Jittered exponential backoff with a ceiling: each retry at
			// least doubles the floor (so a persistently shedding server
			// sees geometrically decaying pressure instead of a fixed-rate
			// hammer), the server's Retry-After raises but never lowers a
			// given wait, ±50% jitter de-synchronizes the worker herd, and
			// 2s caps the whole ladder.
			const backoffCeil = 2 * time.Second
			backoff := 20 * time.Millisecond
			wait := func(floor time.Duration) bool {
				delay := backoff
				if floor > delay {
					delay = floor
				}
				if delay > backoffCeil {
					delay = backoffCeil
				}
				delay = delay/2 + time.Duration(rand.Int63n(int64(delay)))
				if backoff < backoffCeil {
					backoff *= 2
				}
				select {
				case <-time.After(delay):
					return true
				case <-ctx.Done():
					return false
				}
			}
			for {
				start := time.Now()
				_, shed, retryAfter, err := mc.Match(ctx, c.abbr, input)
				elapsed := time.Since(start)
				mu.Lock()
				if shed {
					bench.Sheds++
					mu.Unlock()
					if !wait(retryAfter) {
						return
					}
					continue
				}
				if err != nil {
					// Transport-level failures are transient under chaos
					// (the server may be mid-restart): back off and retry.
					// Anything the server said over HTTP is a real failure.
					var ue *url.Error
					if errors.As(err, &ue) && ctx.Err() == nil {
						bench.Retries++
						mu.Unlock()
						if !wait(0) {
							return
						}
						continue
					}
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				lat = append(lat, float64(elapsed.Microseconds())/1000)
				bench.MatchAccepted++
				bench.Failovers += mc.Failovers.Swap(0)
				mu.Unlock()
				return
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return bench, firstErr
	}
	bench.P50Ms, bench.P99Ms, bench.MeanMs = percentiles(lat)

	// Phase 3: overload. Fire a burst of single-attempt paced streams (no
	// retries — a shed is a shed). The server must refuse some explicitly,
	// and every stream it accepts must run to a verified completion:
	// admission control never accepts work it cannot serve. Streams, not
	// matches, carry this phase because their sessions block on I/O
	// between chunks, so the burst genuinely overlaps even on one CPU.
	if o.Overload > 0 {
		c := cases[0]
		input := c.input
		if len(input) > 16384 {
			input = input[:16384]
		}
		truncated := sim.Run(c.net, input, sim.Options{CollectReports: true}).Reports
		var owg sync.WaitGroup
		for i := 0; i < o.Overload; i++ {
			owg.Add(1)
			go func(i int) {
				defer owg.Done()
				oc := &Client{URL: cl.URL, Tenant: "burst", Chunk: 1024, Pace: 500 * time.Microsecond}
				ar := oc.streamAttempt(ctx, oc.bases()[0], c.abbr, newSessionID(), input, nil, false, false)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case ar.out == attemptShed:
					bench.OverloadShed++
				case ar.out == attemptDone && ar.err == nil && sameReports(ar.have, truncated) == nil:
					bench.OverloadOK++
				default:
					// Accepted (or mid-flight) and then failed: the exact
					// outcome admission control exists to prevent.
					bench.FailedAccepted++
				}
			}(i)
		}
		owg.Wait()
	}
	return bench, nil
}

// sameReports verifies got and want are the identical sequence.
func sameReports(got, want []sim.Report) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d reports, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("report %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// percentiles returns p50, p99, and mean of ms samples.
func percentiles(ms []float64) (p50, p99, mean float64) {
	if len(ms) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	idx := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return idx(0.50), idx(0.99), sum / float64(len(s))
}
