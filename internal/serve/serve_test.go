package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/oracle"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/symset"
	"sparseap/internal/testleak"
	"sparseap/internal/workloads"
)

// testNet builds a small network that reports often: an all-input start
// chain over 'a'..'z' so reports appear throughout the stream.
func testNet(t *testing.T) *automata.Network {
	t.Helper()
	nfa := automata.NewNFA()
	prev := nfa.Add(symset.Range('a', 'z'), automata.StartAllInput, false)
	for i := 0; i < 6; i++ {
		s := nfa.Add(symset.Range('a', 'z'), automata.StartNone, i == 5)
		nfa.Connect(prev, s)
		prev = s
	}
	return automata.NewNetwork(nfa)
}

func testInput(n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte('a' + (i*7)%26)
	}
	return in
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

// harness is one live test server instance.
type harness struct {
	s  *Server
	ts *httptest.Server
}

// startServer serves net as app "test". A config without a store gets
// one in a fresh temporary directory: every server is durable.
func startServer(t *testing.T, cfg Config, net *automata.Network) *harness {
	t.Helper()
	if cfg.Store == nil {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	s := New(cfg)
	if err := s.AddApp("test", net, "test/v1"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &harness{s: s, ts: ts}
}

// TestNewRequiresStore: every node is durable, so a config without a
// store is refused when the server is built, not when a session needs it.
func TestNewRequiresStore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a config without a store")
		}
	}()
	New(Config{})
}

// waitCompleted blocks until the server has counted tenant t0's session as
// completed: the handler increments the counter after it has flushed the
// end record the client returns on, so the client can get here first.
func waitCompleted(t *testing.T, h *harness) {
	t.Helper()
	const key = `serve_sessions_completed{tenant="t0"}`
	for deadline := time.Now().Add(5 * time.Second); h.s.Registry().Snapshot()[key] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session never counted as completed")
		}
	}
}

func TestStreamEndToEnd(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	input := testInput(32768)
	h := startServer(t, Config{}, net)

	cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "t0"}
	res, err := cl.Stream(context.Background(), "test", input)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReports(res.Reports, oracle.Reports[sim.Report](net, input)); err != nil {
		t.Fatalf("stream diverged from uninterrupted run: %v", err)
	}
	waitCompleted(t, h)
	snap := h.s.Registry().Snapshot()
	if snap[`serve_sessions_started{tenant="t0"}`] != 1 {
		t.Fatalf("sessions_started = %v", snap)
	}
	if snap[`serve_sessions_completed{tenant="t0"}`] != 1 {
		t.Fatalf("sessions_completed = %v", snap)
	}
}

// TestStreamEOFSavesOnlyUnsavedState counts the captures of whole
// sessions: one per boundary, plus one at the end of input only when the
// slot does not already hold that state — the input stopped between two
// boundaries, or nothing was ever saved.
func TestStreamEOFSavesOnlyUnsavedState(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	const every = 1024
	for _, c := range []struct {
		inputLen  int
		wantSaves int64
	}{
		{8 * every, 8},     // ends on a boundary: the eighth capture is the final state
		{8*every + 100, 9}, // a tail (with reports in its window) past the last boundary
		{every - 1, 1},     // no boundary reached
		{0, 1},             // empty input: position 0 was never saved
	} {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		h := startServer(t, Config{Store: store, Every: every}, net)
		input := testInput(c.inputLen)
		cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "t0"}
		res, err := cl.Stream(context.Background(), "test", input)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameReports(res.Reports, oracle.Reports[sim.Report](net, input)); err != nil {
			t.Fatalf("%d symbols: stream diverged: %v", c.inputLen, err)
		}
		if got := h.s.Registry().Snapshot()["serve_checkpoint_saves"]; got != c.wantSaves {
			t.Errorf("%d symbols: %d saves, want %d", c.inputLen, got, c.wantSaves)
		}
	}
}

// TestStreamResumeAfterAbort is the in-package kill/resume cell: the
// server is aborted (crash semantics, no saves) mid-stream, a second
// server over the same store directory takes over, and the client's
// assembled report stream must be bit-identical with exactly-once
// delivery.
func TestStreamResumeAfterAbort(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	input := testInput(1 << 17)
	dir := t.TempDir()

	mk := func() (*harness, error) {
		store, err := checkpoint.Open(dir)
		if err != nil {
			return nil, err
		}
		return startServer(t, Config{Store: store, Every: 1024}, net), nil
	}
	h1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	var url atomic.Value
	url.Store(h1.ts.URL)

	cl := &Client{
		URL:    func() string { return url.Load().(string) },
		Tenant: "t0",
		Chunk:  512,
		Pace:   200 * time.Microsecond, // stretch the stream past the kill
	}

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(30 * time.Millisecond)
		h2, err := mk()
		if err != nil {
			t.Error(err)
			return
		}
		url.Store(h2.ts.URL) // repoint before the old server dies
		h1.s.Abort()
		h1.ts.CloseClientConnections()
	}()

	res, err := cl.Stream(context.Background(), "test", input)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReports(res.Reports, oracle.Reports[sim.Report](net, input)); err != nil {
		t.Fatalf("resumed stream not bit-identical: %v", err)
	}
	if cl.Retries.Load() == 0 {
		t.Fatal("kill did not force a retry — the chaos cell tested nothing")
	}
}

// TestDrainSuspendsAndResumes drains server one mid-stream (graceful
// SIGTERM path: checkpoint + suspend) and completes the session against
// server two.
func TestDrainSuspendsAndResumes(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	input := testInput(1 << 17)
	dir := t.TempDir()

	store1, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1 := startServer(t, Config{Store: store1, Every: 1024}, net)
	var url atomic.Value
	url.Store(h1.ts.URL)
	cl := &Client{
		URL:    func() string { return url.Load().(string) },
		Tenant: "t0",
		Chunk:  512,
		Pace:   200 * time.Microsecond,
	}

	drained := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		store2, err := checkpoint.Open(dir)
		if err != nil {
			drained <- err
			return
		}
		h2 := startServer(t, Config{Store: store2, Every: 1024}, net)
		url.Store(h2.ts.URL)
		drained <- h1.s.Drain(5 * time.Second)
	}()

	res, err := cl.Stream(context.Background(), "test", input)
	if err != nil {
		t.Fatal(err)
	}
	if derr := <-drained; derr != nil {
		t.Fatalf("drain: %v", derr)
	}
	if err := sameReports(res.Reports, oracle.Reports[sim.Report](net, input)); err != nil {
		t.Fatalf("post-drain stream not bit-identical: %v", err)
	}
	snap := h1.s.Registry().Snapshot()
	if snap[`serve_sessions_suspended{tenant="t0"}`] == 0 && cl.Resumes.Load() == 0 {
		t.Fatalf("drain raced past the stream: suspended=%v resumes=%d (stream too fast for the test)",
			snap[`serve_sessions_suspended{tenant="t0"}`], cl.Resumes.Load())
	}
}

// attemptAgainst runs one stream attempt of a 64-symbol input against a
// server that answers 200 with exactly body and closes the connection —
// what a client sees of a server it cannot trust, or of one that died
// after writing that much. resumePos is the X-Resume-Pos header's value;
// "" leaves the header out.
func attemptAgainst(t *testing.T, resumePos, body string) attemptResult {
	t.Helper()
	header := ""
	if resumePos != "" {
		header = "X-Resume-Pos: " + resumePos + "\r\n"
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		// Close-delimited body: the client sees EOF right after it.
		buf.WriteString("HTTP/1.1 200 OK\r\n" + header + "Connection: close\r\n\r\n" + body)
		buf.Flush()
		conn.Close()
	}))
	defer ts.Close()
	cl := &Client{URL: func() string { return ts.URL }}
	return cl.streamAttempt(context.Background(), ts.URL, "test", newSessionID(), testInput(64), nil, false, false)
}

// TestStreamClientDiscardsTruncatedLine kills the connection at every
// offset of a two-record body — exactly what a SIGKILLed server leaves in
// the socket. A record cut mid-number ("r 1234 56" of "r 1234 567") still
// has three fields and would read as a plausible-looking report: the
// client must hold only the records whose newline arrived and report the
// attempt broken, so the resume replays the rest in full.
func TestStreamClientDiscardsTruncatedLine(t *testing.T) {
	const body = "r 10 1\nr 1234 567\n"
	records := []sim.Report{{Pos: 10, State: 1}, {Pos: 1234, State: 567}}
	for cut := 0; cut <= len(body); cut++ {
		ar := attemptAgainst(t, "0", body[:cut])
		if ar.out != attemptBroken {
			t.Fatalf("cut at %d: outcome = %d, want attemptBroken", cut, ar.out)
		}
		if err := sameReports(ar.have, records[:strings.Count(body[:cut], "\n")]); err != nil {
			t.Fatalf("cut at %d (%q): %v", cut, body[:cut], err)
		}
	}
}

// TestStreamClientHoldsRecordsToTheirGrammar serves spellings a correct
// server never writes. A report out of range or spelled loosely breaks the
// attempt with the line quoted (state 4294967297 used to arrive as state
// 1); an end record is complete only with both numbers, at the input's
// length, declaring the reports the client holds (a malformed one used to
// read as done, and the position was never looked at). A 200 without a
// readable X-Resume-Pos breaks the attempt too (it used to read as
// position 0, and a client holding reports counted a restart). A record
// whose keyword the protocol does not have breaks the attempt, the retired
// "restart" included (unknown keywords used to be skipped).
func TestStreamClientHoldsRecordsToTheirGrammar(t *testing.T) {
	for _, c := range []struct {
		name, pos, body string
		out             attemptOutcome
		have            int
		errHas          string
	}{
		{"complete", "0", "r 10 1\nend 64 1\n", attemptDone, 1, ""},
		{"state wraps int32", "0", "r 10 1\nr 5 4294967297\nend 64 2\n", attemptBroken, 1, `"r 5 4294967297\n"`},
		{"negative position", "0", "r -5 1\nend 64 1\n", attemptBroken, 0, `"r -5 1\n"`},
		{"indented report", "0", " r 5 1\nend 64 1\n", attemptBroken, 0, `" r 5 1\n"`},
		{"end without count", "0", "r 10 1\nend 64\n", attemptBroken, 1, `"end 64\n"`},
		{"end with a fourth field", "0", "r 10 1\nend 64 1 0\n", attemptBroken, 1, `"end 64 1 0\n"`},
		{"end position not a number", "0", "r 10 1\nend x 1\n", attemptBroken, 1, `"end x 1\n"`},
		{"end short of the input", "0", "r 10 1\nend 32 1\n", attemptBroken, 1, "ended at 32 of 64"},
		{"end past the input", "0", "r 10 1\nend 65 1\n", attemptBroken, 1, "ended at 65 of 64"},
		{"end miscounts", "0", "r 10 1\nend 64 2\n", attemptBroken, 1, "declares 2 reports, client holds 1"},
		{"resume position absent", "", "r 10 1\nend 64 1\n", attemptBroken, 0, "bad resume pos"},
		{"resume position not a number", "x", "r 10 1\nend 64 1\n", attemptBroken, 0, "bad resume pos"},
		{"resume position negative", "-1", "r 10 1\nend 64 1\n", attemptBroken, 0, "bad resume pos"},
		{"retired restart record", "0", "r 10 1\nrestart 5\nend 64 1\n", attemptBroken, 1, `unknown record "restart 5\n"`},
		{"unknown keyword", "0", "hello\nr 10 1\nend 64 1\n", attemptBroken, 0, `unknown record "hello\n"`},
		{"empty line", "0", "r 10 1\n\nend 64 1\n", attemptBroken, 1, `unknown record "\n"`},
	} {
		ar := attemptAgainst(t, c.pos, c.body)
		if ar.out != c.out || len(ar.have) != c.have {
			t.Errorf("%s: outcome %d holding %d reports, want %d holding %d", c.name, ar.out, len(ar.have), c.out, c.have)
		}
		if (ar.err == nil) != (c.errHas == "") || ar.err != nil && !strings.Contains(ar.err.Error(), c.errHas) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, ar.err, c.errHas)
		}
	}
}

// TestAdmissionGlobalSessionCap holds one stream open and requires the
// next request to shed 503 with a Retry-After header.
func TestAdmissionGlobalSessionCap(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	h := startServer(t, Config{MaxSessions: 1}, net)

	// Hold a stream open: send headers plus a little data, keep the body
	// pipe open so the session stays admitted.
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/stream?app=test", pr)
	req.Header.Set("X-Tenant", "holder")
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	pw.Write(testInput(64))
	var resp *http.Response
	select {
	case resp = <-respCh:
		defer resp.Body.Close()
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("stream request did not answer")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("holder stream status = %d", resp.StatusCode)
	}

	// Second admission must shed with 503 + Retry-After.
	mreq, _ := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/match?app=test", strings.NewReader("abc"))
	mreq.Header.Set("X-Tenant", "other")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503", mresp.StatusCode)
	}
	if mresp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	pw.Close()

	snap := h.s.Registry().Snapshot()
	if snap[`serve_shed{tenant="other"}`] != 1 || snap["serve_shed_sessions"] != 1 {
		t.Fatalf("shed counters = %v", snap)
	}
}

// TestAdmissionTenantRate exhausts one tenant's token bucket and checks
// the refusal is 429 and scoped to that tenant.
func TestAdmissionTenantRate(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	now := time.Unix(1000, 0)
	h := startServer(t, Config{
		RatePerSec: 0.001, Burst: 2,
		Now: func() time.Time { return now }, // frozen clock: no refill
	}, net)

	match := func(tenant string) int {
		req, _ := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/match?app=test", strings.NewReader("abc"))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := match("noisy"); got != http.StatusOK {
		t.Fatalf("first request = %d", got)
	}
	if got := match("noisy"); got != http.StatusOK {
		t.Fatalf("second request (burst) = %d", got)
	}
	if got := match("noisy"); got != http.StatusTooManyRequests {
		t.Fatalf("third request = %d, want 429", got)
	}
	// A different tenant is untouched by the noisy neighbour.
	if got := match("quiet"); got != http.StatusOK {
		t.Fatalf("other tenant = %d, want 200", got)
	}
}

// TestStreamDeadlineSuspends stalls a stream past its X-Deadline-Ms and
// requires the server to checkpoint, suspend, and count the cancel.
func TestStreamDeadlineSuspends(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := startServer(t, Config{Store: store, Every: 256}, net)

	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/stream?app=test", pr)
	req.Header.Set("X-Tenant", "t0")
	req.Header.Set("X-Deadline-Ms", "100")
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			respCh <- resp
		} else {
			close(respCh)
		}
	}()
	pw.Write(testInput(1024))
	// ... and stall: the deadline fires while the server waits for more.
	resp, ok := <-respCh
	if !ok {
		t.Fatal("request failed")
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	pw.Close()
	if !strings.Contains(string(body), "suspend ") {
		t.Fatalf("deadline expiry did not suspend; body:\n%s", string(body))
	}
	snap := h.s.Registry().Snapshot()
	if snap[`serve_deadline_cancels{tenant="t0"}`] == 0 {
		t.Fatalf("deadline cancel not counted: %v", snap)
	}
}

// TestDegradationLadderRouting demotes a tenant's ladder and checks the
// match path routes it to the baseline kernel with identical reports,
// then promotes it back through a clean probe. It serves Protomata, an
// app whose hot half saves an AP batch, since only such an app's matches
// consult the ladder.
func TestDegradationLadderRouting(t *testing.T) {
	testleak.Check(t)
	pro, err := workloads.Build("Pro", workloads.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, input := pro.Net, pro.Input[:8192]
	h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1, Cooldown: 1}}, net)

	match := func(tenant string) *matchResponse {
		cl := &Client{URL: func() string { return h.ts.URL }, Tenant: tenant}
		m, shed, _, err := cl.Match(context.Background(), "test", input)
		if err != nil || shed {
			t.Fatalf("match: shed=%v err=%v", shed, err)
		}
		return m
	}

	if m := match("victim"); m.Mode != "guarded" {
		t.Fatalf("healthy tenant mode = %q", m.Mode)
	}
	want := match("victim").NumReports

	// Force a demotion as if the tenant's inputs kept tripping the guard.
	ten := h.s.tenantOf("victim")
	ten.ladder.ObserveGuarded(spap.ModeGuarded, true)
	if ten.ladder.Mode() != spap.ModeBaseline {
		t.Fatal("setup: tenant not demoted")
	}

	m := match("victim")
	if m.Mode != "baseline" {
		t.Fatalf("demoted tenant mode = %q, want baseline", m.Mode)
	}
	if m.NumReports != want {
		t.Fatalf("baseline reports = %d, guarded = %d — degradation changed answers", m.NumReports, want)
	}
	snap := h.s.Registry().Snapshot()
	if snap[`serve_degraded{tenant="victim"}`] == 0 {
		t.Fatalf("degraded not counted: %v", snap)
	}

	// Cooldown of one request has passed; the next is the probe, and a
	// clean probe promotes the tenant back to guarded execution.
	m = match("victim")
	if m.Mode != "probe" {
		t.Fatalf("post-cooldown mode = %q, want probe", m.Mode)
	}
	if ten.ladder.Mode() != spap.ModeGuarded {
		t.Fatalf("clean probe did not promote: %v", ten.ladder.Mode())
	}
	// An unrelated tenant was never degraded.
	if m := match("innocent"); m.Mode != "guarded" {
		t.Fatalf("unrelated tenant mode = %q", m.Mode)
	}
}

// TestMetricsEndpoint checks the Prometheus text exposition.
func TestMetricsEndpoint(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	h := startServer(t, Config{}, net)
	cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "t0"}
	if _, err := cl.Stream(context.Background(), "test", testInput(4096)); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, h)
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`serve_sessions_started{tenant="t0"} 1`,
		`serve_sessions_completed{tenant="t0"} 1`,
		"serve_reports_delivered",
		"serve_admission_worstcase_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestAdmissionChargesWorstCase checks that sessions are charged the
// certified worst-case engine footprint: the gauge reflects the charge
// while a session is live and falls back to zero after release, and the
// bounded charge never exceeds the unconditional full-state estimate.
func TestAdmissionChargesWorstCase(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	h := startServer(t, Config{}, net)
	a := h.s.lookupApp("test")
	want := a.engineCost()
	if want <= sessionOverheadBytes {
		t.Fatalf("engineCost = %d, want a positive engine charge", want)
	}
	if nominal := a.img.EngineFootprint() + sessionOverheadBytes; want > nominal {
		t.Fatalf("worst-case charge %d exceeds the full-state estimate %d", want, nominal)
	}
	adm := h.s.admit("t0", a.engineCost())
	if !adm.ok {
		t.Fatal("admit refused an idle server")
	}
	if got := h.s.Registry().Gauge("serve_admission_worstcase_bytes").Value(); got != want {
		t.Fatalf("gauge = %d during session, want %d", got, want)
	}
	adm.release()
	if got := h.s.Registry().Gauge("serve_admission_worstcase_bytes").Value(); got != 0 {
		t.Fatalf("gauge = %d after release, want 0", got)
	}
}

// TestHealthzDrain checks /healthz flips to 503 once draining.
func TestHealthzDrain(t *testing.T) {
	net := testNet(t)
	h := startServer(t, Config{}, net)
	get := func() int {
		resp, err := http.Get(h.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("healthy healthz = %d", got)
	}
	if err := h.s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", got)
	}
	// New admissions shed while draining.
	mreq, _ := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/match?app=test", strings.NewReader("abc"))
	resp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("match while draining = %d, want 503", resp.StatusCode)
	}
}

// TestOverloadShedsNotFails saturates a tiny server and requires every
// request to either succeed or shed explicitly — never fail.
func TestOverloadShedsNotFails(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	h := startServer(t, Config{MaxSessions: 2, MaxPerTenant: 1}, net)
	input := testInput(32768)

	want := oracle.Reports[sim.Report](net, input)
	const n = 24
	type outcome struct {
		out attemptOutcome
		err error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			// Single paced stream attempt, no retry: the session blocks
			// on I/O between chunks, so the burst overlaps even on one
			// CPU and the concurrency caps genuinely engage.
			cl := &Client{URL: func() string { return h.ts.URL }, Tenant: fmt.Sprintf("t%d", i%4),
				Chunk: 1024, Pace: 500 * time.Microsecond}
			ar := cl.streamAttempt(context.Background(), h.ts.URL, "test", newSessionID(), input, nil, false, false)
			out, err := ar.out, ar.err
			if out == attemptDone && err == nil {
				err = sameReports(ar.have, want)
			}
			results <- outcome{out: out, err: err}
		}(i)
	}
	var ok, shed int
	for i := 0; i < n; i++ {
		r := <-results
		switch {
		case r.out == attemptShed:
			shed++
		case r.out == attemptDone && r.err == nil:
			ok++
		default:
			t.Fatalf("accepted stream failed (outcome %d): %v", r.out, r.err)
		}
	}
	if shed == 0 {
		t.Fatalf("overload produced no sheds (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("overload accepted nothing")
	}
}

// TestSessionIDValidation rejects store-hostile session IDs.
func TestSessionIDValidation(t *testing.T) {
	net := testNet(t)
	h := startServer(t, Config{}, net)
	req, _ := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/stream?app=test", strings.NewReader("abc"))
	req.Header.Set("X-Session", "../../etc/passwd")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile session ID status = %d, want 400", resp.StatusCode)
	}
}
