package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/hotcold"
	"sparseap/internal/oracle"
	"sparseap/internal/spap"
	"sparseap/internal/testleak"
	"sparseap/internal/workloads"
)

// matchCase is one input of a match burst with the oracle's reports for
// it.
type matchCase struct {
	input []byte
	want  []oracle.Report
}

// matchCases runs the oracle once on each of matchLens' inputs to net.
func matchCases(net *automata.Network, input func(n int) []byte) []matchCase {
	cases := make([]matchCase, len(matchLens))
	for i, n := range matchLens {
		cases[i].input = input(n)
		cases[i].want = oracle.Run(net, cases[i].input).Reports
	}
	return cases
}

// sameAsOracle compares a /v1/match reply report-by-report with the
// oracle's reports for the same input.
func sameAsOracle(m *matchResponse, want []oracle.Report) error {
	if int(m.NumReports) != len(want) || len(m.Reports) != len(want) {
		return fmt.Errorf("%d reports (%d listed), want %d", m.NumReports, len(m.Reports), len(want))
	}
	for j, rep := range want {
		if m.Reports[j] != [2]int64{rep.Pos, int64(rep.State)} {
			return fmt.Errorf("report %d = %v, want %v", j, m.Reports[j], rep)
		}
	}
	return nil
}

// matchLens are the input lengths every cell below covers: empty, one
// symbol, an odd short one, and powers of two up past several guard
// windows.
var matchLens = []int{0, 1, 37, 1024, 4096, 8192, 16384, 32768}

// TestMatchIdenticalToSimRun checks the answers of /v1/match, not just
// their count: on either route and under every ladder mode each reply
// must be bit-identical to sim.Run on the same input — routing and
// degradation change latency, never answers. The ladder cells serve
// Protomata, whose hot half needs one AP batch of the whole network's two,
// so its matches run SpAP (424 reports in 32 KiB, against Brill's 31);
// testNet fits one batch and runs on the kernel.
func TestMatchIdenticalToSimRun(t *testing.T) {
	testleak.Check(t)
	pro, err := workloads.Build("Pro", workloads.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spapCases := matchCases(pro.Net, func(n int) []byte { return pro.Input[:n] })
	tenants := []string{"t0", "t1", "t2"}

	// burst fires 32 concurrent requests across the cases and the three
	// tenants and requires every reply to carry wantMode and sim.Run's
	// reports.
	burst := func(t *testing.T, h *harness, cases []matchCase, wantMode string) {
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(cases))
		for i := 0; i < 4*len(cases); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := cases[i%len(cases)]
				cl := &Client{URL: func() string { return h.ts.URL }, Tenant: tenants[i%len(tenants)]}
				m, shed, _, err := cl.Match(context.Background(), "test", c.input)
				if err != nil || shed {
					errs <- fmt.Errorf("match %d: shed=%v err=%v", i, shed, err)
					return
				}
				if m.Mode != wantMode {
					errs <- fmt.Errorf("match %d: mode = %q, want %q", i, m.Mode, wantMode)
					return
				}
				if err := sameAsOracle(m, c.want); err != nil {
					errs <- fmt.Errorf("match %d (len %d): %v", i, len(c.input), err)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	t.Run("kernel", func(t *testing.T) {
		// SpAP can save testNet no batch, so every match runs on the
		// kernel without consulting the ladder: the tenants stay guarded
		// and none is counted degraded.
		net := testNet(t)
		h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1}}, net)
		burst(t, h, matchCases(net, testInput), "baseline")
		for _, name := range tenants {
			if mode := h.s.tenantOf(name).ladder.Mode(); mode != spap.ModeGuarded {
				t.Errorf("tenant %s: ladder at %v, want guarded", name, mode)
			}
		}
		if n := h.s.Registry().Total("serve_degraded"); n != 0 {
			t.Errorf("serve_degraded = %d on kernel-routed matches, want 0", n)
		}
	})

	t.Run("guarded", func(t *testing.T) {
		// A trip limit no burst reaches: the tenants stay on the guarded
		// path whatever the guard makes of these inputs.
		h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1 << 30}}, pro.Net)
		burst(t, h, spapCases, "guarded")
	})

	t.Run("baseline", func(t *testing.T) {
		// Demoted tenants with a cooldown longer than the burst: every
		// request takes the baseline kernel.
		h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1, Cooldown: 1 << 30}}, pro.Net)
		for _, name := range tenants {
			h.s.tenantOf(name).ladder.ObserveGuarded(spap.ModeGuarded, true)
		}
		burst(t, h, spapCases, "baseline")
	})

	t.Run("probe", func(t *testing.T) {
		// One probe slot exists per cooldown, so this cell is sequential:
		// demote, spend the one-request cooldown, and the next request is
		// the probe.
		h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1, Cooldown: 1}}, pro.Net)
		cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "victim"}
		ladder := h.s.tenantOf("victim").ladder
		for _, c := range spapCases {
			if ladder.Mode() == spap.ModeGuarded {
				ladder.ObserveGuarded(spap.ModeGuarded, true)
			}
			for _, wantMode := range []string{"baseline", "probe"} {
				m, shed, _, err := cl.Match(context.Background(), "test", c.input)
				if err != nil || shed {
					t.Fatalf("len %d: shed=%v err=%v", len(c.input), shed, err)
				}
				if m.Mode != wantMode {
					t.Fatalf("len %d: mode = %q, want %q", len(c.input), m.Mode, wantMode)
				}
				if err := sameAsOracle(m, c.want); err != nil {
					t.Fatalf("len %d, %s: %v", len(c.input), wantMode, err)
				}
			}
		}
	})
}

// post sends one request with the given headers and returns the status
// and body.
func post(t *testing.T, url string, body []byte, headers map[string]string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(text)
}

// TestMatchDeadlineAnswers504 gives a long input one millisecond: the
// executor must see the expired context and the handler answer 504.
func TestMatchDeadlineAnswers504(t *testing.T) {
	testleak.Check(t)
	h := startServer(t, Config{}, testNet(t))
	status, body := post(t, h.ts.URL+"/v1/match?app=test", testInput(1<<22),
		map[string]string{"X-Deadline-Ms": "1"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, strings.TrimSpace(body))
	}
}

// TestMatchBodyTooLargeAnswers413 posts a body over maxMatchBytes, once
// with its length declared and once chunked, with no length to size the
// read by.
func TestMatchBodyTooLargeAnswers413(t *testing.T) {
	testleak.Check(t)
	h := startServer(t, Config{}, testNet(t))
	url := h.ts.URL + "/v1/match?app=test"
	status, body := post(t, url, testInput(maxMatchBytes+1), nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", status, strings.TrimSpace(body))
	}
	if status, _ := post(t, url, testInput(maxMatchBytes), nil); status != http.StatusOK {
		t.Fatalf("body at the limit: status = %d, want 200", status)
	}
	chunked := func(n int) int {
		req, err := http.NewRequest(http.MethodPost, url, io.MultiReader(bytes.NewReader(testInput(n))))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = -1
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if status := chunked(maxMatchBytes + 1); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body over the limit: status = %d, want 413", status)
	}
	if status := chunked(4096); status != http.StatusOK {
		t.Fatalf("chunked body within the limit: status = %d, want 200", status)
	}
}

// TestMatchBodyShortOfDeclaredLength sends a body that ends, its write
// side closed, before the Content-Length it declared: the read sized by
// that length must see the early end and answer 400 rather than match
// the bytes that did arrive.
func TestMatchBodyShortOfDeclaredLength(t *testing.T) {
	testleak.Check(t)
	h := startServer(t, Config{}, testNet(t))
	conn, err := net.Dial("tcp", h.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/match?app=test HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\n%s", testInput(50))
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want 400", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// TestHeaderValidation sends malformed numeric headers to both handlers:
// each must answer 400 naming the header instead of reading the value as
// "not sent", and must do so before admission — the tenant here has a
// single token, which the one well-formed request at the end still finds.
func TestHeaderValidation(t *testing.T) {
	testleak.Check(t)
	bad := []struct{ path, header, value string }{
		{"/v1/match", "X-Deadline-Ms", "12x"},
		{"/v1/match", "X-Deadline-Ms", "soon"},
		{"/v1/match", "X-Deadline-Ms", "-5"},
		{"/v1/match", "X-Deadline-Ms", "86400001"},             // beyond 24 h
		{"/v1/match", "X-Deadline-Ms", "9300000000000"},        // overflows Duration in ms
		{"/v1/match", "X-Deadline-Ms", "99999999999999999999"}, // overflows int64
		{"/v1/stream", "X-Deadline-Ms", "12x"},
		{"/v1/stream", "X-Deadline-Ms", "-5"},
		{"/v1/stream", "X-Deadline-Ms", "86400001"},
		{"/v1/stream", "X-Deadline-Ms", "9300000000000"},
		{"/v1/stream", "X-Have-Reports", "12x"},
		{"/v1/stream", "X-Have-Reports", "-1"},
		{"/v1/stream", "X-Have-Reports", "1.5"},
	}
	for _, path := range []string{"/v1/match", "/v1/stream"} {
		h := startServer(t, Config{RatePerSec: 1e-9, Burst: 1}, testNet(t))
		for _, tc := range bad {
			if tc.path != path {
				continue
			}
			status, body := post(t, h.ts.URL+path+"?app=test", testInput(64),
				map[string]string{tc.header: tc.value})
			if status != http.StatusBadRequest || !strings.Contains(body, tc.header) {
				t.Errorf("%s %s: %q: status = %d body %.80q, want 400 naming the header",
					path, tc.header, tc.value, status, strings.TrimSpace(body))
			}
		}
		status, body := post(t, h.ts.URL+path+"?app=test", testInput(64),
			map[string]string{"X-Deadline-Ms": "86400000", "X-Have-Reports": "0"})
		if status != http.StatusOK {
			t.Errorf("%s: well-formed headers: status = %d (%s), want 200", path, status, strings.TrimSpace(body))
		}
	}
}

// TestMatchRouteFollowsBatchModel holds the match route to the AP model
// over the 26 apps at 1/8: an app's matches run on the baseline kernel
// exactly when its hot network needs at least as many AP batches as the
// whole network, and the counts the route decides on are the executors'
// own — the whole count ap.BaselineCycles', the hot count the guarded
// executor's BaseAPBatches on a 4 KiB input. Its guard never trips, so the
// count is of the partition the route built, not of a widened one or of
// the fallback that replaces it (SPM's input trips the default guard).
func TestMatchRouteFollowsBatchModel(t *testing.T) {
	apps, err := workloads.BuildAll(workloads.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ap.DefaultConfig()
	kernels := 0
	for _, w := range apps {
		input := w.Input[:4096]
		a := &app{name: w.Abbr, net: w.Net}
		kernel, part, perr := a.route(cfg.Capacity)
		if perr != nil {
			t.Errorf("%s: route: %v", w.Abbr, perr)
			continue
		}
		whole, _, err := ap.BaselineCycles(w.Net, len(input), cfg.Capacity)
		if err != nil || a.whole != whole {
			t.Errorf("%s: route counts %d whole batches, ap.BaselineCycles %d (%v)", w.Abbr, a.whole, whole, err)
			continue
		}
		if part == nil {
			// Only a one-batch app is routed without a partition; build
			// one here to learn its hot count.
			if whole > 1 {
				t.Errorf("%s: no partition for %d batches", w.Abbr, whole)
				continue
			}
			if part, err = hotcold.BuildWithStrategy(w.Net, hotcold.StrategyStatic,
				hotcold.StrategyInput{}, hotcold.Options{Capacity: cfg.Capacity}); err != nil {
				t.Fatalf("%s: %v", w.Abbr, err)
			}
		}
		res, err := spap.RunGuarded(context.Background(), part, input, cfg, spap.Guard{MinReports: math.MaxInt64}, spap.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		hot := res.BaseAPBatches
		if a.part != nil && a.hot != hot {
			t.Errorf("%s: route counts %d hot batches, the guarded executor configured %d", w.Abbr, a.hot, hot)
		}
		if kernel != (hot >= whole) {
			t.Errorf("%s: kernel route = %v with %d hot of %d batches", w.Abbr, kernel, hot, whole)
		}
		if kernel {
			kernels++
		}
		t.Logf("%-8s whole %d hot %d kernel %v", w.Abbr, whole, hot, kernel)
	}
	if kernels == 0 || kernels == len(apps) {
		t.Errorf("%d of %d apps routed to the kernel: the suite no longer tells the routes apart", kernels, len(apps))
	}
}

// TestMatchRouteReadsConfigAP: the route counts batches against
// Config.AP, the half-core apserve derives from -divisor. Protomata needs
// two batches of the default 3K half-core and its hot half one, so SpAP
// runs its matches; the 24K half-core of -divisor 1 holds it whole, so
// the kernel does. The zero value is the default half-core.
func TestMatchRouteReadsConfigAP(t *testing.T) {
	testleak.Check(t)
	pro, err := workloads.Build("Pro", workloads.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := pro.Input[:4096]
	want := oracle.Run(pro.Net, input).Reports
	for _, tc := range []struct {
		name        string
		cfg         ap.Config
		whole, hot  int
		wantMode    string
		wantCapUsed int
	}{
		{"zero value", ap.Config{}, 2, 1, "guarded", ap.DefaultConfig().Capacity},
		{"divisor 1", ap.Scaled(1), 1, 0, "baseline", 24000},
	} {
		h := startServer(t, Config{AP: tc.cfg, Ladder: spap.LadderConfig{TripLimit: 1 << 30}}, pro.Net)
		if got := h.s.cfg.AP.Capacity; got != tc.wantCapUsed {
			t.Errorf("%s: server half-core %d STEs, want %d", tc.name, got, tc.wantCapUsed)
		}
		cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "t0"}
		m, shed, _, err := cl.Match(context.Background(), "test", input)
		if err != nil || shed {
			t.Fatalf("%s: shed=%v err=%v", tc.name, shed, err)
		}
		if m.Mode != tc.wantMode {
			t.Errorf("%s: mode = %q, want %q", tc.name, m.Mode, tc.wantMode)
		}
		if err := sameAsOracle(m, want); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		h.s.mu.Lock()
		a := h.s.apps["test"]
		h.s.mu.Unlock()
		if a.whole != tc.whole || a.hot != tc.hot {
			t.Errorf("%s: route counted %d whole and %d hot batches, want %d and %d",
				tc.name, a.whole, a.hot, tc.whole, tc.hot)
		}
	}
}
