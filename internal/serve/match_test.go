package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/oracle"
	"sparseap/internal/spap"
	"sparseap/internal/testleak"
)

// sameAsOracle compares a /v1/match reply report-by-report with the
// oracle's run of the same input.
func sameAsOracle(m *matchResponse, net *automata.Network, input []byte) error {
	want := oracle.Run(net, input).Reports
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
// their count: under every ladder mode each reply must be bit-identical
// to sim.Run on the same input — degradation changes latency, never
// answers.
func TestMatchIdenticalToSimRun(t *testing.T) {
	testleak.Check(t)
	net := testNet(t)
	tenants := []string{"t0", "t1", "t2"}

	// burst fires 32 concurrent requests across matchLens and the three
	// tenants and requires every reply to carry wantMode and sim.Run's
	// reports.
	burst := func(t *testing.T, h *harness, wantMode string) {
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(matchLens))
		for i := 0; i < 4*len(matchLens); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				input := testInput(matchLens[i%len(matchLens)])
				cl := &Client{URL: func() string { return h.ts.URL }, Tenant: tenants[i%len(tenants)]}
				m, shed, _, err := cl.Match(context.Background(), "test", input)
				if err != nil || shed {
					errs <- fmt.Errorf("match %d: shed=%v err=%v", i, shed, err)
					return
				}
				if m.Mode != wantMode {
					errs <- fmt.Errorf("match %d: mode = %q, want %q", i, m.Mode, wantMode)
					return
				}
				if err := sameAsOracle(m, net, input); err != nil {
					errs <- fmt.Errorf("match %d (len %d): %v", i, len(input), err)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	t.Run("guarded", func(t *testing.T) {
		// A trip limit no burst reaches: the tenants stay on the guarded
		// path whatever the guard makes of these inputs.
		h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1 << 30}}, net)
		burst(t, h, "guarded")
	})

	t.Run("baseline", func(t *testing.T) {
		// Demoted tenants with a cooldown longer than the burst: every
		// request takes the baseline kernel.
		h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1, Cooldown: 1 << 30}}, net)
		for _, name := range tenants {
			h.s.tenantOf(name).ladder.ObserveGuarded(spap.ModeGuarded, true)
		}
		burst(t, h, "baseline")
	})

	t.Run("probe", func(t *testing.T) {
		// One probe slot exists per cooldown, so this cell is sequential:
		// demote, spend the one-request cooldown, and the next request is
		// the probe.
		h := startServer(t, Config{Ladder: spap.LadderConfig{TripLimit: 1, Cooldown: 1}}, net)
		cl := &Client{URL: func() string { return h.ts.URL }, Tenant: "victim"}
		ladder := h.s.tenantOf("victim").ladder
		for _, n := range matchLens {
			input := testInput(n)
			if ladder.Mode() == spap.ModeGuarded {
				ladder.ObserveGuarded(spap.ModeGuarded, true)
			}
			for _, wantMode := range []string{"baseline", "probe"} {
				m, shed, _, err := cl.Match(context.Background(), "test", input)
				if err != nil || shed {
					t.Fatalf("len %d: shed=%v err=%v", n, shed, err)
				}
				if m.Mode != wantMode {
					t.Fatalf("len %d: mode = %q, want %q", n, m.Mode, wantMode)
				}
				if err := sameAsOracle(m, net, input); err != nil {
					t.Fatalf("len %d, %s: %v", n, wantMode, err)
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

// TestMatchBodyTooLargeAnswers413 posts a body over maxMatchBytes.
func TestMatchBodyTooLargeAnswers413(t *testing.T) {
	testleak.Check(t)
	h := startServer(t, Config{}, testNet(t))
	status, body := post(t, h.ts.URL+"/v1/match?app=test", testInput(maxMatchBytes+1), nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", status, strings.TrimSpace(body))
	}
	if status, _ := post(t, h.ts.URL+"/v1/match?app=test", testInput(maxMatchBytes), nil); status != http.StatusOK {
		t.Fatalf("body at the limit: status = %d, want 200", status)
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
