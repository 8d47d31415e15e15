// Package serve is the multi-tenant streaming match service: the
// long-lived server that turns the library into a system serving many
// concurrent input streams against many resident automata.
//
// Robustness is the headline, and every mechanism built in the earlier
// layers plugs in here:
//
//   - compiled sim.Images are cached once per application and shared
//     read-only across every tenant's sessions (they are immutable and
//     pooled-engine-ready);
//   - admission control sheds load explicitly — per-tenant token buckets
//     and concurrency caps answer 429, global session and memory budgets
//     answer 503, both with Retry-After — so an accepted stream never
//     fails for lack of resources;
//   - every session checkpoints through internal/checkpoint: a killed
//     server restarts, the client retries with backoff, and the resumed
//     session delivers a report stream bit-identical to an uninterrupted
//     run with exactly-once delivery (see session.go for the windowed
//     resume protocol);
//   - SIGTERM drains gracefully: in-flight sessions are checkpointed and
//     suspended, clients reconnect to the next process;
//   - /v1/match runs SpAP only for apps whose hot half saves an AP
//     batch, the baseline kernel for the rest; on SpAP, guard-tripped
//     tenants degrade down a per-tenant ladder to the baseline kernel
//     instead of failing (internal/spap Ladder), and recover via cooldown
//     probes;
//   - request deadlines propagate from the X-Deadline-Ms header through
//     context into every executor.
//
// The wire protocol is deliberately plain: HTTP with full-duplex bodies
// (HTTP/2 when the caller configures TLS, HTTP/1.1 full duplex
// otherwise), newline-framed text reports. See DESIGN.md §6.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/hotcold"
	"sparseap/internal/metrics"
	"sparseap/internal/replica"
	"sparseap/internal/sim"
	"sparseap/internal/spap"
	"sparseap/internal/worstcase"
)

// Config tunes the server. Store is required; New fills defaults for
// the rest.
type Config struct {
	// Store is the durable checkpoint store backing session resume. It
	// is required, and New panics without one: a report is released only
	// once the capture covering it is durable, and that barrier is what
	// lets a session suspend, survive a kill and move to a peer. A
	// replica.Store here extends the barrier across nodes: reports
	// release only once the covering window is durable on the
	// replication quorum, so a client can fail over to a follower
	// without replay divergence.
	Store checkpoint.Store
	// Every is the checkpoint capture interval in input symbols
	// (default 8192). It is also the report-delivery granularity: reports
	// are released to the client only once the checkpoint covering them
	// is durable, which is what makes exactly-once delivery possible
	// across a kill.
	Every int64

	// AP is the half-core the match route counts batches against and the
	// guarded executor runs on; the zero value means ap.DefaultConfig().
	// apserve passes ap.Scaled(-divisor), the half-core of its apps' scale.
	AP ap.Config

	// MaxSessions caps globally concurrent sessions (streams + matches);
	// default 256. Excess is shed with 503.
	MaxSessions int
	// MaxPerTenant caps concurrent sessions per tenant; default 32.
	// Excess is shed with 429.
	MaxPerTenant int
	// RatePerSec is the per-tenant token-bucket refill rate in sessions
	// per second (default 64).
	RatePerSec float64
	// Burst is the per-tenant token-bucket capacity (default 2×rate).
	Burst float64
	// MemBudget bounds resident bytes (shared images + per-session
	// engine estimates); 0 means unlimited. Excess admissions shed 503.
	MemBudget int64

	// Ladder configures per-tenant guard escalation.
	Ladder spap.LadderConfig

	// Peers are base URLs of sibling serve nodes (e.g.
	// "http://10.0.0.2:8425"): migration targets for /v1/migrate and
	// DrainMigrate. A peer's /healthz is probed only when a session is
	// about to move to it (see pickPeer in cluster.go).
	Peers []string

	// Registry receives the serve-path counters; New creates one when
	// nil.
	Registry *metrics.Registry

	// Now is the clock (tests inject a fake one for token buckets).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = checkpoint.DefaultEvery
	}
	if c.AP == (ap.Config{}) {
		c.AP = ap.DefaultConfig()
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxPerTenant <= 0 {
		c.MaxPerTenant = 32
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 64
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.RatePerSec
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// app is one resident application: the network, its shared compiled
// image, and the lazily decided match route.
type app struct {
	name        string
	net         *automata.Network
	img         *sim.Image
	fingerprint string

	once   sync.Once
	whole  int  // AP batches of the whole network
	hot    int  // AP batches of the partition's hot network; 0 without one
	kernel bool // SpAP saves no batch: matches run the baseline kernel
	part   *hotcold.Partition
	perr   error

	wcOnce  sync.Once
	wcBound int // certified worst-case frontier width
}

// frontierBound returns (computing once) the certified worst-case
// frontier width of the application, the size admission charges engines
// at. The k-gram refinement is skipped: layers 1–2 are fast and sound,
// and admission only loses a little headroom to the looser bound.
func (a *app) frontierBound() int {
	a.wcOnce.Do(func() {
		a.wcBound = worstcase.Analyze(a.net, worstcase.Config{NoGram: true}).FrontierBound
	})
	return a.wcBound
}

// engineCost is the admission charge of one solo-engine session: the
// engine sized for the certified worst-case frontier instead of the
// unconditional full-state estimate. The charge stays sound under
// adversarial input — no frontier can exceed the static bound — while
// admitting more sessions whenever the bound is far below the state
// count.
func (a *app) engineCost() int64 {
	return a.img.EngineFootprintBounded(a.frontierBound()) + sessionOverheadBytes
}

// route decides (once) which executor the app's matches run on. SpAP
// gains only by configuring fewer AP batches, since each batch streams the
// whole input again (ap.BaselineCycles). So an app that fits one batch
// runs on the baseline kernel and builds no partition, and so does one
// whose static partition leaves a hot network needing as many batches as
// the whole. Otherwise part is the partition the guarded executor runs
// on, or perr says why it could not be built.
func (a *app) route(capacity int) (kernel bool, part *hotcold.Partition, perr error) {
	a.once.Do(func() {
		whole, err := ap.PartitionNFAs(a.net, capacity)
		a.whole = len(whole)
		if err == nil && a.whole <= 1 {
			a.kernel = true
			return
		}
		a.part, a.perr = hotcold.BuildWithStrategy(a.net, hotcold.StrategyStatic,
			hotcold.StrategyInput{}, hotcold.Options{Capacity: capacity})
		if err != nil || a.perr != nil {
			return
		}
		hot, herr := ap.PartitionNFAs(a.part.Hot, capacity)
		a.hot = len(hot)
		a.kernel = herr == nil && a.hot >= a.whole
	})
	return a.kernel, a.part, a.perr
}

// Server is the multi-tenant streaming match service.
type Server struct {
	cfg Config
	reg *metrics.Registry

	mu        sync.Mutex
	apps      map[string]*app
	tenants   map[string]*tenant
	active    map[string]*session // live stream sessions by ID
	nSess     int                 // global concurrent sessions (streams + matches)
	memUsed   int64               // per-session dynamic bytes admitted
	memImages int64               // resident shared images
	draining  bool

	bufs    sync.Pool // *sessionBufs of finished sessions (session.go)
	replies sync.Pool // *[]byte a match reply is rendered into (match.go)

	killCh chan struct{} // closed by Abort: simulated crash for chaos tests
	idle   sync.Cond     // broadcast when nSess drops (Drain waits on it)

	peerNext   int          // round-robin cursor for pickPeer
	peerClient *http.Client // health probes and session transfers to peers

	recv *replica.Receiver // follower side of checkpoint shipping

	hsMu sync.Mutex
	hs   *http.Server
}

// New builds a server with no resident applications; add them with
// AddApp. It panics when cfg.Store is nil: every session resumes from
// the store, and there is no store-less mode to fall back to.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("serve: Config.Store is required: sessions resume from it")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		apps:    map[string]*app{},
		tenants: map[string]*tenant{},
		active:  map[string]*session{},
		killCh:  make(chan struct{}),

		peerClient: &http.Client{Timeout: transferTimeout},
	}
	s.idle.L = &s.mu
	s.bufs.New = newSessionBufs
	s.replies.New = func() any { return new([]byte) }
	// Shipments apply through the LOCAL store so a received slot is
	// never relayed onward.
	s.recv = replica.NewReceiver(s.localStore(), s.reg)
	return s
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// AddApp makes an application resident: its execution image is compiled
// now and shared by every session. The fingerprint identifies the exact
// build (generator config, seed, optimization) so a resumed session can
// refuse to splice state from a different build.
func (s *Server) AddApp(name string, net *automata.Network, fingerprint string) error {
	img := sim.ImageOf(net)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.apps[name]; dup {
		return fmt.Errorf("serve: app %q already resident", name)
	}
	s.apps[name] = &app{name: name, net: net, img: img, fingerprint: fingerprint}
	s.memImages += img.Footprint()
	return nil
}

// lookupApp returns the resident application, or nil.
func (s *Server) lookupApp(name string) *app {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[name]
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("POST /v1/migrate", s.handleMigrate)
	mux.HandleFunc("POST /v1/migrate/accept", s.handleMigrateAccept)
	s.recv.Mount(mux)
	return mux
}

// Serve accepts connections on l until the listener closes (Drain,
// Abort, or an external Shutdown).
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	err := hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Drain gracefully shuts the server down: new sessions are refused with
// 503, every in-flight stream session is checkpointed and suspended (the
// client reconnects to the next process), and the HTTP server closes.
// It returns once all sessions have unwound or timeout elapses.
func (s *Server) Drain(timeout time.Duration) error {
	return s.drain(timeout, "drain", (*session).requestDrain)
}

// drain is Drain and DrainMigrate once they have chosen how a session is
// asked to leave: it marks the server draining, puts the request to every
// live session, waits until all have unwound or timeout elapses, and
// closes the HTTP server and the replication streams.
func (s *Server) drain(timeout time.Duration, what string, request func(*session)) error {
	s.mu.Lock()
	s.draining = true
	for _, sess := range s.active {
		request(sess)
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
	})
	for s.nSess > 0 && time.Now().Before(deadline) {
		s.idle.Wait()
	}
	stranded := s.nSess
	s.mu.Unlock()
	timer.Stop()

	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs != nil {
		hs.Close()
	}
	s.endLinks()
	if stranded > 0 {
		return fmt.Errorf("serve: %s timed out with %d sessions still live", what, stranded)
	}
	return nil
}

// Abort kills the server abruptly — the in-process stand-in for SIGKILL
// used by the chaos harness. No session checkpoints, no drain: sessions
// die where they stand and the store keeps only their last periodic
// capture, exactly as a real kill would leave it. The replication
// streams drop with the process's sockets.
func (s *Server) Abort() {
	s.mu.Lock()
	select {
	case <-s.killCh:
	default:
		close(s.killCh)
	}
	s.mu.Unlock()
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs != nil {
		hs.Close()
	}
	s.endLinks()
}

// endLinks ends the node's replication streams: the outbound ones of a
// replicating store, reached through an optional interface as
// localStore reaches the local store, and the inbound ones its receiver
// serves.
func (s *Server) endLinks() {
	if c, ok := s.cfg.Store.(interface{ Close() error }); ok {
		c.Close()
	}
	s.recv.Close()
}

// killed reports whether Abort has fired.
func (s *Server) killed() bool {
	select {
	case <-s.killCh:
		return true
	default:
		return false
	}
}

// handleMetrics serves the counter registry in Prometheus text form.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	s.reg.WriteText(&b)
	fmt.Fprint(w, b.String())
}

// handleHealthz answers 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleApps lists resident applications.
func (s *Server) handleApps(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.apps))
	for n := range s.apps {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(names)
}

// shed answers an admission rejection with an explicit retry signal and
// counts it; reason distinguishes rate-limited tenants (429) from global
// resource pressure (503).
func (s *Server) shed(w http.ResponseWriter, tenant string, status int, retryAfter time.Duration, reason string) {
	s.reg.Tenant("serve_shed", tenant).Inc()
	s.reg.Counter("serve_shed_" + reason).Inc()
	secs := int64(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, fmt.Sprintf("shed: %s (retry after %ds)", reason, secs), status)
}

// maxDeadlineMs bounds X-Deadline-Ms at 24 h: far beyond any real
// request, far below where time.Duration(ms)*time.Millisecond overflows
// into a deadline already past.
const maxDeadlineMs = 24 * 60 * 60 * 1000

// headerInt reads an optional non-negative integer request header. An
// absent header is 0; one that does not parse, is negative or exceeds
// max is an error naming the header, which the handlers answer 400 —
// reading garbage as "not sent" would silently drop a deadline or replay
// a window the client already holds.
func headerInt(h http.Header, name string, max int64) (int64, error) {
	v := h.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 || n > max {
		return 0, fmt.Errorf("invalid %s %q: want an integer in [0, %d]", name, v, max)
	}
	return n, nil
}

// newSessionID returns a fresh 16-hex-digit session ID.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived ID; uniqueness is only needed
		// within one store directory.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
