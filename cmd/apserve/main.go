// Command apserve runs the fault-tolerant multi-tenant streaming match
// service, or drives one as a load generator.
//
// Server mode (default) makes a set of workload-suite applications
// resident and serves the session protocol over HTTP. -store is
// required: every session checkpoints there.
//
//	apserve -addr :8425 -store /var/lib/apserve -apps HM,PEN,TCP
//
// SIGTERM/SIGINT drain gracefully: new work is refused with 503 and
// every in-flight stream session is checkpointed and suspended, so
// clients resume against the next process. SIGKILL (or a crash) loses
// nothing either — sessions resume from their last durable capture with
// exactly-once report delivery.
//
// In a cluster, -peers names sibling nodes and -replicas ships every
// committed checkpoint slot to follower nodes:
//
//	apserve -addr :8425 -store /var/lib/a \
//	        -peers http://b:8425 -replicas http://b:8425 -ack 1
//
// SIGTERM then drain-migrates live sessions to the first peer that
// answers /healthz (clients follow the `moved` record with no restart
// wait; with none answering it drains as above), and SIGKILL of a
// node only pauses its sessions until the clients fail over to a
// follower holding the replicated slots. Pass -peers to the loadgen too
// so its clients exercise the same failover path.
//
// Loadgen mode streams every app through a running server and prints a
// summary:
//
//	apserve -loadgen -url http://127.0.0.1:8425 -apps HM,PEN,TCP -streams 2
//
// Every completed stream is verified bit-identical against a local
// uninterrupted run, so the loadgen doubles as an end-to-end checker.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"sparseap/internal/checkpoint"
	"sparseap/internal/cli"
	"sparseap/internal/metrics"
	"sparseap/internal/replica"
	"sparseap/internal/serve"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

func main() {
	src := cli.Command("apserve", cli.Spec{Scale: true})
	var (
		addr     = flag.String("addr", ":8425", "listen address (server mode)")
		storeDir = flag.String("store", "", "checkpoint store directory, required in server mode: sessions resume from it")
		apps     = flag.String("apps", "HM,PEN,TCP", "comma-separated workload abbreviations to make resident")
		every    = flag.Int64("every", 0, "checkpoint capture interval in symbols (0 = 8192)")

		maxSessions  = flag.Int("max-sessions", 256, "global concurrent session cap (shed 503 beyond)")
		maxPerTenant = flag.Int("max-per-tenant", 32, "per-tenant concurrent session cap (shed 429 beyond)")
		rate         = flag.Float64("rate", 64, "per-tenant admission rate (sessions/sec)")
		burst        = flag.Float64("burst", 0, "per-tenant admission burst (0 = 2x rate)")
		memBudget    = flag.Int64("membudget", 0, "resident memory budget in bytes (0 = unlimited)")
		drainWait    = flag.Duration("drain", 30*time.Second, "graceful drain timeout on SIGTERM")

		peers    = flag.String("peers", "", "comma-separated sibling node base URLs: migration targets for /v1/migrate, SIGTERM drain-migrates live sessions to them; loadgen mode fails clients over to them")
		replicas = flag.String("replicas", "", "comma-separated follower base URLs: every committed checkpoint slot is shipped to them, so sessions survive this node's loss")
		ack      = flag.Int("ack", 1, "follower acks required before reports release to the client (clamped to the replica count; fewer acks = degraded local-only durability)")

		loadgen = flag.Bool("loadgen", false, "run as load generator against -url instead of serving")
		url     = flag.String("url", "http://127.0.0.1:8425", "server base URL (loadgen mode)")
		streams = flag.Int("streams", 2, "verified stream sessions per app (loadgen mode)")
		pace    = flag.Duration("pace", 0, "sleep between stream chunk writes, stretching streams for chaos kills (loadgen mode)")
	)
	src.Parse()

	cfg := src.Workloads
	abbrs := splitList(*apps)

	if *loadgen {
		runLoadgen(*url, splitList(*peers), abbrs, cfg, *streams, *pace)
		return
	}

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "apserve: -store is required in server mode: sessions resume from it")
		os.Exit(2)
	}
	store, err := checkpoint.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	scfg := serve.Config{
		AP:           src.AP,
		Store:        store,
		Registry:     metrics.NewRegistry(),
		Every:        *every,
		MaxSessions:  *maxSessions,
		MaxPerTenant: *maxPerTenant,
		RatePerSec:   *rate,
		Burst:        *burst,
		MemBudget:    *memBudget,
		Peers:        splitList(*peers),
	}
	if followers := splitList(*replicas); len(followers) > 0 {
		// Share the server's registry so the replication counters and
		// the lag gauge surface on this node's /metrics.
		scfg.Store = replica.New(store, replica.Options{
			Followers: followers, Ack: *ack, Registry: scfg.Registry,
		})
		fmt.Printf("apserve: replicating checkpoints to %s (ack quorum %d)\n",
			strings.Join(followers, ", "), *ack)
	}
	s := serve.New(scfg)
	for _, abbr := range abbrs {
		app, err := workloads.Build(abbr, cfg)
		if err != nil {
			fatal(err)
		}
		if err := s.AddApp(abbr, app.Net, cfg.Fingerprint(abbr)); err != nil {
			fatal(err)
		}
		fmt.Printf("apserve: %s resident (%d states)\n", abbr, app.Net.Len())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("apserve: listening on %s (store=%q)\n", l.Addr(), *storeDir)

	// Drain closes the HTTP server, so Serve returns nil mid-drain; wait
	// for the drain goroutine before exiting or its outcome is lost.
	drained := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigCh
		// Hand live sessions to the first peer that answers (clients
		// follow `moved` with no restart wait); with no peer answering,
		// DrainMigrate checkpoints and suspends them for the next process.
		fmt.Printf("apserve: %v: draining (timeout %v)\n", sig, *drainWait)
		if err := s.DrainMigrate(*drainWait); err != nil {
			fmt.Fprintln(os.Stderr, "apserve:", err)
			os.Exit(1)
		}
		fmt.Println("apserve: drained cleanly")
		close(drained)
	}()
	if err := s.Serve(l); err != nil {
		fatal(err)
	}
	<-drained
}

// The loadgen's fixed shape: streams in flight at once, tenant
// identities they are spread across, and the bound on the whole run.
const (
	loadgenConcurrency = 8
	loadgenTenants     = 4
	loadgenTimeout     = 5 * time.Minute
)

// runLoadgen runs streams sessions per app through the server at url,
// failing clients over to peers, and holds each assembled report stream
// bit-identical to an uninterrupted local run. It prints one summary line
// (scripts/serve_soak.sh parses it) and exits non-zero if any stream
// failed or diverged.
func runLoadgen(url string, peers, abbrs []string, cfg workloads.Config, streams int, pace time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), loadgenTimeout)
	defer cancel()

	type job struct {
		abbr, tenant string
		input        []byte
		want         []sim.Report
	}
	var jobs []job
	for i, abbr := range abbrs {
		app, err := workloads.Build(abbr, cfg)
		if err != nil {
			fatal(fmt.Errorf("loadgen: build %s: %w", abbr, err))
		}
		want := sim.Run(app.Net, app.Input, sim.Options{CollectReports: true}).Reports
		for s := 0; s < streams; s++ {
			tenant := fmt.Sprintf("tenant-%d", (i*streams+s)%loadgenTenants)
			jobs = append(jobs, job{abbr: abbr, tenant: tenant, input: app.Input, want: want})
		}
	}

	var (
		mu                                           sync.Mutex
		firstErr                                     error
		verified                                     int
		resumes, retries, sheds, failovers, restarts int64
		wg                                           sync.WaitGroup
	)
	sem := make(chan struct{}, loadgenConcurrency)
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cl := &serve.Client{URL: func() string { return url }, Peers: peers, Tenant: j.tenant, Pace: pace}
			res, err := cl.Stream(ctx, j.abbr, j.input)
			if err == nil && !slices.Equal(res.Reports, j.want) {
				err = fmt.Errorf("loadgen: %s stream diverged from the local run (%d reports, want %d)",
					j.abbr, len(res.Reports), len(j.want))
			}
			mu.Lock()
			defer mu.Unlock()
			resumes += cl.Resumes.Load()
			retries += cl.Retries.Load()
			sheds += cl.Sheds.Load()
			failovers += cl.Failovers.Load()
			restarts += cl.Restarts.Load()
			if err == nil {
				verified++
			} else if firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	fmt.Printf("loadgen: %d/%d streams verified bit-identical (%d resumes, %d retries, %d sheds, %d failovers, %d restarts)\n",
		verified, len(jobs), resumes, retries, sheds, failovers, restarts)
	if firstErr != nil {
		fatal(firstErr)
	}
}

func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apserve:", err)
	os.Exit(1)
}
