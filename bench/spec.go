package main

import "encoding/json"

// metricDef names one metric of the ledger. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is emitted by every workload of an untraced run. The names are
// shared across workloads because the driver compares every metric on
// every workload; what each one measures per workload is in README.md.
// The bounds are the widest the contract allows: ten runs on ten seeds
// spread over 4 to 11 % of their median on the box this was written on
// (README.md, "A/A"), and a bound is to be three times that.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_mb_s", "MB/s", "higher", 0.25},
	{"op_p25_ms", "ms", "lower", 0.25},
}

// perLayer is emitted by every workload of a traced run; a layer the
// workload never calls reads 0.
var perLayer = []metricDef{
	{"host.cpu_speed", "ratio", "higher", 0},
	{"host.disk_speed", "ratio", "higher", 0},
	{"process.cpu_ms_per_mb", "ms/MB", "lower", 0},

	{"workloads.build_ms", "ms", "lower", 0},

	{"sim.compile_ms", "ms", "lower", 0},
	{"sim.image_bytes", "bytes", "lower", 0},
	{"sim.engine_bytes", "bytes", "lower", 0},
	{"sim.sparse_ns_sym", "ns/sym", "lower", 0},
	{"sim.dense_ns_sym", "ns/sym", "lower", 0},
	{"sim.auto_ns_sym", "ns/sym", "lower", 0},
	{"sim.dense_step_share", "ratio", "lower", 0},
	{"sim.reports", "count", "higher", 0},
	{"sim.allocs_per_run", "count", "lower", 0},
	{"sim.streamer_ns_sym", "ns/sym", "lower", 0},
	{"sim.snapshot_us", "us", "lower", 0},
	{"sim.snapshot_bytes", "bytes", "lower", 0},
	{"sim.restore_us", "us", "lower", 0},
	{"sim.batch8_ns_sym", "ns/sym", "lower", 0},

	{"hotcold.partition_ms", "ms", "lower", 0},
	{"hotcold.hot_share", "ratio", "lower", 0},
	{"worstcase.analyze_ms", "ms", "lower", 0},

	{"ap.baseline_ns_sym", "ns/sym", "lower", 0},
	{"ap.baseline_cycles", "count", "lower", 0},

	{"spap.plain_ns_sym", "ns/sym", "lower", 0},
	{"spap.guarded_ns_sym", "ns/sym", "lower", 0},
	{"spap.ckpt_ns_sym", "ns/sym", "lower", 0},
	{"spap.over_kernel", "x", "lower", 0},
	{"spap.cycles", "count", "lower", 0},
	{"spap.intermediate_reports", "count", "lower", 0},
	{"spap.guard_trips", "count", "lower", 0},
	{"spap.speedup", "x", "higher", 0},

	{"offline.match_mb_s", "MB/s", "higher", 0},
	{"offline.spap_mb_s", "MB/s", "higher", 0},

	{"checkpoint.save_p50_us", "us", "lower", 0},
	{"checkpoint.save_p95_us", "us", "lower", 0},
	{"checkpoint.saves", "count", "lower", 0},
	{"checkpoint.save_bytes", "bytes", "lower", 0},
	{"checkpoint.busy_share", "ratio", "lower", 0},
	{"checkpoint.load_p50_us", "us", "lower", 0},
	{"checkpoint.remove_p50_us", "us", "lower", 0},

	{"replica.save_p50_us", "us", "lower", 0},
	{"replica.save_p95_us", "us", "lower", 0},
	{"replica.ship_p50_us", "us", "lower", 0},
	{"replica.recv_p50_us", "us", "lower", 0},
	{"replica.ships", "count", "lower", 0},
	{"replica.ship_errors", "count", "lower", 0},
	{"replica.degraded", "count", "lower", 0},

	{"serve.ops_s", "1/s", "higher", 0},
	{"serve.handler_p50_ms", "ms", "lower", 0},
	{"serve.client_gap_p50_ms", "ms", "lower", 0},
	{"serve.engine_share", "ratio", "higher", 0},
	{"serve.unaccounted_share", "ratio", "lower", 0},
	{"serve.first_match_ms", "ms", "lower", 0},
	{"serve.first_stream_ms", "ms", "lower", 0},
	{"serve.sessions_completed", "count", "higher", 0},
	{"serve.matches", "count", "higher", 0},
	{"serve.checkpoint_saves", "count", "lower", 0},
	{"serve.reports_delivered", "count", "higher", 0},
	{"serve.sheds", "count", "lower", 0},
	{"serve.client_retries", "count", "lower", 0},
	{"serve.client_resumes", "count", "lower", 0},
	{"serve.client_restarts", "count", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.accounted_share", "ratio", "higher", 0},
}

type workloadKind int

const (
	kindOffline workloadKind = iota
	kindMatch
	kindStream
)

// workload is one fixed traffic mix. Prefix is how many bytes of each
// generated input an operation sends (0 = the whole input).
type workload struct {
	Name       string
	Why        string
	kind       workloadKind
	apps       []string
	prefix     int
	replicated bool
}

var workloadSet = []workload{
	{
		Name: "offline_cold",
		Why:  "library calls on low-activity automata: small frontier, sparse kernel does the steps, SpAP cuts most cycles; a dense-kernel change must not show here",
		kind: kindOffline, apps: []string{"Snort_L", "DS", "Snort", "CAV", "TCP", "DS06"},
	},
	{
		Name: "offline_hot",
		Why:  "same calls on high-activity automata: dense pass and report collection dominate, so a kernel threshold that buys the cold panel at this one's cost shows",
		kind: kindOffline, apps: []string{"HM", "PEN", "Brill", "Pro", "LV"}, prefix: 32 << 10,
	},
	{
		Name: "serve_match",
		Why:  "POST /v1/match, 16 KiB inputs, apps HM/PEN/TCP: engine-bound through HTTP and no checkpoint store call, so SpAP gains show and store gains must not",
		kind: kindMatch, apps: []string{"HM", "PEN", "TCP"}, prefix: 16 << 10,
	},
	{
		Name: "serve_stream",
		Why:  "POST /v1/stream, 128 KiB sessions on report-poor apps with a durable store: overhead-bound by 16 fsync'd saves and flushes, so checkpoint and serve-loop gains show",
		kind: kindStream, apps: []string{"TCP", "CAV", "Snort", "DS06"},
	},
	{
		Name: "serve_stream_reports",
		Why:  "same path on report-heavy apps (PEN, LV), 32 KiB: large report windows in every saved slot and per-report delivery, the opposite use of serve and checkpoint",
		kind: kindStream, apps: []string{"PEN", "LV"}, prefix: 32 << 10,
	},
	{
		Name: "serve_stream_replicated",
		Why:  "serve_stream's traffic with every save shipped to a follower node and acknowledged: the delta to serve_stream is the ship-ack barrier, so replica gains show only here",
		kind: kindStream, apps: []string{"TCP", "CAV", "Snort", "DS06"}, replicated: true,
	},
}

// specJSON renders BENCHMARK.json from the tables above, so the file at
// the root of the repository and the program cannot name different things.
func specJSON(runSeconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSet {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from literals
	}
	return append(out, '\n')
}
