package sparseap

// This file exposes the serving surface: the fault-tolerant multi-tenant
// streaming match service (internal/serve), its resilient client, and
// the per-tenant guard-escalation ladder that degrades storm-prone
// tenants from SpAP to baseline execution.

import (
	"sparseap/internal/metrics"
	"sparseap/internal/replica"
	"sparseap/internal/serve"
	"sparseap/internal/spap"
)

type (
	// MatchServer is the long-lived multi-tenant streaming match service:
	// shared compiled images, admission control with explicit shedding,
	// checkpoint-backed exactly-once session resume, graceful drain, and
	// per-tenant degradation ladders.
	MatchServer = serve.Server
	// ServeConfig tunes a MatchServer (quotas, budgets, checkpoint store,
	// capture interval, guard ladder).
	ServeConfig = serve.Config
	// ServeClient is the session-protocol client with retry, backoff, and
	// transparent resume across server kills and restarts.
	ServeClient = serve.Client
	// StreamResult is one completed stream session's exactly-once report
	// stream.
	StreamResult = serve.StreamResult
	// MetricsRegistry is the per-tenant counter registry the serve path
	// reports into; its WriteText renders Prometheus text exposition.
	MetricsRegistry = metrics.Registry
	// LadderConfig tunes the per-tenant guard-escalation ladder.
	LadderConfig = spap.LadderConfig
	// GuardLadder tracks one tenant's position on the degradation ladder
	// (guarded -> baseline -> probe -> guarded).
	GuardLadder = spap.Ladder
	// ReplicatedStore wraps a local checkpoint store and ships every
	// committed slot to follower nodes, extending the save-then-flush
	// delivery barrier across the cluster (internal/replica).
	ReplicatedStore = replica.Store
	// ReplicaOptions tunes a ReplicatedStore (followers, ack quorum,
	// timeouts, hysteresis).
	ReplicaOptions = replica.Options
)

// NewMatchServer builds a match server; make applications resident with
// AddApp, then Serve.
func NewMatchServer(cfg ServeConfig) *MatchServer { return serve.New(cfg) }

// NewReplicatedStore wraps a local checkpoint store with follower
// shipping; pass it as ServeConfig.Store to make sessions survive node
// loss.
func NewReplicatedStore(local SlotStore, o ReplicaOptions) *ReplicatedStore {
	return replica.New(local, o)
}

// NewMetricsRegistry builds an empty counter registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewGuardLadder builds a fresh per-tenant escalation ladder.
func NewGuardLadder(cfg LadderConfig) *GuardLadder { return spap.NewLadder(cfg) }
