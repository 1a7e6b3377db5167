// Command fepiad serves the robustness analysis over HTTP: the FePIA
// step-4 oracle as an online service, for scheduler loops and experiment
// harnesses that score many candidate mappings on demand (see
// docs/SERVICE.md for the endpoint reference).
//
//	fepiad                       # serve on :8080
//	fepiad -addr :9090 -pprof    # custom port, pprof enabled
//
// Endpoints: POST /v1/analyze (one spec document), POST /v1/batch (many
// systems over the worker pool and shared radius cache), GET /healthz,
// GET /metrics (Prometheus text exposition, with SLO burn-rate gauges;
// ?federate=1 merges ring peers' registries), GET /v1/cluster/status
// (federated per-node health), GET /debug/vars (expvar globals plus the
// registry snapshot), and GET /debug/traces
// (recent and slowest request traces with per-stage spans — cross-node
// trees on forwarded requests); see docs/OBSERVABILITY.md. Logs are
// structured (-log-format
// json|text, -log-level) with one access line per request carrying its
// X-Request-Id. The process drains gracefully on SIGTERM/SIGINT:
// in-flight analyses get -drain to finish, then are force-cancelled.
//
// Resilience (docs/SERVICE.md, "Failure modes & degraded serving"):
// transient solve failures retry up to -retry-max attempts, each /v1/
// endpoint sits behind a -breaker-window circuit breaker, and with
// -degraded (on by default) an open breaker or engine failure is served
// from the radius cache with meta.degraded set. The
// FEPIAD_FAULTS env knob activates the seeded fault-injection harness
// for chaos drills.
//
// Persistence & anytime serving (docs/SERVICE.md): -snapshot-path
// persists the radius cache across restarts (periodic + on drain,
// restored at boot; corrupt files boot cold, never crash), and -anytime
// turns deadline expiries into certified lower-bound answers with
// meta.anytime instead of 504s.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fepia/internal/cluster"
	"fepia/internal/faults"
	"fepia/internal/obs"
	"fepia/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "analysis workers per batch request (0 = GOMAXPROCS)")
		cacheCap    = flag.Int("cache", 0, "shared radius-cache capacity in entries (0 = default)")
		cacheShards = flag.Int("cache-shards", 0, "radius-cache shard count, rounded up to a power of two (0 = derived from GOMAXPROCS)")
		useKernel   = flag.Bool("kernel", false, "route linear features through the vectorized SoA analytic kernel (bit-identical results; analyze and batch share the radius cache with the per-feature path, /v1/watch kernel steps bypass it)")
		maxBody     = flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body in bytes")
		timeout     = flag.Duration("timeout", server.DefaultTimeout, "per-request analysis deadline")
		maxInFlight = flag.Int("max-inflight", server.DefaultMaxInFlight, "admitted concurrent requests before shedding with 503")
		retryAfter  = flag.Duration("retry-after", server.DefaultRetryAfter, "Retry-After hint on 503 responses")
		drain       = flag.Duration("drain", server.DefaultDrainTimeout, "graceful-shutdown drain budget")
		enablePprof = flag.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
		traceCap    = flag.Int("trace-cap", server.DefaultTraceCapacity, "request traces retained per /debug/traces list (recent, slowest)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "json", "log format: json or text")

		retryMax        = flag.Int("retry-max", server.DefaultRetryAttempts, "attempts per feature solve for transient failures (1 disables retrying)")
		breakerWindow   = flag.Int("breaker-window", server.DefaultBreakerWindow, "sliding outcome window of each endpoint's circuit breaker (0 disables)")
		breakerCooldown = flag.Duration("breaker-cooldown", server.DefaultBreakerCooldown, "how long an open breaker rejects before probing half-open")
		degraded        = flag.Bool("degraded", true, "serve cached analyses with a degraded marker when the engine is unavailable")

		snapshotPath     = flag.String("snapshot-path", "", "persist the radius cache here (periodic + on drain) and restore it at boot; empty disables persistence")
		snapshotInterval = flag.Duration("snapshot-interval", server.DefaultSnapshotInterval, "periodic cache-snapshot cadence (<= 0 snapshots on drain only)")
		anytime          = flag.Bool("anytime", false, "on deadline expiry answer with the best certified lower bound (meta.anytime) instead of 504; specs can also opt in per request")

		sloLatency      = flag.Float64("slo-latency-p99", 0, "p99 latency objective in milliseconds for the fepiad_slo_* burn-rate gauges (0 = default 500)")
		sloAvailability = flag.Float64("slo-availability", 0, "availability objective in (0,1) for the fepiad_slo_* burn-rate gauges (0 = default 0.999)")
		traceSlow       = flag.Duration("trace-slow-threshold", 0, "mark requests at or past this duration as slow: force-kept in /debug/traces and counted on fepiad_slow_requests_total (0 disables)")
		traceSample     = flag.Int("trace-sample", 1, "keep 1-in-N finished traces in the /debug/traces recent ring (slow-marked traces always kept; 1 keeps all)")

		nodeID         = flag.String("node-id", "", "this node's identity on the cluster ring (required with -peers)")
		peersFlag      = flag.String("peers", "", "full ring membership as id=url,id=url,... including this node (empty = solo); see docs/CLUSTER.md")
		peerReplicas   = flag.Int("peer-replicas", 0, "virtual points per node on the consistent-hash ring (0 = default; all nodes must agree)")
		forwardTimeout = flag.Duration("forward-timeout", 0, "per-attempt deadline for forwarding a request to its ring owner (0 = default)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		slog.Error("bad -log-level", "error", err.Error())
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level).With("service", "fepiad")
	slog.SetDefault(logger)

	// Reject nonsensical values early with a clean exit 2 instead of
	// letting withDefaults silently paper over them. flag.Visit walks only
	// flags the operator actually set, so the 0-as-default convention
	// (-workers 0, -cache-shards omitted, …) stays legal while an explicit
	// "-cache-shards 0" or "-timeout -1s" is a configuration error.
	badFlag := ""
	flag.Visit(func(f *flag.Flag) {
		bad := false
		switch f.Name {
		case "timeout", "retry-after", "drain", "breaker-cooldown", "forward-timeout":
			d, err := time.ParseDuration(f.Value.String())
			bad = err != nil || d < 0
		case "cache-shards":
			bad = *cacheShards <= 0
		case "peer-replicas":
			bad = *peerReplicas < 1
		case "cache":
			bad = *cacheCap < 0
		case "workers":
			bad = *workers < 0
		case "max-inflight":
			bad = *maxInFlight < 1
		case "max-body":
			bad = *maxBody < 1
		case "trace-cap":
			bad = *traceCap < 0
		case "retry-max":
			bad = *retryMax < 1
		case "breaker-window":
			bad = *breakerWindow < 0
		case "slo-latency-p99":
			bad = *sloLatency <= 0
		case "slo-availability":
			bad = *sloAvailability <= 0 || *sloAvailability >= 1
		case "trace-slow-threshold":
			d, err := time.ParseDuration(f.Value.String())
			bad = err != nil || d < 0
		case "trace-sample":
			bad = *traceSample < 1
		}
		if bad && badFlag == "" {
			badFlag = f.Name
		}
	})
	if badFlag != "" {
		logger.Error("invalid flag value", "flag", "-"+badFlag, "value", flag.Lookup(badFlag).Value.String())
		os.Exit(2)
	}

	// Flag semantics use 0/1 for "off"; the Config zero value means
	// "default", so off is passed as a negative.
	rm, bw := *retryMax, *breakerWindow
	if rm <= 1 {
		rm = -1
	}
	if bw <= 0 {
		bw = -1
	}
	// A zero or negative -snapshot-interval means drain-only persistence;
	// Config's zero value means "default cadence", so pass it as -1.
	si := *snapshotInterval
	if si <= 0 {
		si = -1
	}

	// FEPIAD_FAULTS activates the chaos harness on a running instance,
	// e.g. FEPIAD_FAULTS="seed=7;max=100;solve:error=0.05". Empty (the
	// production default) leaves every injection point a no-op.
	injector, err := faults.ParseSchedule(os.Getenv("FEPIAD_FAULTS"))
	if err != nil {
		logger.Error("bad FEPIAD_FAULTS", "error", err.Error())
		os.Exit(2)
	}
	if injector != nil {
		logger.Warn("FAULT INJECTION ACTIVE", "schedule", os.Getenv("FEPIAD_FAULTS"))
	}

	// Cluster membership: -peers names every node of the ring (this one
	// included); -node-id says which entry is us. Validation happens here
	// so a bad flag is a clean exit 2, not a server.New panic.
	peers, err := cluster.ParsePeers(*peersFlag)
	if err != nil {
		logger.Error("bad -peers", "error", err.Error())
		os.Exit(2)
	}
	if len(peers) > 0 {
		found := false
		for _, p := range peers {
			if p.ID == *nodeID {
				found = true
				break
			}
		}
		if !found {
			logger.Error("-node-id must name one of the -peers entries", "node_id", *nodeID)
			os.Exit(2)
		}
		// Dry-run the router construction to catch the rest (malformed
		// peer URLs, bad replica counts) with a clean exit too.
		if _, err := cluster.New(cluster.Config{Self: *nodeID, Peers: peers, Replicas: *peerReplicas}); err != nil {
			logger.Error("bad cluster config", "error", err.Error())
			os.Exit(2)
		}
	}

	cfg := server.Config{
		MaxBodyBytes:  *maxBody,
		Timeout:       *timeout,
		MaxInFlight:   *maxInFlight,
		RetryAfter:    *retryAfter,
		Workers:       *workers,
		CacheCapacity: *cacheCap,
		CacheShards:   *cacheShards,
		Kernel:        *useKernel,
		DrainTimeout:  *drain,
		TraceCapacity: *traceCap,
		EnablePprof:   *enablePprof,
		Log:           logger,

		RetryMax:        rm,
		BreakerWindow:   bw,
		BreakerCooldown: *breakerCooldown,
		Degraded:        *degraded,

		SnapshotPath:     *snapshotPath,
		SnapshotInterval: si,
		Anytime:          *anytime,

		SLOLatencyP99MS:    *sloLatency,
		SLOAvailability:    *sloAvailability,
		TraceSlowThreshold: *traceSlow,
		TraceSample:        *traceSample,

		NodeID:         *nodeID,
		Peers:          peers,
		PeerReplicas:   *peerReplicas,
		ForwardTimeout: *forwardTimeout,
	}
	// Assign only a live injector: a typed-nil *Seeded in the interface
	// field would read as "injection active" and crash the first request.
	if injector != nil {
		cfg.Injector = injector
	}
	s := server.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err.Error())
		os.Exit(1)
	}
	logger.Info("serving",
		"addr", l.Addr().String(),
		"timeout", timeout.String(),
		"max_in_flight", *maxInFlight,
		"workers", *workers,
		"degraded_mode", *degraded,
		"node_id", *nodeID,
		"cluster_peers", len(peers))
	start := time.Now()
	if err := s.Run(ctx, l); err != nil {
		logger.Error("server exited", "error", err.Error())
		os.Exit(1)
	}
	cs := s.CacheStats()
	logger.Info("drained cleanly",
		"uptime", time.Since(start).Round(time.Millisecond).String(),
		"cache_hits", cs.Hits,
		"cache_misses", cs.Misses)
}
