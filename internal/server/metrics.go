package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"time"

	"fepia/internal/cluster"
	"fepia/internal/faults"
	"fepia/internal/obs"
)

// Endpoint label values of the per-endpoint metric series.
const (
	epAnalyze = "analyze"
	epBatch   = "batch"
	epWatch   = "watch"
)

// endpoints lists every labelled /v1/ endpoint, in exposition order.
var endpoints = []string{epAnalyze, epBatch, epWatch}

// latencyBuckets are the upper bounds, in milliseconds, of the
// per-endpoint request latency histograms (the last bucket is +Inf).
// /metrics renders them as cumulative le="<bound>" buckets.
var latencyBuckets = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// telemetry is the server's observability state: one obs.Registry whose
// snapshot is the only rendering of the server's telemetry — /metrics,
// the "fepiad" key of /debug/vars, /v1/cluster/metrics, the
// /v1/cluster/status entries and the drain-time summary all read it —
// plus the trace ring behind /debug/traces. Every instrument is atomic;
// handlers never lock to record.
type telemetry struct {
	reg    *obs.Registry
	traces *obs.TraceRing
	// slo tracks the per-endpoint availability and latency objectives
	// behind the fepiad_slo_* burn-rate gauges (internal/obs/slo.go).
	slo *obs.SLO

	// requests / errs / latency are per-endpoint series; analyses,
	// rejected, retries, degraded, inFlight are process-wide. slowReqs
	// counts requests at or past Config.TraceSlowThreshold.
	requests map[string]*obs.Counter
	errs     map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	slowReqs map[string]*obs.Counter
	analyses *obs.Counter
	rejected *obs.Counter
	retries  *obs.Counter
	degraded *obs.Counter
	inFlight *obs.Gauge
	// clusterDegraded counts requests served locally because their ring
	// owner was unreachable (cluster degraded fallback, not the cache
	// fallback `degraded` counts).
	clusterDegraded *obs.Counter

	// Snapshot persistence instruments (internal/server/snapshot.go).
	// Writes/loads count completed operations; the failure counters split
	// out write errors (disk, injected snapshot_write faults) and load
	// rejections (corrupt, truncated, version skew — a missing file on
	// first boot is neither). The gauges describe the last successful
	// write (entries, bytes, Unix time) and the entry count restored at
	// boot.
	snapWrites        *obs.Counter
	snapWriteFailures *obs.Counter
	snapLoads         *obs.Counter
	snapLoadFailures  *obs.Counter
	snapLastEntries   *obs.Gauge
	snapLastBytes     *obs.Gauge
	snapLastWrite     *obs.Gauge
	snapRestored      *obs.Gauge

	// anytimePartial counts responses containing at least one certified
	// lower bound instead of a converged radius (meta.anytime=true).
	anytimePartial *obs.Counter

	// Watch-session instruments (internal/server/watch.go): sessions
	// opened, steps streamed, and radii reported changed across all
	// steps. changed_radii / steps is the stream's effective compression
	// — how much of each frame the incremental wire actually ships.
	watchSessions     *obs.Counter
	watchSteps        *obs.Counter
	watchChangedRadii *obs.Counter
}

// newTelemetry builds the registry and registers every serving metric,
// the cache and breaker gauge sources, the runtime gauges, and — when
// the injector keeps stats — the injected-fault counters by point/kind.
func newTelemetry(s *Server) telemetry {
	reg := obs.NewRegistry()
	t := telemetry{
		reg:      reg,
		traces:   obs.NewTraceRing(s.cfg.TraceCapacity),
		requests: make(map[string]*obs.Counter, len(endpoints)),
		errs:     make(map[string]*obs.Counter, len(endpoints)),
		latency:  make(map[string]*obs.Histogram, len(endpoints)),
		slowReqs: make(map[string]*obs.Counter, len(endpoints)),
		analyses: reg.Counter("fepiad_analyses_total", "Systems analysed (a batch of n counts n)."),
		rejected: reg.Counter("fepiad_rejected_total", "Requests shed by the admission gate (503)."),
		retries:  reg.Counter("fepiad_retries_total", "Per-feature solve re-attempts by the transient-failure retry policy."),
		degraded: reg.Counter("fepiad_degraded_total", "Responses served from the radius cache in degraded mode."),
		inFlight: reg.Gauge("fepiad_in_flight", "Requests currently holding an admission slot."),
		clusterDegraded: reg.Counter("fepiad_cluster_degraded_total",
			"Requests served locally in degraded mode because their ring owner was unreachable."),
		snapWrites: reg.Counter("fepiad_snapshot_writes_total",
			"Cache snapshots written to -snapshot-path (periodic and drain)."),
		snapWriteFailures: reg.Counter("fepiad_snapshot_write_failures_total",
			"Cache snapshot writes that failed; the previous good snapshot is kept."),
		snapLoads: reg.Counter("fepiad_snapshot_loads_total",
			"Cache snapshots restored at boot."),
		snapLoadFailures: reg.Counter("fepiad_snapshot_load_failures_total",
			"Boot-time snapshot loads rejected (corrupt, truncated, version skew); the node booted cold."),
		snapLastEntries: reg.Gauge("fepiad_snapshot_last_entries",
			"Entries in the most recent successful cache snapshot."),
		snapLastBytes: reg.Gauge("fepiad_snapshot_last_bytes",
			"Size in bytes of the most recent successful cache snapshot."),
		snapLastWrite: reg.Gauge("fepiad_snapshot_last_write_timestamp_seconds",
			"Unix time of the most recent successful cache snapshot write (0 before the first)."),
		snapRestored: reg.Gauge("fepiad_snapshot_restored_entries",
			"Entries restored from the snapshot at boot (0 on a cold boot)."),
		anytimePartial: reg.Counter("fepiad_anytime_partial_total",
			"Responses carrying a certified lower bound instead of a converged radius (meta.anytime)."),
		watchSessions: reg.Counter("fepiad_watch_sessions_total",
			"Incremental watch sessions opened on /v1/watch."),
		watchSteps: reg.Counter("fepiad_watch_steps_total",
			"Watch frames streamed (one per analysed operating point)."),
		watchChangedRadii: reg.Counter("fepiad_watch_changed_radii_total",
			"Radii reported changed across all watch frames (the incremental wire's payload)."),
	}
	for _, ep := range endpoints {
		t.requests[ep] = reg.Counter("fepiad_requests_total", "Requests by endpoint.", obs.L("endpoint", ep))
		t.errs[ep] = reg.Counter("fepiad_errors_total", "Non-2xx responses by endpoint.", obs.L("endpoint", ep))
		t.latency[ep] = reg.Histogram("fepiad_request_duration_ms", "Request latency by endpoint, in milliseconds.",
			latencyBuckets, obs.L("endpoint", ep))
		t.slowReqs[ep] = reg.Counter("fepiad_slow_requests_total",
			"Requests at or past -trace-slow-threshold (force-kept in /debug/traces).", obs.L("endpoint", ep))
	}
	t.slo = obs.NewSLO(reg, endpoints, obs.SLOConfig{
		LatencyP99MS: s.cfg.SLOLatencyP99MS,
		Availability: s.cfg.SLOAvailability,
	}, nil)
	t.traces.SetSample(s.cfg.TraceSample)
	traces := t.traces
	reg.GaugeFunc("fepiad_trace_retained_bytes",
		"Record-stream bytes of the traces /debug/traces retains; a trace in both the recent and the slowest list counts once.",
		func() float64 { return float64(traces.RetainedBytes()) })
	start := time.Now()
	reg.GaugeFunc("fepiad_uptime_seconds", "Seconds since the server was built.",
		func() float64 { return time.Since(start).Seconds() })

	cache := s.cache
	reg.GaugeFunc("fepiad_cache_hits", "Radius-cache lookups served from memory.",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.GaugeFunc("fepiad_cache_misses", "Radius-cache lookups that had to solve.",
		func() float64 { return float64(cache.Stats().Misses) })
	reg.GaugeFunc("fepiad_cache_entries", "Radius-cache current occupancy.",
		func() float64 { return float64(cache.Stats().Size) })
	reg.GaugeFunc("fepiad_cache_capacity", "Radius-cache entry capacity.",
		func() float64 { return float64(cache.Stats().Capacity) })
	reg.GaugeFunc("fepiad_cache_put_failures", "Radius-cache inserts dropped by injected cache_put faults.",
		func() float64 { return float64(cache.Stats().PutFailures) })
	reg.GaugeFunc("fepiad_cache_shards", "Radius-cache shard count (fixed at construction).",
		func() float64 { return float64(cache.Stats().Shards) })
	reg.GaugeFunc("fepiad_cache_dup_suppressed", "Radius-cache lookups coalesced onto an in-flight identical solve.",
		func() float64 { return float64(cache.Stats().DupSuppressed) })
	reg.GaugeFunc("fepiad_cache_contended", "Radius-cache shard-lock acquisitions that had to wait (contention proxy).",
		func() float64 { return float64(cache.Stats().Contended) })
	reg.GaugeFunc("fepiad_cache_retained_bytes", "Key plus boundary bytes of the radius cache's resident entries.",
		func() float64 { return float64(cache.Stats().RetainedBytes) })
	for i := 0; i < cache.Stats().Shards; i++ {
		i := i
		reg.GaugeFunc("fepiad_cache_shard_entries", "Radius-cache occupancy by shard.",
			func() float64 { return float64(cache.ShardSize(i)) },
			obs.L("shard", fmt.Sprintf("%d", i)))
	}

	for ep, b := range map[string]*faults.Breaker{epAnalyze: s.analyzeBreaker, epBatch: s.batchBreaker} {
		registerBreaker(reg, "fepiad_breaker", "Circuit-breaker state by endpoint", obs.L("endpoint", ep),
			func() faults.BreakerSnapshot {
				if b == nil {
					return faults.BreakerSnapshot{State: "disabled"}
				}
				return b.Snapshot()
			})
	}
	registerCluster(reg, s.router)

	if fs, ok := s.cfg.Injector.(interface{ Stats() faults.Stats }); ok {
		for _, p := range faults.Points {
			for _, k := range faults.Kinds {
				p, k := p, k
				reg.GaugeFunc("fepiad_faults_injected", "Faults delivered by the injection harness, by point and kind.",
					func() float64 { return float64(fs.Stats()[p][k]) },
					obs.L("point", string(p)), obs.L("kind", string(k)))
			}
		}
	}

	obs.RegisterRuntime(reg)
	return t
}

// registerBreaker exposes one circuit breaker's snapshot as scrape-time
// gauges labelled l: prefix_state (stateHelp, then the scale 0 closed,
// 1 half-open, 2 open, -1 disabled), prefix_opens (trips), and the
// sliding window's content as prefix_window_failures,
// prefix_window_samples and prefix_window_size.
func registerBreaker(reg *obs.Registry, prefix, stateHelp string, l obs.Label, snap func() faults.BreakerSnapshot) {
	by := " by " + l.Name + "."
	gauges := []struct {
		suffix, help string
		value        func(faults.BreakerSnapshot) float64
	}{
		{"_state", stateHelp + ": 0 closed, 1 half-open, 2 open, -1 disabled.",
			func(b faults.BreakerSnapshot) float64 { return breakerStateValue(b.State) }},
		{"_opens", "Circuit-breaker trips" + by,
			func(b faults.BreakerSnapshot) float64 { return float64(b.Opens) }},
		{"_window_failures", "Failures in the circuit breaker's sliding outcome window" + by,
			func(b faults.BreakerSnapshot) float64 { return float64(b.Failures) }},
		{"_window_samples", "Outcomes recorded in the circuit breaker's sliding window" + by,
			func(b faults.BreakerSnapshot) float64 { return float64(b.Samples) }},
		{"_window_size", "Capacity of the circuit breaker's sliding window" + by,
			func(b faults.BreakerSnapshot) float64 { return float64(b.Window) }},
	}
	for _, g := range gauges {
		value := g.value
		reg.GaugeFunc(prefix+g.suffix, g.help, func() float64 { return value(snap()) }, l)
	}
}

// registerCluster exposes the cluster peer layer as scrape-time gauges:
// per-peer forward traffic (fepiad_cluster_forwards_total, _hits, and
// _failures), per-peer federation traffic (fepiad_cluster_fetches_total
// and _failures), the per-peer breaker gauges (registerBreaker), and
// each ring member's key-space share. A nil router (solo node)
// registers nothing — the series simply don't exist, matching how
// Prometheus models absent subsystems.
func registerCluster(reg *obs.Registry, rt *cluster.Router) {
	if rt == nil {
		return
	}
	for _, id := range rt.PeerIDs() {
		id := id
		reg.GaugeFunc("fepiad_cluster_forwards_total", "Requests forwarded to the peer (ring-owner routing).",
			func() float64 { return float64(rt.PeerStats(id).Forwards) }, obs.L("peer", id))
		reg.GaugeFunc("fepiad_cluster_forward_hits_total", "Forwards the peer answered 2xx.",
			func() float64 { return float64(rt.PeerStats(id).ForwardHits) }, obs.L("peer", id))
		reg.GaugeFunc("fepiad_cluster_forward_failures_total", "Forwards that failed after retries or were breaker-rejected.",
			func() float64 { return float64(rt.PeerStats(id).Failures) }, obs.L("peer", id))
		reg.GaugeFunc("fepiad_cluster_fetches_total", "Federation GETs to the peer (cluster status and metrics fan-out).",
			func() float64 { return float64(rt.PeerStats(id).Fetches) }, obs.L("peer", id))
		reg.GaugeFunc("fepiad_cluster_fetch_failures_total", "Federation GETs that failed after retries or were breaker-rejected.",
			func() float64 { return float64(rt.PeerStats(id).FetchFailures) }, obs.L("peer", id))
		registerBreaker(reg, "fepiad_cluster_peer_breaker", "Per-peer circuit-breaker state", obs.L("peer", id),
			func() faults.BreakerSnapshot { return rt.PeerStats(id).Breaker })
	}
	ring := rt.Ring()
	for _, id := range ring.Nodes() {
		share := ring.Share(id) // the ring is immutable; snapshot once
		reg.GaugeFunc("fepiad_cluster_ring_share", "Fraction of the key space the ring member owns.",
			func() float64 { return share }, obs.L("node", id))
	}
}

// breakerStates names the breaker state gauge values -1 … 2.
var breakerStates = [...]string{"disabled", "closed", "half_open", "open"}

// breakerStateValue maps a breaker state name onto the gauge scale: 0
// closed, 1 half-open, 2 open, -1 disabled.
func breakerStateValue(state string) float64 {
	for i, name := range breakerStates {
		if name == state {
			return float64(i - 1)
		}
	}
	return 0
}

// breakerStateName is breakerStateValue's inverse; a value off the
// scale reads as closed.
func breakerStateName(v float64) string {
	if i := int(v) + 1; i >= 0 && i < len(breakerStates) {
		return breakerStates[i]
	}
	return "closed"
}

// observe records one finished request on its endpoint's histogram,
// with an exemplar linking the bucket to the request's trace ID — the
// breadcrumb from a latency alert to the exact trace on /debug/traces.
func (t *telemetry) observe(ep string, d time.Duration, traceID string) {
	t.latency[ep].ObserveExemplar(float64(d)/float64(time.Millisecond), traceID)
}

// handleMetrics serves the Prometheus text exposition of the registry.
// With ?federate=1 on a clustered node, the document is the fleet view:
// peer registry snapshots merged into the local one (federation.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.URL.Query().Get("federate") == "1" && s.router != nil {
		snap := s.federatedSnapshot(r.Context())
		_ = snap.WritePrometheus(w)
		return
	}
	_ = s.metrics.reg.WritePrometheus(w)
}

// handleTraces serves the trace ring: the most recent and the
// slowest-ever request traces, with per-stage spans.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.metrics.traces.Snapshot())
}

// handleVars serves the expvar document on /debug/vars: every variable
// of the process-global expvar registry (cmdline, memstats, …) plus one
// key, "fepiad", whose value is the registry snapshot
// /v1/cluster/metrics serves. The server writes the document itself
// instead of calling expvar.Publish because expvar's registry is
// process-global and would collide across Server instances.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	snap, _ := json.Marshal(s.metrics.reg.Snapshot())
	fmt.Fprintf(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "%q: %s\n}\n", "fepiad", snap)
}
