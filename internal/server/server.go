// Package server is fepiad's HTTP layer: a stdlib-only service that
// evaluates the robustness metric ρ_μ(Φ, π) on demand over the concurrent
// batch engine. It accepts internal/spec JSON system descriptions on
// POST /v1/analyze (one system) and POST /v1/batch (many systems, fanned
// over the worker pool), shares one process-wide radius cache across every
// request so structurally identical subproblems are solved once, and
// answers with the same spec.ResultJSON documents the CLIs emit — served
// and in-process analyses are byte-identical. Both endpoints run one
// staged pipeline (see request); /v1/analyze is a batch of one.
//
// Production posture: every request runs under a deadline and a body-size
// limit; a bounded admission gate sheds load with 503 + Retry-After
// instead of queueing unboundedly; Run drains in-flight analyses on
// shutdown and force-cancels them via context if the drain budget runs
// out; /healthz answers liveness probes.
//
// Observability (docs/OBSERVABILITY.md): one internal/obs registry
// snapshot is the only rendering of the server's telemetry — the
// Prometheus text exposition on /metrics, the "fepiad" key of
// /debug/vars, /v1/cluster/metrics and /v1/cluster/status all read it,
// so no two surfaces can disagree. Every
// /v1/ request carries a request ID (accepted from or emitted as
// X-Request-Id), is logged as one structured slog line, and is traced
// with one span per pipeline stage — parse, breaker, admit, one solve
// per system (carrying its feature, cache and retry counts), encode —
// plus a solve_feature span only for a feature that retried, failed or
// returned an anytime partial; traces are retained in a bounded ring
// served on /debug/traces (most recent plus slowest-ever). /debug/pprof
// is available behind Config.EnablePprof, with endpoint and worker
// profiler labels on the analysis goroutines and a feature label on
// retried solve attempts.
//
// Error discipline: client mistakes (spec.ValidationError) map to 400
// with the offending JSON field path; unsupported analysis combinations
// (core.ErrNormUnsupported) to 400; deadline expiry to 504; shutdown and
// overload to 503; engine failures (core.SolveError) to 500. Every
// non-2xx body is a spec.ErrorJSON envelope.
//
// Resilience (docs/SERVICE.md, "Failure modes & degraded serving"): each
// /v1/ endpoint sits behind a circuit breaker over a sliding
// failure-rate window; transient solve failures are retried under a
// decorrelated-jitter policy; and with Config.Degraded set, an open
// breaker or an engine failure is answered from the shared radius cache
// with meta.degraded set and a Warning header, falling through to 503 +
// Retry-After only on a true cache miss. The faults.Injector in
// Config drives the chaos test suite and the FEPIAD_FAULTS knob; it is
// nil — a no-op — in production.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"fepia/internal/batch"
	"fepia/internal/cluster"
	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/obs"
	"fepia/internal/spec"
)

// PeerError is the typed failure of a cluster forward — which peer, how
// many attempts, the last HTTP status — re-exported so API users match
// it with errors.As alongside spec.ValidationError and core.SolveError.
// The server maps it to 503 ("peer_circuit_open", with Retry-After) when
// the peer's breaker rejected locally and 502 ("peer_unreachable") when
// the forward exhausted its attempts.
type PeerError = cluster.PeerError

// Defaults applied by New for zero-valued Config fields.
const (
	DefaultMaxBodyBytes = 4 << 20
	DefaultTimeout      = 30 * time.Second
	DefaultMaxInFlight  = 64
	DefaultRetryAfter   = 1 * time.Second
	DefaultDrainTimeout = 10 * time.Second
	// DefaultRetryAttempts is the per-feature solve attempt budget for
	// transient failures.
	DefaultRetryAttempts = 3
	// DefaultTraceCapacity bounds each retention list of the trace ring
	// (most recent N, slowest-ever N).
	DefaultTraceCapacity = 64
)

// Circuit-breaker defaults applied by Config.withDefaults, shared by the
// per-endpoint breakers and the per-peer cluster breakers.
const (
	DefaultBreakerWindow    = 20
	DefaultBreakerThreshold = 0.5
	DefaultBreakerCooldown  = 5 * time.Second
)

// Config tunes a Server. The zero value is production-safe: every limit
// falls back to the package defaults above.
type Config struct {
	// MaxBodyBytes bounds a request body; larger bodies are rejected
	// with 400 before parsing.
	MaxBodyBytes int64
	// Timeout is the per-request analysis deadline.
	Timeout time.Duration
	// MaxInFlight bounds concurrently admitted /v1/ requests; excess
	// requests are shed immediately with 503 + Retry-After.
	MaxInFlight int
	// RetryAfter is the Retry-After hint attached to 503 responses.
	RetryAfter time.Duration
	// Workers bounds the analysis worker pool of one /v1/batch request
	// (≤ 0 selects GOMAXPROCS).
	Workers int
	// CacheCapacity bounds the shared radius cache (≤ 0 selects
	// batch.DefaultCacheCapacity).
	CacheCapacity int
	// CacheShards is the shard count of the shared radius cache, rounded
	// up to a power of two (≤ 0 selects a default derived from
	// GOMAXPROCS). Results are identical for any shard count; only
	// multi-core contention changes.
	CacheShards int
	// DrainTimeout is how long Run waits for in-flight requests after
	// shutdown is requested before force-cancelling their analyses.
	DrainTimeout time.Duration
	// TraceCapacity bounds each retention list of the /debug/traces ring
	// (0 selects DefaultTraceCapacity).
	TraceCapacity int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Log is the structured logger: server events and one access-log
	// line per /v1/ request; nil selects slog.Default(). Per-request
	// lines carry request_id, endpoint, status, duration, and outcome
	// attributes.
	Log *slog.Logger

	// RetryMax is the total attempt budget per feature solve for
	// transient failures (0 selects DefaultRetryAttempts, < 0 or 1
	// disables retrying). Permanent failures are never retried.
	RetryMax int
	// BreakerWindow is the sliding outcome window of each endpoint's
	// circuit breaker (0 selects DefaultBreakerWindow, < 0 disables the
	// breakers).
	BreakerWindow int
	// BreakerThreshold is the failure rate over a full window that opens
	// a breaker (0 selects DefaultBreakerThreshold).
	BreakerThreshold float64
	// BreakerCooldown is how long an open breaker rejects before probing
	// half-open (0 selects DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Degraded enables degraded-mode serving: when a breaker is open or
	// the engine fails, /v1/ endpoints answer from the shared radius
	// cache with meta.degraded set instead of failing, and 503 only on a
	// true cache miss.
	Degraded bool
	// Kernel routes kernel-eligible linear features through the
	// vectorized SoA analytic kernel (batch.Options.Kernel). Results are
	// bit-identical to the per-feature path, and kernel-solved features
	// flow through the shared radius cache in both directions — warm
	// entries are served without re-solving and fresh solves are
	// memoised for Degraded serving and for the scalar path. Request
	// traces show one "kernel" span per system for the sweep, and a
	// "solve" stage span only when some feature kept the per-feature
	// path; fault-injected requests keep the per-feature path regardless.
	// See docs/PERFORMANCE.md.
	Kernel bool
	// SnapshotPath, when non-empty, persists the radius cache across
	// restarts: loaded once at boot (corrupt or missing files boot
	// cold), written atomically every SnapshotInterval and on drain.
	SnapshotPath string
	// SnapshotInterval is the periodic snapshot cadence (0 selects
	// DefaultSnapshotInterval, < 0 disables the ticker — the snapshot is
	// then written only on drain). Ignored without SnapshotPath.
	SnapshotInterval time.Duration
	// Anytime answers deadline-expired /v1 requests with certified
	// partial lower bounds (meta.anytime, "bound": "lower") instead of
	// 504 — see batch.Options.Anytime. Individual specs opt in with
	// their "anytime" field even when this is false.
	Anytime bool
	// Injector, when non-nil, activates the fault-injection harness on
	// every request path (chaos tests, the FEPIAD_FAULTS env knob). Nil
	// in production: every injection point is a no-op. An injector that
	// also keeps stats (faults.Seeded) feeds the fepiad_faults_injected
	// metric series.
	Injector faults.Injector

	// NodeID is this node's identity on the cluster ring (-node-id). It
	// stamps every ResponseMeta and the X-Fepiad-Node header; required
	// when Peers is non-empty, optional (purely informational) solo.
	NodeID string
	// Peers is the full ring membership including this node
	// (cluster.ParsePeers parses the -peers flag format). Empty runs the
	// node solo: no ring, no forwarding, every request served locally.
	// With peers configured, each request's spec is consistent-hashed
	// onto the ring (spec.System.RouteKey) and non-owned requests are
	// forwarded to the owning peer; see docs/CLUSTER.md.
	Peers []cluster.Peer
	// PeerReplicas is the virtual-node count per peer on the ring (0
	// selects cluster.DefaultReplicas). All nodes must agree on it.
	PeerReplicas int
	// ForwardTimeout bounds each forward attempt to a peer (0 selects
	// cluster.DefaultForwardTimeout).
	ForwardTimeout time.Duration

	// SLOLatencyP99MS is the latency objective in milliseconds: at most
	// 1% of successful requests may exceed it (0 selects the
	// internal/obs default, 500ms). Feeds the fepiad_slo_* burn-rate
	// gauges on /metrics.
	SLOLatencyP99MS float64
	// SLOAvailability is the availability objective in (0, 1), e.g.
	// 0.999 (0 selects the internal/obs default, 0.999).
	SLOAvailability float64
	// TraceSlowThreshold, when > 0, marks requests at or above it as
	// slow: they are force-kept in the /debug/traces recent ring even
	// under sampling and counted on fepiad_slow_requests_total.
	TraceSlowThreshold time.Duration
	// TraceSample keeps 1-in-N finished traces in the /debug/traces
	// recent ring (≤ 1 keeps all). Slow-marked traces always stay; the
	// slowest-ever list ignores sampling.
	TraceSample int
}

// withDefaults fills zero-valued fields.
func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = DefaultTraceCapacity
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	if c.RetryMax == 0 {
		c.RetryMax = DefaultRetryAttempts
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = DefaultBreakerWindow
	}
	if c.BreakerThreshold <= 0 || c.BreakerThreshold > 1 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = DefaultSnapshotInterval
	}
	return c
}

// Server is the fepiad HTTP service. Create one with New; it is safe for
// concurrent use and all its state (the radius cache, the admission gate,
// the counters) is shared across every request it serves.
type Server struct {
	cfg     Config
	cache   *batch.Cache
	gate    chan struct{}
	metrics telemetry
	mux     *http.ServeMux

	// retry is the per-feature transient-failure policy threaded into
	// every engine call; nil when retrying is disabled.
	retry *faults.Policy
	// router is the cluster peer layer; nil when Config.Peers is empty
	// (solo node: every request is served locally).
	router *cluster.Router
	// analyzeBreaker / batchBreaker are the per-endpoint circuit
	// breakers; nil when Config.BreakerWindow < 0.
	analyzeBreaker *faults.Breaker
	batchBreaker   *faults.Breaker

	// baseCtx is the ancestor of every request context; baseCancel
	// force-cancels all in-flight analyses when the drain budget is
	// exhausted during shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// beforeAnalyze, when non-nil, runs after a request is admitted and
	// parsed but before its analysis starts. Tests use it to hold
	// requests in flight deterministically.
	beforeAnalyze func()
}

// New builds a Server from cfg (zero value ok). A non-empty Config.Peers
// must describe a valid ring — NodeID listed, unique IDs, http(s) peer
// URLs — or New panics; cmd/fepiad validates the flags with
// cluster.ParsePeers before getting here, so a panic indicates a
// programming error, not user input.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: batch.NewCacheSharded(cfg.CacheCapacity, cfg.CacheShards),
		gate:  make(chan struct{}, cfg.MaxInFlight),
		mux:   http.NewServeMux(),
	}
	if cfg.RetryMax > 1 {
		s.retry = &faults.Policy{
			MaxAttempts: cfg.RetryMax,
			OnRetry:     func(int, time.Duration, error) { s.metrics.retries.Inc() },
		}
	}
	if cfg.BreakerWindow > 0 {
		bcfg := faults.BreakerConfig{Window: cfg.BreakerWindow, Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown}
		s.analyzeBreaker = faults.NewBreaker(bcfg)
		s.batchBreaker = faults.NewBreaker(bcfg)
	}
	if len(cfg.Peers) > 0 {
		rt, err := cluster.New(cluster.Config{
			Self:           cfg.NodeID,
			Peers:          cfg.Peers,
			Replicas:       cfg.PeerReplicas,
			ForwardTimeout: cfg.ForwardTimeout,
			RetryMax:       cfg.RetryMax,
			// The per-peer breakers share the endpoint breakers' tuning:
			// one set of knobs governs every circuit in the process.
			BreakerWindow:    cfg.BreakerWindow,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
		})
		if err != nil {
			panic("server: invalid cluster config: " + err.Error())
		}
		s.router = rt
	}
	s.metrics = newTelemetry(s)
	if cfg.SnapshotPath != "" {
		s.loadSnapshot()
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/analyze", s.instrument(epAnalyze, s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/batch", s.instrument(epBatch, s.handleBatch))
	// /v1/watch accepts GET alongside POST so stream-native clients
	// (curl -N, EventSource-style readers) that cannot POST a body via
	// their streaming helper can still open a session.
	s.mux.HandleFunc("POST /v1/watch", s.instrument(epWatch, s.handleWatch))
	s.mux.HandleFunc("GET /v1/watch", s.instrument(epWatch, s.handleWatch))
	s.mux.HandleFunc("GET /v1/ring", s.handleRing)
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's route table, ready to mount on any
// http.Server (or an httptest.Server in tests).
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats snapshots the shared radius cache's counters.
func (s *Server) CacheStats() batch.CacheStats { return s.cache.Stats() }

// Registry exposes the server's metrics registry so embedding processes
// (cmd/loadgen -self) can read the same instruments /metrics serves.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// statusWriter captures the response status and size for the access log
// and the trace record.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps a /v1/ handler with the per-request observability
// envelope: request-ID assignment (accepted from or emitted as
// X-Request-Id), a trace recorded into the ring, pprof endpoint labels,
// the per-endpoint request counter and latency histogram (with an
// exemplar linking the bucket to this trace ID), per-endpoint SLO
// accounting, and one structured access-log line carrying the trace's
// outcome attributes.
//
// Cross-node tracing: a request arriving with a well-formed
// X-Fepiad-Trace header (set by a peer's forward) continues that trace —
// same trace ID, root span parented under the ingress forward span — so
// the ingress can stitch this node's spans into one tree. A malformed or
// absent header starts a fresh trace; it is never an error. Every /v1
// response carries the trace ID as X-Fepiad-Trace-Id.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = obs.NewID()
		}
		w.Header().Set("X-Request-Id", rid)

		var tr *obs.Trace
		if tid, pid, ok := obs.ParseTraceHeader(r.Header.Get(cluster.TraceHeader)); ok {
			tr = obs.NewTraceRemote(rid, endpoint, tid, pid)
		} else {
			tr = obs.NewTrace(rid, endpoint)
		}
		w.Header().Set(cluster.TraceIDHeader, tr.TraceID())
		reqLog := s.cfg.Log.With("request_id", rid, "endpoint", endpoint)
		ctx := obs.WithTrace(r.Context(), tr)
		ctx = obs.WithLogger(ctx, reqLog)
		// Endpoint profiler labels: batch workers add their own worker
		// label underneath, and a retried solve attempt its feature
		// (internal/batch).
		ctx = rpprof.WithLabels(ctx, rpprof.Labels("endpoint", endpoint))
		rpprof.SetGoroutineLabels(ctx)
		defer rpprof.SetGoroutineLabels(r.Context())

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.metrics.requests[endpoint].Inc()
		h(sw, r.WithContext(ctx))

		d := time.Since(start)
		durMS := float64(d) / float64(time.Millisecond)
		s.metrics.observe(endpoint, d, tr.TraceID())
		s.metrics.slo.Record(endpoint, sw.status, durMS)
		// Slow-request capture: force the trace past ring sampling and
		// count it, so the outliers an SLO page is about are always
		// inspectable on /debug/traces.
		slow := s.cfg.TraceSlowThreshold > 0 && d >= s.cfg.TraceSlowThreshold
		if slow {
			s.metrics.slowReqs[endpoint].Inc()
		}
		// The ring keeps the sealed trace compact; /debug/traces renders
		// it. Shed 503s record near-zero durations; keeping them out of
		// the slowest-ever list stops them from evicting genuine outliers.
		tr.Seal(sw.status, slow)
		s.metrics.traces.Add(tr, tr.Attr("outcome") == "shed")

		attrs := []any{"status", sw.status, "duration_ms", durMS, "bytes", sw.bytes}
		for _, a := range tr.Attrs() {
			attrs = append(attrs, a.Name, a.Value)
		}
		reqLog.Info("request", attrs...)
	}
}

// Run serves on l until ctx is cancelled (SIGTERM in cmd/fepiad), then
// shuts down gracefully: the listener closes, in-flight requests get
// Config.DrainTimeout to finish, and any analysis still running after the
// drain budget is force-cancelled through its context. It returns nil on
// a clean drain. The shutdown sequence is logged structurally — drain
// start with the in-flight count, a force-cancel event if the budget
// runs out, and a final metrics flush — so a post-mortem can see how the
// process died.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
		ErrorLog:          slog.NewLogLogger(s.cfg.Log.Handler(), slog.LevelWarn),
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()
	stopSnapshots := s.startSnapshots()

	select {
	case err := <-serveErr:
		stopSnapshots()
		s.baseCancel()
		return err
	case <-ctx.Done():
	}
	stopSnapshots()

	s.cfg.Log.Info("drain start",
		"in_flight", int64(s.metrics.inFlight.Value()),
		"budget", s.cfg.DrainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(drainCtx)
	if err != nil {
		// Drain budget exhausted: cancel every in-flight analysis via the
		// request contexts and close remaining connections.
		s.cfg.Log.Warn("drain timed out, force-cancelling in-flight analyses",
			"in_flight", int64(s.metrics.inFlight.Value()),
			"error", err.Error())
		s.baseCancel()
		err = errors.Join(err, hs.Close())
	}
	s.baseCancel()
	<-serveErr // always http.ErrServerClosed after Shutdown/Close
	s.drainSnapshot()
	s.flushFinalMetrics(err == nil)
	return err
}

// flushFinalMetrics emits the end-of-life counter summary: the last
// structured line a pod writes, so post-mortems see its totals even when
// the scraper missed the final interval. It reads the registry snapshot,
// like every other rendering of the server's telemetry.
func (s *Server) flushFinalMetrics(clean bool) {
	snap := s.metrics.reg.Snapshot()
	sum := func(name string) uint64 { return uint64(snap.Sum(name)) }
	s.cfg.Log.Info("final metrics",
		"clean_drain", clean,
		"requests", sum("fepiad_requests_total"),
		"analyses", sum("fepiad_analyses_total"),
		"errors", sum("fepiad_errors_total"),
		"rejected", sum("fepiad_rejected_total"),
		"retries", sum("fepiad_retries_total"),
		"degraded", sum("fepiad_degraded_total"),
		"cache_hits", sum("fepiad_cache_hits"),
		"cache_misses", sum("fepiad_cache_misses"))
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\": \"ok\", \"in_flight\": %d}\n", int64(s.metrics.inFlight.Value()))
}

// request is one /v1/analyze or /v1/batch request on its way through
// the stage pipeline: parse → route → breaker → admit → solve →
// degraded fallback → stamp meta → encode. /v1/analyze is the single
// shape, a batch of one that differs on the wire in three ways only:
// the route stage relays its raw body verbatim, the encode stage writes
// results[0] bare, and engine errors carry no systems[i] prefix.
type request struct {
	endpoint string
	single   bool
	breaker  *faults.Breaker
	// body is the raw request body, kept only for the single shape's
	// relay to a ring owner.
	body    []byte
	systems []*spec.System
	// forwarded marks a request a peer forwarded in: it is never
	// forwarded again (single-hop rule).
	forwarded bool
	// ws is the request's pooled memory: its systems, radius slots and
	// results. serve returns it to the pool; see the lifetime rule there.
	ws *spec.Workspace

	// Set by the route stage: the systems this node solves, the rest
	// grouped by ring owner, and whether the local solve stands in for
	// an unreachable owner (served with meta.degraded).
	local        []int
	remote       map[string][]int
	peerDegraded bool
}

// handleAnalyze serves POST /v1/analyze: one spec document in, one
// ResultJSON out, identical to the in-process library path modulo the
// ResponseMeta block — the single shape of the shared pipeline.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	q := &request{endpoint: epAnalyze, single: true, breaker: s.analyzeBreaker}
	s.serve(w, r, q, func(b []byte) error {
		sys, err := q.ws.Parse(b)
		q.systems = []*spec.System{sys}
		return err
	})
}

// handleBatch serves POST /v1/batch: many systems fanned over the batch
// engine's worker pool against the shared radius cache, results in
// request order — the batch shape of the shared pipeline.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	q := &request{endpoint: epBatch, breaker: s.batchBreaker}
	s.serve(w, r, q, func(b []byte) (err error) {
		q.systems, err = q.ws.ParseBatch(b)
		return err
	})
}

// serve runs a request through the pipeline, decode filling q.systems
// in the parse stage. Each stage that answers the request itself — a
// relay, a shed, an error, a degraded fallback — ends the pipeline.
//
// With a cluster configured, systems owned by another node are served
// there: the single shape is relayed before the breaker, and a batch's
// remote systems travel as one concurrent sub-batch per owner while this
// node solves its own. An unreachable owner's systems are solved locally
// with meta.degraded set when degraded mode is on, so killing a node
// drops zero requests. When the endpoint's breaker is open or the engine
// fails, degraded mode answers from the radius cache (answerDegraded).
func (s *Server) serve(w http.ResponseWriter, r *http.Request, q *request, decode func([]byte) error) {
	q.forwarded = r.Header.Get(cluster.ForwardedFromHeader) != ""
	// Lifetime rule: nothing the workspace owns outlives this call, so it
	// goes back to the pool when serve returns. That holds because
	//   - the radius cache copies its keys into its own slots, and every
	//     boundary a radius points at is owned by the solver or the
	//     cache, never by the workspace;
	//   - ForEach and the sub-batch goroutines are joined before solve
	//     returns, and the answer is written before serve does;
	//   - a relayed body is the parse stage's own buffer, outside the
	//     workspace;
	//   - trace spans and log lines copy what they record, and the names
	//     a result carries are immutable strings.
	// Tests built with -tags fepia_poison hold the rule: a released
	// workspace is overwritten with NaN and junk before its next use.
	q.ws = getWorkspace()
	defer putWorkspace(q.ws)
	// A relayed body may still be in the transport's hands after Forward
	// returns, so a request that can be relayed keeps its buffer.
	var ok bool
	if q.body, ok = s.parse(q.endpoint, w, r, q.single && s.router != nil && !q.forwarded, decode); !ok {
		return
	}
	if s.route(w, r, q) {
		return
	}
	if !s.allowEndpoint(q.breaker, r) {
		s.answerDegraded(w, r, q, "circuit_open", q.endpoint+" engine circuit open: recent solves kept failing")
		return
	}
	release, ok := s.admit(q.endpoint, w, r)
	if !ok {
		// The request never reached the engine; return any half-open
		// probe slot the breaker stage reserved or the breaker wedges.
		if q.breaker != nil {
			q.breaker.CancelProbe()
		}
		return
	}
	defer release()

	ctx, cancel := s.requestContext(r.Context())
	defer cancel()
	if s.beforeAnalyze != nil {
		s.beforeAnalyze()
	}
	results := q.ws.Reserve(q.systems)
	forwarded, ok := s.solve(ctx, w, r, q, results)
	if !ok {
		return
	}
	sp := obs.StartSpan(r.Context(), "encode")
	s.writeResults(w, r, q, results, forwarded)
	sp.End(nil)
}

// parse is the first stage of every /v1 endpoint: read the size-capped
// body into a bodyPool buffer and decode it under the "parse" span,
// answering a rejected body or a decode error itself. The decoders copy
// everything they keep, so the buffer goes back to the pool unless keep
// asks for the raw body back.
func (s *Server) parse(endpoint string, w http.ResponseWriter, r *http.Request, keep bool, decode func([]byte) error) ([]byte, bool) {
	sp := obs.StartSpan(r.Context(), "parse")
	buf := getBuf()
	var err error
	*buf, err = appendAll(*buf, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		putBuf(buf)
		sp.End(errors.New("body rejected"))
		s.metrics.errs[endpoint].Inc()
		obs.TraceFrom(r.Context()).SetAttr("outcome", "invalid_spec")
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, spec.ErrorJSON{Error: "reading body: " + err.Error(), Kind: "invalid_spec"})
		return nil, false
	}
	err = decode(*buf)
	sp.End(err)
	if err == nil && keep {
		return *buf, true
	}
	putBuf(buf)
	if err != nil {
		s.fail(endpoint, w, r, err)
		return nil, false
	}
	return nil, true
}

// route is the ring stage: it splits the systems into the ones this
// node solves and, per remote owner, the ones a peer does. A solo node
// and a forwarded-in request solve everything locally. The single shape
// is relayed to a remote owner right here; route reports true when that
// relay has answered the request.
func (s *Server) route(w http.ResponseWriter, r *http.Request, q *request) bool {
	for i, sys := range q.systems {
		owner := ""
		if s.router != nil && !q.forwarded {
			owner = s.router.Owner(sys.RouteKey())
		}
		switch {
		case owner == "" || owner == s.router.Self():
			q.local = append(q.local, i)
		case q.single:
			if s.relay(w, r, q, owner) {
				return true
			}
			// Owner unreachable and degraded mode on: answer locally so
			// the request is served, not dropped, and mark it degraded.
			q.peerDegraded = true
			q.local = append(q.local, i)
		default:
			if q.remote == nil {
				q.remote = make(map[string][]int)
			}
			q.remote[owner] = append(q.remote[owner], i)
		}
	}
	return false
}

// admit reserves an in-flight slot, or sheds the request with 503 +
// Retry-After when the gate is saturated (or an admission fault is
// injected). The returned release func must be called exactly once iff
// admitted.
func (s *Server) admit(endpoint string, w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	sp := obs.StartSpan(r.Context(), "admit")
	refused := "server saturated: too many analyses in flight"
	err := faults.Inject(faults.With(r.Context(), s.cfg.Injector), faults.Admission)
	if err == nil {
		select {
		case s.gate <- struct{}{}:
			sp.Set("admitted", "true")
			sp.End(nil)
			s.metrics.inFlight.Add(1)
			return func() {
				s.metrics.inFlight.Add(-1)
				<-s.gate
			}, true
		default:
		}
	} else {
		refused = "admission refused: " + err.Error()
	}
	sp.Set("admitted", "false")
	sp.End(err)
	s.metrics.rejected.Inc()
	s.shed(endpoint, w, r, "shed", "overloaded", refused)
	return nil, false
}

// shed answers 503 + Retry-After: an admission refusal, or degraded
// mode without a cached answer.
func (s *Server) shed(endpoint string, w http.ResponseWriter, r *http.Request, outcome, kind, msg string) {
	obs.TraceFrom(r.Context()).SetAttr("outcome", outcome)
	s.metrics.errs[endpoint].Inc()
	s.retryAfterHeader(w)
	writeError(w, http.StatusServiceUnavailable, spec.ErrorJSON{Error: msg, Kind: kind})
}

// retryAfterHeader attaches the Retry-After hint every 503 carries.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
}

// requestContext derives the context an admitted request analyses
// under: the per-request deadline plus the fault injector.
func (s *Server) requestContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(parent, s.cfg.Timeout)
	return faults.With(ctx, s.cfg.Injector), cancel
}

// solve is the solve stage. Each peer's sub-batch travels concurrently
// with the local solve and writes only its own request-order slots; a
// peer whose sub-batch fails is covered by a local degraded solve unless
// degraded mode is off, in which case the whole batch fails with the
// peer error. It reports whether any answer came from a peer, and false
// when it has answered the request itself.
func (s *Server) solve(ctx context.Context, w http.ResponseWriter, r *http.Request, q *request, results []spec.ResultJSON) (forwarded, ok bool) {
	owners := make([]string, 0, len(q.remote))
	for owner := range q.remote {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	groupErrs := make([]error, len(owners))
	var wg sync.WaitGroup
	for gi, owner := range owners {
		wg.Add(1)
		go func(gi int, owner string) {
			defer wg.Done()
			groupErrs[gi] = s.forwardSubBatch(ctx, r, owner, q.remote[owner], q.systems, results)
		}(gi, owner)
	}
	err := s.solveLocal(ctx, q, q.local, results, q.peerDegraded)
	wg.Wait()
	s.breakerReport(q.breaker, err)
	if err != nil {
		s.fallback(w, r, q, err)
		return false, false
	}

	fallbackN := 0
	for gi, owner := range owners {
		gerr := groupErrs[gi]
		if gerr == nil {
			forwarded = true
			continue
		}
		// A passed deadline or a gone client is not the peer's fault; with
		// degraded mode off the peer failure is terminal.
		if ctxErr := ctx.Err(); ctxErr != nil || !s.cfg.Degraded {
			s.fail(q.endpoint, w, r, cmp.Or(ctxErr, gerr))
			return false, false
		}
		obs.Logger(r.Context()).Warn("peer sub-batch failed, serving locally degraded",
			"peer", owner, "error", gerr.Error())
		if err := s.solveLocal(ctx, q, q.remote[owner], results, true); err != nil {
			s.fallback(w, r, q, err)
			return false, false
		}
		fallbackN += len(q.remote[owner])
	}
	s.metrics.analyses.Add(uint64(len(q.local) + fallbackN))
	if q.peerDegraded {
		fallbackN += len(q.local)
	}
	if fallbackN > 0 {
		// Served locally because the ring owner was unreachable: set the
		// Warning header before the status is written.
		s.metrics.clusterDegraded.Add(uint64(fallbackN))
		obs.TraceFrom(r.Context()).SetAttr("degraded", "true")
		w.Header().Set("Warning", `199 fepiad "degraded: ring owner unreachable, served locally"`)
	}
	return q.forwarded || forwarded, true
}

// solveLocal runs the systems at idx through the engine on this node,
// writing each result, its meta block stamped, into its request-order
// slot. It is the server's one call into batch.AnalyzeInto, which fills
// the system's radius slots in the request's workspace.
func (s *Server) solveLocal(ctx context.Context, q *request, idx []int, results []spec.ResultJSON, degraded bool) error {
	// With any anytime system in the group, the scheduling loop must not
	// abort at the deadline — every remaining system still gets its
	// certified partial answer. The per-system calls keep the real ctx
	// (closure below), so genuine cancellation still fails them, which
	// fails ForEach through the returned error.
	runCtx := ctx
	for _, i := range idx {
		if s.anytime(q.systems[i]) {
			runCtx = context.WithoutCancel(ctx)
			break
		}
	}
	return batch.ForEach(runCtx, len(idx), s.cfg.Workers, func(k int) error {
		i := idx[k]
		sys := q.systems[i]
		rs := &batch.RequestStats{}
		sctx := batch.WithRequestStats(ctx, rs)
		job, opts := s.engineInput(sys)
		radii, wire := q.ws.Slots(i)
		a, err := batch.AnalyzeInto(sctx, job, opts, radii)
		if err != nil {
			if q.single {
				return err
			}
			return fmt.Errorf("systems[%d] (%s): %w", i, sys.Name, err)
		}
		results[i] = spec.EncodeInto(wire, sys.Name, a)
		results[i].Meta = s.stamp(sctx, a, q.forwarded, degraded, rs.Source())
		return nil
	})
}

// engineInput is the engine job for one system and the options every
// serving path runs it under. ShareBoundaries: results are encoded to
// JSON and dropped, so cached boundary points need no defensive clone —
// the warm-hit path stays allocation-free.
func (s *Server) engineInput(sys *spec.System) (batch.Job, batch.Options) {
	return batch.Job{Features: sys.Features, Perturbation: sys.Perturbation},
		batch.Options{Cache: s.cache, Core: sys.Options, Retry: s.retry, ShareBoundaries: true,
			Kernel: s.cfg.Kernel, Anytime: s.anytime(sys)}
}

// stamp builds the meta block of a locally computed answer (docs/SERVICE.md,
// "Response metadata"). An analysis holding a certified partial radius
// is marked meta.anytime, counted, and tagged anytime=partial on the
// request's trace.
func (s *Server) stamp(ctx context.Context, a core.Analysis, forwarded, degraded bool, cache string) *spec.ResponseMeta {
	m := s.meta(forwarded, degraded, cache)
	for i := range a.Radii {
		if a.Radii[i].Kind == core.LowerBound {
			m.Anytime = true
			s.metrics.anytimePartial.Inc()
			obs.TraceFrom(ctx).SetAttr("anytime", "partial")
			break
		}
	}
	return m
}

// writeResults writes the wire headers and a 200 body: results[0] bare
// for the single shape, else the BatchResponse whose top-level meta
// folds the per-result blocks — the coldest cache source, degraded or
// anytime when any result is — with forwarded set when the request or
// any answer crossed the ring.
func (s *Server) writeResults(w http.ResponseWriter, r *http.Request, q *request, results []spec.ResultJSON, forwarded bool) {
	s.serveHeaders(w, r, q.forwarded)
	if q.single {
		writeJSON(w, http.StatusOK, results[0])
		return
	}
	top := s.meta(forwarded, false, "")
	for i := range results {
		if m := results[i].Meta; m != nil {
			top.Cache = spec.WorstCache(top.Cache, m.Cache)
			top.Degraded = top.Degraded || m.Degraded
			top.Anytime = top.Anytime || m.Anytime
		}
	}
	writeJSON(w, http.StatusOK, spec.BatchResponse{Results: results, Meta: top})
}

// relay forwards a single-shape request's raw body to its ring owner and
// relays the peer's verdict verbatim — status, body, and wire headers —
// so a forwarded response is byte-identical to asking the owner
// directly. It returns true when the response has been written
// (relayed, or failed terminally) and false when the caller should fall
// back to serving the request locally in degraded mode.
func (s *Server) relay(w http.ResponseWriter, r *http.Request, q *request, owner string) bool {
	resp, err := s.forward(r.Context(), r, owner, "/v1/analyze", q.body, 0)
	if err == nil {
		obs.TraceFrom(r.Context()).SetAttr("forwarded_to", owner)
		for _, h := range [...]string{"Content-Type", "Warning", "Retry-After", cluster.NodeHeader} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set(cluster.ForwardedHeader, "true")
		w.WriteHeader(resp.Status)
		_, _ = w.Write(resp.Body)
		return true
	}
	// A client gone or a deadline passed while forwarding is not the
	// peer's fault, and local serving cannot help; with degraded mode off
	// the peer failure is terminal.
	if ctxErr := r.Context().Err(); ctxErr != nil || !s.cfg.Degraded {
		s.fail(q.endpoint, w, r, cmp.Or(ctxErr, err))
		return true
	}
	obs.Logger(r.Context()).Warn("peer forward failed, serving locally degraded",
		"peer", owner, "error", err.Error())
	return false
}

// spanExport is the X-Fepiad-Spans wire document: the answering node's
// ID plus its span subtree, compact JSON in one response header.
type spanExport struct {
	Node  string         `json:"node"`
	Spans []obs.SpanData `json:"spans"`
}

// forward sends body to a peer's path under a "forward" span annotated
// with the peer, the sub-batch size (systems > 0), the HTTP attempts
// spent, and the peer breaker's state. It carries X-Fepiad-Trace (this
// trace's ID plus the forward span's ID) so the owner continues the
// trace; the owner's span subtree comes back on X-Fepiad-Spans and is
// stitched under the forward span, giving the ingress ONE cross-node
// trace on /debug/traces.
func (s *Server) forward(ctx context.Context, r *http.Request, owner, path string, body []byte, systems int) (*cluster.Response, error) {
	sp := obs.StartSpan(r.Context(), "forward")
	sp.Set("peer", owner)
	if systems > 0 {
		sp.SetInt("systems", systems)
	}
	tr := obs.TraceFrom(r.Context())
	hdr := r.Header.Clone()
	if tr != nil {
		hdr.Set(cluster.TraceHeader, obs.FormatTraceHeader(tr.TraceID(), sp.ID()))
	}
	resp, err := s.router.Forward(ctx, owner, path, body, hdr)
	if resp != nil {
		sp.SetInt("attempts", resp.Attempts)
	}
	sp.Set("breaker", s.router.PeerStats(owner).Breaker.State)
	sp.End(err)
	if err == nil {
		s.stitchRemoteSpans(tr, sp, resp)
	}
	return resp, err
}

// stitchRemoteSpans merges the span subtree a peer exported on
// X-Fepiad-Spans into this trace, shifted onto the forward span's
// timeline. A missing or malformed header is ignored: stitching is an
// observability bonus, never a serving dependency.
func (s *Server) stitchRemoteSpans(tr *obs.Trace, sp *obs.Span, resp *cluster.Response) {
	var ex spanExport
	if tr != nil && resp != nil && json.Unmarshal([]byte(resp.Header.Get(cluster.SpansHeader)), &ex) == nil {
		tr.Stitch(ex.Spans, sp.StartOffsetUS())
	}
}

// meta assembles the shared ResponseMeta block every /v1 response
// carries (docs/SERVICE.md, "Response metadata").
func (s *Server) meta(forwarded, degraded bool, cache string) *spec.ResponseMeta {
	return &spec.ResponseMeta{Node: s.cfg.NodeID, Forwarded: forwarded, Degraded: degraded, Cache: cache}
}

// anytime reports whether a system is served in anytime mode: the
// server-wide flag or the spec's own opt-in.
func (s *Server) anytime(sys *spec.System) bool {
	return s.cfg.Anytime || sys.File.Anytime
}

// serveHeaders stamps the wire headers of a locally served /v1 response:
// the answering node's ID and, for requests that arrived via a peer
// forward, the forwarded marker plus the X-Fepiad-Spans export — this
// node's span subtree, which the ingress stitches under its forward
// span. Only traces that actually continue a remote trace export
// (single-hop rule: a forwarded-in request is never re-forwarded, so the
// export travels exactly one hop back).
func (s *Server) serveHeaders(w http.ResponseWriter, r *http.Request, forwarded bool) {
	if s.cfg.NodeID != "" {
		w.Header().Set(cluster.NodeHeader, s.cfg.NodeID)
	}
	if forwarded {
		w.Header().Set(cluster.ForwardedHeader, "true")
		if tr := obs.TraceFrom(r.Context()); tr != nil && tr.Remote() {
			if raw, err := json.Marshal(spanExport{
				Node:  s.cfg.NodeID,
				Spans: tr.ExportSpans(s.cfg.NodeID, maxExportSpans),
			}); err == nil {
				w.Header().Set(cluster.SpansHeader, string(raw))
			}
		}
	}
}

// maxExportSpans bounds one X-Fepiad-Spans header: the synthetic server
// span plus the first N-1 recorded spans. A huge batch trace stays a
// bounded header instead of a megabyte of response metadata.
const maxExportSpans = 64

// handleRing serves GET /v1/ring: this node's view of the cluster — the
// membership, each member's key-space share, and the virtual-point count.
// Solo nodes report themselves as the only member with share 1.
func (s *Server) handleRing(w http.ResponseWriter, _ *http.Request) {
	type member struct {
		ID    string  `json:"id"`
		URL   string  `json:"url,omitempty"`
		Self  bool    `json:"self,omitempty"`
		Share float64 `json:"share"`
	}
	doc := struct {
		Self     string   `json:"self,omitempty"`
		Replicas int      `json:"replicas,omitempty"`
		Members  []member `json:"members"`
	}{Self: s.cfg.NodeID}
	if s.router == nil {
		doc.Members = []member{{ID: s.cfg.NodeID, Self: true, Share: 1}}
		writeJSON(w, http.StatusOK, doc)
		return
	}
	ring := s.router.Ring()
	doc.Replicas = ring.Replicas()
	for _, p := range s.router.Members() {
		doc.Members = append(doc.Members, member{
			ID: p.ID, URL: p.URL, Self: p.ID == s.router.Self(), Share: ring.Share(p.ID),
		})
	}
	writeJSON(w, http.StatusOK, doc)
}

// forwardSubBatch re-marshals the systems at idx into one BatchRequest,
// forwards it to the owning peer, and scatters the peer's results back
// into their request-order slots. The peer sees the forwarded-from
// header and stamps each result's meta itself, so the scatter is
// verbatim — forwarded results are byte-identical to asking the owner.
func (s *Server) forwardSubBatch(ctx context.Context, r *http.Request, owner string, idx []int, systems []*spec.System, results []spec.ResultJSON) error {
	sub := spec.BatchRequest{Systems: make([]spec.File, len(idx))}
	for j, i := range idx {
		sub.Systems[j] = systems[i].File
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return fmt.Errorf("marshaling sub-batch for peer %q: %w", owner, err)
	}
	resp, err := s.forward(ctx, r, owner, "/v1/batch", body, len(idx))
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK {
		return fmt.Errorf("peer %q answered sub-batch with status %d", owner, resp.Status)
	}
	var br spec.BatchResponse
	if err := json.Unmarshal(resp.Body, &br); err != nil {
		return fmt.Errorf("decoding sub-batch answer from peer %q: %w", owner, err)
	}
	if len(br.Results) != len(idx) {
		return fmt.Errorf("peer %q answered %d results for %d systems", owner, len(br.Results), len(idx))
	}
	for j, i := range idx {
		results[i] = br.Results[j]
	}
	return nil
}

// allowEndpoint consults an endpoint breaker under a trace span; a nil
// breaker always allows.
func (s *Server) allowEndpoint(b *faults.Breaker, r *http.Request) bool {
	sp := obs.StartSpan(r.Context(), "breaker")
	allowed := b == nil || b.Allow()
	sp.Set("allowed", strconv.FormatBool(allowed))
	sp.End(nil)
	if !allowed {
		obs.TraceFrom(r.Context()).SetAttr("breaker", "open")
	}
	return allowed
}

// breakerReport records an engine outcome on an endpoint breaker. Only
// engine verdicts count: a client mistake or a client cancellation says
// nothing about engine health, so it is recorded neither as a failure
// nor as a success — it only returns the probe slot it may have been
// holding while half-open.
func (s *Server) breakerReport(b *faults.Breaker, err error) {
	switch {
	case b == nil:
	case err != nil && !degradable(err):
		b.CancelProbe()
	default:
		b.Report(err != nil)
	}
}

// degradable reports whether an analysis failure is an engine-side
// condition a cached answer can stand in for — solver failures, injected
// faults, deadline expiry — as opposed to a client mistake (validation,
// unsupported norm) or the client going away.
func degradable(err error) bool {
	if err == nil {
		return false
	}
	switch _, kind := classify(err); kind {
	case "invalid_spec", "unsupported", "shutting_down":
		return false
	}
	return true
}

// fallback is the degraded-fallback stage for an engine failure: with
// degraded mode on, a degradable failure is answered from the radius
// cache; anything else fails per the error contract.
func (s *Server) fallback(w http.ResponseWriter, r *http.Request, q *request, err error) {
	if !s.cfg.Degraded || !degradable(err) {
		s.fail(q.endpoint, w, r, err)
		return
	}
	cached := "complete cached answer"
	if q.single {
		cached = "cached answer"
	}
	s.answerDegraded(w, r, q, "degraded", "engine failed and no "+cached+" exists: "+err.Error())
}

// answerDegraded is the degraded-mode responder: with Config.Degraded
// set it tries to assemble the full answer from the shared radius cache
// — every feature of every submitted system must be memoised — and
// serves it with meta.degraded set and a Warning header. The cached
// values are exactly what a healthy engine would recompute, so a
// degraded 200 is byte-identical to the fault-free response modulo the
// meta block. On a true cache miss (or with degraded mode off) it sheds
// with 503 + Retry-After and the given error kind.
func (s *Server) answerDegraded(w http.ResponseWriter, r *http.Request, q *request, kind, reason string) {
	if s.cfg.Degraded {
		sp := obs.StartSpan(r.Context(), "degraded_lookup")
		results, ok := s.cachedResults(q)
		sp.Set("served", strconv.FormatBool(ok))
		sp.End(nil)
		if ok {
			s.metrics.degraded.Inc()
			tr := obs.TraceFrom(r.Context())
			tr.SetAttr("outcome", "degraded")
			tr.SetAttr("degraded", "true")
			obs.Logger(r.Context()).Warn("serving degraded from radius cache", "reason", kind)
			w.Header().Set("Warning", `199 fepiad "degraded: served from radius cache"`)
			s.writeResults(w, r, q, results, q.forwarded)
			return
		}
	}
	s.shed(q.endpoint, w, r, kind, kind, reason)
}

// cachedResults assembles one degraded ResultJSON per system purely from
// the radius cache, or reports ok=false when any feature misses.
func (s *Server) cachedResults(q *request) ([]spec.ResultJSON, bool) {
	results := make([]spec.ResultJSON, len(q.systems))
	for i, sys := range q.systems {
		a, ok := batch.AnalyzeCached(s.engineInput(sys))
		if !ok {
			return nil, false
		}
		results[i] = spec.Encode(sys.Name, a)
		results[i].Meta = s.meta(q.forwarded, true, spec.CacheHit)
	}
	return results, true
}

// classify maps an error onto the HTTP error contract (see the package
// comment): the response status and the ErrorJSON kind. fail writes
// both; a watch stream, committed to 200, reports the kind in-band.
func classify(err error) (status int, kind string) {
	var ve *spec.ValidationError
	var se *core.SolveError
	var pe *PeerError
	switch {
	case errors.As(err, &ve):
		return http.StatusBadRequest, "invalid_spec"
	case errors.Is(err, core.ErrNormUnsupported):
		return http.StatusBadRequest, "unsupported"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// The client went away or the server is force-draining; the
		// status is mostly for the access log.
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.As(err, &se):
		return http.StatusInternalServerError, "solver_failure"
	case errors.As(err, &pe):
		// A ring owner could not be reached and degraded serving is off.
		if errors.Is(err, cluster.ErrPeerOpen) {
			return http.StatusServiceUnavailable, "peer_circuit_open"
		}
		return http.StatusBadGateway, "peer_unreachable"
	}
	return http.StatusInternalServerError, "internal"
}

// fail writes the ErrorJSON envelope classify picks for err, with the
// offending field path of a validation error and Retry-After when a
// peer's breaker is open.
func (s *Server) fail(endpoint string, w http.ResponseWriter, r *http.Request, err error) {
	s.metrics.errs[endpoint].Inc()
	status, kind := classify(err)
	e := spec.ErrorJSON{Error: err.Error(), Kind: kind}
	var ve *spec.ValidationError
	if errors.As(err, &ve) {
		e.Path = ve.Path
	}
	if kind == "peer_circuit_open" {
		s.retryAfterHeader(w)
	}
	obs.TraceFrom(r.Context()).SetAttr("outcome", kind)
	if status >= http.StatusInternalServerError {
		obs.Logger(r.Context()).Error("analysis failed", "kind", kind, "error", e.Error)
	}
	writeError(w, status, e)
}
