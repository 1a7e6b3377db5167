// Package server is fepiad's HTTP layer: a stdlib-only service that
// evaluates the robustness metric ρ_μ(Φ, π) on demand over the concurrent
// batch engine. It accepts internal/spec JSON system descriptions on
// POST /v1/analyze (one system) and POST /v1/batch (many systems, fanned
// over the worker pool), shares one process-wide radius cache across every
// request so structurally identical subproblems are solved once, and
// answers with the same spec.ResultJSON documents the CLIs emit — served
// and in-process analyses are byte-identical.
//
// Production posture: every request runs under a deadline and a body-size
// limit; a bounded admission gate sheds load with 503 + Retry-After
// instead of queueing unboundedly; Run drains in-flight analyses on
// shutdown and force-cancels them via context if the drain budget runs
// out; /healthz answers liveness probes.
//
// Observability (docs/OBSERVABILITY.md): one internal/obs registry feeds
// both the Prometheus text exposition on /metrics and the
// expvar-compatible /debug/vars, so the two can never disagree. Every
// /v1/ request carries a request ID (accepted from or emitted as
// X-Request-Id), is logged as one structured slog line, and is traced
// with per-stage spans — parse, breaker, admit, cache get/put,
// per-feature solve (with retry-attempt counts), encode — retained in a
// bounded ring served on /debug/traces (most recent plus slowest-ever).
// /debug/pprof is available behind Config.EnablePprof, with endpoint and
// per-feature profiler labels on the analysis goroutines.
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
// with a "degraded": true marker and a Warning header, falling through
// to 503 + Retry-After only on a true cache miss. The faults.Injector in
// Config drives the chaos test suite and the FEPIAD_FAULTS knob; it is
// nil — a no-op — in production.
package server

import (
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
	"sync/atomic"
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
	// cache with a "degraded": true marker instead of failing, and 503
	// only on a true cache miss.
	Degraded bool
	// Kernel routes kernel-eligible linear features through the
	// vectorized SoA analytic kernel (batch.Options.Kernel). Results are
	// bit-identical to the per-feature path, and kernel-solved features
	// flow through the shared radius cache in both directions — warm
	// entries are served without re-solving and fresh solves are
	// memoised for Degraded serving and for the scalar path. Request
	// traces show one "kernel" span in place of per-feature solve spans;
	// fault-injected requests keep the per-feature path regardless. See
	// docs/PERFORMANCE.md.
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
	// CompatV1Degraded re-emits the deprecated top-level "degraded"
	// result marker alongside ResponseMeta.Degraded for clients that
	// have not migrated (-compat-v1-degraded; one release of grace, see
	// docs/SERVICE.md).
	CompatV1Degraded bool

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

	// startTime anchors the uptime reported on /v1/cluster/status.
	startTime time.Time
	// snapLastUnix is the wall-clock second of the last successful cache
	// snapshot write (0 when none has happened), read by the federated
	// status document as snapshot age.
	snapLastUnix atomic.Int64

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
		cfg:       cfg,
		cache:     batch.NewCacheSharded(cfg.CacheCapacity, cfg.CacheShards),
		gate:      make(chan struct{}, cfg.MaxInFlight),
		mux:       http.NewServeMux(),
		startTime: time.Now(),
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
		// Endpoint profiler labels: batch workers add their own worker and
		// per-feature labels underneath (internal/batch).
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
// the scraper missed the final interval.
func (s *Server) flushFinalMetrics(clean bool) {
	m := &s.metrics
	cs := s.cache.Stats()
	s.cfg.Log.Info("final metrics",
		"clean_drain", clean,
		"requests", m.requestsTotal(),
		"analyses", m.analyses.Value(),
		"errors", m.errsTotal(),
		"rejected", m.rejected.Value(),
		"retries", m.retries.Value(),
		"degraded", m.degraded.Value(),
		"cache_hits", cs.Hits,
		"cache_misses", cs.Misses)
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\": \"ok\", \"in_flight\": %d}\n", int64(s.metrics.inFlight.Value()))
}

// handleVars serves the expvar-compatible counter document.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	s.writeVars(w)
}

// admit reserves an in-flight slot, or sheds the request with 503 +
// Retry-After when the gate is saturated (or an admission fault is
// injected). The returned release func must be called exactly once iff
// admitted.
func (s *Server) admit(endpoint string, w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	sp := obs.StartSpan(r.Context(), "admit")
	if err := faults.Inject(faults.With(r.Context(), s.cfg.Injector), faults.Admission); err != nil {
		sp.Set("admitted", "false")
		sp.End(err)
		obs.TraceFrom(r.Context()).SetAttr("outcome", "shed")
		s.metrics.rejected.Inc()
		s.metrics.errs[endpoint].Inc()
		s.retryAfterHeader(w)
		writeError(w, http.StatusServiceUnavailable, spec.ErrorJSON{
			Error: "admission refused: " + err.Error(),
			Kind:  "overloaded",
		})
		return nil, false
	}
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
		sp.Set("admitted", "false")
		sp.End(nil)
		obs.TraceFrom(r.Context()).SetAttr("outcome", "shed")
		s.metrics.rejected.Inc()
		s.metrics.errs[endpoint].Inc()
		s.retryAfterHeader(w)
		writeError(w, http.StatusServiceUnavailable, spec.ErrorJSON{
			Error: "server saturated: too many analyses in flight",
			Kind:  "overloaded",
		})
		return nil, false
	}
}

// retryAfterHeader attaches the Retry-After hint every 503 carries.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
}

// readBody reads a size-capped request body into a bodyPool buffer.
// The decoders copy everything they keep, so the caller hands the
// buffer back with putBuf once the body is parsed.
func (s *Server) readBody(endpoint string, w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	body := getBuf()
	var err error
	*body, err = appendAll(*body, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		putBuf(body)
		s.metrics.errs[endpoint].Inc()
		obs.TraceFrom(r.Context()).SetAttr("outcome", "invalid_spec")
		status, kind := http.StatusBadRequest, "invalid_spec"
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, kind = http.StatusRequestEntityTooLarge, "invalid_spec"
		}
		writeError(w, status, spec.ErrorJSON{Error: "reading body: " + err.Error(), Kind: kind})
		return nil, false
	}
	return body, true
}

// handleAnalyze serves POST /v1/analyze: one spec document in, one
// ResultJSON out, identical to the in-process library path modulo the
// ResponseMeta block. With a cluster configured, a spec whose RouteKey
// hashes to another node is relayed verbatim to its ring owner; when the
// owner is unreachable and degraded mode is on, the request is served
// locally with meta.degraded set so killing a node drops zero requests.
// When the endpoint's breaker is open or the engine fails, degraded mode
// (if enabled) answers from the radius cache instead; see answerDegraded.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	psp := obs.StartSpan(r.Context(), "parse")
	body, ok := s.readBody(epAnalyze, w, r)
	if !ok {
		psp.End(errors.New("body rejected"))
		return
	}
	sys, err := spec.Parse(*body)
	psp.End(err)
	forwarded := r.Header.Get(cluster.ForwardedFromHeader) != ""
	relayable := s.router != nil && !forwarded
	if !relayable {
		// A relayed body may still be in the transport's hands after
		// Forward returns, so only a request that cannot be relayed
		// recycles its buffer.
		putBuf(body)
	}
	if err != nil {
		s.fail(epAnalyze, w, r, err)
		return
	}

	degradedPeer := false
	if relayable {
		if owner := s.router.Owner(sys.RouteKey()); owner != s.router.Self() {
			if s.relay(epAnalyze, w, r, owner, "/v1/analyze", *body) {
				return
			}
			// Owner unreachable and degraded mode on: answer locally so
			// the request is served, not dropped, and mark it degraded.
			degradedPeer = true
		}
	}

	if !s.allowEndpoint(s.analyzeBreaker, r) {
		s.answerDegraded(epAnalyze, w, r, []*spec.System{sys}, false, forwarded, "circuit_open",
			"analyze engine circuit open: recent solves kept failing")
		return
	}
	release, ok := s.admit(epAnalyze, w, r)
	if !ok {
		// The request never reached the engine; return any half-open
		// probe slot breakerAllow reserved or the breaker wedges.
		s.breakerCancel(s.analyzeBreaker)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	ctx = faults.With(ctx, s.cfg.Injector)
	rs := &batch.RequestStats{}
	ctx = batch.WithRequestStats(ctx, rs)
	if s.beforeAnalyze != nil {
		s.beforeAnalyze()
	}
	// ShareBoundaries: the analysis is encoded to JSON and dropped, so
	// cached boundary points need no defensive clone — the warm-hit path
	// stays allocation-free.
	a, err := batch.AnalyzeOneContext(ctx, batch.Job{Features: sys.Features, Perturbation: sys.Perturbation},
		batch.Options{Cache: s.cache, Core: sys.Options, Retry: s.retry, ShareBoundaries: true,
			Kernel: s.cfg.Kernel, Anytime: s.anytime(sys)})
	s.breakerReport(s.analyzeBreaker, err)
	if err != nil {
		if s.cfg.Degraded && degradable(err) {
			s.answerDegraded(epAnalyze, w, r, []*spec.System{sys}, false, forwarded, "degraded",
				"engine failed and no cached answer exists: "+err.Error())
			return
		}
		s.fail(epAnalyze, w, r, err)
		return
	}
	s.metrics.analyses.Inc()
	res := spec.Encode(sys.Name, a)
	res.Meta = s.meta(forwarded, degradedPeer, rs.Source())
	if anyLowerBound(a) {
		res.Meta.Anytime = true
		s.metrics.anytimePartial.Inc()
		obs.TraceFrom(r.Context()).SetAttr("anytime", "partial")
	}
	if s.cfg.CompatV1Degraded && degradedPeer {
		res.Degraded = true
	}
	if degradedPeer {
		s.noteClusterDegraded(w, r, 1)
	}
	esp := obs.StartSpan(r.Context(), "encode")
	s.serveHeaders(w, r, forwarded)
	writeJSON(w, http.StatusOK, res)
	esp.End(nil)
}

// relay forwards a request's raw body to its ring owner and relays the
// peer's verdict verbatim — status, body, and wire headers — so a
// forwarded response is byte-identical to asking the owner directly. It
// returns true when the response has been written (relayed, or failed
// terminally) and false when the caller should fall back to serving the
// request locally in degraded mode.
//
// The forward carries X-Fepiad-Trace (this trace's ID plus the forward
// span's ID) so the owner continues the trace; the owner's span subtree
// comes back on X-Fepiad-Spans and is stitched under the forward span,
// giving the ingress ONE cross-node trace on /debug/traces. The forward
// span is annotated with the peer, the HTTP attempts spent, and the peer
// breaker's state.
func (s *Server) relay(endpoint string, w http.ResponseWriter, r *http.Request, owner, path string, body []byte) bool {
	sp := obs.StartSpan(r.Context(), "forward")
	sp.Set("peer", owner)
	tr := obs.TraceFrom(r.Context())
	resp, err := s.router.Forward(r.Context(), owner, path, body, s.forwardHeader(r, tr, sp))
	if resp != nil {
		sp.SetInt("attempts", resp.Attempts)
	}
	sp.Set("breaker", s.router.PeerStats(owner).Breaker.State)
	sp.End(err)
	if err == nil {
		s.stitchRemoteSpans(tr, sp, resp)
		tr.SetAttr("forwarded_to", owner)
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
	if ctxErr := r.Context().Err(); ctxErr != nil {
		// The client went away or the deadline expired while forwarding;
		// the peer is not to blame and local serving cannot help.
		s.fail(endpoint, w, r, ctxErr)
		return true
	}
	if s.cfg.Degraded {
		obs.Logger(r.Context()).Warn("peer forward failed, serving locally degraded",
			"peer", owner, "error", err.Error())
		return false
	}
	s.fail(endpoint, w, r, err)
	return true
}

// spanExport is the X-Fepiad-Spans wire document: the answering node's
// ID plus its span subtree, compact JSON in one response header.
type spanExport struct {
	Node  string         `json:"node"`
	Spans []obs.SpanData `json:"spans"`
}

// forwardHeader clones the inbound headers a forward propagates and adds
// the X-Fepiad-Trace context — the trace ID plus the forward span that
// becomes the remote server span's parent.
func (s *Server) forwardHeader(r *http.Request, tr *obs.Trace, sp *obs.Span) http.Header {
	hdr := r.Header.Clone()
	if tr != nil {
		hdr.Set(cluster.TraceHeader, obs.FormatTraceHeader(tr.TraceID(), sp.ID()))
	}
	return hdr
}

// stitchRemoteSpans merges the span subtree a peer exported on
// X-Fepiad-Spans into this trace, shifted onto the forward span's
// timeline. A missing or malformed header is ignored: stitching is an
// observability bonus, never a serving dependency.
func (s *Server) stitchRemoteSpans(tr *obs.Trace, sp *obs.Span, resp *cluster.Response) {
	if tr == nil || resp == nil {
		return
	}
	raw := resp.Header.Get(cluster.SpansHeader)
	if raw == "" {
		return
	}
	var ex spanExport
	if err := json.Unmarshal([]byte(raw), &ex); err != nil {
		return
	}
	tr.Stitch(ex.Spans, sp.StartOffsetUS())
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

// anyLowerBound reports whether an analysis carries at least one
// certified partial radius — the condition for meta.anytime.
func anyLowerBound(a core.Analysis) bool {
	for i := range a.Radii {
		if a.Radii[i].Kind == core.LowerBound {
			return true
		}
	}
	return false
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

// noteClusterDegraded records n requests served locally because their
// ring owner was unreachable: the cluster-degraded counter, the trace
// marker, and the Warning header (set before the status is written).
func (s *Server) noteClusterDegraded(w http.ResponseWriter, r *http.Request, n int) {
	s.metrics.clusterDegraded.Add(uint64(n))
	obs.TraceFrom(r.Context()).SetAttr("degraded", "true")
	w.Header().Set("Warning", `199 fepiad "degraded: ring owner unreachable, served locally"`)
}

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

// handleBatch serves POST /v1/batch: many systems fanned over the batch
// engine's worker pool against the shared radius cache, results in
// request order. Each system keeps its own norm/options, so the fan-out
// runs per-system jobs (batch.AnalyzeOneContext) over the engine's
// scheduling substrate rather than one homogeneous batch.Analyze call.
//
// With a cluster configured, the batch is partitioned by ring owner:
// self-owned systems solve locally while each peer's systems travel as
// one concurrent sub-batch (re-marshaled from the validated specs) and
// scatter back into their request-order slots. A peer whose sub-batch
// fails is covered by a local degraded solve — zero dropped systems —
// unless degraded mode is off, in which case the whole batch fails with
// the peer error. Forwarded-in batches (single-hop rule) solve entirely
// locally.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	psp := obs.StartSpan(r.Context(), "parse")
	body, ok := s.readBody(epBatch, w, r)
	if !ok {
		psp.End(errors.New("body rejected"))
		return
	}
	systems, err := spec.ParseBatch(*body)
	putBuf(body)
	psp.End(err)
	if err != nil {
		s.fail(epBatch, w, r, err)
		return
	}

	forwarded := r.Header.Get(cluster.ForwardedFromHeader) != ""
	var remote map[string][]int
	if s.router != nil && !forwarded {
		self := s.router.Self()
		for i, sys := range systems {
			if owner := s.router.Owner(sys.RouteKey()); owner != self {
				if remote == nil {
					remote = make(map[string][]int)
				}
				remote[owner] = append(remote[owner], i)
			}
		}
	}

	if !s.allowEndpoint(s.batchBreaker, r) {
		s.answerDegraded(epBatch, w, r, systems, true, forwarded, "circuit_open",
			"batch engine circuit open: recent solves kept failing")
		return
	}
	release, ok := s.admit(epBatch, w, r)
	if !ok {
		// The request never reached the engine; return any half-open
		// probe slot breakerAllow reserved or the breaker wedges.
		s.breakerCancel(s.batchBreaker)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	ctx = faults.With(ctx, s.cfg.Injector)
	if s.beforeAnalyze != nil {
		s.beforeAnalyze()
	}
	results := make([]spec.ResultJSON, len(systems))

	// Peer sub-batches travel concurrently with the local solve; each
	// writes only its own request-order slots of results.
	owners := make([]string, 0, len(remote))
	for owner := range remote {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	groupErrs := make([]error, len(owners))
	var wg sync.WaitGroup
	for gi, owner := range owners {
		wg.Add(1)
		go func(gi int, owner string) {
			defer wg.Done()
			groupErrs[gi] = s.forwardSubBatch(ctx, r, owner, remote[owner], systems, results)
		}(gi, owner)
	}

	local := make([]int, 0, len(systems))
	isRemote := make([]bool, len(systems))
	for _, idx := range remote {
		for _, i := range idx {
			isRemote[i] = true
		}
	}
	for i := range systems {
		if !isRemote[i] {
			local = append(local, i)
		}
	}
	lerr := s.solveLocal(ctx, systems, local, results, forwarded, false)
	wg.Wait()
	s.breakerReport(s.batchBreaker, lerr)
	if lerr != nil {
		if s.cfg.Degraded && degradable(lerr) {
			s.answerDegraded(epBatch, w, r, systems, true, forwarded, "degraded",
				"engine failed and no complete cached answer exists: "+lerr.Error())
			return
		}
		s.fail(epBatch, w, r, lerr)
		return
	}

	// Failed peer groups fall back to local degraded solves so a dead
	// node never drops systems; with degraded mode off the peer failure
	// is terminal for the whole batch.
	degradedN, forwardedAny := 0, false
	for gi, owner := range owners {
		gerr := groupErrs[gi]
		if gerr == nil {
			forwardedAny = true
			continue
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			s.fail(epBatch, w, r, ctxErr)
			return
		}
		if !s.cfg.Degraded {
			s.fail(epBatch, w, r, gerr)
			return
		}
		obs.Logger(r.Context()).Warn("peer sub-batch failed, serving locally degraded",
			"peer", owner, "error", gerr.Error())
		if err := s.solveLocal(ctx, systems, remote[owner], results, forwarded, true); err != nil {
			if degradable(err) {
				s.answerDegraded(epBatch, w, r, systems, true, forwarded, "degraded",
					"engine failed and no complete cached answer exists: "+err.Error())
				return
			}
			s.fail(epBatch, w, r, err)
			return
		}
		degradedN += len(remote[owner])
	}

	s.metrics.analyses.Add(uint64(len(local) + degradedN))
	top := s.meta(forwarded || forwardedAny, false, "")
	for i := range results {
		if m := results[i].Meta; m != nil {
			top.Cache = spec.WorstCache(top.Cache, m.Cache)
			if m.Degraded {
				top.Degraded = true
			}
			if m.Anytime {
				top.Anytime = true
			}
		}
	}
	if degradedN > 0 {
		s.noteClusterDegraded(w, r, degradedN)
	}
	esp := obs.StartSpan(r.Context(), "encode")
	s.serveHeaders(w, r, forwarded)
	writeJSON(w, http.StatusOK, spec.BatchResponse{Results: results, Meta: top})
	esp.End(nil)
}

// solveLocal runs the systems at idx through the engine on this node,
// writing each result (with its meta block) into its request-order slot.
func (s *Server) solveLocal(ctx context.Context, systems []*spec.System, idx []int, results []spec.ResultJSON, forwarded, degraded bool) error {
	// With any anytime system in the group, the scheduling loop must not
	// abort at the deadline — every remaining system still gets its
	// certified partial answer. The per-system calls keep the real ctx
	// (closure below), so genuine cancellation still fails them, which
	// fails ForEach through the returned error.
	runCtx := ctx
	for _, i := range idx {
		if s.anytime(systems[i]) {
			runCtx = context.WithoutCancel(ctx)
			break
		}
	}
	return batch.ForEach(runCtx, len(idx), s.cfg.Workers, func(k int) error {
		i := idx[k]
		sys := systems[i]
		rs := &batch.RequestStats{}
		a, err := batch.AnalyzeOneContext(batch.WithRequestStats(ctx, rs),
			batch.Job{Features: sys.Features, Perturbation: sys.Perturbation},
			batch.Options{Cache: s.cache, Core: sys.Options, Retry: s.retry, ShareBoundaries: true,
				Kernel: s.cfg.Kernel, Anytime: s.anytime(sys)})
		if err != nil {
			return fmt.Errorf("systems[%d] (%s): %w", i, sys.Name, err)
		}
		results[i] = spec.Encode(sys.Name, a)
		results[i].Meta = s.meta(forwarded, degraded, rs.Source())
		if anyLowerBound(a) {
			results[i].Meta.Anytime = true
			s.metrics.anytimePartial.Inc()
		}
		if s.cfg.CompatV1Degraded && degraded {
			results[i].Degraded = true
		}
		return nil
	})
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
	sp := obs.StartSpan(r.Context(), "forward")
	sp.Set("peer", owner)
	sp.SetInt("systems", len(idx))
	tr := obs.TraceFrom(r.Context())
	resp, err := s.router.Forward(ctx, owner, "/v1/batch", body, s.forwardHeader(r, tr, sp))
	if resp != nil {
		sp.SetInt("attempts", resp.Attempts)
	}
	sp.Set("breaker", s.router.PeerStats(owner).Breaker.State)
	sp.End(err)
	if err != nil {
		return err
	}
	s.stitchRemoteSpans(tr, sp, resp)
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
	if b == nil {
		return
	}
	if err != nil && !degradable(err) {
		b.CancelProbe()
		return
	}
	b.Report(err != nil)
}

// breakerCancel returns a probe slot reserved by breakerAllow when the
// request never reached the engine; a nil breaker is a no-op.
func (s *Server) breakerCancel(b *faults.Breaker) {
	if b != nil {
		b.CancelProbe()
	}
}

// degradable reports whether an analysis failure is an engine-side
// condition a cached answer can stand in for — solver failures, injected
// faults, deadline expiry — as opposed to a client mistake (validation,
// unsupported norm) or the client going away.
func degradable(err error) bool {
	var ve *spec.ValidationError
	switch {
	case err == nil,
		errors.As(err, &ve),
		errors.Is(err, core.ErrNormUnsupported),
		errors.Is(err, context.Canceled):
		return false
	}
	return true
}

// answerDegraded is the degraded-mode responder: with Config.Degraded
// set it tries to assemble the full answer from the shared radius cache
// — every feature of every submitted system must be memoised — and
// serves it with meta.degraded set and a Warning header (plus the
// deprecated top-level "degraded" marker when CompatV1Degraded is on).
// The cached values are exactly what a healthy engine would recompute,
// so a degraded 200 is byte-identical to the fault-free response modulo
// the meta block. On a true cache miss (or with degraded mode off) it
// sheds with 503 + Retry-After and the given error kind.
func (s *Server) answerDegraded(endpoint string, w http.ResponseWriter, r *http.Request, systems []*spec.System, batchShape, forwarded bool, kind, reason string) {
	tr := obs.TraceFrom(r.Context())
	if s.cfg.Degraded {
		sp := obs.StartSpan(r.Context(), "degraded_lookup")
		results, ok := s.cachedResults(systems, forwarded)
		sp.Set("served", strconv.FormatBool(ok))
		sp.End(nil)
		if ok {
			s.metrics.degraded.Inc()
			tr.SetAttr("outcome", "degraded")
			tr.SetAttr("degraded", "true")
			obs.Logger(r.Context()).Warn("serving degraded from radius cache", "reason", kind)
			w.Header().Set("Warning", `199 fepiad "degraded: served from radius cache"`)
			s.serveHeaders(w, r, forwarded)
			if batchShape {
				writeJSON(w, http.StatusOK, spec.BatchResponse{Results: results,
					Meta: s.meta(forwarded, true, spec.CacheHit)})
			} else {
				writeJSON(w, http.StatusOK, results[0])
			}
			return
		}
	}
	tr.SetAttr("outcome", kind)
	s.metrics.errs[endpoint].Inc()
	s.retryAfterHeader(w)
	writeError(w, http.StatusServiceUnavailable, spec.ErrorJSON{Error: reason, Kind: kind})
}

// cachedResults assembles one degraded ResultJSON per system purely from
// the radius cache, or reports ok=false when any feature misses.
func (s *Server) cachedResults(systems []*spec.System, forwarded bool) ([]spec.ResultJSON, bool) {
	results := make([]spec.ResultJSON, len(systems))
	for i, sys := range systems {
		a, ok := batch.AnalyzeCached(batch.Job{Features: sys.Features, Perturbation: sys.Perturbation},
			batch.Options{Cache: s.cache, Core: sys.Options, ShareBoundaries: true})
		if !ok {
			return nil, false
		}
		results[i] = spec.Encode(sys.Name, a)
		results[i].Meta = s.meta(forwarded, true, spec.CacheHit)
		if s.cfg.CompatV1Degraded {
			results[i].Degraded = true
		}
	}
	return results, true
}

// fail maps an analysis error onto the HTTP error contract (see the
// package comment) and writes the ErrorJSON envelope.
func (s *Server) fail(endpoint string, w http.ResponseWriter, r *http.Request, err error) {
	s.metrics.errs[endpoint].Inc()
	status, kind, path := http.StatusInternalServerError, "internal", ""
	var ve *spec.ValidationError
	var se *core.SolveError
	var pe *PeerError
	switch {
	case errors.As(err, &ve):
		status, kind, path = http.StatusBadRequest, "invalid_spec", ve.Path
	case errors.Is(err, core.ErrNormUnsupported):
		status, kind = http.StatusBadRequest, "unsupported"
	case errors.Is(err, context.DeadlineExceeded):
		status, kind = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// The client went away or the server is force-draining; the
		// status is mostly for the access log.
		status, kind = http.StatusServiceUnavailable, "shutting_down"
	case errors.As(err, &se):
		status, kind = http.StatusInternalServerError, "solver_failure"
	case errors.As(err, &pe):
		// A ring owner could not be reached and degraded serving is off.
		if errors.Is(err, cluster.ErrPeerOpen) {
			status, kind = http.StatusServiceUnavailable, "peer_circuit_open"
			s.retryAfterHeader(w)
		} else {
			status, kind = http.StatusBadGateway, "peer_unreachable"
		}
	}
	obs.TraceFrom(r.Context()).SetAttr("outcome", kind)
	if status >= http.StatusInternalServerError {
		obs.Logger(r.Context()).Error("analysis failed", "kind", kind, "error", err.Error())
	}
	writeError(w, status, spec.ErrorJSON{Error: err.Error(), Kind: kind, Path: path})
}
