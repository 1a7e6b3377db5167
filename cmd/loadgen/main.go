// Command loadgen hammers a fepiad instance with generated spec documents
// in the style of the paper's §3.1/§3.2 systems (random machine
// finishing-time hyperplanes plus occasional convex queueing features) and
// reports throughput and latency percentiles — the `make loadtest` target.
//
//	loadgen -self                      # spin up an in-process fepiad and hammer it
//	loadgen -self -nodes 3             # spin up a 3-node in-process ring
//	loadgen -url http://host:8080      # hammer a running instance
//	loadgen -url http://a:8080,http://b:8080   # spray a cluster, failover on node death
//	loadgen -n 5000 -c 64 -batch 16    # 5000 requests, 64 clients, 16 systems each
//	loadgen -self -watch 16            # stream 16-step /v1/watch sessions instead
//
// The generator is seeded, so two runs with the same flags submit the
// identical workload. Systems are drawn from a bounded pool (default 64
// distinct systems) to exercise the server's shared radius cache the way
// the paper's 1000-mapping experiments do: heavy structural overlap.
//
// Cluster mode (docs/CLUSTER.md): -self -nodes N boots an in-process
// consistent-hash ring; -url takes a comma-separated list of node base
// URLs and spreads requests round-robin, failing over to the next node
// when one stops answering — so killing a node mid-run sheds no client
// requests. The report counts forwarded responses (X-Fepiad-Forwarded)
// and per-node serving totals (X-Fepiad-Node).
//
// Shed requests (503) are treated as back-pressure, not failures: the
// client honors the server's Retry-After hint and re-submits up to
// -retry-503 times, so saturation reports real serving latency. Degraded
// responses (Warning header) are counted separately.
//
// Watch mode: -watch S turns every request into a POST /v1/watch
// streaming session over an S-step trajectory of the picked system's
// operating point (one coordinate nudged per step — the incremental
// engine's shape). The client consumes the ndjson stream, counts frames
// and changed radii, and fails the request if the stream ends without a
// clean summary. Latency percentiles then measure whole sessions.
//
// Observability hooks: -report-traces N lists the N slowest served
// requests with their request and trace IDs (X-Fepiad-Trace-Id) — paste
// a trace ID into the server's /debug/traces to see the per-stage,
// cross-node span tree — and the report scores the run against
// client-side SLOs (-slo-availability, -slo-latency-p99) in the same
// burn-rate shape as the server's fepiad_slo_burn_rate gauges.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fepia/internal/cluster"
	"fepia/internal/obs"
	"fepia/internal/server"
	"fepia/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		url      = flag.String("url", "http://localhost:8080", "fepiad base URL, or a comma-separated list of cluster node URLs (round-robin with failover)")
		self     = flag.Bool("self", false, "start an in-process fepiad on a random port and hammer it")
		nodes    = flag.Int("nodes", 1, "with -self: boot this many in-process fepiad nodes as a consistent-hash ring")
		cacheCap = flag.Int("cache", 0, "with -self: per-node radius-cache capacity in entries (0 = default)")
		n        = flag.Int("n", 2000, "total requests")
		c        = flag.Int("c", 32, "concurrent clients")
		batch    = flag.Int("batch", 8, "systems per request (1 = POST /v1/analyze, else /v1/batch)")
		pool     = flag.Int("pool", 64, "distinct systems in the workload pool")
		heavy    = flag.Int("heavy", 0, "convex terms features added to every generated system (makes cache misses pay the numeric solver; the cluster bench workload)")
		cycle    = flag.Bool("cycle", false, "draw systems round-robin from the pool instead of randomly (deterministic LRU thrash when the pool outsizes the cache)")
		warmup   = flag.Bool("warmup", false, "submit each pooled system once, untimed, before the run (measures warm-cache serving)")
		kill     = flag.String("kill", "", "with -self: kill node i once a fraction f of requests have been issued, as i@f (e.g. 1@0.5) — the chaos story")
		watch    = flag.Int("watch", 0, "steps per /v1/watch session; > 0 makes every request a streaming watch session over a generated trajectory (overrides -batch)")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		retry503 = flag.Int("retry-503", 3, "re-submissions of a shed (503) request after honoring Retry-After (0 = fail immediately)")
		maxWait  = flag.Duration("max-retry-after", 5*time.Second, "cap on a single honored Retry-After wait")
		jsonOut  = flag.Bool("json", false, "emit the report as one JSON document on stdout (for CI and dashboards)")

		reportTraces = flag.Int("report-traces", 0, "include the N slowest served requests in the report, with their request ID, trace ID (X-Fepiad-Trace-Id), and serving node — paste the trace ID into /debug/traces")
		sloLatency   = flag.Float64("slo-latency-p99", 500, "client-side p99 latency objective in milliseconds for the report's SLO burn rates")
		sloAvail     = flag.Float64("slo-availability", 0.999, "client-side availability objective in (0,1) for the report's SLO burn rates")
	)
	flag.Parse()

	bases := splitURLs(*url)
	var killNode func(int)
	if *self {
		ring, killFn, stop := startSelfRing(*nodes, *cacheCap, 2**c)
		defer stop()
		bases, killNode = ring, killFn
	}
	if len(bases) == 0 {
		log.Fatal("no fepiad URL to hammer")
	}
	killIdx, killAt := parseKill(*kill, *n, *nodes, killNode != nil)

	var bodies, poolDocs []string
	path := "/v1/batch"
	if *batch <= 1 {
		path = "/v1/analyze"
	}
	if *watch > 0 {
		if *warmup {
			log.Fatal("-warmup makes no sense with -watch: kernel delta steps bypass the radius cache")
		}
		bodies = buildWatchWorkload(rand.New(rand.NewSource(*seed)), *n, *pool, *heavy, *watch, *cycle)
		path = "/v1/watch"
	} else {
		bodies, poolDocs = buildWorkload(rand.New(rand.NewSource(*seed)), *n, *batch, *pool, *heavy, *cycle)
	}
	client := &http.Client{Timeout: *timeout}

	if *warmup {
		// One untimed pass over the distinct systems so the run measures
		// warm serving. Spraying round-robin warms whichever node owns
		// each key: forwarding routes the document to its ring arc.
		var noFailover atomic.Int64
		for i, doc := range poolDocs {
			if *batch > 1 {
				doc = `{"systems": [` + doc + `]}`
			}
			resp, err := postAny(client, bases, i, path, doc, &noFailover)
			if err != nil {
				log.Fatalf("warmup: %v", err)
			}
			drain(resp)
		}
		log.Printf("warmed %d distinct systems", len(poolDocs))
	}

	// All clients observe into one shared lock-free histogram — the same
	// obs instrument the server's own latency metrics use — and the
	// percentiles below come from its bucket interpolation.
	var (
		next      atomic.Int64
		okCount   atomic.Int64
		failCount atomic.Int64
		shedCount atomic.Int64
		degCount  atomic.Int64
		fwdCount  atomic.Int64
		wFrames   atomic.Int64
		wChanged  atomic.Int64
		failovers atomic.Int64
		latency   = obs.NewHistogram(nil)
		slowOver  atomic.Int64 // served requests past the latency objective
		slowest   = newSlowList(*reportTraces)
		nodeMu    sync.Mutex
		perNode   = map[string]int64{}
		// The first served response's meta.cache value ("hit" when the
		// server booted from a warm snapshot) — the restart bench's signal.
		firstTaken atomic.Bool
		firstCache atomic.Value
	)
	log.Printf("%d requests × %d systems → %s on %d node(s) over %d clients", *n, *batch, path, len(bases), *c)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					break
				}
				// The chaos story: exactly one worker claims the kill
				// index and takes the node down mid-run; every other
				// client rides through on failover + degraded serving.
				if killAt > 0 && i == killAt {
					log.Printf("killing node n%d at request %d", killIdx, i)
					killNode(killIdx)
				}
				// A 503 is back-pressure, not an outcome: honor the
				// server's Retry-After hint before re-submitting, so a
				// saturated run reports the latency of served requests
				// instead of a wall of instant failures. Only the serving
				// attempt's own duration enters the latency report.
				for attempt := 0; ; attempt++ {
					t0 := time.Now()
					resp, err := postAny(client, bases, i+attempt, path, bodies[i], &failovers)
					if err != nil {
						failCount.Add(1)
						break
					}
					// Watch sessions stream: the body must be consumed frame
					// by frame before the session counts as served, and the
					// timed region covers the whole stream.
					var watchErr error
					switch {
					case *watch > 0 && resp.StatusCode == http.StatusOK:
						var frames, changed int64
						frames, changed, watchErr = consumeWatch(resp)
						wFrames.Add(frames)
						wChanged.Add(changed)
					case resp.StatusCode == http.StatusOK && firstTaken.CompareAndSwap(false, true):
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						firstCache.Store(metaCache(body))
					default:
						drain(resp)
					}
					if resp.StatusCode == http.StatusServiceUnavailable && attempt < *retry503 {
						shedCount.Add(1)
						time.Sleep(retryAfterDelay(resp, *maxWait))
						continue
					}
					if resp.StatusCode == http.StatusOK {
						if watchErr != nil {
							failCount.Add(1)
							break
						}
						if resp.Header.Get("Warning") != "" {
							degCount.Add(1) // served degraded from the radius cache
						}
						if resp.Header.Get(cluster.ForwardedHeader) == "true" {
							fwdCount.Add(1) // relayed to its ring owner
						}
						if node := resp.Header.Get(cluster.NodeHeader); node != "" {
							nodeMu.Lock()
							perNode[node]++
							nodeMu.Unlock()
						}
						okCount.Add(1)
						durMS := float64(time.Since(t0)) / float64(time.Millisecond)
						latency.Observe(durMS)
						if durMS > *sloLatency {
							slowOver.Add(1)
						}
						slowest.add(slowTrace{
							RequestID:  resp.Header.Get("X-Request-Id"),
							TraceID:    resp.Header.Get(cluster.TraceIDHeader),
							Node:       resp.Header.Get(cluster.NodeHeader),
							DurationMS: durMS,
						})
					} else {
						failCount.Add(1)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := latency.Snapshot()
	rep := report{
		Requests:  *n,
		OK:        okCount.Load(),
		Failed:    failCount.Load(),
		Shed:      shedCount.Load(),
		Degraded:  degCount.Load(),
		Forwarded: fwdCount.Load(),
		Failovers: failovers.Load(),
		PerNode:   perNode,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if killAt > 0 {
		rep.Killed = fmt.Sprintf("n%d@%d", killIdx, killAt)
	}
	if fc, ok := firstCache.Load().(string); ok {
		rep.FirstCache = fc
	}
	if *watch > 0 {
		rep.WatchSteps = *watch
		rep.WatchFrames = wFrames.Load()
		rep.WatchChanged = wChanged.Load()
	}
	if rep.OK > 0 {
		rep.Throughput = float64(rep.OK) / elapsed.Seconds()
		rep.Analyses = rep.Throughput * float64(*batch)
		if *watch > 0 {
			// Every streamed frame is one analysed operating point.
			rep.Analyses = float64(rep.WatchFrames) / elapsed.Seconds()
		}
		rep.Latency = &latencyReport{
			P50MS:  snap.Quantile(0.50),
			P90MS:  snap.Quantile(0.90),
			P99MS:  snap.Quantile(0.99),
			MaxMS:  snap.Max,
			MeanMS: snap.Mean(),
		}
		rep.SLO = burnReport(rep.OK, rep.Failed, slowOver.Load(), *sloAvail, *sloLatency)
	}
	rep.SlowTraces = slowest.list()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("requests: %d ok, %d failed in %v\n", rep.OK, rep.Failed, elapsed.Round(time.Millisecond))
		if rep.Shed > 0 {
			fmt.Printf("back-pressure: %d sheds (503) honored via Retry-After\n", rep.Shed)
		}
		if rep.Degraded > 0 {
			fmt.Printf("degraded: %d responses served from the radius cache\n", rep.Degraded)
		}
		if rep.Forwarded > 0 || len(rep.PerNode) > 1 {
			fmt.Printf("cluster: %d forwarded to their ring owner, %d client failovers\n", rep.Forwarded, rep.Failovers)
			for node, served := range rep.PerNode {
				fmt.Printf("  node %s served %d\n", node, served)
			}
		}
		if rep.FirstCache != "" {
			fmt.Printf("first response cache: %s\n", rep.FirstCache)
		}
		if *watch > 0 {
			fmt.Printf("watch: %d sessions × %d steps, %d frames streamed, %d changed radii\n",
				rep.OK, rep.WatchSteps, rep.WatchFrames, rep.WatchChanged)
		}
		if lr := rep.Latency; lr != nil {
			fmt.Printf("throughput: %.0f req/s (%.0f analyses/s)\n", rep.Throughput, rep.Analyses)
			fmt.Printf("latency: p50 %.3gms  p90 %.3gms  p99 %.3gms  mean %.3gms  max %.3gms\n",
				lr.P50MS, lr.P90MS, lr.P99MS, lr.MeanMS, lr.MaxMS)
		}
		if sr := rep.SLO; sr != nil {
			fmt.Printf("slo: availability %.5f (burn %.2f of %.4f objective), latency over %gms: %.3f%% (burn %.2f)\n",
				sr.Availability, sr.AvailabilityBurn, sr.AvailabilityObjective,
				sr.LatencyObjectiveMS, 100*sr.LatencyOverFraction, sr.LatencyBurn)
		}
		for _, st := range rep.SlowTraces {
			fmt.Printf("slow: %.1fms request=%s trace=%s node=%s\n",
				st.DurationMS, st.RequestID, st.TraceID, st.Node)
		}
		printServerCache(client, bases[0])
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

// report is the machine-readable run summary (-json). Latency quantiles
// are bucket-interpolated estimates from the shared obs histogram, in
// milliseconds; Max and Mean are exact over the served requests.
type report struct {
	Requests int   `json:"requests"`
	OK       int64 `json:"ok"`
	Failed   int64 `json:"failed"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
	// Forwarded counts responses relayed to their ring owner
	// (X-Fepiad-Forwarded); Failovers counts requests the client re-aimed
	// at another node after one stopped answering; PerNode tallies served
	// responses by the node that answered (X-Fepiad-Node).
	Forwarded int64            `json:"forwarded,omitempty"`
	Failovers int64            `json:"failovers,omitempty"`
	PerNode   map[string]int64 `json:"per_node,omitempty"`
	Killed    string           `json:"killed,omitempty"`
	// FirstCache is meta.cache of the first served response: "hit" means
	// the server answered its very first request from a warm cache — the
	// snapshot-restart bench asserts exactly this.
	FirstCache string `json:"first_cache,omitempty"`
	// Watch-mode tallies (-watch S): every OK request is one streamed
	// session; WatchFrames counts frames received across all sessions and
	// WatchChanged the changed radii they carried — the incremental
	// wire's actual payload.
	WatchSteps   int            `json:"watch_steps,omitempty"`
	WatchFrames  int64          `json:"watch_frames,omitempty"`
	WatchChanged int64          `json:"watch_changed_radii,omitempty"`
	ElapsedMS    float64        `json:"elapsed_ms"`
	Throughput   float64        `json:"throughput_rps,omitempty"`
	Analyses     float64        `json:"analyses_per_sec,omitempty"`
	Latency      *latencyReport `json:"latency,omitempty"`
	// SLO is the run scored against the client-side objectives
	// (-slo-availability, -slo-latency-p99); SlowTraces are the
	// -report-traces slowest served requests, slowest first, each with
	// the trace ID to look up on the server's /debug/traces.
	SLO        *sloReport  `json:"slo,omitempty"`
	SlowTraces []slowTrace `json:"slow_traces,omitempty"`
}

type latencyReport struct {
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// sloReport scores one run against the client-side objectives, in the
// same burn-rate shape the server's fepiad_slo_burn_rate gauges use
// (burn 1.0 = consuming exactly the error budget).
type sloReport struct {
	AvailabilityObjective float64 `json:"availability_objective"`
	Availability          float64 `json:"availability"`
	AvailabilityBurn      float64 `json:"availability_burn"`
	LatencyObjectiveMS    float64 `json:"latency_objective_ms"`
	LatencyOverFraction   float64 `json:"latency_over_fraction"`
	LatencyBurn           float64 `json:"latency_burn"`
}

// burnReport computes the run's burn rates: failed requests against the
// availability budget, served-but-slow requests against the 1% latency
// budget of a p99 objective.
func burnReport(ok, failed, slowOver int64, availObj, latObjMS float64) *sloReport {
	total := ok + failed
	if total == 0 || availObj <= 0 || availObj >= 1 {
		return nil
	}
	avail := float64(ok) / float64(total)
	overFrac := float64(slowOver) / float64(ok)
	return &sloReport{
		AvailabilityObjective: availObj,
		Availability:          avail,
		AvailabilityBurn:      (1 - avail) / (1 - availObj),
		LatencyObjectiveMS:    latObjMS,
		LatencyOverFraction:   overFrac,
		LatencyBurn:           overFrac / 0.01,
	}
}

// slowTrace is one entry of the -report-traces list: everything needed
// to find the request again on the server side.
type slowTrace struct {
	RequestID  string  `json:"request_id"`
	TraceID    string  `json:"trace_id"`
	Node       string  `json:"node,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

// slowList retains the N slowest served requests, slowest first, under
// one mutex (insertion into a tiny sorted slice, same shape as the
// server's slowest-trace ring).
type slowList struct {
	mu  sync.Mutex
	cap int
	top []slowTrace
}

func newSlowList(n int) *slowList { return &slowList{cap: n} }

func (l *slowList) add(st slowTrace) {
	if l.cap <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.top) && l.top[i].DurationMS >= st.DurationMS {
		i++
	}
	if i >= l.cap {
		return
	}
	if len(l.top) < l.cap {
		l.top = append(l.top, slowTrace{})
	}
	copy(l.top[i+1:], l.top[i:])
	l.top[i] = st
}

func (l *slowList) list() []slowTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]slowTrace(nil), l.top...)
}

// splitURLs parses the -url flag: a comma-separated list of base URLs,
// trimmed of whitespace and trailing slashes. Blanks are dropped.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}

// postAny submits one request, starting at a deterministic node (start
// rotates per request for round-robin spread) and failing over to the
// next node on transport errors — so a killed node costs the client a
// failover, never a dropped request.
func postAny(client *http.Client, bases []string, start int, path, body string, failovers *atomic.Int64) (*http.Response, error) {
	var lastErr error
	for k := 0; k < len(bases); k++ {
		resp, err := client.Post(bases[(start+k)%len(bases)]+path, "application/json", strings.NewReader(body))
		if err == nil {
			if k > 0 {
				failovers.Add(1)
			}
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// selfNode is one in-process fepiad of a -self ring; killing it cancels
// its private context and waits for the drain, exactly once.
type selfNode struct {
	id     string
	srv    *server.Server
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once
}

// startSelfRing boots n in-process fepiad nodes on loopback listeners.
// With n > 1 the nodes form a consistent-hash ring (every node gets the
// full membership, exactly as -peers would wire it); with n == 1 it is
// the classic single-instance -self mode. Returns the node base URLs, a
// kill function that takes one node down (the -kill chaos story), and a
// stop function that drains every surviving node and logs per-node
// cache stats.
func startSelfRing(n, cacheCap, maxInFlight int) ([]string, func(int), func()) {
	if n < 1 {
		n = 1
	}
	// Listen first so every node's URL is known before any server starts:
	// ring membership must be complete and identical on all nodes.
	listeners := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	bases := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = l
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i), URL: "http://" + l.Addr().String()}
		bases[i] = peers[i].URL
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	nodes := make([]*selfNode, n)
	for i := range nodes {
		cfg := server.Config{
			MaxInFlight:   maxInFlight,
			CacheCapacity: cacheCap,
			Degraded:      true, // match the fepiad flag default
			Log:           quiet,
		}
		if n > 1 {
			cfg.NodeID = peers[i].ID
			cfg.Peers = peers
		}
		ctx, cancel := context.WithCancel(context.Background())
		node := &selfNode{id: peers[i].ID, srv: server.New(cfg), cancel: cancel, done: make(chan struct{})}
		nodes[i] = node
		go func(l net.Listener) {
			if err := node.srv.Run(ctx, l); err != nil {
				log.Printf("self node %s exited: %v", node.id, err)
			}
			close(node.done)
		}(listeners[i])
	}
	kill := func(i int) {
		nodes[i].once.Do(func() {
			nodes[i].cancel()
			<-nodes[i].done
		})
	}
	stop := func() {
		for i := range nodes {
			kill(i)
		}
		for _, node := range nodes {
			cs := node.srv.CacheStats()
			log.Printf("node %s cache: %d hits / %d misses", node.id, cs.Hits, cs.Misses)
		}
	}
	return bases, kill, stop
}

// parseKill decodes -kill's i@f form into a node index and the request
// ordinal at which that node dies. A zero killAt disables the story.
func parseKill(s string, n, nodes int, selfRing bool) (killIdx, killAt int) {
	if s == "" {
		return 0, 0
	}
	if !selfRing {
		log.Fatal("-kill requires -self (the client cannot kill a remote node)")
	}
	var frac float64
	if _, err := fmt.Sscanf(s, "%d@%f", &killIdx, &frac); err != nil {
		log.Fatalf("bad -kill %q (want i@f, e.g. 1@0.5)", s)
	}
	if killIdx < 0 || killIdx >= nodes || frac <= 0 || frac >= 1 {
		log.Fatalf("bad -kill %q: node index in [0,%d), fraction in (0,1)", s, nodes)
	}
	killAt = int(frac * float64(n))
	if killAt < 1 {
		killAt = 1
	}
	return killIdx, killAt
}

// metaCache extracts meta.cache from a served response body. Both
// /v1/analyze and /v1/batch answers carry a top-level meta block, so one
// shape covers both endpoints; anything unparseable reports "".
func metaCache(body []byte) string {
	var doc struct {
		Meta struct {
			Cache string `json:"cache"`
		} `json:"meta"`
	}
	if json.Unmarshal(body, &doc) != nil {
		return ""
	}
	return doc.Meta.Cache
}

// drain empties and closes a response body so connections are reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// retryAfterDelay decodes a 503's Retry-After hint (delta-seconds form),
// bounded by max; an absent or malformed header waits 100ms.
func retryAfterDelay(resp *http.Response, max time.Duration) time.Duration {
	d := 100 * time.Millisecond
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > max {
		d = max
	}
	return d
}

// buildWorkload pre-serialises every request body: n requests of `batch`
// systems each, drawn from a pool of `pool` distinct generated systems —
// randomly by default, round-robin with -cycle (the deterministic
// LRU-thrash shape of the cluster bench). It also returns the distinct
// pooled documents for -warmup.
func buildWorkload(rng *rand.Rand, n, batch, pool, heavy int, cycle bool) (bodies, poolDocs []string) {
	systems := make([]string, pool)
	for i := range systems {
		doc, err := json.Marshal(genSystem(rng, i, heavy))
		if err != nil {
			log.Fatal(err)
		}
		systems[i] = string(doc)
	}
	pick := func(i int) string {
		if cycle {
			return systems[i%pool]
		}
		return systems[rng.Intn(pool)]
	}
	bodies = make([]string, n)
	at := 0
	for i := range bodies {
		if batch <= 1 {
			bodies[i] = pick(at)
			at++
			continue
		}
		picks := make([]string, batch)
		for j := range picks {
			picks[j] = pick(at)
			at++
		}
		bodies[i] = `{"systems": [` + strings.Join(picks, ",") + `]}`
	}
	return bodies, systems
}

// buildWatchWorkload pre-serialises n /v1/watch session bodies: each
// picks a pooled system and walks its operating point through `steps`
// single-coordinate nudges — the trajectory shape the incremental delta
// engine is built for. The generator stream matches buildWorkload's, so
// runs stay reproducible per seed.
func buildWatchWorkload(rng *rand.Rand, n, pool, heavy, steps int, cycle bool) []string {
	systems := make([]spec.File, pool)
	for i := range systems {
		systems[i] = genSystem(rng, i, heavy)
	}
	bodies := make([]string, n)
	for i := range bodies {
		f := systems[i%pool]
		if !cycle {
			f = systems[rng.Intn(pool)]
		}
		points := make([][]float64, steps)
		cur := f.Perturbation.Orig
		for s := range points {
			next := append([]float64(nil), cur...)
			next[rng.Intn(len(next))] *= 0.95 + 0.1*rng.Float64()
			points[s] = next
			cur = next
		}
		doc, err := json.Marshal(spec.WatchRequest{System: f, Points: points})
		if err != nil {
			log.Fatal(err)
		}
		bodies[i] = string(doc)
	}
	return bodies
}

// consumeWatch drains one /v1/watch ndjson stream, counting frames and
// the changed radii they carry. A session only counts as served when the
// stream closes with a clean summary: a summary carrying an error, a
// missing summary (connection cut mid-stream), or an undecodable line
// all fail the request.
func consumeWatch(resp *http.Response) (frames, changed int64, err error) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	done := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var msg struct {
			Done         *bool  `json:"done"`
			ChangedCount int    `json:"changed_count"`
			Error        string `json:"error"`
		}
		if uerr := json.Unmarshal(line, &msg); uerr != nil {
			return frames, changed, fmt.Errorf("watch frame: %w", uerr)
		}
		if msg.Done != nil {
			if msg.Error != "" {
				return frames, changed, fmt.Errorf("watch session aborted: %s", msg.Error)
			}
			done = true
			continue
		}
		frames++
		changed += int64(msg.ChangedCount)
	}
	if serr := sc.Err(); serr != nil {
		return frames, changed, serr
	}
	if !done {
		return frames, changed, fmt.Errorf("watch stream ended without a summary")
	}
	return frames, changed, nil
}

// genSystem draws one report-style system: a handful of machines whose
// finishing times are 0/1 sums of ETC entries bounded by τ·makespan
// (§3.1), plus one convex queueing-style feature in every fourth system
// (§3.2 forms). With heavy > 0 every system instead carries that many
// distinct convex features, so a radius-cache miss pays the numeric
// convex solver — the workload whose serving cost the cluster's
// aggregate cache capacity actually moves.
func genSystem(rng *rand.Rand, id, heavy int) spec.File {
	apps := 4 + rng.Intn(5)
	if heavy > 0 {
		// Heavier systems are higher-dimensional too: the convex solver's
		// per-miss cost grows with dim, which is the contrast the cluster
		// warm-vs-thrash series measures.
		apps = 12 + rng.Intn(5)
	}
	machines := 2 + rng.Intn(3)
	orig := make([]float64, apps)
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
	}
	assign := make([]int, apps)
	finish := make([]float64, machines)
	for i := range assign {
		assign[i] = rng.Intn(machines)
		finish[assign[i]] += orig[i]
	}
	makespan := 0.0
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	tau := 1.2 + 0.3*rng.Float64()
	f := spec.File{
		Name:         fmt.Sprintf("gen-%d", id),
		Perturbation: spec.PerturbationSpec{Name: "C", Orig: orig, Units: "s"},
	}
	for m := 0; m < machines; m++ {
		coeffs := make([]float64, apps)
		for i, mi := range assign {
			if mi == m {
				coeffs[i] = 1
			}
		}
		max := tau * makespan
		f.Features = append(f.Features, spec.FeatureSpec{
			Name:   fmt.Sprintf("finish(m%d)", m),
			Max:    &max,
			Impact: spec.ImpactSpec{Type: "linear", Coeffs: coeffs},
		})
	}
	switch {
	case heavy > 0:
		for q := 0; q < heavy; q++ {
			max := 100 * makespan * makespan
			f.Features = append(f.Features, spec.FeatureSpec{
				Name: fmt.Sprintf("queue-%d", q),
				Max:  &max,
				Impact: spec.ImpactSpec{Type: "terms", Terms: []spec.TermSpec{
					{Kind: "power", Index: q % apps, Coeff: 1 + rng.Float64(), P: 2},
					{Kind: "power", Index: (q + 1) % apps, Coeff: 1 + rng.Float64(), P: 3},
					{Kind: "xlogx", Index: (q + 2) % apps, Coeff: 1 + rng.Float64()},
					{Kind: "exp", Index: (q + 3) % apps, Coeff: 0.1 + 0.1*rng.Float64(), P: 0.5},
				}},
			})
		}
	case id%4 == 0:
		max := 100 * makespan * makespan
		f.Features = append(f.Features, spec.FeatureSpec{
			Name: "queue",
			Max:  &max,
			Impact: spec.ImpactSpec{Type: "terms", Terms: []spec.TermSpec{
				{Kind: "power", Index: 0, Coeff: 1 + rng.Float64(), P: 2},
				{Kind: "xlogx", Index: 1 % apps, Coeff: 1 + rng.Float64()},
			}},
		})
	}
	return f
}

// printServerCache scrapes the radius-cache gauges off /metrics and
// prints the shared-cache line, best-effort (a load test against a
// remote instance may not expose it). The hit rate is hits over
// lookups.
func printServerCache(client *http.Client, base string) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	cache := make(map[string]float64, 4)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, _ := strings.Cut(sc.Text(), " ")
		switch name {
		case "fepiad_cache_hits", "fepiad_cache_misses", "fepiad_cache_entries", "fepiad_cache_capacity":
			if v, err := strconv.ParseFloat(value, 64); err == nil {
				cache[name] = v
			}
		}
	}
	if len(cache) != 4 {
		return
	}
	hits, misses := cache["fepiad_cache_hits"], cache["fepiad_cache_misses"]
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	fmt.Printf("server cache: %.0f hits / %.0f misses (%.1f%% hit rate), %.0f/%.0f entries\n",
		hits, misses, 100*rate, cache["fepiad_cache_entries"], cache["fepiad_cache_capacity"])
}
