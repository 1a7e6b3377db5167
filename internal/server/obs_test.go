package server

// End-to-end tests of the observability surfaces: the Prometheus text
// exposition on /metrics, the registry snapshot that /debug/vars,
// /v1/cluster/metrics and /v1/cluster/status all render, the
// per-endpoint latency split, and the per-stage request traces on
// /debug/traces — one span per stage, with retry-attempt counts on
// solve_feature spans when the fault harness makes the engine stumble.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fepia/internal/faults"
	"fepia/internal/obs"
)

// metricLine matches one Prometheus sample line: name, optional labels,
// a float value, and an optional OpenMetrics-style exemplar suffix
// (` # {trace_id="…"} <value>`) on histogram bucket lines.
var metricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)( # \{trace_id="[0-9a-f]{16}"\} [-+0-9.eE]+)?$`)

// scrape fetches and parses /metrics into name{labels} → value, failing
// the test on any line that is not valid text exposition.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples := make(map[string]float64)
	typed := make(map[string]bool) // families announced by a # TYPE line
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("invalid exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			switch m[3] {
			case "+Inf":
				v = math.Inf(1)
			case "-Inf":
				v = math.Inf(-1)
			default:
				v = math.NaN()
			}
		}
		samples[m[1]+m[2]] = v
		// Histogram sample names carry a _bucket/_sum/_count suffix off
		// the family's # TYPE name.
		family := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suf); ok && typed[base] {
				family = base
				break
			}
		}
		if !typed[family] {
			t.Errorf("sample %q has no preceding # TYPE line", line)
		}
	}
	return samples
}

// traces fetches and decodes /debug/traces.
func traces(t *testing.T, url string) obs.RingSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RingSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/traces is not valid JSON: %v", err)
	}
	return snap
}

// TestMetricsExpositionAgreesWithVars drives both /v1/ endpoints, then
// checks the Prometheus document parses and splits latency per
// endpoint. /debug/vars renders the same registry snapshot, which
// TestDebugVarsIsRegistrySnapshot pins.
func TestMetricsExpositionAgreesWithVars(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	batchBody := `{"systems": [` + linearSpec(0) + `,` + linearSpec(7) + `]}`
	if resp, body := postJSON(t, ts.URL+"/v1/batch", batchBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", resp.StatusCode, body)
	}

	m := scrape(t, ts.URL)
	want := map[string]float64{
		`fepiad_requests_total{endpoint="analyze"}`:            2,
		`fepiad_requests_total{endpoint="batch"}`:              1,
		`fepiad_request_duration_ms_count{endpoint="analyze"}`: 2,
		`fepiad_request_duration_ms_count{endpoint="batch"}`:   1,
		`fepiad_analyses_total`:                                4, // 2 single + 1 batch of 2
		`fepiad_errors_total{endpoint="analyze"}`:              0,
		`fepiad_in_flight`:                                     0,
		`fepiad_breaker_state{endpoint="analyze"}`:             0, // closed
	}
	for series, v := range want {
		if got, ok := m[series]; !ok || got != v {
			t.Errorf("%s = %v (present=%v), want %v", series, got, ok, v)
		}
	}
	// The +Inf bucket of a histogram equals its _count.
	if inf := m[`fepiad_request_duration_ms_bucket{endpoint="analyze",le="+Inf"}`]; inf != 2 {
		t.Errorf("analyze +Inf bucket = %v, want 2", inf)
	}
	if m[`fepiad_cache_misses`] <= 0 {
		t.Errorf("fepiad_cache_misses = %v, want > 0", m[`fepiad_cache_misses`])
	}

}

// volatileFamily reports whether a family is sampled from the clock or
// the Go runtime, so two snapshots of an idle server may differ in it.
func volatileFamily(name string) bool {
	return name == "fepiad_uptime_seconds" || strings.HasPrefix(name, "go_")
}

// TestDebugVarsIsRegistrySnapshot: on a quiescent server the "fepiad"
// key of /debug/vars is the registry snapshot /v1/cluster/metrics
// serves — equal series by series, the clock- and runtime-sampled
// gauges compared by shape only — and every family on /metrics is in
// it with the same type. The three surfaces render one snapshot, so no
// hand-kept list of shared counters is needed to keep them agreeing.
func TestDebugVarsIsRegistrySnapshot(t *testing.T) {
	s := New(quietConfig(Config{}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/analyze", linearSpec(1))
	postJSON(t, ts.URL+"/v1/analyze", linearSpec(1))
	postJSON(t, ts.URL+"/v1/analyze", `{"bad json`)
	postJSON(t, ts.URL+"/v1/batch", `{"systems": [`+linearSpec(2)+`]}`)

	vars := getVars(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var served obs.RegistrySnapshot
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []obs.RegistrySnapshot{vars, served} {
		for _, fam := range snap.Families {
			if volatileFamily(fam.Name) {
				for _, ss := range fam.Series {
					*ss.Gauge = 0
				}
			}
		}
	}
	if !reflect.DeepEqual(vars, served) {
		t.Fatalf("/debug/vars \"fepiad\" differs from /v1/cluster/metrics:\n%+v\n%+v", vars, served)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		families++
		if fam := vars.Family(f[2]); fam == nil || fam.Type != f[3] {
			t.Errorf("/metrics family %s (%s) is not in the /debug/vars snapshot: %+v", f[2], f[3], fam)
		}
	}
	if families != len(vars.Families) {
		t.Errorf("/metrics has %d families, the /debug/vars snapshot %d", families, len(vars.Families))
	}
	for _, name := range []string{"fepiad_uptime_seconds", "fepiad_breaker_window_failures",
		"fepiad_breaker_window_samples", "fepiad_breaker_window_size", "fepiad_snapshot_last_write_timestamp_seconds"} {
		if !strings.Contains(string(body), "\n"+name) {
			t.Errorf("/metrics has no %s series", name)
		}
	}
}

// TestClusterStatusPinsInstruments drives a scripted solo node — two
// analyses, one request shed by the admission gate, one malformed
// request — writes one cache snapshot, and pins every field of its
// /v1/cluster/status entry against the instruments it is derived from.
func TestClusterStatusPinsInstruments(t *testing.T) {
	s := New(quietConfig(Config{
		NodeID:           "solo",
		MaxInFlight:      1,
		SnapshotPath:     filepath.Join(t.TempDir(), "cache.snap"),
		SnapshotInterval: -1,
	}))
	entered, release := make(chan struct{}), make(chan struct{})
	s.beforeAnalyze = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	booted := time.Now()

	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(linearSpec(1)))
		if err != nil {
			held <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-entered
	if resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(2)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	close(release)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held analysis: status %d", code)
	}
	s.beforeAnalyze = nil
	if resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("second analysis: status %d (%s)", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/analyze", `{"bad json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed request: status %d, want 400", resp.StatusCode)
	}
	s.writeSnapshot(context.Background(), "test")

	resp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var doc ClusterStatus
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Self != "solo" || doc.NodesTotal != 1 || doc.NodesHealthy != 1 || len(doc.Nodes) != 1 {
		t.Fatalf("solo status document: %+v", doc)
	}
	got := doc.Nodes[0]
	if max := int64(time.Since(booted).Seconds()) + 1; got.UptimeSeconds < 0 || got.UptimeSeconds > max {
		t.Errorf("uptime_seconds = %d, want within [0, %d]", got.UptimeSeconds, max)
	}
	if age := time.Now().Unix() - int64(s.metrics.snapLastWrite.Value()); got.SnapshotAgeSeconds < 0 || got.SnapshotAgeSeconds > age {
		t.Errorf("snapshot_age_seconds = %d, want within [0, %d]", got.SnapshotAgeSeconds, age)
	}

	m := &s.metrics
	var requests, errs, slow uint64
	for _, ep := range endpoints {
		requests += m.requests[ep].Value()
		errs += m.errs[ep].Value()
		slow += m.slowReqs[ep].Value()
	}
	cs := s.cache.Stats()
	want := NodeStatus{
		Node:               "solo",
		Healthy:            true,
		Self:               true,
		UptimeSeconds:      got.UptimeSeconds,
		InFlight:           int64(m.inFlight.Value()),
		Requests:           requests,
		Analyses:           m.analyses.Value(),
		Errors:             errs,
		Rejected:           m.rejected.Value(),
		SlowRequests:       slow,
		RingShare:          1,
		Cache:              &CacheStatus{Hits: cs.Hits, Misses: cs.Misses, Size: cs.Size, Capacity: cs.Capacity, HitRate: cs.HitRate()},
		SnapshotAgeSeconds: got.SnapshotAgeSeconds,
		Breakers:           map[string]string{epAnalyze: "closed", epBatch: "closed"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("status entry differs from the instruments:\n got %+v\nwant %+v", got, want)
	}
	// The script, counted independently of the instruments: the shed 503
	// and the 400 are the two errors, and the repeated system hits every
	// radius the first analysis missed.
	if want.Requests != 4 || want.Analyses != 2 || want.Rejected != 1 || want.Errors != 2 || want.InFlight != 0 ||
		want.Cache.Hits == 0 || want.Cache.Hits != want.Cache.Misses || want.Cache.Size == 0 {
		t.Fatalf("instruments disagree with the scripted run: %+v %+v", want, *want.Cache)
	}
}

// TestTraceStages sends one traced request per endpoint and checks
// /debug/traces records it under the caller's X-Request-Id with one span
// per pipeline stage, the solve stage carrying the system's feature and
// cache counts.
func TestTraceStages(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(linearSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-e2e-1" {
		t.Errorf("X-Request-Id echoed as %q, want trace-e2e-1", got)
	}

	tr := findTrace(t, traces(t, ts.URL), "trace-e2e-1")
	if tr.Endpoint != "analyze" || tr.Status != http.StatusOK {
		t.Errorf("trace endpoint/status = %s/%d, want analyze/200", tr.Endpoint, tr.Status)
	}
	stages := spanCounts(tr)
	// linearSpec has two features, both misses on a fresh server: one
	// solve stage span counts them; the cache records no span of its own.
	for stage, n := range map[string]int{
		"parse": 1, "breaker": 1, "admit": 1, "solve": 1, "encode": 1,
		"solve_feature": 0, "cache_get": 0, "cache_put": 0,
	} {
		if stages[stage] != n {
			t.Errorf("stage %q: %d spans, want %d (have %v)", stage, stages[stage], n, stages)
		}
	}
	solve := spanByName(t, tr, "solve")
	for key, want := range map[string]string{
		"features": "2", "hits": "0", "misses": "2", "coalesced": "0", "retries": "0",
	} {
		if got := solve.Attrs[key]; got != want {
			t.Errorf("solve span %s = %q, want %q (attrs %v)", key, got, want, solve.Attrs)
		}
	}
	if name := solve.Attrs["slowest"]; name != "finish(m0)" && name != "finish(m1)" {
		t.Errorf("solve span slowest = %q, want one of the system's features", name)
	}
	if _, err := strconv.Atoi(solve.Attrs["slowest_us"]); err != nil {
		t.Errorf("solve span slowest_us = %q, want an integer", solve.Attrs["slowest_us"])
	}

	// A request without an X-Request-Id gets a generated one, also traced.
	resp2, _ := postJSON(t, ts.URL+"/v1/analyze", linearSpec(1))
	if rid := resp2.Header.Get("X-Request-Id"); rid == "" {
		t.Error("no X-Request-Id generated for untagged request")
	} else if got := traces(t, ts.URL); got.Recent[0].ID != rid {
		t.Errorf("newest trace ID = %q, want generated %q", got.Recent[0].ID, rid)
	} else if hits := spanByName(t, got.Recent[0], "solve").Attrs["hits"]; hits != "2" {
		t.Errorf("warm repeat: solve span hits = %q, want 2", hits)
	}
}

// spanCounts counts a trace's spans by name.
func spanCounts(td obs.TraceData) map[string]int {
	n := make(map[string]int)
	for _, sp := range td.Spans {
		n[sp.Name]++
	}
	return n
}

// TestTraceShapeIsPerStage pins the span shape to the pipeline's stages,
// not to the system's features: a fault-free /v1/analyze records
// exactly parse, breaker, admit, solve and encode — one span each —
// whether the system has 8 features or 32.
func TestTraceShapeIsPerStage(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(7))
	for _, features := range []int{8, 32} {
		id := fmt.Sprintf("shape-%d", features)
		body := string(mustMarshal(t, linearShapeFile(rng, id, 8, features)))
		resp, out := postWithHeaders(t, ts.URL+"/v1/analyze", body, map[string]string{"X-Request-Id": id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", id, resp.StatusCode, out)
		}
		td := findTrace(t, traces(t, ts.URL), id)
		var names []string
		for _, sp := range td.Spans {
			names = append(names, sp.Name)
		}
		if got, want := strings.Join(names, ","), "parse,breaker,admit,solve,encode"; got != want {
			t.Errorf("%d features: spans %s, want %s", features, got, want)
		}
		if td.SpansDropped != 0 {
			t.Errorf("%d features: %d spans dropped", features, td.SpansDropped)
		}
		if got := spanByName(t, td, "solve").Attrs["features"]; got != strconv.Itoa(features) {
			t.Errorf("%d features: solve span features = %q", features, got)
		}
	}
}

// TestTraceSolveRetries injects transient solve faults via an exact
// script and checks that the traced batch request records each retried
// feature in its own solve_feature span with the attempts the policy
// spent, and the total on its system's solve span. A feature that
// exhausts the policy records the error on both.
func TestTraceSolveRetries(t *testing.T) {
	inj := faults.NewScript().
		At(faults.Solve, 1, faults.KindError).
		At(faults.Solve, 3, faults.KindPanic)
	s := New(quietConfig(Config{Injector: inj, Workers: 1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"systems": [` + linearSpec(5) + `]}`
	resp, out := postJSON(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retries (%s)", resp.StatusCode, out)
	}

	snap := traces(t, ts.URL)
	if len(snap.Recent) == 0 {
		t.Fatal("no traces recorded")
	}
	td := snap.Recent[0]
	// Faults fired on solve calls 1 and 3: with one worker both features
	// retried exactly once, and both solve_feature spans must say so.
	retried := map[string]int{}
	for _, sp := range td.Spans {
		if sp.Name == "solve_feature" {
			retried[sp.Attrs["feature"]] = sp.Retries
			if sp.Error != "" {
				t.Errorf("recovered feature %s carries error %q", sp.Attrs["feature"], sp.Error)
			}
		}
	}
	if len(retried) != 2 || retried["finish(m0)"] != 1 || retried["finish(m1)"] != 1 {
		t.Errorf("solve_feature retries = %v, want finish(m0) and finish(m1) at 1 each (spans: %+v)", retried, td.Spans)
	}
	if got := spanByName(t, td, "solve").Attrs["retries"]; got != "2" {
		t.Errorf("solve span retries = %q, want 2", got)
	}
	if m := scrape(t, ts.URL); m[`fepiad_retries_total`] != 2 {
		t.Errorf("fepiad_retries_total = %v, want 2", m[`fepiad_retries_total`])
	}

	// Three straight faults exhaust the default three-attempt policy on
	// the first feature: its span records two retries and the error, and
	// the system's solve span fails with it.
	inj = faults.NewScript().
		At(faults.Solve, 1, faults.KindError).
		At(faults.Solve, 2, faults.KindError).
		At(faults.Solve, 3, faults.KindError)
	ts2 := httptest.NewServer(New(quietConfig(Config{Injector: inj, Workers: 1})).Handler())
	defer ts2.Close()
	if resp, out := postJSON(t, ts2.URL+"/v1/batch", body); resp.StatusCode == http.StatusOK {
		t.Fatalf("batch with an exhausted feature answered 200 (%s)", out)
	}
	td = traces(t, ts2.URL).Recent[0]
	if n := spanCounts(td)["solve_feature"]; n != 1 {
		t.Fatalf("%d solve_feature spans, want 1 (spans: %+v)", n, td.Spans)
	}
	failed := spanByName(t, td, "solve_feature")
	if failed.Attrs["feature"] != "finish(m0)" || failed.Retries != 2 || failed.Error == "" {
		t.Errorf("failed feature span = %+v, want finish(m0) with 2 retries and an error", failed)
	}
	if solve := spanByName(t, td, "solve"); solve.Error != failed.Error || solve.Attrs["retries"] != "2" {
		t.Errorf("solve span error %q retries %q, want %q and 2", solve.Error, solve.Attrs["retries"], failed.Error)
	}
}

// TestTraceSeededFaultsPerSystem drives a /v1/batch under a seeded
// solve:error schedule with retries on. The trace holds one solve span
// per system plus one solve_feature span per retried feature; the
// retries they record add up to the faults the injector delivered, and
// each system's solve span counts its own.
func TestTraceSeededFaultsPerSystem(t *testing.T) {
	const systems, features = 4, 8
	// Two faults cannot exhaust a three-attempt policy, so every feature
	// recovers and the batch answers 200.
	inj := faults.NewSeeded(3, faults.Config{
		Rates:     map[faults.Point]map[faults.Kind]float64{faults.Solve: {faults.KindError: 0.2}},
		MaxFaults: 2,
	})
	ts := httptest.NewServer(New(quietConfig(Config{Injector: inj, Workers: 1})).Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(11))
	docs := make([]string, systems)
	for i := range docs {
		docs[i] = string(mustMarshal(t, linearShapeFile(rng, fmt.Sprintf("seeded-%d", i), 8, features)))
	}
	resp, out := postWithHeaders(t, ts.URL+"/v1/batch", `{"systems": [`+strings.Join(docs, ",")+`]}`,
		map[string]string{"X-Request-Id": "seeded"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retries (%s)", resp.StatusCode, out)
	}
	if inj.Delivered() != 2 {
		t.Fatalf("injector delivered %d faults, want its budget of 2", inj.Delivered())
	}

	td := findTrace(t, traces(t, ts.URL), "seeded")
	var solves, perFeature []obs.SpanData
	for _, sp := range td.Spans {
		switch sp.Name {
		case "solve":
			solves = append(solves, sp)
		case "solve_feature":
			perFeature = append(perFeature, sp)
		case "cache_get", "cache_put":
			t.Errorf("fault-free cache traffic recorded a %s span", sp.Name)
		}
	}
	if len(solves) != systems {
		t.Fatalf("%d solve spans, want one per system (%d)", len(solves), systems)
	}
	total := 0
	for _, sp := range perFeature {
		if sp.Retries < 1 || sp.Error != "" {
			t.Errorf("solve_feature %+v: want ≥ 1 retry and no error", sp)
		}
		total += sp.Retries
	}
	if total != inj.Delivered() {
		t.Errorf("solve_feature spans record %d retries, want the %d faults delivered", total, inj.Delivered())
	}
	// One worker solves the systems in turn, so a solve_feature span
	// belongs to the last solve span started before it.
	inside := make([]int, systems)
	for _, sp := range perFeature {
		k := 0
		for k+1 < systems && solves[k+1].StartUS <= sp.StartUS {
			k++
		}
		inside[k] += sp.Retries
	}
	for k, sys := range solves {
		if sys.Attrs["features"] != strconv.Itoa(features) {
			t.Errorf("solve span features = %q, want %d", sys.Attrs["features"], features)
		}
		if sys.Attrs["retries"] != strconv.Itoa(inside[k]) {
			t.Errorf("solve span %d retries = %q, want the %d its solve_feature spans record", k, sys.Attrs["retries"], inside[k])
		}
	}
	if m := scrape(t, ts.URL); m[`fepiad_retries_total`] != float64(total) {
		t.Errorf("fepiad_retries_total = %v, want %d", m[`fepiad_retries_total`], total)
	}
}

// TestFaultGaugesFromSeededInjector checks a stats-keeping injector feeds
// the fepiad_faults_injected series.
func TestFaultGaugesFromSeededInjector(t *testing.T) {
	inj := faults.NewSeeded(1, faults.Config{
		Rates:     map[faults.Point]map[faults.Kind]float64{faults.Solve: {faults.KindError: 1}},
		MaxFaults: 1,
	})
	s := New(quietConfig(Config{Injector: inj}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retry (%s)", resp.StatusCode, body)
	}
	m := scrape(t, ts.URL)
	if got := m[`fepiad_faults_injected{kind="error",point="solve"}`]; got != 1 {
		t.Errorf(`fepiad_faults_injected{kind="error",point="solve"} = %v, want 1`, got)
	}
}

// TestCacheFootprintGauges: after linear and convex traffic the radius
// cache holds entries, and the retained-bytes gauge reads the cache's
// own count on /metrics and in the /debug/vars snapshot.
func TestCacheFootprintGauges(t *testing.T) {
	s := New(quietConfig(Config{}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, doc := range []string{linearSpec(0), webFarm} {
		if resp, body := postJSON(t, ts.URL+"/v1/analyze", doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d (%s)", resp.StatusCode, body)
		}
	}
	batchBody := `{"systems": [` + linearSpec(3) + `,` + webFarm + `]}`
	if resp, body := postJSON(t, ts.URL+"/v1/batch", batchBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", resp.StatusCode, body)
	}

	st := s.CacheStats()
	if st.Size == 0 || st.RetainedBytes <= 0 {
		t.Fatalf("cache after linear and convex traffic: %d entries, %d B retained; want entries and > 0 B",
			st.Size, st.RetainedBytes)
	}
	const name = "fepiad_cache_retained_bytes"
	want := float64(st.RetainedBytes)
	if got := scrape(t, ts.URL)[name]; got != want {
		t.Errorf("/metrics %s = %v, want %v", name, got, want)
	}
	if got := getVars(t, ts.URL).Sum(name); got != want {
		t.Errorf("/debug/vars %s = %v, want %v", name, got, want)
	}
}
