package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fepia/internal/faults"
	"fepia/internal/obs"
	"fepia/internal/spec"
)

// gatedInjector wraps an injector behind an on/off switch so a test can
// warm the server's radius cache fault-free, then turn the weather bad.
type gatedInjector struct {
	enabled atomic.Bool
	inner   faults.Injector
}

func (g *gatedInjector) Inject(ctx context.Context, p faults.Point) error {
	if !g.enabled.Load() {
		return nil
	}
	return g.inner.Inject(ctx, p)
}

// engineKiller returns an injector that fails every cache_get — the first
// engine touch of each feature solve — so analyses fail while the cache
// content itself stays intact for degraded serving.
func engineKiller() *gatedInjector {
	return &gatedInjector{inner: faults.NewSeeded(1, faults.Config{
		Rates: map[faults.Point]map[faults.Kind]float64{
			faults.CacheGet: {faults.KindError: 1.0},
		},
	})}
}

// swapInjector delegates to whatever injector is currently installed;
// nil means healthy. Tests use it to change the weather between phases
// of one breaker story.
type swapInjector struct {
	mu    sync.Mutex
	inner faults.Injector
}

func (s *swapInjector) set(inj faults.Injector) {
	s.mu.Lock()
	s.inner = inj
	s.mu.Unlock()
}

func (s *swapInjector) Inject(ctx context.Context, p faults.Point) error {
	s.mu.Lock()
	inner := s.inner
	s.mu.Unlock()
	if inner == nil {
		return nil
	}
	return inner.Inject(ctx, p)
}

// tripAnalyzeBreaker drives two engine failures through /v1/analyze so a
// window-2 breaker opens.
func tripAnalyzeBreaker(t *testing.T, url string, sw *swapInjector) {
	t.Helper()
	kill := engineKiller()
	kill.enabled.Store(true)
	sw.set(kill)
	postJSON(t, url+"/v1/analyze", webFarm)
	postJSON(t, url+"/v1/analyze", webFarm)
	if state := breakerStateVar(t, getVars(t, url), epAnalyze); state != "open" {
		t.Fatalf("breaker state = %q after a full failing window, want open", state)
	}
}

// rawVars fetches /debug/vars and splits it into its keys.
func rawVars(t *testing.T, base string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	return vars
}

// getVars decodes the "fepiad" key of /debug/vars, the registry
// snapshot, failing the test when it is missing.
func getVars(t *testing.T, base string) obs.RegistrySnapshot {
	t.Helper()
	vars := rawVars(t, base)
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(vars["fepiad"], &snap); err != nil || len(snap.Families) == 0 {
		t.Fatalf("/debug/vars \"fepiad\" is not a registry snapshot (%v): %s", err, vars["fepiad"])
	}
	return snap
}

// breakerStateVar names an endpoint breaker's state from the snapshot's
// fepiad_breaker_state gauge.
func breakerStateVar(t *testing.T, vars obs.RegistrySnapshot, ep string) string {
	t.Helper()
	if vars.Family("fepiad_breaker_state") == nil {
		t.Fatal("fepiad_breaker_state missing from /debug/vars")
	}
	return breakerStateName(vars.Sum("fepiad_breaker_state", obs.L("endpoint", ep)))
}

// TestChaosDegradedServingAndBreakerOpen drives the full degraded-mode
// story on /v1/analyze: a healthy warm-up, an engine failure answered
// byte-identically from the cache with the degraded marker, the breaker
// tripping into open — observable on /debug/vars — and, while open, a
// cache-missing document shedding with 503 "circuit_open" + Retry-After.
func TestChaosDegradedServingAndBreakerOpen(t *testing.T) {
	inj := engineKiller()
	s := New(quietConfig(Config{
		RetryMax:        -1, // injected faults fire on every attempt; retrying is noise here
		BreakerWindow:   2,
		BreakerCooldown: time.Hour, // no recovery inside this test
		Degraded:        true,
		Injector:        inj,
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Healthy warm-up fills the radius cache and records the baseline.
	// The document is all-linear: affine impacts are value-keyed in the
	// radius cache, so a later request parsing the same JSON reaches the
	// same entries. (Terms impacts are keyed by their fingerprint and
	// would serve degraded across requests too; an impact with no
	// content identity is never cached, so it cannot.)
	doc := linearSpec(1)
	resp, baselineBody := postJSON(t, ts.URL+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("warm-up: status %d, Warning %q", resp.StatusCode, resp.Header.Get("Warning"))
	}
	var baseline spec.ResultJSON
	if err := json.Unmarshal(baselineBody, &baseline); err != nil {
		t.Fatal(err)
	}
	baseline.Meta = nil

	inj.enabled.Store(true)

	// Two engine failures: both answered degraded from the cache, and with
	// window 2 the second one trips the breaker.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if w := resp.Header.Get("Warning"); w == "" {
			t.Fatalf("degraded request %d: no Warning header", i)
		}
		var got spec.ResultJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Meta == nil || !got.Meta.Degraded {
			t.Fatalf("degraded request %d: meta.degraded missing: %s", i, body)
		}
		if got.Meta.Cache != spec.CacheHit {
			t.Fatalf("degraded request %d: meta.cache = %q, want %q", i, got.Meta.Cache, spec.CacheHit)
		}
		if hasTopLevelKey(t, body, "degraded") {
			t.Fatalf("degraded request %d: top-level \"degraded\" key emitted; the marker lives in meta: %s", i, body)
		}
		// Byte-identical modulo the meta block: clearing it must reproduce
		// the fault-free document exactly.
		got.Meta = nil
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("degraded result differs from fault-free baseline:\n got %+v\nwant %+v", got, baseline)
		}
	}

	vars := getVars(t, ts.URL)
	if state := breakerStateVar(t, vars, epAnalyze); state != "open" {
		t.Fatalf("breaker state = %q after a full failing window, want open", state)
	}
	// The endpoints keep separate breakers: analyze failures never trip
	// batch's.
	if state := breakerStateVar(t, vars, epBatch); state != "closed" {
		t.Fatalf("batch breaker state = %q after analyze failures, want closed", state)
	}
	if got := vars.Sum("fepiad_degraded_total"); got != 2 {
		t.Fatalf("fepiad_degraded_total = %v, want 2", got)
	}

	// Open breaker, cached document: still served degraded — the engine is
	// never touched (the injector would fail it anyway).
	resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") == "" {
		t.Fatalf("open-breaker cached request: status %d: %s", resp.StatusCode, body)
	}

	// Open breaker, never-seen document: true cache miss → 503 with the
	// circuit_open kind and a Retry-After hint.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", linearSpec(99))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker cache miss: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if e := decodeError(t, body); e.Kind != "circuit_open" {
		t.Fatalf("error kind = %q, want circuit_open", e.Kind)
	}
}

// TestChaosBreakerRecovers closes the loop: after the cooldown a healthy
// probe flips the breaker half-open → closed, visible on /debug/vars.
func TestChaosBreakerRecovers(t *testing.T) {
	inj := engineKiller()
	s := New(quietConfig(Config{
		RetryMax:        -1,
		BreakerWindow:   2,
		BreakerCooldown: 50 * time.Millisecond,
		Degraded:        true,
		Injector:        inj,
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/analyze", webFarm) // warm
	inj.enabled.Store(true)
	postJSON(t, ts.URL+"/v1/analyze", webFarm)
	postJSON(t, ts.URL+"/v1/analyze", webFarm) // trips (window 2)
	if state := breakerStateVar(t, getVars(t, ts.URL), epAnalyze); state != "open" {
		t.Fatalf("breaker state = %q, want open", state)
	}

	// Engine heals; after the cooldown the next request is the half-open
	// probe, succeeds, and closes the breaker.
	inj.enabled.Store(false)
	time.Sleep(80 * time.Millisecond)
	resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("probe after cooldown: status %d, Warning %q: %s", resp.StatusCode, resp.Header.Get("Warning"), body)
	}
	vars := getVars(t, ts.URL)
	if state := breakerStateVar(t, vars, epAnalyze); state != "closed" {
		t.Fatalf("breaker state = %q after healthy probe, want closed", state)
	}
	if opens := vars.Sum("fepiad_breaker_opens", obs.L("endpoint", epAnalyze)); opens != 1 {
		t.Fatalf("opens = %v, want exactly 1 trip", opens)
	}
}

// TestChaosTransientSolveRetried: with the default retry policy a
// transient injected solve fault is retried away — the response is
// byte-identical to the fault-free one and the retry shows on
// /debug/vars.
func TestChaosTransientSolveRetried(t *testing.T) {
	script := faults.NewScript().At(faults.Solve, 1, faults.KindError)
	s := New(quietConfig(Config{Injector: script})) // default RetryMax = 3
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Warning") != "" {
		t.Fatal("retried request must not be marked degraded")
	}
	var got spec.ResultJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	got.Meta = nil
	want := libraryResult(t, webFarm)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retried result differs from library path:\n got %+v\nwant %+v", got, want)
	}
	if retries := getVars(t, ts.URL).Sum("fepiad_retries_total"); retries < 1 {
		t.Fatalf("fepiad_retries_total = %v, want ≥ 1", retries)
	}
}

// TestChaosAdmissionFaultSheds: an injected admission fault sheds the
// request exactly like saturation — 503, "overloaded", Retry-After — and
// the next request is unaffected.
func TestChaosAdmissionFaultSheds(t *testing.T) {
	script := faults.NewScript().At(faults.Admission, 1, faults.KindError)
	s := New(quietConfig(Config{Injector: script}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if e := decodeError(t, body); e.Kind != "overloaded" {
		t.Fatalf("error kind = %q, want overloaded", e.Kind)
	}
	resp, body = postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after admission fault: status %d: %s", resp.StatusCode, body)
	}
}

// TestChaosProbeShedAtAdmissionDoesNotWedgeBreaker: a half-open probe
// shed before it reaches the engine (here by an injected admission
// fault) must return its probe slot; otherwise the breaker would reject
// every future request with no path back to closed short of a restart.
func TestChaosProbeShedAtAdmissionDoesNotWedgeBreaker(t *testing.T) {
	sw := &swapInjector{}
	s := New(quietConfig(Config{
		RetryMax:        -1,
		BreakerWindow:   2,
		BreakerCooldown: 50 * time.Millisecond,
		Injector:        sw,
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tripAnalyzeBreaker(t, ts.URL, sw)

	// Cooldown elapses; the next request becomes the half-open probe but
	// is shed at admission before touching the engine.
	time.Sleep(80 * time.Millisecond)
	sw.set(faults.NewScript().At(faults.Admission, 1, faults.KindError))
	resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed probe: status %d, want 503: %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "overloaded" {
		t.Fatalf("shed probe: kind %q, want overloaded", e.Kind)
	}

	// The slot came back: the engine is healthy again, so the very next
	// request is admitted as a fresh probe and closes the breaker.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after shed probe: status %d (breaker wedged half-open): %s", resp.StatusCode, body)
	}
	if state := breakerStateVar(t, getVars(t, ts.URL), epAnalyze); state != "closed" {
		t.Fatalf("breaker state = %q after healthy probe, want closed", state)
	}
}

// TestChaosCancelledProbeDoesNotCloseBreaker: a probe whose solve is
// cancelled client-side yields no engine verdict — the breaker must stay
// half-open (slot released, outcome uncounted) rather than close on
// fabricated success, and the next healthy probe closes it for real.
func TestChaosCancelledProbeDoesNotCloseBreaker(t *testing.T) {
	sw := &swapInjector{}
	s := New(quietConfig(Config{
		RetryMax:        -1,
		BreakerWindow:   2,
		BreakerCooldown: 50 * time.Millisecond,
		Injector:        sw,
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tripAnalyzeBreaker(t, ts.URL, sw)

	// Cooldown elapses; the probe's solve is cancelled (the injected
	// cancel fault wraps context.Canceled, exactly like a client gone
	// away mid-solve).
	time.Sleep(80 * time.Millisecond)
	sw.set(faults.NewScript().At(faults.Solve, 1, faults.KindCancel))
	resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cancelled probe: status %d, want 503: %s", resp.StatusCode, body)
	}
	if state := breakerStateVar(t, getVars(t, ts.URL), epAnalyze); state != "half_open" {
		t.Fatalf("breaker state = %q after cancelled probe, want half_open (no fabricated success)", state)
	}

	// Only a real engine success closes it.
	sw.set(nil)
	resp, body = postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy probe: status %d: %s", resp.StatusCode, body)
	}
	if state := breakerStateVar(t, getVars(t, ts.URL), epAnalyze); state != "closed" {
		t.Fatalf("breaker state = %q after healthy probe, want closed", state)
	}
}

// TestChaosBatchDegraded: the same degraded contract on /v1/batch — a
// warm cache answers a failing batch with per-result degraded markers, in
// request order, byte-identical modulo the markers.
func TestChaosBatchDegraded(t *testing.T) {
	inj := engineKiller()
	s := New(quietConfig(Config{
		RetryMax: -1,
		Degraded: true,
		Injector: inj,
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batchBody := `{"systems": [` + linearSpec(1) + `,` + linearSpec(2) + `]}`
	resp, baselineBody := postJSON(t, ts.URL+"/v1/batch", batchBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, baselineBody)
	}
	var baseline spec.BatchResponse
	if err := json.Unmarshal(baselineBody, &baseline); err != nil {
		t.Fatal(err)
	}
	baseline.Meta = nil
	for i := range baseline.Results {
		baseline.Results[i].Meta = nil
	}

	inj.enabled.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/batch", batchBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") == "" {
		t.Fatalf("degraded batch: status %d, Warning %q: %s", resp.StatusCode, resp.Header.Get("Warning"), body)
	}
	var got spec.BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(baseline.Results) {
		t.Fatalf("%d results, want %d", len(got.Results), len(baseline.Results))
	}
	if got.Meta == nil || !got.Meta.Degraded || got.Meta.Cache != spec.CacheHit {
		t.Fatalf("degraded batch top-level meta = %+v, want degraded with cache %q", got.Meta, spec.CacheHit)
	}
	got.Meta = nil
	var raw struct{ Results []json.RawMessage }
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for i := range got.Results {
		if got.Results[i].Meta == nil || !got.Results[i].Meta.Degraded {
			t.Fatalf("results[%d] missing meta.degraded marker", i)
		}
		if hasTopLevelKey(t, raw.Results[i], "degraded") {
			t.Fatalf("results[%d] emitted a top-level \"degraded\" key; the marker lives in meta: %s", i, raw.Results[i])
		}
		got.Results[i].Meta = nil
	}
	if !reflect.DeepEqual(got, baseline) {
		t.Fatalf("degraded batch differs from baseline:\n got %+v\nwant %+v", got, baseline)
	}

	// A batch containing an uncached system cannot be assembled: 503 with
	// the degraded kind (batch breaker still closed at window default 20).
	resp, body = postJSON(t, ts.URL+"/v1/batch", `{"systems": [`+linearSpec(1)+`,`+linearSpec(42)+`]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("partial-cache batch: status %d: %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "degraded" {
		t.Fatalf("error kind = %q, want degraded", e.Kind)
	}
}

// hasTopLevelKey reports whether the JSON object doc has the member key.
func hasTopLevelKey(t *testing.T, doc []byte, key string) bool {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(doc, &obj); err != nil {
		t.Fatalf("not a JSON object: %v (%s)", err, doc)
	}
	_, ok := obj[key]
	return ok
}
