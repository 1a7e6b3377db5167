package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fepia/internal/core"
	"fepia/internal/spec"
)

// webFarm is the reference round-trip document of docs/SERVICE.md.
const webFarm = `{
  "name": "web farm",
  "perturbation": {"name": "λ", "orig": [300, 200], "units": "req/s"},
  "features": [
    {"name": "load(edge)", "max": 1100,
     "impact": {"type": "linear", "coeffs": [1, 1], "offset": 0}},
    {"name": "work(db)", "max": 250000,
     "impact": {"type": "terms", "terms": [
       {"kind": "power", "index": 0, "coeff": 1.5, "p": 2},
       {"kind": "xlogx", "index": 1, "coeff": 40}
     ]}}
  ]
}`

// linearSpec builds a small all-linear system document whose coefficients
// depend on k, so distinct k give distinct cache subproblems and repeated
// k hit the shared cache.
func linearSpec(k int) string {
	return fmt.Sprintf(`{
	  "name": "sys-%d",
	  "perturbation": {"name": "C", "orig": [6, 4, 8], "units": "s"},
	  "features": [
	    {"name": "finish(m0)", "max": %d, "impact": {"type": "linear", "coeffs": [1, 1, 0]}},
	    {"name": "finish(m1)", "max": %d, "impact": {"type": "linear", "coeffs": [0, 0, 1]}}
	  ]
	}`, k, 13+k%5, 13+k%3)
}

// quietConfig silences server logs during tests.
func quietConfig(c Config) Config {
	c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return c
}

// libraryResult computes the in-process (facade-path) result document for
// one spec source.
func libraryResult(t *testing.T, doc string) spec.ResultJSON {
	t.Helper()
	sys, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(sys.Features, sys.Perturbation, sys.Options)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Encode(sys.Name, a)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// decodeError decodes an ErrorJSON envelope.
func decodeError(t *testing.T, data []byte) spec.ErrorJSON {
	t.Helper()
	var e spec.ErrorJSON
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error envelope not JSON: %v (%s)", err, data)
	}
	return e
}

// TestAnalyzeRoundTrip proves a served analysis is DeepEqual — and, after
// re-marshalling, byte-identical — to the in-process library result,
// modulo the ResponseMeta block only fepiad emits.
func TestAnalyzeRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var served spec.ResultJSON
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("response not a ResultJSON: %v", err)
	}
	if served.Meta == nil {
		t.Fatal("served result carries no meta block")
	}
	if served.Meta.Cache != spec.CacheMiss {
		t.Fatalf("cold analyze meta.cache = %q, want %q", served.Meta.Cache, spec.CacheMiss)
	}
	if served.Meta.Forwarded || served.Meta.Degraded {
		t.Fatalf("solo serve stamped cluster markers: %+v", served.Meta)
	}
	served.Meta = nil
	want := libraryResult(t, webFarm)
	if !reflect.DeepEqual(served, want) {
		t.Fatalf("served result differs from library path:\n got %+v\nwant %+v", served, want)
	}
	gotB, _ := json.Marshal(served)
	wantB, _ := json.Marshal(want)
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("served document not byte-identical:\n got %s\nwant %s", gotB, wantB)
	}
}

// TestBatchConcurrentSharedCache hammers /v1/batch from several goroutines
// with overlapping systems and checks every result equals the library
// path byte-for-byte while the process-wide cache collects hits.
func TestBatchConcurrentSharedCache(t *testing.T) {
	s := New(quietConfig(Config{Workers: 4}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 6 distinct systems, each appearing in several requests.
	want := make([][]byte, 6)
	for k := range want {
		b, err := json.Marshal(libraryResult(t, linearSpec(k)))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = b
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var docs []string
			for i := 0; i < 10; i++ {
				docs = append(docs, linearSpec((c+i)%len(want)))
			}
			body := `{"systems": [` + strings.Join(docs, ",") + `]}`
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, data)
				return
			}
			var br spec.BatchResponse
			if err := json.Unmarshal(data, &br); err != nil {
				errs <- fmt.Errorf("client %d: %v", c, err)
				return
			}
			if len(br.Results) != 10 {
				errs <- fmt.Errorf("client %d: %d results, want 10", c, len(br.Results))
				return
			}
			for i, r := range br.Results {
				if r.Meta == nil || r.Meta.Cache == "" {
					errs <- fmt.Errorf("client %d result %d: missing meta/cache provenance: %+v", c, i, r.Meta)
					return
				}
				r.Meta = nil
				got, _ := json.Marshal(r)
				if !bytes.Equal(got, want[(c+i)%len(want)]) {
					errs <- fmt.Errorf("client %d result %d:\n got %s\nwant %s", c, i, got, want[(c+i)%len(want)])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cs := s.CacheStats(); cs.Hits == 0 {
		t.Errorf("shared cache collected no hits across %d overlapping batches: %+v", clients, cs)
	}
}

// TestMalformedSpec400 maps every client mistake to 400 with the typed
// error envelope and the offending JSON field path.
func TestMalformedSpec400(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	cases := []struct {
		name, endpoint, body, wantPath string
	}{
		{"malformed JSON", "/v1/analyze", `{`, ""},
		{"no features", "/v1/analyze", `{"perturbation":{"orig":[1]}}`, "features"},
		{"unknown norm", "/v1/analyze", `{"perturbation":{"orig":[1]},"norm":"l7","features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`, "norm"},
		{"bad coeffs", "/v1/analyze", `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1,2]}}]}`, "features[0].impact.coeffs"},
		{"empty batch", "/v1/batch", `{"systems":[]}`, "systems"},
		{"bad batch entry", "/v1/batch", `{"systems":[` + linearSpec(0) + `,{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"magic"}}]}]}`, "systems[1].features[0].impact.type"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.endpoint, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		e := decodeError(t, body)
		if e.Kind != "invalid_spec" {
			t.Errorf("%s: kind %q, want invalid_spec", tc.name, e.Kind)
		}
		if e.Path != tc.wantPath {
			t.Errorf("%s: path %q, want %q", tc.name, e.Path, tc.wantPath)
		}
	}
}

// TestUnsupportedNorm400 maps the engine's ErrNormUnsupported (a client
// request for an unsupported combination) to 400, not 500.
func TestUnsupportedNorm400(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	doc := `{"perturbation":{"orig":[2,2]},"norm":"l1","features":[
	  {"max":100,"impact":{"type":"terms","terms":[{"kind":"power","index":0,"coeff":1,"p":2}]}}]}`
	resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "unsupported" {
		t.Fatalf("kind %q, want unsupported (%s)", e.Kind, body)
	}
}

// TestDeadlineExceeded504 proves the per-request deadline cancels the
// analysis through its context.
func TestDeadlineExceeded504(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{Timeout: time.Nanosecond})).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "timeout" {
		t.Fatalf("kind %q, want timeout", e.Kind)
	}
}

// TestSaturation503 fills the admission gate and checks excess requests
// are shed immediately with Retry-After while the admitted one completes.
func TestSaturation503(t *testing.T) {
	s := New(quietConfig(Config{MaxInFlight: 1, RetryAfter: 3 * time.Second}))
	entered := make(chan struct{})
	release := make(chan struct{})
	s.beforeAnalyze = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(linearSpec(1)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("first request: status %d", resp.StatusCode)
			}
		}
		first <- err
	}()
	<-entered // the only slot is now held

	resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "overloaded" {
		t.Errorf("kind %q, want overloaded", e.Kind)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if s.metrics.rejected.Value() == 0 {
		t.Error("rejected counter did not move")
	}
}

// TestGracefulShutdownDrain sends a shutdown while a request is in flight
// and checks the request still completes (drained, not killed) and the
// listener stops accepting new work.
func TestGracefulShutdownDrain(t *testing.T) {
	s := New(quietConfig(Config{DrainTimeout: 5 * time.Second}))
	entered := make(chan struct{})
	release := make(chan struct{})
	s.beforeAnalyze = func() {
		entered <- struct{}{}
		<-release
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, l) }()
	url := "http://" + l.Addr().String()

	inFlight := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(linearSpec(3)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			}
		}
		inFlight <- err
	}()
	<-entered

	stop() // SIGTERM
	time.Sleep(50 * time.Millisecond)
	close(release)

	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request was not drained: %v", err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestDrainTimeoutCancelsAnalyses exhausts the drain budget and checks the
// stuck in-flight analysis is force-cancelled through its context.
func TestDrainTimeoutCancelsAnalyses(t *testing.T) {
	s := New(quietConfig(Config{DrainTimeout: 50 * time.Millisecond}))
	entered := make(chan struct{})
	release := make(chan struct{})
	s.beforeAnalyze = func() {
		entered <- struct{}{}
		<-release
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, l) }()
	url := "http://" + l.Addr().String()

	clientDone := make(chan struct{})
	go func() {
		resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(linearSpec(4)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		close(clientDone)
	}()
	<-entered

	stop()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Run returned %v, want drain-deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not give up after the drain budget")
	}

	// The handler is still parked in the test hook; once released, its
	// analysis must observe the cancelled base context immediately.
	close(release)
	<-clientDone
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.reg.Snapshot().Sum("fepiad_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight analysis was never cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealthzAndVars exercises the operational endpoints.
func TestHealthzAndVars(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		InFlight int    `json:"in_flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/analyze", webFarm); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, body)
	}
	// A second, cache-hitting analysis so the cache counters move.
	postJSON(t, ts.URL+"/v1/analyze", webFarm)

	vars := getVars(t, ts.URL)
	if got := vars.Sum("fepiad_requests_total"); got < 2 {
		t.Errorf("fepiad_requests_total = %v, want ≥ 2", got)
	}
	if got := vars.Sum("fepiad_analyses_total"); got < 2 {
		t.Errorf("fepiad_analyses_total = %v, want ≥ 2", got)
	}
	if vars.Sum("fepiad_cache_hits") == 0 {
		t.Error("fepiad_cache_hits is 0 after a repeated analysis")
	}
	var observed uint64
	for _, ss := range vars.Family("fepiad_request_duration_ms").Series {
		observed += ss.Hist.Count
	}
	if observed < 2 {
		t.Errorf("fepiad_request_duration_ms holds %d observations, want ≥ 2", observed)
	}
	if _, ok := rawVars(t, ts.URL)["memstats"]; !ok {
		t.Error("global expvar variables (memstats) not re-exported")
	}
	// Resilience counters are always present (zero on a healthy run) so
	// dashboards can rely on them.
	for _, name := range []string{"fepiad_retries_total", "fepiad_degraded_total"} {
		if vars.Family(name) == nil {
			t.Errorf("%s missing from /debug/vars", name)
		} else if got := vars.Sum(name); got != 0 {
			t.Errorf("%s = %v on a healthy run, want 0", name, got)
		}
	}
	for _, ep := range []string{epAnalyze, epBatch} {
		if state := breakerStateVar(t, vars, ep); state != "closed" {
			t.Errorf("%s breaker state = %v on a healthy run, want closed", ep, state)
		}
	}
}

// TestBodyLimit rejects oversized bodies before parsing.
func TestBodyLimit(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{MaxBodyBytes: 64})).Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestMethodNotAllowed: the v1 routes only accept POST.
func TestMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}
}
