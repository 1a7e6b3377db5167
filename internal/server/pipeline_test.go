package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fepia/internal/faults"
	"fepia/internal/spec"
)

// oneShapeServer is a test server whose weather (injector) and
// pre-analysis stall are switchable between requests.
type oneShapeServer struct {
	url   string
	inj   *swapInjector
	stall atomic.Bool
}

func newOneShapeServer(t *testing.T, cfg Config) *oneShapeServer {
	t.Helper()
	o := &oneShapeServer{inj: &swapInjector{}}
	cfg.Injector = o.inj
	s := New(quietConfig(cfg))
	s.beforeAnalyze = func() {
		if o.stall.Load() {
			time.Sleep(cfg.Timeout + 50*time.Millisecond) // burn the whole deadline
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	o.url = ts.URL
	return o
}

// batchOfOne posts doc as a one-system /v1/batch and returns the status,
// the Warning header, and the indented encoding of results[0] — what a
// single /v1/analyze must answer byte for byte.
func batchOfOne(t *testing.T, url, doc string) (int, string, []byte) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/batch", `{"systems": [`+doc+`]}`)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, resp.Header.Get("Warning"), body
	}
	var br spec.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch answer not JSON: %v (%s)", err, body)
	}
	if len(br.Results) != 1 {
		t.Fatalf("batch of one answered %d results", len(br.Results))
	}
	want, err := spec.AppendJSON(nil, br.Results[0], true)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Warning"), want
}

// TestAnalyzeIsBatchOfOne pins /v1/analyze to the batch path: two fresh
// servers driven through the same story — cold solve, warm hit, anytime
// partial, degraded answer from the cache — answer each /v1/analyze with
// exactly the indented bytes of the matching one-system batch's
// results[0]. Error bodies differ on purpose: a single analyze reports
// the engine error without the batch's systems[i] (name) prefix.
func TestAnalyzeIsBatchOfOne(t *testing.T) {
	cfg := Config{RetryMax: -1, Degraded: true, Timeout: 200 * time.Millisecond}
	single, batched := newOneShapeServer(t, cfg), newOneShapeServer(t, cfg)
	doc := linearSpec(3)
	partial := `{"anytime": true,` + anytimeSpec[1:]

	for _, step := range []struct {
		name     string
		doc      string
		cache    string
		stall    bool
		kill     bool
		anytime  bool
		degraded bool
	}{
		{name: "cold", doc: doc, cache: spec.CacheMiss},
		{name: "warm", doc: doc, cache: spec.CacheHit},
		{name: "anytime partial", doc: partial, cache: spec.CacheMiss, stall: true, anytime: true},
		{name: "degraded", doc: doc, cache: spec.CacheHit, kill: true, degraded: true},
	} {
		for _, o := range []*oneShapeServer{single, batched} {
			o.stall.Store(step.stall)
			if step.kill {
				kill := engineKiller()
				kill.enabled.Store(true)
				o.inj.set(kill)
			}
		}
		resp, got := postJSON(t, single.url+"/v1/analyze", step.doc)
		status, warning, want := batchOfOne(t, batched.url, step.doc)
		if resp.StatusCode != http.StatusOK || status != http.StatusOK {
			t.Fatalf("%s: analyze %d, batch %d: %s", step.name, resp.StatusCode, status, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: /v1/analyze differs from results[0] of a batch of one:\n got %s\nwant %s", step.name, got, want)
		}
		if w := resp.Header.Get("Warning"); w != warning {
			t.Fatalf("%s: Warning %q, batch of one %q", step.name, w, warning)
		}
		var res spec.ResultJSON
		if err := json.Unmarshal(got, &res); err != nil {
			t.Fatal(err)
		}
		if m := res.Meta; m == nil || m.Cache != step.cache || m.Anytime != step.anytime || m.Degraded != step.degraded {
			t.Fatalf("%s: meta %+v, want cache %q anytime %v degraded %v", step.name, res.Meta,
				step.cache, step.anytime, step.degraded)
		}
	}

	// Error bodies: a single analyze names no systems[0] slot.
	unsupported := `{"name": "l1", "perturbation": {"orig": [2, 2]}, "norm": "l1", "features": [
	  {"max": 100, "impact": {"type": "terms", "terms": [{"kind": "power", "index": 0, "coeff": 1, "p": 2}]}}]}`
	for _, tc := range []struct {
		name, doc  string
		panic      bool
		status     int
		analyze    string
		batchOfOne string
	}{
		{
			name: "unsupported norm", doc: unsupported, status: http.StatusBadRequest,
			analyze: `{"error":"core: feature \"phi_1\" at beta-max: core: non-ℓ₂ norms are only supported for linear impact functions",` +
				`"kind":"unsupported"}` + "\n",
			batchOfOne: `{"error":"systems[0] (l1): core: feature \"phi_1\" at beta-max: core: non-ℓ₂ norms are only supported ` +
				`for linear impact functions","kind":"unsupported"}` + "\n",
		},
		{
			name: "injected solver failure", doc: doc, panic: true, status: http.StatusInternalServerError,
			analyze: `{"error":"core: feature \"finish(m0)\" at beta-max: panic during radius solve: ` +
				`faults: injected panic at solve (call 1)","kind":"solver_failure"}` + "\n",
			batchOfOne: `{"error":"systems[0] (sys-3): core: feature \"finish(m0)\" at beta-max: panic during radius solve: ` +
				`faults: injected panic at solve (call 1)","kind":"solver_failure"}` + "\n",
		},
	} {
		for _, path := range []string{"/v1/analyze", "/v1/batch"} {
			o := newOneShapeServer(t, Config{RetryMax: -1})
			if tc.panic {
				o.inj.set(faults.NewScript().At(faults.Solve, 1, faults.KindPanic))
			}
			body, want := tc.doc, tc.analyze
			if path == "/v1/batch" {
				body, want = `{"systems": [`+tc.doc+`]}`, tc.batchOfOne
			}
			resp, got := postJSON(t, o.url+path, body)
			if resp.StatusCode != tc.status || string(got) != want {
				t.Fatalf("%s on %s: status %d, body\n %s\nwant %d\n %s", tc.name, path, resp.StatusCode, got, tc.status, want)
			}
		}
	}
}
