package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fepia/internal/spec"
)

// anytimeSpec is a convex system whose numeric feature cannot converge
// once the deadline is gone — the shape that turns into a certified
// partial answer instead of a 504.
const anytimeSpec = `{
  "name": "anytime",
  "perturbation": {"name": "λ", "orig": [300, 200], "units": "req/s"},
  "features": [
    {"name": "work(db)", "max": 250000,
     "impact": {"type": "terms", "terms": [
       {"kind": "power", "index": 0, "coeff": 1.5, "p": 2},
       {"kind": "xlogx", "index": 1, "coeff": 40}
     ]}}
  ]
}`

// requirePartial decodes a served result and asserts the anytime partial
// shape: meta.anytime set, at least one radius with "bound": "lower".
func requirePartial(t *testing.T, body []byte) spec.ResultJSON {
	t.Helper()
	var res spec.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("result not JSON: %v (%s)", err, body)
	}
	if res.Meta == nil || !res.Meta.Anytime {
		t.Fatalf("meta.anytime not set on a partial answer: %s", body)
	}
	lower := false
	for _, r := range res.Radii {
		if r.Kind == "lower" {
			lower = true
		}
	}
	if !lower {
		t.Fatalf("no \"bound\": \"lower\" radius in partial answer: %s", body)
	}
	return res
}

// With -anytime, a deadline expiry is a 200 carrying the best certified
// lower bound, not a 504 — and the partial is visible on the counters.
func TestAnytimeDeadlineServes200(t *testing.T) {
	s := New(quietConfig(Config{Timeout: 30 * time.Millisecond, Anytime: true}))
	s.beforeAnalyze = func() { time.Sleep(60 * time.Millisecond) } // burn the whole deadline
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", anytimeSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", resp.StatusCode, body)
	}
	requirePartial(t, body)

	if n := getVars(t, ts.URL).Sum("fepiad_anytime_partial_total"); n != 1 {
		t.Fatalf("fepiad_anytime_partial_total = %v, want 1", n)
	}
}

// The per-request opt-in: a spec with "anytime": true gets the partial
// contract on a server that never enabled -anytime.
func TestAnytimePerRequestOptIn(t *testing.T) {
	s := New(quietConfig(Config{Timeout: 30 * time.Millisecond}))
	s.beforeAnalyze = func() { time.Sleep(60 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := `{"anytime": true,` + anytimeSpec[1:]
	resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", resp.StatusCode, body)
	}
	requirePartial(t, body)

	// The same server without the field keeps the strict 504 contract.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", anytimeSpec)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("non-anytime request: status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "timeout" {
		t.Fatalf("kind %q, want timeout", e.Kind)
	}
}

// Batch serving: a deadline expiry mid-batch yields partials for the
// affected systems and sets the top-level meta.anytime fold — while the
// exact systems in the same batch stay exact.
func TestAnytimeBatchPartial(t *testing.T) {
	s := New(quietConfig(Config{Timeout: 30 * time.Millisecond, Anytime: true}))
	s.beforeAnalyze = func() { time.Sleep(60 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"systems": [` + anytimeSpec + `,` + linearSpec(7) + `]}`
	resp, data := postJSON(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", resp.StatusCode, data)
	}
	var br spec.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("%d results, want 2", len(br.Results))
	}
	if br.Meta == nil || !br.Meta.Anytime {
		t.Fatalf("top-level meta.anytime not folded: %s", data)
	}
	if br.Results[0].Meta == nil || !br.Results[0].Meta.Anytime {
		t.Fatalf("convex system not marked partial: %+v", br.Results[0].Meta)
	}
	// The all-linear system is closed-form: exact despite the deadline.
	if br.Results[1].Meta != nil && br.Results[1].Meta.Anytime {
		t.Fatalf("linear system needlessly marked partial: %+v", br.Results[1].Meta)
	}
	for _, r := range br.Results[1].Radii {
		if r.Kind == "lower" {
			t.Fatalf("linear system degraded to a bound: %+v", br.Results[1].Radii)
		}
	}
	// The batch trace carries the anytime attribute, as analyze's does,
	// and each partial radius its own solve_feature span.
	tr := traces(t, ts.URL).Recent[0]
	if tr.Endpoint != epBatch || tr.Attrs["anytime"] != "partial" {
		t.Fatalf("batch trace %s attrs %v, want anytime=partial", tr.Endpoint, tr.Attrs)
	}
	lower, partialSpans := 0, 0
	for _, r := range br.Results[0].Radii {
		if r.Kind == "lower" {
			lower++
		}
	}
	for _, sp := range tr.Spans {
		if sp.Name == "solve_feature" && sp.Attrs["anytime"] == "partial" {
			partialSpans++
		}
	}
	if lower == 0 || partialSpans != lower {
		t.Fatalf("%d solve_feature spans marked partial, want one per lower bound (%d): %+v", partialSpans, lower, tr.Spans)
	}
}

// Anytime mode changes nothing when the deadline holds: the answer and
// its meta stay identical to plain serving.
func TestAnytimeNoOpWhenFast(t *testing.T) {
	plain := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer plain.Close()
	anytime := httptest.NewServer(New(quietConfig(Config{Anytime: true})).Handler())
	defer anytime.Close()

	_, wantBody := postJSON(t, plain.URL+"/v1/analyze", webFarm)
	resp, gotBody := postJSON(t, anytime.URL+"/v1/analyze", webFarm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, gotBody)
	}
	if string(gotBody) != string(wantBody) {
		t.Fatalf("anytime serving altered an unhurried answer:\n got %s\nwant %s", gotBody, wantBody)
	}
}
