package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fepia/internal/cluster"
	"fepia/internal/obs"
	"fepia/internal/spec"
)

// Perfbench's watch_linear shape: sessions of watchShapeSteps
// single-coordinate steps over systems of watchShapeFeatures linear
// features in watchShapeDim dimensions.
const (
	watchShapeDim      = 8
	watchShapeFeatures = 8
	watchShapeSteps    = 64
)

// watchShapeRequest draws one watch_linear session as perfbench
// generates it: each step scales one coordinate of the previous point by
// a factor in [0.97, 1.03).
func watchShapeRequest(rng *rand.Rand, sys spec.File, steps int) spec.WatchRequest {
	points := make([][]float64, steps)
	cur := sys.Perturbation.Orig
	for s := range points {
		next := append([]float64(nil), cur...)
		next[rng.Intn(len(next))] *= 0.97 + 0.06*rng.Float64()
		points[s] = next
		cur = next
	}
	return spec.WatchRequest{System: sys, Points: points}
}

// TestWatchTraceSpanCap runs watch sessions through the real server and
// reads their traces back from /debug/traces. A watch_linear session
// keeps every span, which pins the span count per step to the stages
// rather than the features; a session long enough to pass the 512-span
// cap shows the 512 spans started first with the rest counted in
// spans_dropped.
func TestWatchTraceSpanCap(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(1))
	sys := linearShapeFile(rng, "watch-cap", watchShapeDim, watchShapeFeatures)

	watch := func(id string, steps int) obs.TraceData {
		t.Helper()
		body := mustMarshal(t, watchShapeRequest(rng, sys, steps))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/watch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"done":true`) ||
			strings.Contains(string(out), `"error"`) {
			t.Fatalf("watch %s: status %d, body %s", id, resp.StatusCode, out)
		}
		return findTrace(t, traces(t, ts.URL), id)
	}
	// Every step misses the cache on every feature (each point is new),
	// yet records only a watch_step span and one solve stage span. The
	// session adds parse and admit.
	started := func(steps int) int { return 2 + 2*steps }

	session := watch("watch-session", watchShapeSteps)
	if len(session.Spans) != started(watchShapeSteps) || session.SpansDropped != 0 {
		t.Fatalf("%d-step session: %d spans, %d dropped; want %d, 0",
			watchShapeSteps, len(session.Spans), session.SpansDropped, started(watchShapeSteps))
	}
	for _, sd := range session.Spans {
		if sd.Name == "solve" && sd.Attrs["features"] != fmt.Sprint(watchShapeFeatures) {
			t.Fatalf("solve span counts %q features, want %d", sd.Attrs["features"], watchShapeFeatures)
		}
	}

	// 300 steps start 602 spans: the cap keeps parse, admit and the two
	// spans of each of the first 255 steps.
	const longSteps = 300
	long := watch("watch-long", longSteps)
	if len(long.Spans) != 512 {
		t.Fatalf("long session kept %d spans, want the 512 cap", len(long.Spans))
	}
	if got, want := len(long.Spans)+long.SpansDropped, started(longSteps); got != want {
		t.Fatalf("spans + spans_dropped = %d, want the %d spans started", got, want)
	}
	// The cap applies at start, so the survivors are a prefix of the
	// session.
	steps := 0
	for _, sd := range long.Spans {
		if sd.Name != "watch_step" {
			continue
		}
		steps++
		if sd.Attrs["step"] != fmt.Sprint(steps) {
			t.Fatalf("watch_step %d carries step=%q", steps, sd.Attrs["step"])
		}
	}
	if steps != 255 {
		t.Fatalf("%d watch_step spans survived, want the first 255", steps)
	}
	if long.Spans[0].Name != "parse" {
		t.Fatalf("first kept span %q, want parse", long.Spans[0].Name)
	}
}

// BenchmarkWatchSessionHandler times one watch_linear session through
// the in-process handler: 64 single-coordinate steps over 8 linear
// features in 8 dimensions. As in perfbench, 64 sessions are cycled, so
// the cache sees far more keys than it holds and every step misses. Each
// session records 130 spans: parse, admit, and a watch_step and a solve
// span per step.
func BenchmarkWatchSessionHandler(b *testing.B) {
	s := New(quietConfig(Config{}))
	h := s.Handler()
	rng := rand.New(rand.NewSource(1))
	systems := make([]spec.File, 16)
	for i := range systems {
		systems[i] = linearShapeFile(rng, fmt.Sprintf("watch-%d", i), watchShapeDim, watchShapeFeatures)
	}
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = mustMarshal(b, watchShapeRequest(rng, systems[rng.Intn(len(systems))], watchShapeSteps))
	}
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/watch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"done":true`)) {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range bodies[:8] {
		serve(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}

// FuzzStitchSpans feeds arbitrary X-Fepiad-Spans bytes through the
// ingress's stitching path — json.Unmarshal into spanExport, then Stitch
// under a forward span on a trace that already holds local spans — and
// renders the result both ways. Neither rendering may panic; the trace
// keeps at most 512 spans, kept plus spans_dropped equals every span
// offered to it, and both renderings are sorted by start_us.
func FuzzStitchSpans(f *testing.F) {
	remote := obs.NewTraceRemote("req", "analyze", "0123456789abcdef", "fedcba9876543210")
	rctx := obs.WithTrace(context.Background(), remote)
	obs.StartSpan(rctx, "parse").End(nil)
	obs.StartSpan(rctx, "solve").Set("feature", "phi0").SetInt("feature_index", 0).End(nil)
	realRaw, err := json.Marshal(spanExport{Node: "b", Spans: remote.ExportSpans("b", maxExportSpans)})
	if err != nil {
		f.Fatal(err)
	}
	var many spanExport
	for i := 0; i < 600; i++ {
		many.Spans = append(many.Spans, obs.SpanData{Name: "solve", StartUS: int64(600 - i)})
	}
	manyRaw, err := json.Marshal(many)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(realRaw), uint16(3))
	f.Add(string(manyRaw), uint16(0))
	f.Add(string(manyRaw), uint16(509))
	f.Add(`{"node":"b","spans":[]}`, uint16(600))
	f.Add(`{"spans":[{"name":"x","start_us":-9223372036854775808}]}`, uint16(1))
	f.Add(`{"spans":null}`, uint16(1))
	f.Add(`not json`, uint16(1))

	f.Fuzz(func(t *testing.T, raw string, local uint16) {
		var ex spanExport
		if json.Unmarshal([]byte(raw), &ex) != nil {
			ex.Spans = nil // the server ignores a malformed header
		}
		tr := obs.NewTrace("fuzz", "analyze")
		ctx := obs.WithTrace(context.Background(), tr)
		nLocal := int(local % 600)
		for i := 0; i < nLocal; i++ {
			obs.StartSpan(ctx, "solve").SetInt("feature_index", i).End(nil)
		}
		fwd := obs.StartSpan(ctx, "forward")
		fwd.End(nil)
		resp := &cluster.Response{Header: http.Header{}}
		resp.Header.Set(cluster.SpansHeader, raw)
		(&Server{}).stitchRemoteSpans(tr, fwd, resp)
		offered := nLocal + 1 + len(ex.Spans)

		exported := tr.ExportSpans("a", maxExportSpans)
		if len(exported) == 0 || len(exported) > maxExportSpans || exported[0].Name != "server" {
			t.Fatalf("export of %d spans, first %+v", len(exported), exported[0])
		}
		assertStartOrder(t, exported[1:])
		td := tr.Finish(http.StatusOK)
		if len(td.Spans) > 512 {
			t.Fatalf("trace kept %d spans, over the 512 cap", len(td.Spans))
		}
		if len(td.Spans)+td.SpansDropped != offered {
			t.Fatalf("kept %d + dropped %d != %d offered", len(td.Spans), td.SpansDropped, offered)
		}
		assertStartOrder(t, td.Spans)
		if _, err := json.Marshal(td); err != nil {
			t.Fatalf("trace document does not marshal: %v", err)
		}
	})
}

func assertStartOrder(t *testing.T, spans []obs.SpanData) {
	t.Helper()
	for i := 1; i < len(spans); i++ {
		if spans[i].StartUS < spans[i-1].StartUS {
			t.Fatalf("span %d starts at %d, before span %d at %d", i, spans[i].StartUS, i-1, spans[i-1].StartUS)
		}
	}
}
