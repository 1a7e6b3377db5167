package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"fepia/internal/spec"
)

// Perfbench's analyze_warm shape: all-linear systems of warmFeatures
// features over a warmDim-dimensional operating point.
const (
	warmDim      = 16
	warmFeatures = 32
)

// warmShapeFile draws one analyze_warm request as perfbench generates it.
func warmShapeFile(rng *rand.Rand, name string) spec.File {
	return linearShapeFile(rng, name, warmDim, warmFeatures)
}

// linearShapeFile draws one all-linear system as perfbench generates
// them: each feature has a sparse positive coefficient vector and is
// satisfied at the operating point with a 30–130% margin to β^max;
// every other feature also has a β^min.
func linearShapeFile(rng *rand.Rand, name string, dim, features int) spec.File {
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
	}
	f := spec.File{Name: name, Perturbation: spec.PerturbationSpec{Name: "lambda", Orig: orig}}
	for k := 0; k < features; k++ {
		coeffs := make([]float64, dim)
		coeffs[rng.Intn(dim)] = 0.5 + 1.5*rng.Float64()
		for i := range coeffs {
			if coeffs[i] == 0 && rng.Intn(3) == 0 {
				coeffs[i] = 0.5 + 1.5*rng.Float64()
			}
		}
		offset := 5 * rng.Float64()
		v := offset
		for i, c := range coeffs {
			v += c * orig[i]
		}
		hi := v * (1.3 + rng.Float64())
		fs := spec.FeatureSpec{Name: fmt.Sprintf("phi%d", k), Max: &hi,
			Impact: spec.ImpactSpec{Type: "linear", Coeffs: coeffs, Offset: offset}}
		if k%2 == 1 {
			lo := v * (0.3 + 0.4*rng.Float64())
			fs.Min = &lo
		}
		f.Features = append(f.Features, fs)
	}
	return f
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireEncodingJSON pins raw to the bytes a json.Encoder writes for the
// value raw decodes to: a drift in layout, float format or escaping
// fails here even where a decode-and-compare test would pass.
func requireEncodingJSON[T any](t *testing.T, raw []byte, indent bool) {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("body does not decode as %T: %v\n%s", v, err, raw)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("body is not the encoding/json rendering of its %T:\n got %s\nwant %s", v, raw, want.Bytes())
	}
}

// TestWireBytesMatchEncodingJSON pins every endpoint's raw response body
// to the encoding/json rendering fepiad used to write: indented for
// /v1/analyze and /v1/batch, compact ndjson for /v1/watch, compact for
// error envelopes.
func TestWireBytesMatchEncodingJSON(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{NodeID: "n<1>&"})).Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(1))
	warm := warmShapeFile(rng, "warm <&> \xe2\x80\xa8 λ")
	small := warmShapeFile(rng, "small")
	small.Features = small.Features[:3]

	for _, doc := range []string{webFarm, string(mustMarshal(t, warm))} {
		for pass := 0; pass < 2; pass++ { // a miss, then a hit
			resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze status %d: %s", resp.StatusCode, body)
			}
			requireEncodingJSON[spec.ResultJSON](t, body, true)
		}
	}

	batch := mustMarshal(t, spec.BatchRequest{Systems: []spec.File{warm, small}})
	resp, body := postJSON(t, ts.URL+"/v1/batch", string(batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	requireEncodingJSON[spec.BatchResponse](t, body, true)

	points := [][]float64{small.Perturbation.Orig, append([]float64(nil), small.Perturbation.Orig...)}
	points[1][0] += 1e-7
	watch := mustMarshal(t, spec.WatchRequest{System: small, Points: points})
	resp, body = postJSON(t, ts.URL+"/v1/watch", string(watch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append(append([]byte(nil), sc.Bytes()...), '\n'))
	}
	if len(lines) != len(points)+1 || !bytes.Equal(bytes.Join(lines, nil), body) {
		t.Fatalf("watch stream is not %d newline-terminated lines:\n%s", len(points)+1, body)
	}
	for _, line := range lines[:len(points)] {
		requireEncodingJSON[spec.WatchFrame](t, line, false)
	}
	requireEncodingJSON[spec.WatchSummary](t, lines[len(points)], false)

	for _, bad := range []string{`{`, `{"perturbation":{"orig":[1]},"features":[{"name":"<x>","impact":{"type":"linear","coeffs":[1]}}]}`} {
		resp, body = postJSON(t, ts.URL+"/v1/analyze", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d for %s", resp.StatusCode, bad)
		}
		requireEncodingJSON[spec.ErrorJSON](t, body, false)
	}
}

// warmResult is the served document of one analyze_warm request, meta
// block included.
func warmResult(t testing.TB) spec.ResultJSON {
	t.Helper()
	s := New(quietConfig(Config{}))
	body := mustMarshal(t, warmShapeFile(rand.New(rand.NewSource(2)), "warm-0"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	var res spec.ResultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Meta == nil {
		t.Fatalf("analyze: %v\n%s", err, rec.Body.Bytes())
	}
	return res
}

// TestEncodeBodyZeroAllocs pins the response encoder at zero allocations
// per analyze_warm document once bodyPool holds a buffer, so the
// indenting encoder's per-request scratch cannot quietly come back.
func TestEncodeBodyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	var v any = warmResult(t)
	allocs := testing.AllocsPerRun(100, func() {
		b := getBuf()
		if _, err := encodeBody(b, v, true); err != nil {
			t.Fatal(err)
		}
		putBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("encodeBody allocs/op = %g, want 0", allocs)
	}
}

func TestPutBufDropsLargeBuffers(t *testing.T) {
	b := make([]byte, 0, maxPooledBody+1)
	putBuf(&b)
	for i := 0; i < 10; i++ {
		if got := getBuf(); cap(*got) > maxPooledBody {
			t.Fatalf("pool returned a %d-byte buffer", cap(*got))
		}
	}
}

// TestAppendAllMatchesReadAll reads bodies of several sizes through
// readers that return short reads into recycled buffers of several
// capacities: appendAll must yield what io.ReadAll yields, and pass a
// read error through.
func TestAppendAllMatchesReadAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 70000} {
		want := make([]byte, n)
		rng.Read(want)
		readers := map[string]func() io.Reader{
			"plain":   func() io.Reader { return bytes.NewReader(want) },
			"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(want)) },
			"half":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(want)) },
		}
		for name, rd := range readers {
			for _, c := range []int{0, 1, n, 2*n + 7} {
				dst := append(make([]byte, 0, c), "stale"[:min(c, 5)]...)
				got, err := appendAll(dst[:0], rd())
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("n=%d %s cap=%d: got %d bytes, err %v", n, name, c, len(got), err)
				}
			}
		}
	}
	boom := errors.New("boom")
	if _, err := appendAll(nil, io.MultiReader(strings.NewReader("abc"), iotest.ErrReader(boom))); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRecycledBodyBuffers alternates a long and a short request body
// through the handler, so each is read into a buffer the other left in
// bodyPool: every answer must match the one the same body got before.
func TestRecycledBodyBuffers(t *testing.T) {
	s := New(quietConfig(Config{}))
	h := s.Handler()
	rng := rand.New(rand.NewSource(2))
	long := warmShapeFile(rng, "long")
	short := warmShapeFile(rng, "short")
	short.Features = short.Features[:2]
	serve := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	bodies := []struct {
		path string
		body []byte
	}{
		{"/v1/analyze", mustMarshal(t, long)},
		{"/v1/analyze", mustMarshal(t, short)},
		{"/v1/batch", mustMarshal(t, spec.BatchRequest{Systems: []spec.File{long, short}})},
		{"/v1/batch", mustMarshal(t, spec.BatchRequest{Systems: []spec.File{short}})},
	}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		serve(b.path, b.body) // the first answer reports a cache miss
		want[i] = serve(b.path, b.body)
	}
	for round := 0; round < 10; round++ {
		for i, b := range bodies {
			if got := serve(b.path, b.body); !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d body %d: answer changed:\n%s\nwant\n%s", round, i, got, want[i])
			}
		}
	}
}

// BenchmarkAnalyzeWarmHandler times one /v1/analyze request of
// perfbench's analyze_warm shape through the in-process handler, every
// radius a cache hit: the request cost outside the solve, which the wire
// codec dominates.
func BenchmarkAnalyzeWarmHandler(b *testing.B) {
	s := New(quietConfig(Config{}))
	h := s.Handler()
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = mustMarshal(b, warmShapeFile(rng, fmt.Sprintf("warm-%d", i)))
	}
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range bodies {
		serve(body) // warm the radius cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
