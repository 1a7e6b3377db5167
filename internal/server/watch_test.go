package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fepia/internal/faults"
	"fepia/internal/spec"
)

// watchSpec is the system every watch test streams: three machines'
// finishing times as 0/1 indicator features over a 3-dimensional ETC
// perturbation — all kernel-eligible, so the delta path carries them.
const watchSpec = `{
  "name": "watch-farm",
  "perturbation": {"name": "C", "orig": [6, 4, 8], "units": "s"},
  "features": [
    {"name": "finish(m0)", "max": 14, "impact": {"type": "linear", "coeffs": [1, 1, 0]}},
    {"name": "finish(m1)", "max": 13, "impact": {"type": "linear", "coeffs": [0, 0, 1]}},
    {"name": "finish(m2)", "max": 20, "impact": {"type": "linear", "coeffs": [1, 0, 1]}}
  ]
}`

// watchBody assembles a WatchRequest document over watchSpec.
func watchBody(t *testing.T, points [][]float64) string {
	t.Helper()
	var f spec.File
	if err := json.Unmarshal([]byte(watchSpec), &f); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(spec.WatchRequest{System: f, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// decodeStream splits an ndjson watch response into its frames and the
// mandatory trailing summary.
func decodeStream(t *testing.T, data []byte) ([]spec.WatchFrame, spec.WatchSummary) {
	t.Helper()
	var frames []spec.WatchFrame
	var summary spec.WatchSummary
	sawSummary := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("stream continues past the summary frame: %s", line)
		}
		// The summary is the only frame with "done"; probe for it first.
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line not JSON: %v (%s)", err, line)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var fr spec.WatchFrame
		if err := json.Unmarshal(line, &fr); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	if !sawSummary {
		t.Fatalf("stream ended without a summary frame:\n%s", data)
	}
	return frames, summary
}

// analyzeAt fetches the one-shot /v1/analyze result for watchSpec with
// its operating point replaced by pt.
func analyzeAt(t *testing.T, url string, pt []float64) spec.ResultJSON {
	t.Helper()
	var f spec.File
	if err := json.Unmarshal([]byte(watchSpec), &f); err != nil {
		t.Fatal(err)
	}
	f.Perturbation.Orig = pt
	doc, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, url+"/v1/analyze", string(doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, body)
	}
	var res spec.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWatchStream drives a session through a no-op step and a
// single-coordinate move, with the kernel on and off, and checks every
// frame against the one-shot /v1/analyze answer at the same point.
func TestWatchStream(t *testing.T) {
	for _, kernelOn := range []bool{true, false} {
		t.Run(fmt.Sprintf("kernel=%v", kernelOn), func(t *testing.T) {
			ts := httptest.NewServer(New(quietConfig(Config{Kernel: kernelOn})).Handler())
			defer ts.Close()

			points := [][]float64{
				{6, 4, 8},
				{6, 4, 8},   // no-op: nothing changes
				{6, 4, 9},   // one coordinate: finish(m1) and finish(m2) move
				{5, 4.5, 9}, // two coordinates
			}
			resp, body := postJSON(t, ts.URL+"/v1/watch", watchBody(t, points))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
			}
			frames, summary := decodeStream(t, body)
			if len(frames) != len(points) {
				t.Fatalf("got %d frames, want %d", len(frames), len(points))
			}
			if !summary.Done || summary.Steps != len(points) || summary.Error != "" {
				t.Fatalf("summary = %+v, want done with %d clean steps", summary, len(points))
			}

			// Frame-shape assertions: first frame reports every feature,
			// the no-op step none, the single-coordinate step exactly the
			// features whose indicator rows touch coordinate 2.
			if frames[0].ChangedCount != 3 {
				t.Fatalf("first frame changed_count = %d, want all 3", frames[0].ChangedCount)
			}
			if frames[1].ChangedCount != 0 {
				t.Fatalf("no-op frame changed_count = %d, want 0", frames[1].ChangedCount)
			}
			if got := changedNames(frames[2]); !strings.Contains(got, "finish(m1)") || strings.Contains(got, "finish(m0)") {
				t.Fatalf("single-coordinate frame changed %q, want finish(m1)/finish(m2) only", got)
			}
			wantTotal := 0
			for _, fr := range frames {
				if fr.ChangedCount != len(fr.Changed) {
					t.Fatalf("frame %d changed_count %d != len(changed) %d", fr.Step, fr.ChangedCount, len(fr.Changed))
				}
				wantTotal += fr.ChangedCount
				if fr.Meta == nil {
					t.Fatalf("frame %d carries no meta block", fr.Step)
				}
			}
			if summary.TotalChanged != wantTotal {
				t.Fatalf("summary total_changed = %d, want %d", summary.TotalChanged, wantTotal)
			}

			// Every frame must agree with the one-shot endpoint at the same
			// point: robustness, critical feature, and each changed radius
			// byte-identical after JSON round-trip.
			for i, fr := range frames {
				want := analyzeAt(t, ts.URL, points[i])
				if math.Float64bits(fr.Robustness) != math.Float64bits(want.Robustness) || fr.Critical != want.Critical {
					t.Fatalf("frame %d (ρ=%v, critical=%q) differs from analyze (ρ=%v, critical=%q)",
						fr.Step, fr.Robustness, fr.Critical, want.Robustness, want.Critical)
				}
				byName := map[string]spec.RadiusJSON{}
				for _, r := range want.Radii {
					byName[r.Feature] = r
				}
				for _, r := range fr.Changed {
					w, ok := byName[r.Feature]
					if !ok {
						t.Fatalf("frame %d changed unknown feature %q", fr.Step, r.Feature)
					}
					gb, _ := json.Marshal(r)
					wb, _ := json.Marshal(w)
					if !bytes.Equal(gb, wb) {
						t.Fatalf("frame %d radius differs from analyze:\n got %s\nwant %s", fr.Step, gb, wb)
					}
				}
			}
		})
	}
}

func changedNames(fr spec.WatchFrame) string {
	var names []string
	for _, r := range fr.Changed {
		names = append(names, r.Feature)
	}
	return strings.Join(names, ",")
}

// TestWatchValidation pins the pre-stream failure contract: shape
// mistakes are plain 400s with the offending field path, before any
// frame is written.
func TestWatchValidation(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	cases := []struct {
		name, body, wantPath string
	}{
		{"malformed", "{not json", ""},
		{"empty trajectory", watchBody(t, nil), "points"},
		{"bad dimension", watchBody(t, [][]float64{{6, 4, 8}, {1, 2}}), "points[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/watch", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			e := decodeError(t, body)
			if e.Kind != "invalid_spec" || e.Path != tc.wantPath {
				t.Fatalf("error = %+v, want kind invalid_spec path %q", e, tc.wantPath)
			}
		})
	}
}

// TestWatchMidStreamError: a session whose second step fails (an
// injected solve fault with retrying disabled) keeps its 200 status
// (already committed), delivers the clean first frame, and reports the
// failure in-band on the summary frame. The injector also proves the
// fault-injected-session rule: every step routes through the scalar
// path, so injection points actually fire mid-session.
func TestWatchMidStreamError(t *testing.T) {
	// The spec has 3 features; occurrence 4 is the first solve of step 2.
	script := faults.NewScript().At(faults.Solve, 4, faults.KindError)
	ts := httptest.NewServer(New(quietConfig(Config{Kernel: true, RetryMax: -1, Injector: script})).Handler())
	defer ts.Close()

	points := [][]float64{
		{6, 4, 8},
		{6, 4, 9},  // first solve here draws the injected fault
		{5, 4, 10}, // never reached
	}
	resp, data := postJSON(t, ts.URL+"/v1/watch", watchBody(t, points))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	frames, summary := decodeStream(t, data)
	if len(frames) != 1 {
		t.Fatalf("got %d frames before the failure, want 1", len(frames))
	}
	if !summary.Done || summary.Steps != 1 || summary.Error == "" {
		t.Fatalf("summary = %+v, want done=true steps=1 with an error", summary)
	}
}

// TestWatchMetrics: a finished session shows up on both exposition
// surfaces — fepiad_watch_* on /metrics and in the /debug/vars snapshot —
// with steps and changed-radii counts matching the stream.
func TestWatchMetrics(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{Kernel: true})).Handler())
	defer ts.Close()

	points := [][]float64{{6, 4, 8}, {6, 4, 9}}
	resp, data := postJSON(t, ts.URL+"/v1/watch", watchBody(t, points))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	frames, summary := decodeStream(t, data)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prom := string(raw)
	for _, want := range []string{
		"fepiad_watch_sessions_total 1",
		"fepiad_watch_steps_total 2",
		fmt.Sprintf("fepiad_watch_changed_radii_total %d", summary.TotalChanged),
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	vars := getVars(t, ts.URL)
	wv := [3]float64{vars.Sum("fepiad_watch_sessions_total"), vars.Sum("fepiad_watch_steps_total"),
		vars.Sum("fepiad_watch_changed_radii_total")}
	if wv != [3]float64{1, 2, float64(summary.TotalChanged)} {
		t.Fatalf("fepiad_watch_* on /debug/vars = %v, want [1 2 %d]", wv, summary.TotalChanged)
	}
}

// TestTraceRetainedBytesGauge: after N watch_linear-shaped sessions,
// fepiad_trace_retained_bytes reads the same on /metrics and in the
// /debug/vars snapshot, and sits between 4 and 10 KiB per session: each
// session's trace is in both the recent and the slowest list, so
// counting it twice would read about 16 KiB per session.
func TestTraceRetainedBytesGauge(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()
	if got := scrape(t, ts.URL)["fepiad_trace_retained_bytes"]; got != 0 {
		t.Fatalf("fepiad_trace_retained_bytes before any request = %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(3))
	sys := linearShapeFile(rng, "watch-gauge", watchShapeDim, watchShapeFeatures)
	const sessions = 3
	for i := 0; i < sessions; i++ {
		body := string(mustMarshal(t, watchShapeRequest(rng, sys, watchShapeSteps)))
		if resp, data := postJSON(t, ts.URL+"/v1/watch", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	got := scrape(t, ts.URL)["fepiad_trace_retained_bytes"]
	if got < sessions*4<<10 || got > sessions*10<<10 {
		t.Fatalf("fepiad_trace_retained_bytes after %d sessions = %v, want %d..%d",
			sessions, got, sessions*4<<10, sessions*10<<10)
	}
	if v := getVars(t, ts.URL).Sum("fepiad_trace_retained_bytes"); v != got {
		t.Fatalf("/debug/vars fepiad_trace_retained_bytes = %v, /metrics %v", v, got)
	}
}

// TestWatchPointCap: a trajectory past maxWatchPoints is rejected up
// front rather than holding an admission slot for an unbounded stream.
func TestWatchPointCap(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	points := make([][]float64, maxWatchPoints+1)
	for i := range points {
		points[i] = []float64{6, 4, 8}
	}
	resp, body := postJSON(t, ts.URL+"/v1/watch", watchBody(t, points))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Path != "points" {
		t.Fatalf("error = %+v, want path points", e)
	}
}
