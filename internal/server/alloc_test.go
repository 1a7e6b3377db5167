package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// discardWriter is a ResponseWriter that allocates nothing of its own:
// one header map for every request, the body counted and dropped. A
// handler's allocations are then the request's own.
type discardWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// analyzeCost serves bodies round-robin as /v1/analyze requests through
// the in-process handler and returns the mean allocations and allocated
// bytes per request, measured after a warm-up that fills the radius
// cache and the pools. Each request reuses one *http.Request and one
// body reader, so the client side allocates nothing.
func analyzeCost(t *testing.T, bodies [][]byte) (allocs, allocated float64) {
	t.Helper()
	h := New(quietConfig(Config{})).Handler()
	rd := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/v1/analyze", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{header: make(http.Header)}
	serve := func(body []byte) {
		rd.Reset(body)
		w.status, w.bytes = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.bytes == 0 {
			t.Fatalf("status %d, %d body bytes", w.status, w.bytes)
		}
	}
	for i := 0; i < 100; i++ {
		serve(bodies[i%len(bodies)])
	}
	// The least of three rounds: a one-off such as the pool refilling a
	// workspace the collector dropped is not a per-request cost.
	const n = 300
	allocs, allocated = math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			serve(bodies[i%len(bodies)])
		}
		runtime.ReadMemStats(&m1)
		allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
		allocated = min(allocated, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	}
	return allocs, allocated
}

// warmBodies draws count analyze requests of dim coordinates and the
// given feature count, as perfbench's linear workloads shape them.
func warmBodies(t *testing.T, count, dim, features int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, count)
	for i := range bodies {
		bodies[i] = mustMarshal(t, linearShapeFile(rng, fmt.Sprintf("warm-%d", i), dim, features))
	}
	return bodies
}

// TestAnalyzeWarmRequestBudget holds a warm /v1/analyze request of
// perfbench's analyze_warm shape (32 features over 16 coordinates, every
// radius a cache hit) to 12 KB of allocation: decode, build, analysis and
// encode run in the pooled request workspace, so what is left is the
// fixed cost of routing, tracing and logging one request.
func TestAnalyzeWarmRequestBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	const budget = 12 << 10
	allocs, allocated := analyzeCost(t, warmBodies(t, 8, warmDim, warmFeatures))
	t.Logf("warm analyze request: %.1f allocs, %.0f B", allocs, allocated)
	if allocated > budget {
		t.Fatalf("warm analyze request allocates %.0f B, budget %d B", allocated, budget)
	}
}

// TestAnalyzeCostFlatInFeatures pins the per-request cost of a warm
// /v1/analyze to not grow with the feature count: requests of 8 and of
// 32 features over the same 16 coordinates allocate the same number of
// objects and bytes, up to a small constant.
func TestAnalyzeCostFlatInFeatures(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	allocs8, bytes8 := analyzeCost(t, warmBodies(t, 8, warmDim, 8))
	allocs32, bytes32 := analyzeCost(t, warmBodies(t, 8, warmDim, 32))
	t.Logf("8 features: %.1f allocs, %.0f B; 32 features: %.1f allocs, %.0f B", allocs8, bytes8, allocs32, bytes32)
	if d := allocs32 - allocs8; d > 2 || d < -2 {
		t.Errorf("allocs/request moved by %.1f from 8 to 32 features, want at most 2", d)
	}
	if d := bytes32 - bytes8; d > 512 || d < -512 {
		t.Errorf("bytes/request moved by %.0f from 8 to 32 features, want at most 512", d)
	}
}

// TestPutWorkspaceDropsLarge returns a workspace that decoded a document
// of 150,000 coefficients (over 1 MB of floats) to the pool: the pool
// must never hand it out again.
func TestPutWorkspaceDropsLarge(t *testing.T) {
	n := 150000
	coeffs := strings.Repeat("1,", n-1) + "1"
	doc := `{"perturbation":{"orig":[` + coeffs + `]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[` + coeffs + `]}}]}`
	w := getWorkspace()
	if _, err := w.Parse([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	if w.Retained() <= maxPooledBody {
		t.Fatalf("workspace retains %d bytes, want more than %d", w.Retained(), maxPooledBody)
	}
	putWorkspace(w)
	for i := 0; i < 10; i++ {
		if got := getWorkspace(); got.Retained() > maxPooledBody {
			t.Fatalf("pool returned a workspace retaining %d bytes", got.Retained())
		}
	}
}
