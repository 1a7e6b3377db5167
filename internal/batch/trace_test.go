package batch

import (
	"context"
	"testing"

	"fepia/internal/obs"
)

// TestTracedAllocsFlatInFeatures pins the engine's trace cost to the
// stage, not the feature count: on a warm cache, a traced
// AnalyzeOneContext makes the same number of extra allocations (traced
// minus untraced) at 8 features as at 32.
func TestTracedAllocsFlatInFeatures(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop key buffers at random")
	}
	extra := func(features int) float64 {
		job := kernelJob(t, 5, features, 6, false)
		opts := Options{Cache: NewCache(0), ShareBoundaries: true}
		ctx := context.Background()
		if _, err := AnalyzeOneContext(ctx, job, opts); err != nil {
			t.Fatal(err)
		}
		untraced := testing.AllocsPerRun(200, func() {
			if _, err := AnalyzeOneContext(ctx, job, opts); err != nil {
				t.Fatal(err)
			}
		})
		traced := testing.AllocsPerRun(200, func() {
			tctx := obs.WithTrace(ctx, obs.NewTrace("alloc", "bench"))
			if _, err := AnalyzeOneContext(tctx, job, opts); err != nil {
				t.Fatal(err)
			}
		})
		return traced - untraced
	}
	if at8, at32 := extra(8), extra(32); at8 != at32 {
		t.Fatalf("tracing adds %v allocs/op at 8 features but %v at 32", at8, at32)
	}
}

// TestSolveStageSpan checks the solve stage span of a traced library
// call that attached no RequestStats: the span still counts the
// system's features, misses and hits, names its slowest feature, and
// no per-feature span starts on a fault-free run.
func TestSolveStageSpan(t *testing.T) {
	job := kernelJob(t, 9, 12, 4, true)
	opts := Options{Cache: NewCache(0)}
	for _, want := range []map[string]string{
		{"features": "12", "misses": "12", "hits": "0", "coalesced": "0", "retries": "0"},
		{"features": "12", "misses": "0", "hits": "12", "coalesced": "0", "retries": "0"},
	} {
		tr := obs.NewTrace("stage", "bench")
		if _, err := AnalyzeOneContext(obs.WithTrace(context.Background(), tr), job, opts); err != nil {
			t.Fatal(err)
		}
		td := tr.Finish(200)
		if len(td.Spans) != 1 || td.Spans[0].Name != "solve" {
			t.Fatalf("spans %+v, want one solve span", td.Spans)
		}
		sp := td.Spans[0]
		for k, v := range want {
			if sp.Attrs[k] != v {
				t.Errorf("solve span %s = %q, want %q (attrs %v)", k, sp.Attrs[k], v, sp.Attrs)
			}
		}
		if sp.Attrs["slowest"] == "" || sp.Attrs["slowest_us"] == "" {
			t.Errorf("solve span names no slowest feature: %v", sp.Attrs)
		}
	}
}
