package batch

import (
	"context"
	"testing"

	"fepia/internal/obs"
)

// BenchmarkAnalyzeOneObs prices the observability instrumentation on the
// engine's warm path (every radius served from the cache, so the obs
// plumbing dominates). "untraced" is the engine with no trace in the
// context — library callers and cmd/bench — where StartSpan finds no
// trace and every span call no-ops; it must stay within a few percent of
// the pre-instrumentation engine. fepiad traces every request, so its
// steady state is "traced": the system's solve stage span with its
// per-feature clock reads, sealed into a trace ring the way the server's
// instrument middleware does, without rendering (the ring renders only
// when /debug/traces is read).
//
// Pin (docs/OBSERVABILITY.md, min-of-10): "untraced" must stay within
// +2% of the 4.20µs/op pre-instrumentation seed — 4.23µs/op ceiling —
// with allocs/op unchanged. The distributed-tracing and SLO layers ride
// on the same no-op StartSpan path, so they must not move this number;
// their per-request server-side cost (SLO window record + exemplar
// store + slow-threshold compare) is priced separately by
// "untraced_slo" so a regression shows up as a delta between the two
// rather than silently inflating the engine number.
func BenchmarkAnalyzeOneObs(b *testing.B) {
	jobs := paperJobs(b, 8, 2003)
	cache := NewCache(0)
	opts := Options{Cache: cache}
	ctx := context.Background()
	for _, job := range jobs {
		if _, err := AnalyzeOneContext(ctx, job, opts); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeOneContext(ctx, jobs[i%len(jobs)], opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("untraced_slo", func(b *testing.B) {
		// The warm path plus the per-request server-side SLO accounting:
		// a burn-window record, an exemplar store on the latency
		// histogram, and the slow-threshold compare. This is what every
		// production request pays beyond "untraced".
		b.ReportAllocs()
		reg := obs.NewRegistry()
		slo := obs.NewSLO(reg, []string{"bench"}, obs.SLOConfig{}, nil)
		hist := reg.Histogram("bench_latency_ms", "bench", []float64{1, 5, 25, 100},
			obs.L("endpoint", "bench"))
		const slowMS = 250.0
		slow := 0
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeOneContext(ctx, jobs[i%len(jobs)], opts); err != nil {
				b.Fatal(err)
			}
			durMS := 0.004
			slo.Record("bench", 200, durMS)
			hist.ObserveExemplar(durMS, "0123456789abcdef")
			if durMS >= slowMS {
				slow++
			}
		}
		if slow != 0 {
			b.Fatal("benchmark durations crossed the slow threshold")
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		ring := obs.NewTraceRing(64)
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace(obs.NewID(), "bench")
			tctx := obs.WithTrace(ctx, tr)
			if _, err := AnalyzeOneContext(tctx, jobs[i%len(jobs)], opts); err != nil {
				b.Fatal(err)
			}
			tr.Seal(200, false)
			ring.Add(tr, false)
		}
	})
	b.Run("traced_remote", func(b *testing.B) {
		// A forwarded-in request on the owning node: the trace adopts the
		// ingress trace ID, records the pipeline spans, and exports its
		// subtree for the X-Fepiad-Spans response header — pricing the
		// cross-node stitching wire on top of "traced".
		b.ReportAllocs()
		ring := obs.NewTraceRing(64)
		for i := 0; i < b.N; i++ {
			tr := obs.NewTraceRemote(obs.NewID(), "bench",
				"0123456789abcdef", "fedcba9876543210")
			tctx := obs.WithTrace(ctx, tr)
			if _, err := AnalyzeOneContext(tctx, jobs[i%len(jobs)], opts); err != nil {
				b.Fatal(err)
			}
			if len(tr.ExportSpans("bench-node", 64)) == 0 {
				b.Fatal("empty span export")
			}
			tr.Seal(200, false)
			ring.Add(tr, false)
		}
	})
}
