package batch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/obs"
)

// kernelJob builds a mixed job: mostly linear features (kernel-eligible)
// with a sprinkling of convex and non-convex FuncImpacts that must keep
// the internal/optimize path. Each FuncImpact is fingerprinted with its
// feature's name, so a shared cache memoises every feature as its own
// entry.
func kernelJob(t *testing.T, seed int64, n, dim int, mixed bool) Job {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = -1 + 2*rng.Float64()
	}
	features := make([]core.Feature, n)
	for k := range features {
		if mixed && k%5 == 3 {
			// Convex quadratic ‖π‖² with a reachable max bound.
			name := fmt.Sprintf("Q%d", k)
			features[k] = core.Feature{
				Name: name,
				Impact: &core.FuncImpact{
					N: dim,
					F: func(pi []float64) float64 {
						s := 0.0
						for _, v := range pi {
							s += v * v
						}
						return s
					},
					Convex:      true,
					Fingerprint: []byte(name),
				},
				Bounds: core.NoMin(float64(dim) * 16),
			}
			continue
		}
		if mixed && k%5 == 4 {
			// Non-convex impact: routed through the annealing fallback.
			name := fmt.Sprintf("N%d", k)
			features[k] = core.Feature{
				Name: name,
				Impact: &core.FuncImpact{
					N: dim,
					F: func(pi []float64) float64 {
						s := 0.0
						for _, v := range pi {
							s += math.Sin(v) + v*v
						}
						return s
					},
					Fingerprint: []byte(name),
				},
				Bounds: core.NoMin(float64(dim) * 16),
			}
			continue
		}
		coeffs := make([]float64, dim)
		for i := range coeffs {
			coeffs[i] = -2 + 4*rng.Float64()
		}
		imp, err := core.NewLinearImpact(coeffs, -1+2*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		v0 := imp.Eval(orig)
		var b core.Bounds
		switch k % 4 {
		case 0:
			b = core.Bounds{Min: v0 - 1 - rng.Float64(), Max: v0 + 1 + rng.Float64()}
		case 1:
			b = core.NoMin(v0 + rng.Float64()*3)
		case 2:
			b = core.NoMax(v0 - rng.Float64()*3)
		default:
			b = core.Bounds{Min: v0 + 1, Max: v0 + 2} // already violated
		}
		features[k] = core.Feature{Name: fmt.Sprintf("L%d", k), Impact: imp, Bounds: b}
	}
	return Job{Features: features, Perturbation: core.Perturbation{Name: "π", Orig: orig}}
}

// assertAnalysesIdentical compares two analyses field by field with
// bit-level float comparison.
func assertAnalysesIdentical(t *testing.T, tag string, got, want core.Analysis) {
	t.Helper()
	if len(got.Radii) != len(want.Radii) {
		t.Fatalf("%s: %d radii, want %d", tag, len(got.Radii), len(want.Radii))
	}
	if math.Float64bits(got.Robustness) != math.Float64bits(want.Robustness) {
		t.Fatalf("%s: Robustness = %g, want %g", tag, got.Robustness, want.Robustness)
	}
	for i := range got.Radii {
		g, w := got.Radii[i], want.Radii[i]
		if g.Feature != w.Feature || g.Kind != w.Kind || g.Method != w.Method {
			t.Fatalf("%s: radii[%d] = {%s %v %v}, want {%s %v %v}", tag, i, g.Feature, g.Kind, g.Method, w.Feature, w.Kind, w.Method)
		}
		if math.Float64bits(g.Radius) != math.Float64bits(w.Radius) {
			t.Fatalf("%s: radii[%d].Radius = %x, want %x", tag, i, math.Float64bits(g.Radius), math.Float64bits(w.Radius))
		}
		if (g.Boundary == nil) != (w.Boundary == nil) || len(g.Boundary) != len(w.Boundary) {
			t.Fatalf("%s: radii[%d].Boundary shape mismatch", tag, i)
		}
		for j := range g.Boundary {
			if math.Float64bits(g.Boundary[j]) != math.Float64bits(w.Boundary[j]) {
				t.Fatalf("%s: radii[%d].Boundary[%d] = %x, want %x", tag, i, j,
					math.Float64bits(g.Boundary[j]), math.Float64bits(w.Boundary[j]))
			}
		}
	}
}

// TestKernelAnalyzeByteIdentical: AnalyzeOneContext with Options.Kernel
// on and off produces bit-equal analyses for all-linear jobs.
func TestKernelAnalyzeByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		job := kernelJob(t, 100+seed, 33, 7, false)
		off, err := AnalyzeOneContext(context.Background(), job, Options{})
		if err != nil {
			t.Fatalf("kernel off: %v", err)
		}
		on, err := AnalyzeOneContext(context.Background(), job, Options{Kernel: true})
		if err != nil {
			t.Fatalf("kernel on: %v", err)
		}
		assertAnalysesIdentical(t, fmt.Sprintf("seed=%d", seed), on, off)
	}
}

// TestKernelMixedBatchRouting: in a mixed job the linear features come
// back MethodHyperplane while the convex and non-convex ones carry the
// internal/optimize methods — proof the kernel never swallows a feature
// it cannot answer exactly.
func TestKernelMixedBatchRouting(t *testing.T) {
	job := kernelJob(t, 7, 20, 4, true)
	got, err := AnalyzeOneContext(context.Background(), job, Options{Kernel: true})
	if err != nil {
		t.Fatal(err)
	}
	var hyper, optimized int
	for i, r := range got.Radii {
		name := job.Features[i].Name
		switch name[0] {
		case 'L':
			if r.Method != core.MethodHyperplane && r.Method != core.MethodNone {
				t.Errorf("%s: Method = %v, want hyperplane or none", name, r.Method)
			}
			hyper++
		case 'Q', 'N':
			if r.Method != core.MethodConvex && r.Method != core.MethodAnneal {
				t.Errorf("%s: Method = %v, want convex-slp or anneal", name, r.Method)
			}
			optimized++
		}
	}
	if hyper == 0 || optimized == 0 {
		t.Fatalf("mixed job lost a class: %d linear, %d optimized", hyper, optimized)
	}
	// And the mixed job is still byte-identical to the kernel-off run for
	// the deterministic (linear + convex) slots; annealed radii depend on
	// a seeded RNG inside optimize, which both paths share identically
	// because the per-feature path solves them in both runs.
	off, err := AnalyzeOneContext(context.Background(), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysesIdentical(t, "mixed", got, off)
}

// noopInjector never fires a fault; its presence on the context is what
// the routing check keys on.
type noopInjector struct{}

func (noopInjector) Inject(context.Context, faults.Point) error { return nil }

// TestKernelRoutingFidelity: the kernel path participates in the radius
// cache (a cold sweep populates it, a warm request serves from it), so
// cache statistics make routing observable. A plain or traced request
// with Kernel on must populate a fresh cache from its sweep (fepiad
// traces every request, so the kernel must engage on traced requests
// too — recording a "kernel" span for the sweep); a request carrying a
// fault injector must fall back to the per-feature cached path so
// injection points keep firing per feature.
func TestKernelRoutingFidelity(t *testing.T) {
	job := kernelJob(t, 11, 12, 5, false)

	t.Run("cold sweep populates cache", func(t *testing.T) {
		c := NewCache(64)
		if _, err := AnalyzeOneContext(context.Background(), job, Options{Kernel: true, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Misses != 12 || s.Size != 12 || s.Hits != 0 {
			t.Fatalf("cold kernel sweep did not populate the cache: %+v", s)
		}
	})

	t.Run("warm request serves kernel-eligible features from cache", func(t *testing.T) {
		c := NewCache(64)
		cold, err := AnalyzeOneContext(context.Background(), job, Options{Kernel: true, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := AnalyzeOneContext(context.Background(), job, Options{Kernel: true, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Hits != 12 || s.Misses != 12 {
			t.Fatalf("warm kernel request did not hit the cache: %+v", s)
		}
		assertAnalysesIdentical(t, "warm-vs-cold", warm, cold)
	})

	t.Run("scalar path hits kernel-populated entries", func(t *testing.T) {
		// Cross-path affinity: radii swept by the kernel must be warm hits
		// for a later Kernel-off request, byte-identical to a fresh solve.
		c := NewCache(64)
		if _, err := AnalyzeOneContext(context.Background(), job, Options{Kernel: true, Cache: c}); err != nil {
			t.Fatal(err)
		}
		scalar, err := AnalyzeOneContext(context.Background(), job, Options{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Hits != 12 {
			t.Fatalf("scalar path missed kernel-populated entries: %+v", s)
		}
		fresh, err := AnalyzeOneContext(context.Background(), job, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertAnalysesIdentical(t, "scalar-vs-fresh", scalar, fresh)
	})

	t.Run("kernel path hits scalar-populated entries", func(t *testing.T) {
		// And the other direction: radii solved per-feature are warm hits
		// for a later kernel request, which then sweeps nothing.
		c := NewCache(64)
		if _, err := AnalyzeOneContext(context.Background(), job, Options{Cache: c}); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace(obs.NewID(), "test")
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := AnalyzeOneContext(ctx, job, Options{Kernel: true, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Hits != 12 {
			t.Fatalf("kernel path missed scalar-populated entries: %+v", s)
		}
		for _, sp := range tr.Finish(200).Spans {
			if sp.Name == "kernel" {
				if got := sp.Attrs["cache_hits"]; got != "12" {
					t.Errorf("kernel span cache_hits = %q, want \"12\"", got)
				}
				if got := sp.Attrs["features"]; got != "0" {
					t.Errorf("fully warm kernel span swept features = %q, want \"0\"", got)
				}
			}
		}
	})

	t.Run("traced request uses kernel and records a span", func(t *testing.T) {
		c := NewCache(64)
		tr := obs.NewTrace(obs.NewID(), "test")
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := AnalyzeOneContext(ctx, job, Options{Kernel: true, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Misses != 12 || s.Size != 12 {
			t.Fatalf("traced kernel sweep did not populate the cache: %+v", s)
		}
		td := tr.Finish(200)
		var kernelSpans, solveSpans int
		for _, sp := range td.Spans {
			switch sp.Name {
			case "kernel":
				kernelSpans++
				if got := sp.Attrs["features"]; got != "12" {
					t.Errorf("kernel span features = %q, want \"12\"", got)
				}
				if got := sp.Attrs["fallback"]; got != "0" {
					t.Errorf("kernel span fallback = %q, want \"0\"", got)
				}
				if got := sp.Attrs["cache_hits"]; got != "0" {
					t.Errorf("cold kernel span cache_hits = %q, want \"0\"", got)
				}
			case "solve":
				solveSpans++
			}
		}
		if kernelSpans != 1 {
			t.Fatalf("recorded %d kernel spans, want 1 (spans: %+v)", kernelSpans, td.Spans)
		}
		if solveSpans != 0 {
			t.Fatalf("all-linear kernel job recorded %d per-feature solve spans, want 0", solveSpans)
		}
	})

	t.Run("injected request keeps per-feature path", func(t *testing.T) {
		c := NewCache(64)
		ctx := faults.With(context.Background(), noopInjector{})
		if _, err := AnalyzeOneContext(ctx, job, Options{Kernel: true, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Misses == 0 {
			t.Fatalf("injected request skipped the per-feature path: %+v", s)
		}
	})

	t.Run("request stats label kernel and hit provenance", func(t *testing.T) {
		c := NewCache(64)
		var coldStats RequestStats
		ctx := WithRequestStats(context.Background(), &coldStats)
		if _, err := AnalyzeOneContext(ctx, job, Options{Kernel: true, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if got := coldStats.Source(); got != "kernel" {
			t.Fatalf("cold kernel request Source() = %q, want \"kernel\" (stats: kernel=%d hits=%d misses=%d)",
				got, coldStats.Kernel.Load(), coldStats.Hits.Load(), coldStats.Misses.Load())
		}
		var warmStats RequestStats
		ctx = WithRequestStats(context.Background(), &warmStats)
		if _, err := AnalyzeOneContext(ctx, job, Options{Kernel: true, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if got := warmStats.Source(); got != "hit" {
			t.Fatalf("warm kernel request Source() = %q, want \"hit\"", got)
		}
	})
}
