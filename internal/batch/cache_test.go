package batch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"fepia/internal/core"
	"fepia/internal/faults"
)

func linFeature(t *testing.T, name string, coeffs []float64, max float64) core.Feature {
	t.Helper()
	imp, err := core.NewLinearImpact(coeffs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return core.Feature{Name: name, Impact: imp, Bounds: core.NoMin(max)}
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(16)
	f := linFeature(t, "F", []float64{1, 1}, 10)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}

	first, err := c.Radius(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Radius(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result differs: %+v vs %+v", first, second)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}

	// A hit's boundary is an independent clone: mutating it must not
	// corrupt later lookups.
	second.Boundary[0] = math.Inf(1)
	third, err := c.Radius(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("boundary mutation leaked into the cache: %+v", third)
	}
}

// Structurally identical affine impacts must hit even when they are
// distinct objects — this is the cross-mapping sharing that makes the
// cache pay off in the §4.3 sweep.
func TestCacheValueKeyedLinearImpacts(t *testing.T) {
	c := NewCache(16)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	fa := linFeature(t, "A", []float64{3, 4}, 25)
	fb := linFeature(t, "B", []float64{3, 4}, 25) // same hyperplane, new object

	ra, err := c.Radius(fa, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Radius(fb, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the second distinct object to hit", st)
	}
	// The memo stores the radius computation, which does not depend on
	// the feature's display name — but the hit must carry the caller's
	// name, not the name of the feature that populated the entry.
	if ra.Radius != rb.Radius || ra.Kind != rb.Kind {
		t.Fatalf("radii differ: %+v vs %+v", ra, rb)
	}
	if ra.Feature != "A" || rb.Feature != "B" {
		t.Fatalf("feature names not re-stamped on hit: %q / %q", ra.Feature, rb.Feature)
	}

	// Different bounds on the same impact is a different subproblem.
	fc := linFeature(t, "C", []float64{3, 4}, 26)
	if _, err := c.Radius(fc, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// ... and so is a different operating point.
	p2 := core.Perturbation{Name: "π", Orig: []float64{0, 0}}
	if _, err := c.Radius(fa, p2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("stats = %+v, want 3 misses (distinct bounds / operating point)", st)
	}
}

// An unfingerprinted FuncImpact has no content identity, so the cache
// never memoises it: every call on the same object solves afresh, each
// answer is bit-equal to core.ComputeRadius, and no count moves.
func TestCacheUnfingerprintedFuncImpactsUncached(t *testing.T) {
	c := NewCache(16)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}
	var evals int
	square := func(x []float64) float64 { evals++; return x[0]*x[0] + x[1]*x[1] }
	f := core.Feature{Name: "q", Impact: &core.FuncImpact{N: 2, F: square, Convex: true}, Bounds: core.NoMin(9)}

	want, err := core.ComputeRadius(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	perSolve := evals
	for call := 1; call <= 2; call++ {
		evals = 0
		got, err := c.Radius(f, p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if evals != perSolve {
			t.Fatalf("call %d evaluated the impact %d times, want %d (a full solve)", call, evals, perSolve)
		}
		assertAnalysesIdentical(t, fmt.Sprintf("call %d", call),
			core.Analysis{Radii: []core.RadiusResult{got}}, core.Analysis{Radii: []core.RadiusResult{want}})
	}
	if _, ok := c.Lookup(f, p, core.Options{}); ok {
		t.Fatal("Lookup found an unfingerprinted FuncImpact")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.DupSuppressed != 0 || st.Size != 0 || st.RetainedBytes != 0 {
		t.Fatalf("stats = %+v, want no hits, misses, dups, entries or retained bytes", st)
	}
}

// A FuncImpact with a Fingerprint is keyed by that content identity:
// distinct objects with equal fingerprints share one cache entry (the
// spec decoder sets one per terms impact, so re-decoded documents hit),
// while differing fingerprints stay distinct subproblems.
func TestCacheFingerprintKeyedFuncImpacts(t *testing.T) {
	c := NewCache(16)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}
	square := func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }
	mk := func(fp string) core.Feature {
		return core.Feature{
			Name:   "q",
			Impact: &core.FuncImpact{N: 2, F: square, Convex: true, Fingerprint: []byte(fp)},
			Bounds: core.NoMin(9),
		}
	}

	a1, err := c.Radius(mk("sum-of-squares"), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Radius(mk("sum-of-squares"), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want equal fingerprints to share one entry", st)
	}
	if math.Float64bits(a1.Radius) != math.Float64bits(a2.Radius) {
		t.Fatalf("fingerprint hit changed the radius: %v vs %v", a1.Radius, a2.Radius)
	}
	if _, err := c.Radius(mk("other-function"), p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want a different fingerprint to miss", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard pins the global-LRU semantics this test asserts; the
	// per-shard variant lives in TestCachePerShardLRUEviction.
	c := NewCacheSharded(2, 1)
	p := core.Perturbation{Name: "π", Orig: []float64{0, 0}}
	f1 := linFeature(t, "1", []float64{1, 0}, 1)
	f2 := linFeature(t, "2", []float64{0, 1}, 1)
	f3 := linFeature(t, "3", []float64{1, 1}, 1)

	for _, f := range []core.Feature{f1, f2} {
		if _, err := c.Radius(f, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch f1 so f2 becomes least-recently used, then insert f3.
	if _, err := c.Radius(f1, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Radius(f3, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Size != 2 {
		t.Fatalf("size = %d, want capacity 2", st.Size)
	}
	// f1 must still be cached (hit), f2 must have been evicted (miss).
	before := c.Stats()
	if _, err := c.Radius(f1, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("f1 should have survived eviction: %+v", st)
	}
	before = c.Stats()
	if _, err := c.Radius(f2, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != before.Misses+1 {
		t.Fatalf("f2 should have been evicted: %+v", st)
	}
}

// valueImpact is an Impact implemented by a value type: it has no stable
// identity, so the cache must bypass it rather than risk collisions.
type valueImpact struct{ c float64 }

func (v valueImpact) Eval(pi []float64) float64 { return v.c * pi[0] }
func (v valueImpact) Dim() int                  { return 1 }

func TestCacheBypassesUncacheableAndNil(t *testing.T) {
	p := core.Perturbation{Name: "π", Orig: []float64{1}}
	f := core.Feature{Name: "v", Impact: valueImpact{c: 2}, Bounds: core.NoMin(4)}

	var nilCache *Cache
	r, err := nilCache.Radius(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Radius-1) > 1e-6 {
		t.Fatalf("radius = %v, want ≈1 (2x = 4 at x=2, distance 1)", r.Radius)
	}
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}

	c := NewCache(4)
	for i := 0; i < 3; i++ {
		if _, err := c.Radius(f, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Size != 0 {
		t.Fatalf("uncacheable impact should bypass entirely, got %+v", st)
	}
}

// TestCacheConcurrentEvictionWithPutFaults hammers a deliberately tiny
// cache — so inserts and LRU evictions race constantly — from many
// goroutines while a seeded schedule fails half the cache_put calls. The
// contract under test: every call still returns the correct radius (no
// result is ever lost to a put fault or duplicated into the wrong key),
// the dropped inserts are accounted in PutFailures, and the whole dance is
// race-clean (this test is the reason `make chaos` runs under -race).
func TestCacheConcurrentEvictionWithPutFaults(t *testing.T) {
	const (
		distinct   = 24 // feature variants, 3× the cache capacity
		workers    = 8
		iterations = 40
	)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	features := make([]core.Feature, distinct)
	want := make([]core.RadiusResult, distinct)
	for i := range features {
		features[i] = linFeature(t, fmt.Sprintf("F%d", i), []float64{1 + float64(i%5), 1}, float64(10+i))
		var err error
		want[i], err = core.ComputeRadius(features[i], p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}

	c := NewCache(distinct / 3)
	inj := faults.NewSeeded(11, faults.Config{
		Rates: map[faults.Point]map[faults.Kind]float64{
			faults.CachePut: {faults.KindError: 0.5},
		},
	})
	ctx := faults.With(context.Background(), inj)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				i := (w*13 + it*7) % distinct // per-worker stride over all keys
				got, err := c.RadiusContext(ctx, features[i], p, core.Options{})
				if err != nil {
					errs <- fmt.Errorf("worker %d: feature %d: %v", w, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("worker %d: feature %d: result diverged from direct ComputeRadius", w, i)
					return
				}
				// Lookup must agree with Radius whenever it reports a hit,
				// even while other workers are evicting around it.
				if cached, ok := c.Lookup(features[i], p, core.Options{}); ok {
					if !reflect.DeepEqual(cached, want[i]) {
						errs <- fmt.Errorf("worker %d: feature %d: Lookup returned a wrong result", w, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.PutFailures == 0 {
		t.Fatalf("no cache_put faults delivered (stats %+v) — schedule exercised nothing", st)
	}
	if st.Size > st.Capacity {
		t.Fatalf("cache overflowed its capacity: %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses under churn, got %+v", st)
	}
	t.Logf("churn stats: %+v, injected put faults: %d", st, inj.Delivered())
}
