package batch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fepia/internal/core"
	"fepia/internal/spec"
	"fepia/internal/vecmath"
)

// linearShapeFile is one system of fepiad's linear benchmark traffic:
// features sparse positive linear impacts over a dim-dimensional point,
// β^max 30–130% above each value there and a β^min on every other one.
func linearShapeFile(rng *rand.Rand, name string, dim, features int) spec.File {
	f := spec.File{Name: name, Perturbation: spec.PerturbationSpec{Name: "lambda", Orig: slabPoint(rng, dim)}}
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
		for i, a := range coeffs {
			v += a * f.Perturbation.Orig[i]
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

// convexShapeFile is one system of fepiad's convex benchmark traffic:
// four "terms" features (x², x³, x·log(1+x) and e^{x/2} terms) over a
// 12–16 dimensional point. With coordinates of at most 10 no feature
// exceeds ~2,300 there, so a β^max of 1e4–2e4 leaves every radius finite.
func convexShapeFile(rng *rand.Rand, name string) spec.File {
	dim := 12 + rng.Intn(5)
	f := spec.File{Name: name, Perturbation: spec.PerturbationSpec{Name: "lambda", Orig: slabPoint(rng, dim)}}
	for q := 0; q < 4; q++ {
		at := rng.Intn(dim)
		hi := 1e4 * (1 + rng.Float64())
		f.Features = append(f.Features, spec.FeatureSpec{Name: fmt.Sprintf("queue%d", q), Max: &hi,
			Impact: spec.ImpactSpec{Type: "terms", Terms: []spec.TermSpec{
				{Kind: "power", Index: at, Coeff: 1 + rng.Float64(), P: 2},
				{Kind: "power", Index: (at + 1) % dim, Coeff: 1 + rng.Float64(), P: 3},
				{Kind: "xlogx", Index: (at + 2) % dim, Coeff: 1 + rng.Float64()},
				{Kind: "exp", Index: (at + 3) % dim, Coeff: 0.1 + 0.1*rng.Float64(), P: 0.5},
			}}})
	}
	return f
}

// buildShape builds a benchmark-shaped document into a System.
func buildShape(tb testing.TB, f spec.File) *spec.System {
	tb.Helper()
	sys, err := spec.Build(f)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// finalizeFlag arms a finalizer on impact and returns the flag it sets.
func finalizeFlag(impact core.Impact) *atomic.Bool {
	var done atomic.Bool
	switch imp := impact.(type) {
	case *core.LinearImpact:
		runtime.SetFinalizer(imp, func(*core.LinearImpact) { done.Store(true) })
	case *core.FuncImpact:
		runtime.SetFinalizer(imp, func(*core.FuncImpact) { done.Store(true) })
	default:
		panic(fmt.Sprintf("no finalizer for %T", impact))
	}
	return &done
}

// collected runs the collector until flag is set or rounds run out, and
// reports whether it was set. Finalizers run on their own goroutine after
// the cycle that found their object unreachable, so each round yields.
func collected(flag *atomic.Bool, rounds int) bool {
	for i := 0; i < rounds && !flag.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return flag.Load()
}

// TestCacheValueKeyedEntriesPinNothing: a resident entry keyed by value —
// a linear impact ('L') or a fingerprinted terms impact ('T') — keeps
// nothing of the request it was solved from alive.
func TestCacheValueKeyedEntriesPinNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCacheSharded(8, 1)
	opts := core.Options{}.WithDefaults()

	// solveAll solves every feature of a freshly built system and
	// returns finalizer flags on its impacts; the system itself does not
	// outlive the call.
	solveAll := func(f spec.File) []*atomic.Bool {
		sys := buildShape(t, f)
		flags := make([]*atomic.Bool, len(sys.Features))
		for i, feat := range sys.Features {
			flags[i] = finalizeFlag(feat.Impact)
			if _, err := c.Radius(feat, sys.Perturbation, opts); err != nil {
				t.Fatal(err)
			}
		}
		return flags
	}
	linear := linearShapeFile(rng, "linear", 4, 1)
	convex := convexShapeFile(rng, "convex")
	convex.Features = convex.Features[:1]
	value := append(solveAll(linear), solveAll(convex)...)

	for i, flag := range value {
		if !collected(flag, 50) {
			t.Fatalf("value-keyed impact %d is still reachable from its resident cache entry", i)
		}
	}
	if st := c.Stats(); st.Size != 2 {
		t.Fatalf("after two solves: %d entries, want 2", st.Size)
	}
	if _, ok := c.Lookup(buildShape(t, linear).Features[0], core.Perturbation{Orig: linear.Perturbation.Orig}, opts); !ok {
		t.Fatal("the linear entry is no longer resident")
	}
}

// TestSpecImpactsKeyedByContent covers every impact spec.Build makes —
// linear, terms that collapse to linear, and convex terms — and requires
// each to be cacheable under a content key ('L' or 'T') that a second
// decode of the same document reproduces byte for byte. A spec impact
// type without one would silently solve on every request.
func TestSpecImpactsKeyedByContent(t *testing.T) {
	doc := []byte(`{"name":"kinds","perturbation":{"name":"λ","orig":[1,2,3]},"features":[
		{"name":"linear","max":50,"impact":{"type":"linear","coeffs":[1,2,3],"offset":1}},
		{"name":"terms-linear","max":50,"impact":{"type":"terms","terms":[{"kind":"linear","index":0,"coeff":2},{"kind":"linear","index":2,"coeff":1}]}},
		{"name":"terms-convex","max":500,"impact":{"type":"terms","terms":[{"kind":"power","index":1,"coeff":2,"p":2},{"kind":"exp","index":2,"coeff":0.5,"p":0.5}]}}]}`)
	wantPrefix := []byte{'L', 'L', 'T'}
	opts := core.Options{}.WithDefaults()
	keys := func() [][]byte {
		sys, err := spec.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(sys.Features) != len(wantPrefix) {
			t.Fatalf("%d features, want %d", len(sys.Features), len(wantPrefix))
		}
		out := make([][]byte, len(sys.Features))
		for i := range sys.Features {
			b, ok := appendRadiusKey(nil, &sys.Features[i], &sys.Perturbation, &opts)
			if !ok || b[0] != wantPrefix[i] {
				t.Fatalf("%s (%T): key ok=%v prefix %q, want a %q key", sys.Features[i].Name, sys.Features[i].Impact, ok, b[:min(len(b), 1)], wantPrefix[i])
			}
			out[i] = b
		}
		return out
	}
	first, second := keys(), keys()
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("feature %d: two decodes of one document key differently", i)
		}
	}
}

// sumOfSquares is an unfingerprinted convex FuncImpact, ‖π‖², which the
// cache cannot identify by content and so never caches.
func sumOfSquares(dim int) *core.FuncImpact {
	return &core.FuncImpact{N: dim, Convex: true, F: func(pi []float64) float64 { return vecmath.Dot(pi, pi) }}
}

// retainedPerEntry fills a default-capacity cache with twice its
// capacity of distinct subproblems, so every shard is full and has
// evicted, from documents that are dropped as they are inserted, and
// returns the live heap the cache holds per resident entry. Each entry
// is Put with a boundary point of the system's dimension, the shape of a
// solved radius, so no solver runs.
func retainedPerEntry(t *testing.T, next func() spec.File) float64 {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := NewCache(0)
	before := heap()
	opts := core.Options{}.WithDefaults()
	for c.Stats().Misses < 2*DefaultCacheCapacity {
		sys := buildShape(t, next())
		res := core.RadiusResult{Radius: 1, Boundary: sys.Perturbation.Orig, Kind: core.AtMax, Method: core.MethodConvex}
		for _, feat := range sys.Features {
			c.Put(feat, sys.Perturbation, opts, res)
		}
	}
	after := heap()
	st := c.Stats()
	runtime.KeepAlive(c)
	if st.Size != st.Capacity {
		t.Fatalf("cache holds %d of %d entries; every shard should be full", st.Size, st.Capacity)
	}
	return float64(after-before) / float64(st.Size)
}

// TestCacheRetainedPerEntry bounds the live heap a resident cache entry
// costs once the requests that filled the cache are gone: the key, the
// boundary point and the slot, with no request-built impact behind a
// value-keyed entry. Pinning the impact cost ~1,210 B per convex_zipf
// entry (four terms features over 12–16 dimensions) and ~610 B per 8×8
// linear entry.
func TestCacheRetainedPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort heap sizes")
	}
	for _, tc := range []struct {
		name  string
		next  func(*rand.Rand) spec.File
		limit float64
	}{
		{"convex_zipf", func(rng *rand.Rand) spec.File { return convexShapeFile(rng, "convex") }, 850},
		{"linear_8x8", func(rng *rand.Rand) spec.File { return linearShapeFile(rng, "linear", 8, 8) }, 560},
	} {
		rng := rand.New(rand.NewSource(9))
		got := retainedPerEntry(t, func() spec.File { return tc.next(rng) })
		t.Logf("%s: %.0f B retained per resident entry", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s: %.0f B retained per resident entry, want ≤ %.0f", tc.name, got, tc.limit)
		}
	}
}

// TestShardFootprint follows a shard's retained count through insert,
// replace and eviction, including a replace that swaps a boundary point
// for the nil boundary of an infinite radius.
func TestShardFootprint(t *testing.T) {
	s := newShard(2)
	check := func(what string, retained int) {
		t.Helper()
		if s.retained != retained {
			t.Fatalf("%s: %d B retained; want %d", what, s.retained, retained)
		}
	}
	point := core.RadiusResult{Radius: 1, Boundary: []float64{1, 2, 3}}
	s.insert([]byte("T-key"), 1, point, false)
	check("first insert", 5+24)
	s.insert([]byte("L-key-1"), 2, point, false)
	check("second insert", 5+24+7+24)
	s.insert([]byte("L-key-1"), 2, core.RadiusResult{Radius: math.Inf(1)}, true)
	check("replace with an infinite radius", 5+24+7)
	s.insert([]byte("L-key-2"), 3, point, false)
	check("eviction of the first entry", 7+7+24)
}
