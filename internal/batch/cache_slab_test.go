package batch

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fepia/internal/core"
)

// slabFeatures returns n distinct linear features over dim coordinates,
// each with a sparse positive coefficient vector and β^max 30–130% above
// its value at orig — the shape of fepiad's linear traffic. Distinct
// coefficients give every feature its own cache key.
func slabFeatures(tb testing.TB, rng *rand.Rand, n int, orig []float64) []core.Feature {
	tb.Helper()
	out := make([]core.Feature, n)
	for k := range out {
		coeffs := make([]float64, len(orig))
		coeffs[rng.Intn(len(orig))] = 0.5 + 1.5*rng.Float64()
		for i := range coeffs {
			if coeffs[i] == 0 && rng.Intn(3) == 0 {
				coeffs[i] = 0.5 + 1.5*rng.Float64()
			}
		}
		imp, err := core.NewLinearImpact(coeffs, 0)
		if err != nil {
			tb.Fatal(err)
		}
		at := 0.0
		for i, a := range coeffs {
			at += a * orig[i]
		}
		out[k] = core.Feature{Name: fmt.Sprintf("F%d", k), Impact: imp, Bounds: core.NoMin(at * (1.3 + rng.Float64()))}
	}
	return out
}

func slabPoint(rng *rand.Rand, dim int) []float64 {
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
	}
	return orig
}

// TestShardChainCollisions drives one shard with synthetic hashes so
// that distinct keys share a hash: find must still tell them apart by
// the full key, and evicting or replacing any link of a chain must
// leave the others reachable.
func TestShardChainCollisions(t *testing.T) {
	s := newShard(3)
	res := func(r float64) core.RadiusResult { return core.RadiusResult{Radius: r} }
	a, b, c, d := []byte("key-a"), []byte("key-b"), []byte("key-c"), []byte("key-d")
	const h = 42

	s.insert(a, h, res(1), false)
	s.insert(b, h, res(2), false)
	s.insert(c, 7, res(3), false)
	if len(s.index) != 2 {
		t.Fatalf("index has %d hashes, want 2 (a and b chained)", len(s.index))
	}
	for _, tc := range []struct {
		key  []byte
		hash uint64
		want float64
	}{{a, h, 1}, {b, h, 2}, {c, 7, 3}} {
		i := s.find(tc.key, tc.hash)
		if i == none || s.slots[i].result.Radius != tc.want {
			t.Fatalf("find(%s) = %d, want the slot holding radius %v", tc.key, i, tc.want)
		}
	}
	if s.find(d, h) != none {
		t.Fatal("a key absent from a non-empty chain was found")
	}
	if s.find(a, 7) != none {
		t.Fatal("a key was found under another key's hash")
	}

	// An insert without replace leaves an existing entry alone; Restore's
	// replace overwrites and refreshes it.
	s.insert(a, h, res(10), false)
	if got := s.slots[s.find(a, h)].result.Radius; got != 1 {
		t.Fatalf("insert without replace overwrote a: radius %v", got)
	}
	s.insert(a, h, res(11), true)
	if got := s.slots[s.find(a, h)].result.Radius; got != 11 {
		t.Fatalf("insert with replace kept radius %v", got)
	}

	// LRU is now b (oldest), c, a. A fourth key evicts b, the head of the
	// 42 chain, and takes over its slot under the same hash.
	s.insert(d, h, res(4), false)
	if s.find(b, h) != none {
		t.Fatal("evicted key b is still indexed")
	}
	for _, k := range [][]byte{a, d} {
		if s.find(k, h) == none {
			t.Fatalf("%s dropped out of the chain when b was unindexed", k)
		}
	}
	if len(s.slots) != 3 {
		t.Fatalf("slab grew to %d slots past capacity 3", len(s.slots))
	}

	// Evict c (a lone hash), then a (now the last link of the 42 chain).
	s.insert([]byte("key-e"), 9, res(5), false)
	if s.find(c, 7) != none {
		t.Fatal("evicted key c is still indexed")
	}
	if _, ok := s.index[7]; ok {
		t.Fatal("the emptied chain of c is still in the index")
	}
	s.insert([]byte("key-f"), h, res(6), false)
	if s.find(a, h) != none || s.find(d, h) == none || s.find([]byte("key-f"), h) == none {
		t.Fatal("evicting the last link of the 42 chain broke it")
	}

	var order []string
	for i := s.head; i != none; i = s.slots[i].next {
		order = append(order, string(s.slots[i].key))
	}
	if got, want := fmt.Sprint(order), "[key-f key-e key-d]"; got != want {
		t.Fatalf("LRU order MRU→LRU = %s, want %s", got, want)
	}
}

// TestSharedBoundarySurvivesSlotReuse pins the Boundary rule of the
// slab: a result handed out without the defensive clone aliases the
// cache's Boundary, so when its slot is evicted and reused by another
// key, the old Boundary must be left alone rather than overwritten.
func TestSharedBoundarySurvivesSlotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := core.Perturbation{Name: "π", Orig: slabPoint(rng, 8)}
	feats := slabFeatures(t, rng, 9, p.Orig)
	c := NewCacheSharded(1, 1)
	ctx := context.Background()

	if _, err := c.RadiusContextShared(ctx, feats[0], p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	shared, ok := c.LookupShared(feats[0], p, core.Options{})
	if !ok {
		t.Fatal("freshly solved radius is not cached")
	}
	want := append([]float64(nil), shared.Boundary...)
	for _, f := range feats[1:] {
		if _, err := c.RadiusContextShared(ctx, f, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.LookupShared(feats[0], p, core.Options{}); ok {
		t.Fatal("the first key survived eight evictions from a one-slot cache")
	}
	for i := range want {
		if shared.Boundary[i] != want[i] {
			t.Fatalf("shared Boundary changed after its slot was reused: %v, want %v", shared.Boundary, want)
		}
	}
}

// TestSnapshotUnderInsertLoad runs Snapshot against a shard that another
// goroutine keeps evicting into. Slot key buffers are reused, so a
// snapshot that read them outside the shard lock would race (the race
// detector catches it) or persist torn keys, which a restore would
// refuse or mis-file.
func TestSnapshotUnderInsertLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := core.Perturbation{Name: "π", Orig: slabPoint(rng, 8)}
	feats := slabFeatures(t, rng, 64, p.Orig)
	c := NewCacheSharded(8, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.RadiusContextShared(context.Background(), feats[i%len(feats)], p, core.Options{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if _, err := c.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		// Every persisted key must still be one of the workload's keys:
		// a restored entry then answers exactly what a solve would.
		dst := NewCacheSharded(64, 1)
		n, err := dst.Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, f := range feats {
			if got, ok := dst.Lookup(f, p, core.Options{}); ok {
				hits++
				want, err := core.ComputeRadius(f, p, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Radius != want.Radius {
					t.Fatalf("restored radius of %s = %v, want %v", f.Name, got.Radius, want.Radius)
				}
			}
		}
		if hits != n {
			t.Fatalf("snapshot of %d entries restored only %d of the workload's keys", n, hits)
		}
	}
}

// TestCacheMissAllocs is the allocation gate of the miss path: a miss
// into a full shard (evicting its LRU slot) allocates no more than
// core.ComputeRadius does on its own for the same feature — the cache's
// bookkeeping (key, flight, slot, LRU link, index) allocates nothing.
func TestCacheMissAllocs(t *testing.T) {
	const capacity, runs = 8, 200
	rng := rand.New(rand.NewSource(3))
	p := core.Perturbation{Name: "π", Orig: slabPoint(rng, 8)}
	feats := slabFeatures(t, rng, capacity+runs+1, p.Orig)
	opts := core.Options{}.WithDefaults()
	ctx := context.Background()
	c := NewCacheSharded(capacity, 1)
	for _, f := range feats[:capacity] {
		if _, err := c.RadiusContextShared(ctx, f, p, opts); err != nil {
			t.Fatal(err)
		}
	}

	next := capacity
	miss := testing.AllocsPerRun(runs, func() {
		if _, err := c.RadiusContextShared(ctx, feats[next], p, opts); err != nil {
			t.Fatal(err)
		}
		next++
	})
	solve := testing.AllocsPerRun(runs, func() {
		if _, err := core.ComputeRadius(feats[0], p, opts); err != nil {
			t.Fatal(err)
		}
	})
	if st := c.Stats(); st.Misses != uint64(capacity+runs+1) || st.Hits != 0 || st.Size != capacity {
		t.Fatalf("stats = %+v, want every run a miss into a full shard", st)
	}
	if miss > solve {
		t.Fatalf("evicting miss allocs/op = %g, core.ComputeRadius alone = %g", miss, solve)
	}
}

// BenchmarkCacheMissEvicting prices one radius miss into a full, evicting
// cache — the batch_cold_linear shape: 8×8 sparse linear features whose
// keys cycle through four times the cache's capacity, so under LRU every
// call misses, solves and evicts.
func BenchmarkCacheMissEvicting(b *testing.B) {
	const capacity = 1024
	rng := rand.New(rand.NewSource(2003))
	p := core.Perturbation{Name: "π", Orig: slabPoint(rng, 8)}
	feats := slabFeatures(b, rng, 4*capacity, p.Orig)
	opts := core.Options{}.WithDefaults()
	ctx := context.Background()
	c := NewCacheSharded(capacity, 8)
	for _, f := range feats {
		if _, err := c.RadiusContextShared(ctx, f, p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RadiusContextShared(ctx, feats[i%len(feats)], p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Hits != 0 {
		b.Fatalf("%d hits: the key cycle no longer evicts every key", st.Hits)
	}
}

// BenchmarkWatcherStepLinear prices one Watcher.Step in the watch_linear
// shape: sessions of 64 single-coordinate steps over systems of eight
// sparse linear features in eight dimensions, cycled round-robin through
// one default cache with the server's options (kernel off, boundaries
// shared). 64 sessions × 64 steps × 8 features is four times the cache,
// so every step's eight radii miss and evict.
func BenchmarkWatcherStepLinear(b *testing.B) {
	const steps, sessions = 64, 64
	rng := rand.New(rand.NewSource(2003))
	systems := make([]Job, 16)
	for i := range systems {
		orig := slabPoint(rng, 8)
		systems[i] = Job{Features: slabFeatures(b, rng, 8, orig), Perturbation: core.Perturbation{Name: "lambda", Orig: orig}}
	}
	type session struct {
		job    Job
		points [][]float64
	}
	plays := make([]session, sessions)
	for i := range plays {
		job := systems[rng.Intn(len(systems))]
		points := make([][]float64, steps)
		cur := job.Perturbation.Orig
		for s := range points {
			next := append([]float64(nil), cur...)
			next[rng.Intn(len(next))] *= 0.97 + 0.06*rng.Float64()
			points[s], cur = next, next
		}
		plays[i] = session{job: job, points: points}
	}
	opts := Options{Cache: NewCache(0), ShareBoundaries: true}
	ctx := context.Background()

	var w *Watcher
	run := func(i int) {
		play := plays[(i/steps)%sessions]
		if i%steps == 0 {
			var err error
			if w, err = NewWatcher(play.job, opts); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.Step(ctx, play.points[i%steps]); err != nil {
			b.Fatal(err)
		}
	}
	// One full cycle fills the cache, so the timed steps all evict.
	for i := 0; i < steps*sessions; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}
