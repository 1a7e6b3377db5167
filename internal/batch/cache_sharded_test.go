package batch

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fepia/internal/core"
)

// TestShardRouting pins the routing contract: the shard index is a pure
// function of the byte key, so the same subproblem always lands on the
// same shard, from any goroutine, and an insert occupies exactly one
// shard.
func TestShardRouting(t *testing.T) {
	c := NewCacheSharded(64, 8)
	if got := len(c.shards); got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}
	f := linFeature(t, "F", []float64{1, 2}, 10)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	opts := core.Options{}.WithDefaults()

	key, ok := appendRadiusKey(nil, &f, &p, &opts)
	if !ok {
		t.Fatal("linear impact must be cacheable")
	}
	want := c.shardFor(fnv1a(key))

	// Many goroutines building the key independently must route identically.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, ok := appendRadiusKey(nil, &f, &p, &opts)
			if !ok || c.shardFor(fnv1a(k)) != want {
				t.Error("same key routed to a different shard")
			}
		}()
	}
	wg.Wait()

	if _, err := c.Radius(f, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	sizes := c.ShardSizes()
	occupied, total := 0, 0
	for _, n := range sizes {
		total += n
		if n > 0 {
			occupied++
		}
	}
	if occupied != 1 || total != 1 {
		t.Fatalf("one insert should occupy exactly one shard, got sizes %v", sizes)
	}
}

// TestShardStatsMergeExact drives a known hit/miss schedule over many
// shards and asserts the merged CacheStats reproduce it exactly: k
// distinct keys solved once each (k misses), every key re-read r times
// (k·r hits), occupancy k, and per-shard sizes summing to the merged
// Size.
func TestShardStatsMergeExact(t *testing.T) {
	const k, r = 24, 3
	c := NewCacheSharded(128, 16)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	features := make([]core.Feature, k)
	for i := range features {
		features[i] = linFeature(t, fmt.Sprintf("F%d", i), []float64{1 + float64(i), 1}, float64(10+i))
	}
	for _, f := range features {
		if _, err := c.Radius(f, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < r; pass++ {
		for _, f := range features {
			if _, err := c.Radius(f, p, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := c.Stats()
	if st.Misses != k || st.Hits != k*r || st.DupSuppressed != 0 {
		t.Fatalf("stats = %+v, want %d misses / %d hits / 0 dups", st, k, k*r)
	}
	if st.Size != k {
		t.Fatalf("size = %d, want %d", st.Size, k)
	}
	if st.Shards != 16 {
		t.Fatalf("shards = %d, want 16", st.Shards)
	}
	sum := 0
	for _, n := range c.ShardSizes() {
		sum += n
	}
	if sum != st.Size {
		t.Fatalf("per-shard sizes sum to %d, merged Size is %d", sum, st.Size)
	}
	if got, want := st.HitRate(), float64(k*r)/float64(k*r+k); got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
}

// TestCachePerShardLRUEviction fills a 2-shard cache with one entry per
// shard far past capacity: every shard must evict independently and never
// exceed its slice of the budget.
func TestCachePerShardLRUEviction(t *testing.T) {
	const distinct = 32
	c := NewCacheSharded(2, 2) // per-shard capacity 1
	p := core.Perturbation{Name: "π", Orig: []float64{0, 0}}
	for i := 0; i < distinct; i++ {
		f := linFeature(t, fmt.Sprintf("F%d", i), []float64{1 + float64(i), 1}, 1)
		if _, err := c.Radius(f, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
		for shard, n := range c.ShardSizes() {
			if n > 1 {
				t.Fatalf("shard %d holds %d entries, per-shard capacity is 1", shard, n)
			}
		}
	}
	st := c.Stats()
	if st.Size > st.Capacity {
		t.Fatalf("size %d exceeds capacity %d", st.Size, st.Capacity)
	}
	if st.Misses != distinct {
		t.Fatalf("misses = %d, want %d distinct solves", st.Misses, distinct)
	}

	// The most recently used key of each shard must still be resident:
	// re-reading the last inserted key is a hit, not a recompute.
	last := linFeature(t, fmt.Sprintf("F%d", distinct-1), []float64{1 + float64(distinct-1), 1}, 1)
	before := c.Stats()
	if _, err := c.Radius(last, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("most recent entry was evicted from its shard: %+v", st)
	}
}

// TestCacheShardClamping pins the constructor's shaping rules: shard
// counts round up to powers of two, never exceed the entry budget, and
// the effective capacity is the per-shard sum.
func TestCacheShardClamping(t *testing.T) {
	for _, tc := range []struct {
		capacity, shards int
		wantShards       int
	}{
		{16, 3, 4},    // rounds up to a power of two
		{2, 64, 2},    // clamped: no more shards than entries
		{1, 8, 1},     // degenerate single-entry cache
		{100, 16, 16}, // ceil(100/16)=7 per shard, effective capacity 112
	} {
		c := NewCacheSharded(tc.capacity, tc.shards)
		if got := len(c.shards); got != tc.wantShards {
			t.Errorf("NewCacheSharded(%d, %d): shards = %d, want %d", tc.capacity, tc.shards, got, tc.wantShards)
		}
		st := c.Stats()
		if st.Capacity < tc.capacity {
			t.Errorf("NewCacheSharded(%d, %d): capacity %d below request", tc.capacity, tc.shards, st.Capacity)
		}
	}
}

// TestSharedLookupMatchesCloned pins the Shared variants: identical
// values to the cloning paths, with the boundary aliasing cache memory
// instead of copying it.
func TestSharedLookupMatchesCloned(t *testing.T) {
	c := NewCache(16)
	f := linFeature(t, "F", []float64{1, 1}, 10)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	if _, err := c.Radius(f, p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	cloned, ok1 := c.Lookup(f, p, core.Options{})
	shared, ok2 := c.LookupShared(f, p, core.Options{})
	if !ok1 || !ok2 || !reflect.DeepEqual(cloned, shared) {
		t.Fatalf("shared lookup diverges: %+v (%v) vs %+v (%v)", cloned, ok1, shared, ok2)
	}
	if len(shared.Boundary) > 0 && &shared.Boundary[0] == &cloned.Boundary[0] {
		t.Fatal("Lookup must clone; it returned the shared backing array")
	}
	again, _ := c.LookupShared(f, p, core.Options{})
	if len(shared.Boundary) > 0 && &shared.Boundary[0] != &again.Boundary[0] {
		t.Fatal("LookupShared should alias the cache-owned boundary")
	}
}
