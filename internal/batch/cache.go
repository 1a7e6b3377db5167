package batch

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/obs"
	"fepia/internal/vecmath"
)

// DefaultCacheCapacity bounds a zero-configured cache. At ~50 features per
// HiPer-D mapping it holds the working set of several full §4.3 sweeps.
const DefaultCacheCapacity = 8192

// maxShards bounds the shard count: past a few hundred shards the
// per-shard maps cost more memory than the contention they remove.
const maxShards = 256

// Cache memoises per-feature radius computations. The key identifies the
// complete subproblem of Eq. 1: the impact function, the bounds
// ⟨β^min, β^max⟩, the operating point π^orig, and the analysis options
// (norm plus solver/anneal budgets). Affine impacts are keyed by value
// (coefficients and offset) and fingerprinted convex impacts by their
// fingerprint, so structurally identical features hit across distinct
// requests and mappings. Any other impact has no content identity and is
// uncacheable: every call solves it and no count sees it. An entry holds
// just its key and its answer, never the request-built impact it was
// solved from.
//
// Scaling: the cache is split into a power-of-two number of shards, each
// its own mutex + slab of entry slots, selected by a 64-bit FNV-1a hash
// of the byte key. The same hash indexes the slot inside the shard, but
// it never decides equality: slots whose keys share a hash are chained
// and compared by the full byte key, so a hash collision merely costs a
// chain step. Concurrent misses on the same key are deduplicated
// (singleflight): the first caller becomes the leader and runs
// core.ComputeRadius once, every concurrent caller of the same key parks
// until the leader publishes, and a leader failure propagates to the
// waiters without anything being cached.
//
// Eviction is LRU per shard with a fixed per-shard entry capacity. All
// methods are safe for concurrent use; a nil *Cache is valid and simply
// computes every radius.
type Cache struct {
	shards []*cacheShard
	mask   uint64

	// putFails counts inserts skipped because a cache_put fault fired; a
	// put failure only costs future hits, never the computed result.
	putFails atomic.Uint64
	// contended counts shard-lock acquisitions that found the lock held
	// (TryLock failed before the blocking Lock): a cheap proxy for how
	// often the sharding actually had to absorb contention.
	contended atomic.Uint64
}

// none is the null slot index: an empty chain, LRU end or lookup miss.
const none int32 = -1

// cacheShard is one independently locked slice of the key space. Its
// entries live in slots, a slab that grows lazily up to capacity; once
// it is full an insert reuses the least recently used slot, key buffer
// included, so a steady-state miss allocates nothing for bookkeeping.
// index maps a key's fnv1a hash to the first slot of its chain, LRU
// order is an intrusive doubly linked list of slot indices, and the
// solves in progress sit in flights. Every field is guarded by mu.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	slots    []slot
	index    map[uint64]int32
	// head is the most and tail the least recently used slot (none while
	// the shard is empty).
	head, tail int32
	// flights are the solves in progress; idle holds retired flights
	// that no waiter ever saw, ready for the next miss.
	flights []*flight
	idle    []*flight
	hits    uint64
	misses  uint64
	dup     uint64
	// retained is the key plus boundary bytes of every resident slot.
	retained int
}

// slot is one memoised radius. key is the full byte key, which names the
// impact by value ('L') or fingerprint ('T'); it is owned by the slot
// and overwritten when the slot is reused, so it never leaves the shard
// lock uncopied. result.Boundary, by contrast, is never reused: a
// reused slot gets the new result's own slice, because ShareBoundaries
// callers may still alias the old one.
type slot struct {
	key  []byte
	hash uint64
	// chain is the next slot whose key has the same hash.
	chain int32
	// prev is the LRU neighbour toward head, next the one toward tail.
	prev, next int32
	result     core.RadiusResult
}

// flight is one in-progress radius computation being shared by every
// concurrent caller of its key. res and err are written exactly once,
// before done is closed; the close is the publication barrier. done is
// created lazily, under the shard lock, by the FIRST caller that
// actually parks — the uncontended cold path (one caller, no waiters)
// therefore never allocates or closes a channel. The leader's publish
// reads done under the same lock, so it either sees the waiter's
// channel (and closes it) or the waiter never saw the flight at all —
// and only in that second case is the flight reused for a later miss.
type flight struct {
	key  []byte
	hash uint64
	done chan struct{}
	res  core.RadiusResult
	err  error
}

// keyBuf is a pooled key-construction buffer: every cache access builds
// its byte key in one of these and returns it, so a lookup allocates
// nothing for the key (the shard copies it into a slot or a flight only
// when it has to keep it).
type keyBuf struct{ b []byte }

var keyPool = sync.Pool{New: func() any { return &keyBuf{b: make([]byte, 0, 256)} }}

// NewCache returns a cache bounded to the given number of entries with a
// shard count derived from GOMAXPROCS; capacity ≤ 0 selects
// DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	return NewCacheSharded(capacity, 0)
}

// NewCacheSharded returns a cache bounded to ~capacity entries split over
// the given number of shards. shards is rounded up to a power of two,
// clamped so every shard holds at least one entry, and ≤ 0 selects a
// default derived from GOMAXPROCS. The effective total capacity is
// shards × ceil(capacity/shards), so it may exceed the request by less
// than one entry per shard.
func NewCacheSharded(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	if shards <= 0 {
		shards = defaultShardCount()
	}
	shards = nextPowerOfTwo(shards)
	for shards > 1 && shards > capacity {
		shards >>= 1
	}
	perShard := (capacity + shards - 1) / shards
	c := &Cache{shards: make([]*cacheShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i] = newShard(perShard)
	}
	return c
}

// defaultShardCount sizes the shard set for the machine: enough shards
// that GOMAXPROCS concurrent lookups rarely collide, clamped to
// [8, maxShards].
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0) * 8
	if n < 8 {
		n = 8
	}
	if n > maxShards {
		n = maxShards
	}
	return nextPowerOfTwo(n)
}

// nextPowerOfTwo rounds n up to the next power of two (min 1).
func nextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// fnv1a is a 64-bit FNV-1a hash of the byte key, folding eight bytes per
// round instead of one: radius keys run ~300 bytes and the byte-wise
// loop was over half the warm-hit cost under profile. FNV's multiply
// only propagates entropy upward, so a final avalanche spreads the high
// bits back into the low bits the shard mask reads. The hash only
// selects a shard — equality is always decided by the full key — so a
// collision costs distribution, never correctness.
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime64
		b = b[8:]
	}
	var tail uint64
	for i := len(b) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(b[i])
	}
	h = (h ^ tail) * prime64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// shardFor routes a key, by its fnv1a hash, to its shard.
func (c *Cache) shardFor(h uint64) *cacheShard {
	return c.shards[h&c.mask]
}

// newShard returns an empty shard of the given capacity. The index is
// sized for a full shard up front; the slot slab is not, so a cache that
// never fills never pays for its whole capacity.
func newShard(capacity int) *cacheShard {
	return &cacheShard{
		capacity: capacity,
		index:    make(map[uint64]int32, capacity),
		head:     none,
		tail:     none,
	}
}

// find returns the slot holding key b (hash h), or none.
func (s *cacheShard) find(b []byte, h uint64) int32 {
	i, ok := s.index[h]
	if !ok {
		return none
	}
	for ; i != none; i = s.slots[i].chain {
		if bytes.Equal(s.slots[i].key, b) {
			return i
		}
	}
	return none
}

// insert stores res under key b (hash h) at the LRU front. An existing
// entry keeps its slot: with replace its result is overwritten and it
// moves to the front, otherwise it is left exactly as it was. A new
// entry takes a fresh slot while the slab is below capacity and the
// least recently used slot after that. This is the only insert: the
// singleflight leader's publish, Put and Restore all go through it.
func (s *cacheShard) insert(b []byte, h uint64, res core.RadiusResult, replace bool) {
	if i := s.find(b, h); i != none {
		if replace {
			sl := &s.slots[i]
			s.retained += boundaryBytes(res) - boundaryBytes(sl.result)
			sl.result = res
			s.touch(i)
		}
		return
	}
	var i int32
	if len(s.slots) < s.capacity {
		if len(s.slots) == cap(s.slots) {
			grown := make([]slot, len(s.slots), min(max(2*cap(s.slots), 8), s.capacity))
			copy(grown, s.slots)
			s.slots = grown
		}
		i = int32(len(s.slots))
		s.slots = s.slots[:i+1]
	} else {
		i = s.tail
		s.unlink(i)
		s.unindex(i)
		s.retained -= len(s.slots[i].key) + boundaryBytes(s.slots[i].result)
	}
	sl := &s.slots[i]
	if cap(sl.key) < len(b) {
		// Grow to the key's exact size: append's headroom would be kept
		// for the slot's lifetime.
		sl.key = make([]byte, 0, len(b))
	}
	sl.key = append(sl.key[:0], b...)
	sl.hash = h
	sl.result = res
	s.retained += len(sl.key) + boundaryBytes(res)
	sl.chain = none
	if j, ok := s.index[h]; ok {
		sl.chain = j
	}
	s.index[h] = i
	s.pushFront(i)
}

// boundaryBytes is the size of a result's boundary point.
func boundaryBytes(res core.RadiusResult) int { return 8 * len(res.Boundary) }

// unindex removes slot i from its hash chain.
func (s *cacheShard) unindex(i int32) {
	sl := &s.slots[i]
	j := s.index[sl.hash]
	if j == i {
		if sl.chain == none {
			delete(s.index, sl.hash)
		} else {
			s.index[sl.hash] = sl.chain
		}
		return
	}
	for s.slots[j].chain != i {
		j = s.slots[j].chain
	}
	s.slots[j].chain = sl.chain
}

// touch moves slot i to the LRU front.
func (s *cacheShard) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// pushFront links an unlinked slot i in as the most recently used.
func (s *cacheShard) pushFront(i int32) {
	sl := &s.slots[i]
	sl.prev, sl.next = none, s.head
	if s.head != none {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// unlink takes slot i out of the LRU list.
func (s *cacheShard) unlink(i int32) {
	sl := &s.slots[i]
	if sl.prev != none {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next != none {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
}

// flightFor returns the solve in progress for key b (hash h), or nil.
// The slice holds one flight per concurrent miss on the shard, so a
// linear scan beats any index.
func (s *cacheShard) flightFor(b []byte, h uint64) *flight {
	for _, fl := range s.flights {
		if fl.hash == h && bytes.Equal(fl.key, b) {
			return fl
		}
	}
	return nil
}

// takeOff registers a new flight for key b (hash h), reusing an idle
// one — key buffer included — when there is one.
func (s *cacheShard) takeOff(b []byte, h uint64) *flight {
	var fl *flight
	if n := len(s.idle); n > 0 {
		fl = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		fl = &flight{}
	}
	fl.key = append(fl.key[:0], b...)
	fl.hash = h
	s.flights = append(s.flights, fl)
	return fl
}

// land retires a published flight and returns its park channel. A
// flight no waiter parked on (done == nil here, under the lock) can no
// longer be reached by anyone, so it goes back to idle; one with
// waiters is left to them, since they read res and err after the close.
func (s *cacheShard) land(fl *flight) chan struct{} {
	for k, g := range s.flights {
		if g == fl {
			last := len(s.flights) - 1
			s.flights[k] = s.flights[last]
			s.flights[last] = nil
			s.flights = s.flights[:last]
			break
		}
	}
	done := fl.done
	if done == nil {
		fl.res, fl.err = core.RadiusResult{}, nil
		s.idle = append(s.idle, fl)
	}
	return done
}

// lock acquires a shard's mutex, counting the acquisitions that had to
// wait as the cache's contention proxy.
func (c *Cache) lock(s *cacheShard) {
	if s.mu.TryLock() {
		return
	}
	c.contended.Add(1)
	s.mu.Lock()
}

// CacheStats reports cache effectiveness, merged across every shard.
// The merge locks one shard at a time, so under concurrent traffic it is
// a consistent-per-shard (not globally atomic) snapshot.
type CacheStats struct {
	// Hits counts Radius calls served from the cache. Misses counts
	// singleflight leaders: concurrent duplicate solvers of one key count
	// one miss (the leader) with the duplicates in DupSuppressed, so
	// HitRate prices real solver work, not queueing. Uncacheable impacts
	// (anything but a LinearImpact or a fingerprinted FuncImpact) appear
	// in no count.
	Hits, Misses uint64
	// DupSuppressed counts calls that coalesced onto another caller's
	// in-flight computation instead of solving (or missing) themselves.
	DupSuppressed uint64
	// Size and Capacity describe current occupancy, summed over shards.
	Size, Capacity int
	// Shards is the shard count (a power of two).
	Shards int
	// PutFailures counts inserts dropped by injected cache_put faults
	// (the computed result was still returned to the caller).
	PutFailures uint64
	// Contended counts shard-lock acquisitions that found the lock held —
	// the contention the sharding did not manage to spread.
	Contended uint64
	// RetainedBytes sums the key and boundary bytes of resident entries.
	RetainedBytes int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the merged counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Shards:      len(c.shards),
		PutFailures: c.putFails.Load(),
		Contended:   c.contended.Load(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.DupSuppressed += s.dup
		st.Size += len(s.slots)
		st.Capacity += s.capacity
		st.RetainedBytes += s.retained
		s.mu.Unlock()
	}
	return st
}

// ShardSizes returns the current entry count of every shard, in shard
// order — the per-shard occupancy the fepiad metrics export.
func (c *Cache) ShardSizes() []int {
	if c == nil {
		return nil
	}
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = len(s.slots)
		s.mu.Unlock()
	}
	return out
}

// ShardSize returns the entry count of one shard, or 0 for an index out
// of range. Scrape-time gauges call this per shard so a scrape stays
// O(shards) rather than rebuilding the full ShardSizes slice per gauge.
func (c *Cache) ShardSize(i int) int {
	if c == nil || i < 0 || i >= len(c.shards) {
		return 0
	}
	s := c.shards[i]
	s.mu.Lock()
	n := len(s.slots)
	s.mu.Unlock()
	return n
}

// Radius returns core.ComputeRadius(f, p, opts), memoised. On a hit the
// boundary point is cloned so callers may mutate their copy freely. A nil
// receiver computes directly. opts should be pre-normalised with
// WithDefaults when the caller loops, so equal configurations key
// equally; Radius normalises again only for key construction, never for
// semantics (core.ComputeRadius applies its own defaults). It delegates
// to RadiusContext with context.Background(), so no fault-injection
// points fire.
func (c *Cache) Radius(f core.Feature, p core.Perturbation, opts core.Options) (core.RadiusResult, error) {
	return c.radius(context.Background(), f, p, opts, true)
}

// RadiusContext is Radius under a context: the harness's cache_get and
// cache_put injection points fire around the lookup and the insert. A
// get-side fault fails the call (the retry layer re-attempts transient
// ones); a put-side fault is absorbed — the computed result is returned
// and only the memoisation is lost, counted in CacheStats.PutFailures.
func (c *Cache) RadiusContext(ctx context.Context, f core.Feature, p core.Perturbation, opts core.Options) (core.RadiusResult, error) {
	return c.radius(ctx, f, p, opts, true)
}

// RadiusContextShared is RadiusContext without the defensive boundary
// clone: on a hit (or a coalesced miss) the result's Boundary aliases
// cache-owned memory, so the caller must treat it as read-only. It exists
// for pipelines that only read the result — the fepiad handlers encode it
// to JSON and drop it — where the clone is the last allocation on the
// warm path.
func (c *Cache) RadiusContextShared(ctx context.Context, f core.Feature, p core.Perturbation, opts core.Options) (core.RadiusResult, error) {
	return c.radius(ctx, f, p, opts, false)
}

func (c *Cache) radius(ctx context.Context, f core.Feature, p core.Perturbation, opts core.Options, clone bool) (core.RadiusResult, error) {
	if c == nil {
		return core.ComputeRadius(f, p, opts)
	}
	k, ok := c.route(&f, &p, &opts)
	if !ok {
		return core.ComputeRadius(f, p, opts)
	}
	// Traces record cache traffic only on a fault branch — a failed get
	// or a dropped put; hits and misses are counted on the request's
	// RequestStats and surface on the system's solve stage span.
	if err := faults.Inject(ctx, faults.CacheGet); err != nil {
		k.release()
		obs.StartSpan(ctx, "cache_get").End(err)
		return core.RadiusResult{}, err
	}

	rs := requestStats(ctx)
	if res, hit := c.get(k, f.Name, true, clone, true); hit {
		if rs != nil {
			rs.Hits.Add(1)
		}
		return res, nil
	}
	// A miss: get left the shard locked and the key buffer held.
	s := k.s
	if fl := s.flightFor(k.kb.b, k.h); fl != nil {
		// Another caller is already solving this key: park on its flight
		// instead of duplicating the solve. The leader's verdict — result
		// or failure — is shared verbatim. The park channel is created
		// here, under the shard lock, on first need: a flight that never
		// gathers waiters never pays for one.
		if fl.done == nil {
			fl.done = make(chan struct{})
		}
		done := fl.done
		s.dup++
		s.mu.Unlock()
		k.release()
		if rs != nil {
			rs.Coalesced.Add(1)
		}
		tr := obs.TraceFrom(ctx)
		parked := tr.Clock()
		var err error
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-done:
			err = fl.err
		}
		if err != nil {
			tr.StartSpanAt("cache_get", parked).Set("coalesced", "true").End(err)
			return core.RadiusResult{}, err
		}
		res := fl.res
		if clone {
			res.Boundary = vecmath.Clone(res.Boundary)
		}
		res.Feature = f.Name
		return res, nil
	}
	// Miss with no flight in progress: become the leader.
	fl := s.takeOff(k.kb.b, k.h)
	s.misses++
	s.mu.Unlock()
	k.release()
	if rs != nil {
		rs.Misses.Add(1)
	}
	return c.lead(ctx, s, fl, f, p, opts, clone)
}

// lead runs the computation a singleflight leader owes its waiters and
// publishes the outcome exactly once. Publication must survive every exit
// path — including a panicking solve or an injected panic fault at the
// cache_put point — or parked waiters would deadlock, so the panic path
// publishes the failure before re-panicking into the caller's per-feature
// recovery (solveFeature converts it into a typed *core.SolveError).
//
// Publish and insert share ONE critical section: the original split —
// insert under one lock, then retire the flight under another — charged
// every first-touch miss a second lock round-trip (measured as part of
// the BENCH_8 cold-path gap against the single-mutex baseline). res and
// err are written before the lock is taken and the waiter channel is
// read under it, so a waiter that parked sees both via the close. The
// flight may be reused as soon as the lock is released, so nothing here
// reads it after publishing.
func (c *Cache) lead(ctx context.Context, s *cacheShard, fl *flight, f core.Feature, p core.Perturbation, opts core.Options, clone bool) (core.RadiusResult, error) {
	published := false
	publish := func(res core.RadiusResult, err error, insert bool) {
		fl.res, fl.err = res, err
		c.lock(s)
		if insert {
			s.insert(fl.key, fl.hash, res, false)
		}
		done := s.land(fl)
		s.mu.Unlock()
		published = true
		if done != nil {
			close(done)
		}
	}
	defer func() {
		if published {
			return
		}
		rec := recover()
		err := fmt.Errorf("batch: radius singleflight leader exited without publishing")
		if e, ok := rec.(error); ok {
			err = e // keep injected faults classifiable by the retry layer
		} else if rec != nil {
			err = fmt.Errorf("batch: radius singleflight leader panicked: %v", rec)
		}
		publish(core.RadiusResult{}, err, false)
		if rec != nil {
			panic(rec)
		}
	}()

	res, err := core.ComputeRadius(f, p, opts)
	if err != nil {
		// A failed solve is never cached: the next caller leads a fresh
		// attempt. Waiters receive this leader's error verbatim.
		publish(core.RadiusResult{}, err, false)
		return core.RadiusResult{}, err
	}

	if ferr := faults.Inject(ctx, faults.CachePut); ferr != nil {
		// A put fault costs only the memoisation — the result still
		// reaches this caller and every parked waiter.
		c.putFails.Add(1)
		obs.StartSpan(ctx, "cache_put").Set("dropped", "true").End(ferr)
		publish(res, nil, false)
	} else {
		publish(res, nil, true)
	}

	out := res
	if clone {
		out.Boundary = vecmath.Clone(out.Boundary)
	}
	out.Feature = f.Name
	return out, nil
}

// probe is one cache access's routed key: the pooled buffer holding the
// key bytes, their fnv1a hash and the shard the hash selects.
type probe struct {
	kb *keyBuf
	h  uint64
	s  *cacheShard
}

// route builds the subproblem's key in a pooled buffer and routes it.
// ok=false means the impact is uncacheable; the buffer is then already
// back in the pool.
func (c *Cache) route(f *core.Feature, p *core.Perturbation, opts *core.Options) (probe, bool) {
	kb := keyPool.Get().(*keyBuf)
	o := opts.WithDefaults()
	b, ok := appendRadiusKey(kb.b[:0], f, p, &o)
	kb.b = b // keep the grown buffer when it goes back to the pool
	if !ok {
		keyPool.Put(kb)
		return probe{}, false
	}
	h := fnv1a(b)
	return probe{kb: kb, h: h, s: c.shardFor(h)}, true
}

// release returns the probe's key buffer to the pool.
func (k probe) release() { keyPool.Put(k.kb) }

// get is the cache's one read path, shared by Radius, Lookup and the
// kernel's counting read. A hit moves the entry to the LRU front, counts
// it when count is set, clones the Boundary when clone is set (see
// RadiusContextShared) and re-stamps the caller's feature name: the key
// identifies the subproblem, not the feature's display name, so a hit is
// indistinguishable from a fresh core.ComputeRadius call. A hit releases
// the probe. On a miss with hold set, get returns with the shard still
// locked and the probe still held, so the caller can join or start a
// flight in the same critical section; a miss without hold releases both.
func (c *Cache) get(k probe, name string, count, clone, hold bool) (core.RadiusResult, bool) {
	s := k.s
	c.lock(s)
	i := s.find(k.kb.b, k.h)
	if i == none {
		if !hold {
			s.mu.Unlock()
			k.release()
		}
		return core.RadiusResult{}, false
	}
	s.touch(i)
	if count {
		s.hits++
	}
	res := s.slots[i].result
	s.mu.Unlock()
	k.release()
	if clone {
		res.Boundary = vecmath.Clone(res.Boundary)
	}
	res.Feature = name
	return res, true
}

// read is a cache read that never starts a solve and never joins a
// flight; count says whether a hit moves the hit counter.
func (c *Cache) read(f core.Feature, p core.Perturbation, opts core.Options, count, clone bool) (core.RadiusResult, bool) {
	if c == nil {
		return core.RadiusResult{}, false
	}
	k, ok := c.route(&f, &p, &opts)
	if !ok {
		return core.RadiusResult{}, false
	}
	return c.get(k, f.Name, count, clone, false)
}

// Lookup returns the memoised radius for the subproblem, or ok=false when
// it is absent or uncacheable. It never starts a solve, never joins a
// flight, and no injection point fires — this is the degraded serving
// path of the fepiad server, which must answer from whatever the cache
// already holds when the engine is unavailable. A successful lookup
// refreshes the entry's LRU position but moves neither the hit nor the
// miss counter, so degraded serving does not distort the
// cache-effectiveness statistics.
func (c *Cache) Lookup(f core.Feature, p core.Perturbation, opts core.Options) (core.RadiusResult, bool) {
	return c.read(f, p, opts, false, true)
}

// LookupShared is Lookup without the defensive boundary clone; the
// returned Boundary aliases cache-owned memory and must be treated as
// read-only (see RadiusContextShared).
func (c *Cache) LookupShared(f core.Feature, p core.Perturbation, opts core.Options) (core.RadiusResult, bool) {
	return c.read(f, p, opts, false, false)
}

// kernelGet is the kernel path's counting cache read: like Lookup it
// never starts a solve and never joins a flight, but a hit moves the
// shard's hit counter and the entry's LRU position exactly like Radius —
// kernel-eligible traffic participates in the cache, so its hits must
// show in the effectiveness statistics the bench and the cluster
// affinity story read. clone governs the defensive Boundary copy (see
// RadiusContextShared).
func (c *Cache) kernelGet(f core.Feature, p core.Perturbation, opts core.Options, clone bool) (core.RadiusResult, bool) {
	return c.read(f, p, opts, true, clone)
}

// Put inserts a radius the caller solved outside the cache's own miss
// path — the vectorized kernel sweep, whose results are bit-identical to
// core.ComputeRadius and therefore safe to serve to later scalar-path
// callers. The cache stores a private clone of the Boundary so it owns
// its memory exclusively regardless of what the caller does with the
// original. One miss is counted per call: the caller did real solver
// work, and CacheStats prices solver work, not map traffic. A nil
// receiver or an uncacheable impact is a no-op.
func (c *Cache) Put(f core.Feature, p core.Perturbation, opts core.Options, res core.RadiusResult) {
	if c == nil {
		return
	}
	k, ok := c.route(&f, &p, &opts)
	if !ok {
		return
	}
	res.Boundary = vecmath.Clone(res.Boundary)
	c.lock(k.s)
	k.s.misses++
	k.s.insert(k.kb.b, k.h, res, false)
	k.s.mu.Unlock()
	k.release()
}

// appendRadiusKey appends the memoisation key of the subproblem to b,
// reporting ok=false for an impact with no content identity: anything
// but a LinearImpact ('L', keyed by value) or a fingerprinted FuncImpact
// ('T', keyed by its fingerprint — spec-decoded convex features set one,
// so re-decoding the same document, or another node forwarding it, hits
// the cache). Callers pass a pooled buffer so a cache hit constructs its
// key without allocating.
func appendRadiusKey(b []byte, f *core.Feature, p *core.Perturbation, opts *core.Options) ([]byte, bool) {
	switch imp := f.Impact.(type) {
	case *core.LinearImpact:
		b = append(b, 'L')
		b = appendFloats(b, imp.Coeffs)
		b = appendFloat(b, imp.Offset)
	case *core.FuncImpact:
		if len(imp.Fingerprint) == 0 {
			return b, false
		}
		b = append(b, 'T')
		b = binary.LittleEndian.AppendUint64(b, uint64(len(imp.Fingerprint)))
		b = append(b, imp.Fingerprint...)
	default:
		return b, false
	}

	b = append(b, '|')
	b = appendFloat(b, f.Bounds.Min)
	b = appendFloat(b, f.Bounds.Max)
	b = append(b, '|')
	b = appendFloats(b, p.Orig)
	b = append(b, '|')
	b = append(b, opts.Norm.Name()...)
	if w, ok := opts.Norm.(*vecmath.WeightedL2); ok {
		b = appendFloats(b, w.W)
	}
	b = append(b, '|')
	s := opts.Solver
	b = appendFloats(b, []float64{s.Tol, float64(s.MaxIter), float64(s.Restarts), float64(s.Seed), s.GradStep, s.RayMax})
	a := opts.Anneal
	b = appendFloats(b, []float64{float64(a.Steps), a.InitialTemp, a.FinalTemp, a.Sigma, float64(a.Seed), a.Tol, a.RayMax})
	return b, true
}

// appendFloat appends the IEEE-754 bit pattern (distinguishes ±0 and
// preserves every finite and infinite value exactly).
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFloats(b []byte, vs []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendFloat(b, v)
	}
	return b
}
