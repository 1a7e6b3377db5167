package batch

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fepia/internal/core"
	"fepia/internal/vecmath"
)

// modelShard is the reference the slab shard is fuzzed against: the
// cache shard as it stood before the slab — a string-keyed map of
// container/list elements, front = most recently used — reduced to the
// single-goroutine operations (no singleflight, which needs concurrency).
type modelShard struct {
	capacity     int
	order        *list.List
	entries      map[string]*list.Element
	hits, misses uint64
}

type modelEntry struct {
	key    string
	result core.RadiusResult
}

// cacheModel routes keys exactly like Cache, by fnv1a over shards that
// mirror the real cache's layout.
type cacheModel struct {
	shards []*modelShard
	mask   uint64
}

func newCacheModel(c *Cache) *cacheModel {
	m := &cacheModel{shards: make([]*modelShard, len(c.shards)), mask: c.mask}
	for i := range m.shards {
		m.shards[i] = &modelShard{capacity: c.shards[i].capacity, order: list.New(), entries: map[string]*list.Element{}}
	}
	return m
}

func (m *cacheModel) shard(key string) *modelShard {
	return m.shards[fnv1a([]byte(key))&m.mask]
}

// get is the hit branch of Radius (count) and of Lookup (no count).
func (m *cacheModel) get(key string, count bool) (core.RadiusResult, bool) {
	s := m.shard(key)
	el, ok := s.entries[key]
	if !ok {
		return core.RadiusResult{}, false
	}
	s.order.MoveToFront(el)
	if count {
		s.hits++
	}
	return el.Value.(*modelEntry).result, true
}

// insert is the old insert-and-evict sequence; replace selects Restore's
// overwrite-and-refresh of an existing entry.
func (m *cacheModel) insert(key string, res core.RadiusResult, replace bool) {
	s := m.shard(key)
	if el, ok := s.entries[key]; ok {
		if replace {
			el.Value.(*modelEntry).result = res
			s.order.MoveToFront(el)
		}
		return
	}
	s.entries[key] = s.order.PushFront(&modelEntry{key: key, result: res})
	for s.order.Len() > s.capacity {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*modelEntry).key)
	}
}

func (m *cacheModel) stats() (hits, misses uint64, size int) {
	for _, s := range m.shards {
		hits += s.hits
		misses += s.misses
		size += s.order.Len()
	}
	return hits, misses, size
}

// retained sums the key and boundary bytes of every resident entry.
func (m *cacheModel) retained() int {
	n := 0
	for _, s := range m.shards {
		for el := s.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*modelEntry)
			n += len(e.key) + 8*len(e.result.Boundary)
		}
	}
	return n
}

// order lists every shard's keys from least to most recently used.
func (m *cacheModel) order() [][]string {
	out := make([][]string, len(m.shards))
	for i, s := range m.shards {
		for el := s.order.Back(); el != nil; el = el.Prev() {
			out[i] = append(out[i], el.Value.(*modelEntry).key)
		}
	}
	return out
}

// slabOrder is order for the real cache, read off the slab's LRU list.
func slabOrder(c *Cache) [][]string {
	out := make([][]string, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		for j := s.tail; j != none; j = s.slots[j].prev {
			out[i] = append(out[i], string(s.slots[j].key))
		}
		s.mu.Unlock()
	}
	return out
}

// orderLabels prints an LRU order with each binary key shortened to its
// hash.
func orderLabels(order [][]string) string {
	out := make([][]string, len(order))
	for i, keys := range order {
		for _, k := range keys {
			out[i] = append(out[i], fmt.Sprintf("%08x", uint32(fnv1a([]byte(k)))))
		}
	}
	return fmt.Sprint(out)
}

// maxModelOps bounds the operations one FuzzCacheModel input runs.
const maxModelOps = 96

// FuzzCacheModel runs random sequences of cache operations — a first-
// touch miss, a Radius that may hit, Put, Lookup and Restore — against a
// slab cache of capacity 1–8 over 1–4 shards and against the reference
// model. After every operation the counters, the Lookup answers, every
// shard's LRU order and the retained bytes must agree. The pool mixes
// value-keyed linear features with unfingerprinted FuncImpacts, which
// are uncacheable: the model solves them every time, counts nothing and
// inserts nothing.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0, 1, 5})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 3, 0, 2, 1, 4, 1, 1, 2, 3, 2})
	f.Add([]byte{7, 3, 4, 0, 0, 1, 0, 2, 1, 3, 1, 4, 4, 5, 3, 6, 2, 7, 1, 8})
	f.Add([]byte{5, 1, 2, 9, 2, 10, 4, 0, 3, 9, 1, 11, 0, 0, 0, 0, 3, 10})
	f.Add([]byte{2, 0, 1, 12, 2, 13, 1, 12, 3, 14, 0, 0, 1, 13, 4, 0, 1, 14, 0, 0, 0, 0})

	rng := rand.New(rand.NewSource(17))
	p := core.Perturbation{Name: "π", Orig: slabPoint(rng, 4)}
	opts := core.Options{}.WithDefaults()
	pool := slabFeatures(f, rng, 12, p.Orig)
	for k := 0; k < 3; k++ {
		pool = append(pool, core.Feature{Name: fmt.Sprintf("P%d", k), Impact: sumOfSquares(len(p.Orig)),
			Bounds: core.NoMin((1.3 + rng.Float64()) * vecmath.Dot(p.Orig, p.Orig))})
	}
	fresh := slabFeatures(f, rng, 256, p.Orig)
	solved := func(t *testing.T, feat core.Feature) core.RadiusResult {
		r, err := core.ComputeRadius(feat, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	key := func(feat core.Feature) (string, bool) {
		b, ok := appendRadiusKey(nil, &feat, &p, &opts)
		return string(b), ok
	}
	// The Restore operation loads a snapshot of the pool's first eight
	// radii; the model replays the same records in the same order.
	donor := NewCacheSharded(64, 2)
	for _, feat := range pool[:8] {
		if _, err := donor.Radius(feat, p, opts); err != nil {
			f.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := donor.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	records, err := decodeSnapshot(snap.Bytes())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		// Longer sequences add no state a 1–8 entry cache can hold; the
		// cap keeps each run, and so minimisation, cheap.
		if len(ops) > 2+2*maxModelOps {
			ops = ops[:2+2*maxModelOps]
		}
		c := NewCacheSharded(1+int(ops[0]%8), 1+int(ops[1]%4))
		m := newCacheModel(c)
		ctx := context.Background()
		next := 0
		for step := 2; step+1 < len(ops); step += 2 {
			feat := pool[int(ops[step+1])%len(pool)]
			var what string
			switch ops[step] % 5 {
			case 0: // first-touch miss
				if next == len(fresh) {
					return
				}
				feat = fresh[next]
				next++
				fallthrough
			case 1: // Radius: a hit when resident, else a miss that inserts
				what = "Radius " + feat.Name
				got, err := c.RadiusContextShared(ctx, feat, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				k, cacheable := key(feat)
				want, hit := m.get(k, true)
				if !hit {
					want = solved(t, feat)
				}
				if !hit && cacheable {
					m.shard(k).misses++
					m.insert(k, want, false)
				}
				want.Feature = feat.Name
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d %s = %+v, want %+v", step, what, got, want)
				}
			case 2:
				what = "Put " + feat.Name
				res := solved(t, feat)
				c.Put(feat, p, opts, res)
				if k, cacheable := key(feat); cacheable {
					m.shard(k).misses++
					m.insert(k, res, false)
				}
			case 3:
				what = "Lookup " + feat.Name
				got, ok := c.Lookup(feat, p, opts)
				k, _ := key(feat)
				want, wantOK := m.get(k, false)
				want.Feature = feat.Name
				if ok != wantOK || (ok && !reflect.DeepEqual(got, want)) {
					t.Fatalf("step %d %s = %+v (ok %v), want %+v (ok %v)", step, what, got, ok, want, wantOK)
				}
			case 4:
				what = "Restore"
				if _, err := c.Restore(bytes.NewReader(snap.Bytes())); err != nil {
					t.Fatal(err)
				}
				for _, r := range records {
					m.insert(string(r.key), r.res, true)
				}
			}
			st := c.Stats()
			hits, misses, size := m.stats()
			if st.Hits != hits || st.Misses != misses || st.Size != size || st.DupSuppressed != 0 {
				t.Fatalf("after step %d %s: stats %+v, model hits %d misses %d size %d", step, what, st, hits, misses, size)
			}
			if got, want := slabOrder(c), m.order(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after step %d %s: LRU order differs:\nslab  %s\nmodel %s", step, what, orderLabels(got), orderLabels(want))
			}
			if retained := m.retained(); st.RetainedBytes != retained {
				t.Fatalf("after step %d %s: %d B retained; model %d B", step, what, st.RetainedBytes, retained)
			}
		}
	})
}
