package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"fepia/internal/batch"
	"fepia/internal/faults"
	"fepia/internal/server"
	"fepia/internal/spec"
)

// Layers of the in-process replay, one per public call the benchmark
// wraps in a span.
const (
	lRequest uint8 = iota // the whole request; its self time is replay glue
	lDecode               // spec.Parse / spec.ParseBatch / watch envelope decode
	lForEach              // batch.ForEach around a batch's systems
	lAnalyze              // batch.AnalyzeOneContext, one system
	lWatcher              // batch.NewWatcher
	lStep                 // batch.Watcher.Step
	lEncode               // spec.Encode / spec.EncodeWatchFrame + JSON encoding
	nLayers
)

var layerNames = [nLayers]string{"request", "spec.decode", "batch.foreach", "batch.analyze", "batch.watcher", "batch.step", "spec.encode"}

// span is one timed call; parent indexes the same slice, -1 for a root.
type span struct {
	req, parent int32
	layer       uint8
	start, end  int64 // ns since the replay began
}

// tracer keeps spans in memory; with on false every call is a no-op.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) open(req int, parent int32, layer uint8) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{req: int32(req), parent: parent, layer: layer, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// reserve appends n spans for worker goroutines to fill in place; the
// slice does not grow while they run.
func (t *tracer) reserve(n int) int32 {
	if !t.on {
		return -1
	}
	base := len(t.spans)
	t.spans = append(t.spans, make([]span, n)...)
	return int32(base)
}

// replayer runs request bodies through the layers fepiad's handlers call,
// in the handlers' order and with their default options: kernel off,
// ShareBoundaries on, the default retry policy, a cache of the default
// size with the server's shard count, and GOMAXPROCS batch workers.
type replayer struct {
	cache    *batch.Cache
	retry    *faults.Policy
	tr       tracer
	buf      bytes.Buffer
	analyses int
}

// replayRun is one replay of a workload's timed ops after its warm-up.
type replayRun struct {
	wall                    time.Duration
	hits, misses, contended uint64
	allocBytes              uint64
	analyses                int
	spans                   []span
}

func replay(w *workload, shards int, traced bool) (*replayRun, error) {
	r := &replayer{
		cache: batch.NewCacheSharded(0, shards),
		retry: &faults.Policy{MaxAttempts: server.DefaultRetryAttempts},
	}
	for i, rq := range w.warmup {
		if err := r.do(w.path, i, rq.payload); err != nil {
			return nil, fmt.Errorf("replaying warm-up op %d: %w", i, err)
		}
	}
	r.analyses = 0
	r.tr = tracer{on: traced, t0: time.Now()}
	before := r.cache.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, rq := range w.timed {
		if err := r.do(w.path, i, rq.payload); err != nil {
			return nil, fmt.Errorf("replaying timed op %d: %w", i, err)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	after := r.cache.Stats()
	return &replayRun{
		wall:       wall,
		hits:       after.Hits - before.Hits,
		misses:     after.Misses - before.Misses,
		contended:  after.Contended - before.Contended,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		analyses:   r.analyses,
		spans:      r.tr.spans,
	}, nil
}

func (r *replayer) do(path string, req int, payload []byte) error {
	switch path {
	case "/v1/analyze":
		return r.analyze(req, payload)
	case "/v1/batch":
		return r.batch(req, payload)
	}
	return r.watch(req, payload)
}

func (r *replayer) opts(sys *spec.System) batch.Options {
	return batch.Options{Cache: r.cache, Core: sys.Options, Retry: r.retry, ShareBoundaries: true}
}

func job(sys *spec.System) batch.Job {
	return batch.Job{Features: sys.Features, Perturbation: sys.Perturbation}
}

// encode mirrors fepiad's writeJSON: two-space indented JSON.
func (r *replayer) encode(v any) error {
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// analyze mirrors handleAnalyze.
func (r *replayer) analyze(req int, payload []byte) error {
	root := r.tr.open(req, -1, lRequest)
	d := r.tr.open(req, root, lDecode)
	sys, err := spec.Parse(payload)
	r.tr.close(d)
	if err != nil {
		return err
	}
	a := r.tr.open(req, root, lAnalyze)
	rs := &batch.RequestStats{}
	an, err := batch.AnalyzeOneContext(batch.WithRequestStats(context.Background(), rs), job(sys), r.opts(sys))
	r.tr.close(a)
	if err != nil {
		return err
	}
	e := r.tr.open(req, root, lEncode)
	res := spec.Encode(sys.Name, an)
	res.Meta = &spec.ResponseMeta{Cache: rs.Source()}
	err = r.encode(res)
	r.tr.close(e)
	r.tr.close(root)
	r.analyses++
	return err
}

// batch mirrors handleBatch and solveLocal on a solo node.
func (r *replayer) batch(req int, payload []byte) error {
	root := r.tr.open(req, -1, lRequest)
	d := r.tr.open(req, root, lDecode)
	systems, err := spec.ParseBatch(payload)
	r.tr.close(d)
	if err != nil {
		return err
	}
	fe := r.tr.open(req, root, lForEach)
	base := r.tr.reserve(2 * len(systems))
	results := make([]spec.ResultJSON, len(systems))
	err = batch.ForEach(context.Background(), len(systems), 0, func(k int) error {
		sys := systems[k]
		start := r.tr.now()
		rs := &batch.RequestStats{}
		an, err := batch.AnalyzeOneContext(batch.WithRequestStats(context.Background(), rs), job(sys), r.opts(sys))
		if err != nil {
			return err
		}
		mid := r.tr.now()
		results[k] = spec.Encode(sys.Name, an)
		results[k].Meta = &spec.ResponseMeta{Cache: rs.Source()}
		if base >= 0 {
			r.tr.spans[base+int32(2*k)] = span{req: int32(req), parent: fe, layer: lAnalyze, start: start, end: mid}
			r.tr.spans[base+int32(2*k+1)] = span{req: int32(req), parent: fe, layer: lEncode, start: mid, end: r.tr.now()}
		}
		return nil
	})
	r.tr.close(fe)
	if err != nil {
		return err
	}
	top := &spec.ResponseMeta{}
	for i := range results {
		top.Cache = spec.WorstCache(top.Cache, results[i].Meta.Cache)
	}
	e := r.tr.open(req, root, lEncode)
	err = r.encode(spec.BatchResponse{Results: results, Meta: top})
	r.tr.close(e)
	r.tr.close(root)
	r.analyses += len(systems)
	return err
}

// watch mirrors handleWatch.
func (r *replayer) watch(req int, payload []byte) error {
	root := r.tr.open(req, -1, lRequest)
	d := r.tr.open(req, root, lDecode)
	var wr spec.WatchRequest
	var sys *spec.System
	err := json.Unmarshal(payload, &wr)
	if err == nil {
		sys, err = spec.Build(wr.System)
	}
	r.tr.close(d)
	if err != nil {
		return err
	}
	n := r.tr.open(req, root, lWatcher)
	wt, err := batch.NewWatcher(job(sys), r.opts(sys))
	r.tr.close(n)
	if err != nil {
		return err
	}
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	total := 0
	for _, pt := range wr.Points {
		s := r.tr.open(req, root, lStep)
		rs := &batch.RequestStats{}
		res, err := wt.Step(batch.WithRequestStats(context.Background(), rs), pt)
		r.tr.close(s)
		if err != nil {
			return err
		}
		e := r.tr.open(req, root, lEncode)
		frame := spec.EncodeWatchFrame(res.Step, pt, res.Analysis, res.Changed)
		frame.Meta = &spec.ResponseMeta{Cache: rs.Source()}
		err = enc.Encode(frame)
		r.tr.close(e)
		if err != nil {
			return err
		}
		total += len(res.Changed)
		r.analyses++
	}
	e := r.tr.open(req, root, lEncode)
	err = enc.Encode(spec.WatchSummary{Done: true, Steps: len(wr.Points), TotalChanged: total})
	r.tr.close(e)
	r.tr.close(root)
	return err
}

// layerSplit is the traced replay's time split by layer.
type layerSplit struct {
	requests int
	// wallNS divides each request's wall time among the layers active at
	// each instant: time where several leaf spans run at once (batch
	// workers) is shared equally between them, so the layers of one
	// request sum exactly to its duration.
	wallNS [nLayers]float64
	// busyNS and count sum whole span durations per layer.
	busyNS [nLayers]float64
	count  [nLayers]int
	// fanBusy sums batch.analyze time inside ForEach calls and fanCap
	// their wall time × workers used.
	fanBusy, fanCap float64
}

func splitLayers(spans []span, workers int) layerSplit {
	var ls layerSplit
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		ls.addRequest(spans[lo:hi], int32(lo), workers)
		ls.requests++
		lo = hi
	}
	return ls
}

func (ls *layerSplit) addRequest(req []span, offset int32, workers int) {
	type event struct {
		at   int64
		i    int
		open bool
	}
	evs := make([]event, 0, 2*len(req))
	children := make([]int, len(req))
	for i, s := range req {
		evs = append(evs, event{s.start, i, true}, event{s.end, i, false})
		ls.busyNS[s.layer] += float64(s.end - s.start)
		ls.count[s.layer]++
		if s.parent >= 0 {
			children[s.parent-offset]++
		}
	}
	for i, s := range req {
		if s.layer == lForEach {
			used := children[i] / 2 // an analyze and an encode span per system
			if used > workers {
				used = workers
			}
			ls.fanCap += float64(s.end-s.start) * float64(used)
		}
		if s.layer == lAnalyze && s.parent >= 0 && req[s.parent-offset].layer == lForEach {
			ls.fanBusy += float64(s.end - s.start)
		}
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	activeKids := make([]int, len(req))
	var active []int
	prev := evs[0].at
	for _, e := range evs {
		if dt := float64(e.at - prev); dt > 0 {
			leaves := 0
			for _, i := range active {
				if activeKids[i] == 0 {
					leaves++
				}
			}
			for _, i := range active {
				if activeKids[i] == 0 {
					ls.wallNS[req[i].layer] += dt / float64(leaves)
				}
			}
		}
		prev = e.at
		parent := req[e.i].parent
		if e.open {
			active = append(active, e.i)
			if parent >= 0 {
				activeKids[parent-offset]++
			}
			continue
		}
		for j, i := range active {
			if i == e.i {
				active = append(active[:j], active[j+1:]...)
				break
			}
		}
		if parent >= 0 {
			activeKids[parent-offset]--
		}
	}
}

// perRequestUS is a layer's share of the mean request, in µs.
func (ls *layerSplit) perRequestUS(layer uint8) float64 {
	return ls.wallNS[layer] / float64(ls.requests) / 1e3
}

// meanUS is the mean duration of the layer's spans in µs; ok is false
// when the replay made none.
func (ls *layerSplit) meanUS(layer uint8) (float64, bool) {
	if ls.count[layer] == 0 {
		return 0, false
	}
	return ls.busyNS[layer] / float64(ls.count[layer]) / 1e3, true
}
