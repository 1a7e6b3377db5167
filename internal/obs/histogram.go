package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefaultLatencyBucketsMS is a log-ish spread of request-latency bucket
// upper bounds in milliseconds, from sub-millisecond cache hits to
// multi-second cold solves. cmd/loadgen and the fepiad per-endpoint
// request histograms use it.
var DefaultLatencyBucketsMS = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// Histogram is a fixed-bucket histogram with atomic counters: Observe
// never locks, so parallel writers (batch workers, load-generator
// clients) record without contention. Obtain registered histograms from
// Registry.Histogram, or standalone ones from NewHistogram.
type Histogram struct {
	bounds    []float64 // sorted upper bounds; the +Inf bucket is implicit
	counts    []atomic.Uint64
	count     atomic.Uint64 // total observations
	sum       atomic.Uint64 // float64 bits, CAS-added
	max       atomic.Uint64 // float64 bits, CAS-maxed
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to the trace that most recently
// landed in it, OpenMetrics-style: a slow latency bucket is one trace
// ID away from its /debug/traces document.
type Exemplar struct {
	// Bucket indexes the bucket the observation fell in
	// (len(Bounds) = the +Inf overflow bucket).
	Bucket  int     `json:"bucket"`
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// NewHistogram builds a histogram over the given bucket upper bounds
// (sorted copies are taken; nil selects DefaultLatencyBucketsMS).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBucketsMS
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observe(v, "")
}

// ObserveExemplar records one value and, when traceID is non-empty,
// pins it as the bucket's exemplar (last writer wins — recency is the
// point). The fepiad request-latency histograms use it so every bucket
// links to a recent trace.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.observe(v, traceID)
}

func (h *Histogram) observe(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Bucket: i, Value: v, TraceID: traceID})
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// The zero bits decode to +0.0, so any non-negative observation
	// (latencies always are) takes the max slot on first touch.
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations ≤ Bounds[i] (non-cumulative), with Counts[len(Bounds)]
	// the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	// Count, Sum, and Max aggregate every observation.
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	// Exemplars holds at most one recent trace link per bucket, in
	// bucket order; buckets without an exemplar are absent.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot copies the current state. Concurrent Observe calls may land
// between counter reads; the snapshot is internally consistent enough
// for exposition (bucket totals may trail Count by in-flight updates).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Max:    math.Float64frombits(h.max.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		if ex := h.exemplars[i].Load(); ex != nil {
			s.Exemplars = append(s.Exemplars, *ex)
		}
	}
	return s
}

// Mean returns Sum/Count, or 0 before any observation.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the p-quantile (p in [0, 1]) by linear
// interpolation inside the bucket containing the target rank. The
// estimate is capped by Max (observed exactly), so p=1 is exact and high
// quantiles never report beyond the largest observation.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	cum := 0.0
	lo := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			if i < len(s.Bounds) {
				lo = s.Bounds[i]
			}
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			v := lo + frac*(hi-lo)
			if v > s.Max && s.Max > 0 {
				v = s.Max
			}
			return v
		}
		cum = next
		if i < len(s.Bounds) {
			lo = s.Bounds[i]
		}
	}
	return s.Max
}

// wellFormed reports whether Counts holds exactly one entry per bucket
// plus the +Inf overflow — what a decoded peer snapshot may not.
func (s HistogramSnapshot) wellFormed() bool { return len(s.Counts) == len(s.Bounds)+1 }

// Merge returns the element-wise sum of two snapshots over identical
// bounds; it panics on mismatched bucket layouts, malformed Counts
// included. RegistrySnapshot.Merge folds a peer's histograms in with
// it for the federated /metrics?federate=1 document.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) != len(o.Bounds) || !s.wellFormed() || !o.wellFormed() {
		panic("obs: merging histograms with different bucket layouts")
	}
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
		Max:    math.Max(s.Max, o.Max),
	}
	for i := range out.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	// Exemplars: keep one per bucket, receiver's first (both are "a
	// recent trace in this bucket" — either serves the purpose).
	have := make(map[int]bool, len(s.Exemplars))
	for _, ex := range s.Exemplars {
		out.Exemplars = append(out.Exemplars, ex)
		have[ex.Bucket] = true
	}
	for _, ex := range o.Exemplars {
		if !have[ex.Bucket] {
			out.Exemplars = append(out.Exemplars, ex)
		}
	}
	sort.Slice(out.Exemplars, func(i, j int) bool { return out.Exemplars[i].Bucket < out.Exemplars[j].Bucket })
	return out
}
