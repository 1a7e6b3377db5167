package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"fepia/internal/spec"
)

// request is one pre-serialised request of a workload together with the
// oracle that checks fepiad's answer to it. Timed ops may repeat a
// request; they then share its id.
type request struct {
	id       int
	payload  []byte // JSON body
	wire     []byte // complete HTTP/1.1 request
	analyses int    // systems analysed; for watch, frames streamed
	check    func(body []byte) error
}

// workload is one traffic mix: an untimed warm-up, a fixed sequence of
// timed ops, and fixed samples the side passes time layer by layer.
type workload struct {
	path     string
	warmup   []*request
	timed    []*request
	distinct int

	linear []spec.File
	convex []spec.File
	watch  []spec.WatchRequest
}

// Op counts per second of -seconds. They fix the op count of a run, so
// the cache state at its end is a function of the seed alone; the rates
// are calibrated so a run's timed window lasts about -seconds on a
// 2-core machine.
const (
	analyzeWarmRate = 1100
	batchColdRate   = 250
	convexZipfRate  = 2000
	watchLinearRate = 200
	// minOps leaves at least ten samples beyond the exact p99.
	minOps = 1100
)

var workloads = map[string]func(rng *rand.Rand, seconds int) *workload{
	// All-linear systems from a 64-system pool the warm-up caches: every
	// radius is a cache hit, so the time goes to the HTTP layer and spec.
	"analyze_warm": analyzeWarm,
	// 16 unique all-linear systems per batch against a full, evicting
	// cache: every radius is a miss solved by core.
	"batch_cold_linear": batchColdLinear,
	// Convex terms systems drawn Zipf from a pool larger than the cache:
	// misses pay the convex solver, and eviction sets the hit ratio.
	"convex_zipf": convexZipf,
	// 64-step single-coordinate watch sessions over pooled linear systems:
	// Watcher.Step, per-step solves and the streaming encoder.
	"watch_linear": watchLinear,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func opCount(rate, seconds int) int {
	if n := rate * seconds; n > minOps {
		return n
	}
	return minOps
}

// add registers a distinct request.
func (w *workload) add(v any, analyses int, check func([]byte) error) *request {
	payload, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: generated input does not marshal: " + err.Error())
	}
	r := &request{id: w.distinct, payload: payload, analyses: analyses, check: check}
	r.wire = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: fepiad\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", w.path, len(payload))
	r.wire = append(r.wire, payload...)
	w.distinct++
	return r
}

// cycle repeats pool round-robin to n timed ops.
func cycle(pool []*request, n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}

func analyzeWarm(rng *rand.Rand, seconds int) *workload {
	w := &workload{path: "/v1/analyze"}
	pool := make([]*request, 64)
	for i := range pool {
		f := linearSystem(rng, fmt.Sprintf("warm-%d", i), warmDim, warmFeatures)
		pool[i] = w.add(f, 1, checkSystem(f))
		w.linear = append(w.linear, f)
	}
	// Two passes: the first caches every pooled radius, the second runs
	// the hit path before timing starts.
	w.warmup = append(append(w.warmup, pool...), pool...)
	w.timed = make([]*request, opCount(analyzeWarmRate, seconds))
	for i := range w.timed {
		w.timed[i] = pool[rng.Intn(len(pool))]
	}
	return w
}

// batchSystems is the batch size; batchPool batches of it hold 32768
// radius keys, four times the default 8192-entry cache, so cycling them
// round-robin evicts every key long before its batch comes round again.
const (
	batchSystems = 16
	batchPool    = 256
)

func batchColdLinear(rng *rand.Rand, seconds int) *workload {
	w := &workload{path: "/v1/batch"}
	batches := func(tag string, n int) []*request {
		out := make([]*request, n)
		for i := range out {
			files := make([]spec.File, batchSystems)
			for j := range files {
				files[j] = linearSystem(rng, fmt.Sprintf("%s-%d-%d", tag, i, j), linDim, linFeatures)
			}
			out[i] = w.add(spec.BatchRequest{Systems: files}, batchSystems, checkBatch(files))
		}
		return out
	}
	// 80 throwaway batches put 10240 keys into the cache: every shard is
	// full and evicting before timing starts, and the timed phase never
	// sees these systems again.
	w.warmup = batches("throwaway", 80)
	w.timed = cycle(batches("cold", batchPool), opCount(batchColdRate, seconds))
	return w
}

// convexPool systems of convexFeatures keys each hold 16384 radius keys,
// twice the default cache; zipfS skews the draw so the popular head
// stays resident and the hit ratio settles strictly between 0 and 1.
const (
	convexPool   = 4096
	zipfS        = 1.1
	convexWarmup = 2000
)

func convexZipf(rng *rand.Rand, seconds int) *workload {
	w := &workload{path: "/v1/analyze"}
	pool := make([]*request, convexPool)
	for i := range pool {
		f := convexSystem(rng, fmt.Sprintf("convex-%d", i))
		pool[i] = w.add(f, 1, checkSystem(f))
		if i < 2 {
			w.convex = append(w.convex, f)
		}
	}
	rank := rng.Perm(len(pool))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	draw := func(n int) []*request {
		out := make([]*request, n)
		for i := range out {
			out[i] = pool[rank[z.Uint64()]]
		}
		return out
	}
	w.warmup = draw(convexWarmup)
	w.timed = draw(opCount(convexZipfRate, seconds))
	return w
}

// watchSteps is the session length; watchPool sessions are cycled
// round-robin, so between two plays of one session the other 63 insert
// 63 × 64 × 8 = 32256 keys, four times the cache: every step misses,
// and every key it inserts is never read again.
const (
	watchSteps = 64
	watchPool  = 64
)

func watchLinear(rng *rand.Rand, seconds int) *workload {
	w := &workload{path: "/v1/watch"}
	systems := make([]spec.File, 16)
	for i := range systems {
		systems[i] = linearSystem(rng, fmt.Sprintf("watch-%d", i), linDim, linFeatures)
	}
	w.linear = systems
	sessions := func(n int) []*request {
		out := make([]*request, n)
		for i := range out {
			sys := systems[rng.Intn(len(systems))]
			wr := spec.WatchRequest{System: sys, Points: trajectory(rng, sys.Perturbation.Orig, watchSteps)}
			out[i] = w.add(wr, watchSteps, checkWatch(wr))
			if len(w.watch) < 4 {
				w.watch = append(w.watch, wr)
			}
		}
		return out
	}
	// Throwaway trajectories fill the cache before timing.
	w.warmup = sessions(24)
	w.timed = cycle(sessions(watchPool), opCount(watchLinearRate, seconds))
	return w
}

// fillSamples tops up the side-pass samples a workload does not supply
// itself from a generator of their own.
func (w *workload) fillSamples(seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5a5a5a5a))
	for len(w.linear) < 32 {
		w.linear = append(w.linear, linearSystem(rng, "sample", linDim, linFeatures))
	}
	w.linear = w.linear[:32]
	for len(w.convex) < 2 {
		w.convex = append(w.convex, convexSystem(rng, "sample"))
	}
	for len(w.watch) < 4 {
		sys := linearSystem(rng, "sample", linDim, linFeatures)
		w.watch = append(w.watch, spec.WatchRequest{System: sys, Points: trajectory(rng, sys.Perturbation.Orig, watchSteps)})
	}
}

// Linear systems have eight features over eight dimensions, except on
// analyze_warm: there, bigger systems put most of a request's time into
// spec decode and encode rather than into the two cross-CPU wake-ups
// every request costs, which drift with load from elsewhere on a shared
// machine.
const (
	linDim       = 8
	linFeatures  = 8
	warmDim      = 16
	warmFeatures = 32
)

// linearSystem draws one all-linear system, each feature with a sparse
// positive coefficient vector (so a single-coordinate move leaves some
// radii unchanged), satisfied at π^orig with a 30–130% margin to β^max
// and, on every other feature, a 30–70% margin to β^min.
func linearSystem(rng *rand.Rand, name string, dim, features int) spec.File {
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
	}
	f := spec.File{Name: name, Perturbation: spec.PerturbationSpec{Name: "lambda", Orig: orig}}
	for k := 0; k < features; k++ {
		coeffs := make([]float64, dim)
		coeffs[rng.Intn(dim)] = 0.5 + 1.5*rng.Float64()
		for i := range coeffs {
			if coeffs[i] == 0 && rng.Intn(3) == 0 {
				coeffs[i] = 0.5 + 1.5*rng.Float64()
			}
		}
		offset := 5 * rng.Float64()
		v := offset + dot(coeffs, orig)
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

const convexFeatures = 4

// convexSystem draws one system of four convex "terms" features over a
// 12–16 dimensional operating point, in loadgen's -heavy shape (x², x³,
// x·log(1+x) and e^{x/2} terms) and with no linear feature, so every
// cache miss pays the numeric solver.
func convexSystem(rng *rand.Rand, name string) spec.File {
	dim := 12 + rng.Intn(5)
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
	}
	f := spec.File{Name: name, Perturbation: spec.PerturbationSpec{Name: "lambda", Orig: orig}}
	for q := 0; q < convexFeatures; q++ {
		at := rng.Intn(dim)
		terms := []spec.TermSpec{
			{Kind: "power", Index: at, Coeff: 1 + rng.Float64(), P: 2},
			{Kind: "power", Index: (at + 1) % dim, Coeff: 1 + rng.Float64(), P: 3},
			{Kind: "xlogx", Index: (at + 2) % dim, Coeff: 1 + rng.Float64()},
			{Kind: "exp", Index: (at + 3) % dim, Coeff: 0.1 + 0.1*rng.Float64(), P: 0.5},
		}
		hi := termsValue(terms, orig) * (1.5 + rng.Float64())
		f.Features = append(f.Features, spec.FeatureSpec{Name: fmt.Sprintf("queue%d", q), Max: &hi,
			Impact: spec.ImpactSpec{Type: "terms", Terms: terms}})
	}
	return f
}

// trajectory walks the operating point through n moves of one random
// coordinate by at most ±3% each.
func trajectory(rng *rand.Rand, orig []float64, n int) [][]float64 {
	points := make([][]float64, n)
	cur := orig
	for s := range points {
		next := append([]float64(nil), cur...)
		next[rng.Intn(len(next))] *= 0.97 + 0.06*rng.Float64()
		points[s] = next
		cur = next
	}
	return points
}
