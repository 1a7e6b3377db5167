// Command bench is the reproducible benchmark harness behind
// `make bench`. It times the radius cache on a fixed-seed workload in
// three scenarios — cold (every key a first-touch miss), warm
// (single-threaded re-reads of a resident working set, with allocation
// counts), and contended (1..NumCPU workers hammering one shared cache) —
// plus the vectorized SoA kernel series and the incremental delta-session
// series, and writes everything to a JSON report (BENCH_10.json in CI;
// scripts/bench.sh merges in the loadgen-driven multi-node cluster series
// alongside).
//
// To make the speedup claims auditable from the report alone, the
// harness embeds a frozen copy of the pre-sharding cache — one global
// mutex, a string key built on every lookup, a defensive boundary clone
// on every hit — and runs it on the identical workload. The baseline
// keeps the same no-op trace/fault context calls as the live path, so
// the comparison isolates exactly what changed: shard routing,
// singleflight, and the allocation-free hit path.
//
// The kernel series compare internal/kernel against the per-feature
// analytic loop it replaces, on the identical workload: kernel_warm
// (pack reused across sweeps — the steady-state shape), kernel_cold
// (Pack plus one sweep from nothing), and mixed (linear + convex
// features through batch.AnalyzeOneContext with the kernel on and off).
// Byte-identity between the two paths is verified inside the harness and
// recorded in the summary, so the speedup figures are only ever claimed
// for bit-equal results.
//
// The incremental series walk a deterministic trajectory over the
// block-sparse HCS workload (one indicator feature per machine) and time
// each step two ways: a full Compute sweep of the pack, and a
// kernel.Delta session's ComputeDelta restricted to the dirty
// coordinates — single-coordinate moves (incremental_1) and 8-coordinate
// moves across distinct machine blocks (incremental_k). As with the
// kernel series, bit-identity along a randomized walk is verified first
// and recorded, so the speedups are only claimed for bit-equal results.
//
//	bench -out BENCH_10.json -seed 2003 -keys 512 -dim 8
//
// The workload is deterministic for a given flag set; timings move with
// the machine, allocation counts do not.
package main

import (
	"container/list"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"fepia/internal/batch"
	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/kernel"
	"fepia/internal/obs"
	"fepia/internal/vecmath"
)

func main() {
	var (
		out     = flag.String("out", "BENCH_10.json", "report path")
		seed    = flag.Int64("seed", 2003, "workload seed")
		keys    = flag.Int("keys", 512, "distinct radius subproblems in the working set")
		dim     = flag.Int("dim", 8, "perturbation dimensionality")
		iters   = flag.Int("iters", 20000, "lookups per timed measurement (per worker when contended)")
		reps    = flag.Int("reps", 5, "repetitions per scenario; the report keeps the fastest")
		workers = flag.Int("workers", 0, "max contended worker count (0 = NumCPU)")
		shards  = flag.Int("shards", 0, "shard count of the live cache (0 = default)")
		sweeps  = flag.Int("sweeps", 100, "full working-set sweeps per warm-kernel measurement")
	)
	flag.Parse()

	maxWorkers := *workers
	if maxWorkers <= 0 {
		maxWorkers = runtime.NumCPU()
	}

	features, p := workload(*seed, *keys, *dim)
	opts := core.Options{}

	rep := report{
		Meta: meta{
			Seed: *seed, Keys: *keys, Dim: *dim, Iters: *iters, Reps: *reps,
			MaxWorkers: maxWorkers, Shards: *shards, Sweeps: *sweeps,
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		},
	}

	// Cold: every lookup is a first-touch miss on a fresh cache. Timed
	// per distinct key; dominated by the solver, recorded so regressions
	// in miss-path overhead are visible next to the hit-path numbers.
	rep.add(measure("cold", "baseline", 1, *reps, *keys, func() func() {
		c := newBaselineCache(4 * *keys)
		return func() {
			for _, f := range features {
				mustRadius(c.radius(f, p, opts))
			}
		}
	}))
	rep.add(measure("cold", "sharded", 1, *reps, *keys, func() func() {
		c := batch.NewCacheSharded(4**keys, *shards)
		return func() {
			for _, f := range features {
				mustRadius(c.Radius(f, p, opts))
			}
		}
	}))

	// Warm: single-threaded re-reads of a fully resident working set.
	// This is where allocs/op is meaningful (one goroutine, quiesced
	// runtime), pinning the "no allocations on the hit path" claim.
	base := newBaselineCache(4 * *keys)
	for _, f := range features {
		mustRadius(base.radius(f, p, opts))
	}
	live := batch.NewCacheSharded(4**keys, *shards)
	for _, f := range features {
		mustRadius(live.Radius(f, p, opts))
	}
	ctx := context.Background()

	rep.add(measureAllocs("warm_hit", "baseline", *reps, *iters, func(n int) {
		for i := 0; i < n; i++ {
			mustRadius(base.radius(features[i%len(features)], p, opts))
		}
	}))
	rep.add(measureAllocs("warm_hit", "sharded", *reps, *iters, func(n int) {
		for i := 0; i < n; i++ {
			mustRadius(live.Radius(features[i%len(features)], p, opts))
		}
	}))
	rep.add(measureAllocs("warm_hit_shared", "sharded", *reps, *iters, func(n int) {
		for i := 0; i < n; i++ {
			mustRadius(live.RadiusContextShared(ctx, features[i%len(features)], p, opts))
		}
	}))

	// Contended: W workers over one shared, fully warm cache — the
	// fepiad serving shape. The baseline serialises on its global mutex
	// and allocates per hit; the live cache shards the locks and returns
	// shared boundaries, which is what the server's ShareBoundaries
	// option selects. The competing implementations run interleaved,
	// rep by rep, so slow phases of a shared machine bias every series
	// equally instead of whichever ran during the bad seconds. Each rep
	// builds and warms its contender's cache outside the timed region
	// and drops it afterwards, so only the cache under test is resident
	// while it is timed: the baseline allocates per hit, and its GC work
	// would otherwise scale with whatever other caches the heap holds.
	// (The warm-hit caches above are not used past this point.)
	warm := func(visit func(core.Feature)) {
		for _, f := range features {
			visit(f)
		}
	}
	for w := 1; w <= maxWorkers; w++ {
		w := w
		rep.add(measureInterleaved("contended", w, *reps, w**iters, []contender{
			{impl: "baseline", setup: func() func() {
				c := newBaselineCache(4 * *keys)
				warm(func(f core.Feature) { mustRadius(c.radius(f, p, opts)) })
				return func() {
					hammer(w, *iters, features, func(f core.Feature) { mustRadius(c.radius(f, p, opts)) })
				}
			}},
			{impl: "sharded-1", setup: func() func() {
				c := batch.NewCacheSharded(4**keys, 1)
				warm(func(f core.Feature) { mustRadius(c.Radius(f, p, opts)) })
				return func() {
					hammer(w, *iters, features, func(f core.Feature) { mustRadius(c.RadiusContextShared(ctx, f, p, opts)) })
				}
			}},
			{impl: "sharded", setup: func() func() {
				c := batch.NewCacheSharded(4**keys, *shards)
				warm(func(f core.Feature) { mustRadius(c.Radius(f, p, opts)) })
				return func() {
					hammer(w, *iters, features, func(f core.Feature) { mustRadius(c.RadiusContextShared(ctx, f, p, opts)) })
				}
			}},
		})...)
	}

	// Kernel: the vectorized SoA analytic kernel against the per-feature
	// analytic loop it replaces, on the identical all-linear workload.
	// Byte-identity is asserted before anything is timed: a speedup over
	// results that differ would be meaningless.
	copts := opts.WithDefaults()
	kb, err := kernel.Pack(features, *dim, copts.Norm)
	if err != nil {
		fatal(err)
	}
	scalarOut := make([]core.RadiusResult, len(features))
	kernelOut := make([]core.RadiusResult, len(features))
	for k, f := range features {
		scalarOut[k] = mustRadiusResult(core.ComputeRadius(f, p, opts))
	}
	fb, err := kb.Compute(p.Orig, kernelOut)
	if err != nil {
		fatal(err)
	}
	rep.Summary.KernelIdentical = len(fb) == 0 && resultsIdentical(scalarOut, kernelOut)

	// Warm: the steady-state sweep shape — one pack reused across
	// operating-point sweeps, head-to-head with the scalar loop.
	kOps := *sweeps * len(features)
	rep.add(measureInterleaved("kernel_warm", 1, *reps, kOps, []contender{
		{impl: "perfeature", body: func() {
			for s := 0; s < *sweeps; s++ {
				for i, f := range features {
					scalarOut[i] = mustRadiusResult(core.ComputeRadius(f, p, opts))
				}
			}
		}},
		{impl: "kernel", body: func() {
			for s := 0; s < *sweeps; s++ {
				if _, err := kb.Compute(p.Orig, kernelOut); err != nil {
					fatal(err)
				}
			}
		}},
	})...)

	// Cold: Pack from nothing plus a single sweep — what one engine
	// request pays — against one scalar pass over the same features.
	rep.add(measureInterleaved("kernel_cold", 1, *reps, len(features), []contender{
		{impl: "perfeature", body: func() {
			for i, f := range features {
				scalarOut[i] = mustRadiusResult(core.ComputeRadius(f, p, opts))
			}
		}},
		{impl: "kernel", body: func() {
			b, err := kernel.Pack(features, *dim, copts.Norm)
			if err != nil {
				fatal(err)
			}
			if _, err := b.Compute(p.Orig, kernelOut); err != nil {
				fatal(err)
			}
		}},
	})...)

	// Mixed: one in four features is a convex quadratic the kernel must
	// route to internal/optimize, driven through the real engine entry
	// point with the kernel on and off. The identity check covers the
	// whole analysis, proving routing loses nothing.
	mixedFeatures := mixedWorkload(features, *dim)
	mixedJob := batch.Job{Features: mixedFeatures, Perturbation: p}
	aOff, err := batch.AnalyzeOneContext(context.Background(), mixedJob, batch.Options{Core: opts})
	if err != nil {
		fatal(err)
	}
	aOn, err := batch.AnalyzeOneContext(context.Background(), mixedJob, batch.Options{Core: opts, Kernel: true})
	if err != nil {
		fatal(err)
	}
	rep.Summary.KernelMixedIdentical = math.Float64bits(aOn.Robustness) == math.Float64bits(aOff.Robustness) &&
		resultsIdentical(aOn.Radii, aOff.Radii)
	rep.add(measureInterleaved("mixed", 1, *reps, len(mixedFeatures), []contender{
		{impl: "perfeature", body: func() {
			if _, err := batch.AnalyzeOneContext(context.Background(), mixedJob, batch.Options{Core: opts}); err != nil {
				fatal(err)
			}
		}},
		{impl: "kernel", body: func() {
			if _, err := batch.AnalyzeOneContext(context.Background(), mixedJob, batch.Options{Core: opts, Kernel: true}); err != nil {
				fatal(err)
			}
		}},
	})...)

	// Incremental: a kernel.Delta session against full Compute sweeps on
	// the block-sparse HCS shape the delta path is designed for — one
	// indicator feature per machine over its own coordinate block. Each op
	// is one trajectory step; the full contender re-solves the whole pack
	// at every step, the delta contender updates only the radii the moved
	// coordinates can touch. Identity is asserted over a randomized walk
	// before anything is timed.
	incMachines := 32
	incFeatures, incP := incrementalWorkload(*seed, incMachines, *dim)
	incDim := len(incP.Orig)
	incB, err := kernel.Pack(incFeatures, incDim, copts.Norm)
	if err != nil {
		fatal(err)
	}
	rep.Summary.IncrementalIdentical = incrementalIdentity(*seed, incB, incP.Orig)

	incSteps := 2000
	kMoves := 8
	rep.add(measureInterleaved("incremental_1", 1, *reps, incSteps, incrementalContenders(incB, incP.Orig, incSteps, 1))...)
	rep.add(measureInterleaved("incremental_k", 1, *reps, incSteps, incrementalContenders(incB, incP.Orig, incSteps, kMoves))...)

	rep.summarise(maxWorkers)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: contended x%d speedup %.2fx, warm shared allocs/op %.2f, kernel warm %.2fx cold %.2fx identical %v mixed-identical %v, incremental 1-coord %.2fx %d-coord %.2fx identical %v\n",
		*out, rep.Summary.ContendedWorkers, rep.Summary.ContendedSpeedup, rep.Summary.WarmSharedAllocs,
		rep.Summary.KernelSpeedup, rep.Summary.KernelColdSpeedup, rep.Summary.KernelIdentical, rep.Summary.KernelMixedIdentical,
		rep.Summary.IncrementalSpeedup1, kMoves, rep.Summary.IncrementalSpeedupK, rep.Summary.IncrementalIdentical)
}

// mixedWorkload replaces every fourth feature of the linear working set
// with a convex quadratic FuncImpact of the same dimension, keeping the
// rest untouched — the shape of a real request where the kernel takes
// the linear majority and internal/optimize keeps the remainder.
func mixedWorkload(features []core.Feature, dim int) []core.Feature {
	mixed := make([]core.Feature, len(features))
	copy(mixed, features)
	for k := 3; k < len(mixed); k += 4 {
		mixed[k] = core.Feature{
			Name: mixed[k].Name,
			Impact: &core.FuncImpact{
				N: dim,
				F: func(pi []float64) float64 {
					s := 0.0
					for _, v := range pi {
						s += v * v
					}
					return s
				},
				Convex: true,
			},
			// orig entries sit in [0.5, 1.5], so ‖π^orig‖² ≤ 2.25·dim: a
			// bound at 4·dim is feasible and reachable for every feature.
			Bounds: core.NoMin(4 * float64(dim)),
		}
	}
	return mixed
}

// resultsIdentical compares two result slices by IEEE-754 bit pattern —
// the same predicate the kernel's property tests use.
func resultsIdentical(a, b []core.RadiusResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Feature != y.Feature || x.Kind != y.Kind || x.Method != y.Method {
			return false
		}
		if math.Float64bits(x.Radius) != math.Float64bits(y.Radius) {
			return false
		}
		if (x.Boundary == nil) != (y.Boundary == nil) || len(x.Boundary) != len(y.Boundary) {
			return false
		}
		for j := range x.Boundary {
			if math.Float64bits(x.Boundary[j]) != math.Float64bits(y.Boundary[j]) {
				return false
			}
		}
	}
	return true
}

func mustRadiusResult(r core.RadiusResult, err error) core.RadiusResult {
	if err != nil {
		fatal(err)
	}
	return r
}

// workload builds the fixed-seed working set: keys distinct affine
// impacts of the given dimensionality, all feasible at one shared
// operating point so every radius is finite and positive.
func workload(seed int64, keys, dim int) ([]core.Feature, core.Perturbation) {
	rng := rand.New(rand.NewSource(seed))
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = 0.5 + rng.Float64()
	}
	p := core.Perturbation{Name: "π", Orig: orig}
	features := make([]core.Feature, keys)
	for k := range features {
		coeffs := make([]float64, dim)
		at := 0.0
		for i := range coeffs {
			coeffs[i] = 0.5 + rng.Float64()
			at += coeffs[i] * orig[i]
		}
		imp, err := core.NewLinearImpact(coeffs, 0)
		if err != nil {
			fatal(err)
		}
		features[k] = core.Feature{
			Name:   fmt.Sprintf("F%d", k),
			Impact: imp,
			Bounds: core.NoMin(at * (1.5 + rng.Float64())),
		}
	}
	return features, p
}

// incrementalWorkload builds the block-sparse HCS shape the delta path
// exists for: one finishing-time feature per machine, each an indicator
// row over its own cpm-coordinate block of the ETC vector (the
// applications mapped to that machine), all feasible at one shared
// operating point. Moving a coordinate dirties exactly one machine's
// feature, so ComputeDelta re-sweeps one row where Compute re-sweeps
// them all.
func incrementalWorkload(seed int64, machines, cpm int) ([]core.Feature, core.Perturbation) {
	rng := rand.New(rand.NewSource(seed + 7))
	dim := machines * cpm
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = 0.5 + rng.Float64()
	}
	p := core.Perturbation{Name: "C", Orig: orig}
	features := make([]core.Feature, machines)
	for m := range features {
		coeffs := make([]float64, dim)
		at := 0.0
		for c := 0; c < cpm; c++ {
			coeffs[m*cpm+c] = 1
			at += orig[m*cpm+c]
		}
		imp, err := core.NewLinearImpact(coeffs, 0)
		if err != nil {
			fatal(err)
		}
		features[m] = core.Feature{
			Name:   fmt.Sprintf("finish(m%d)", m),
			Impact: imp,
			Bounds: core.NoMin(at * (1.5 + rng.Float64())),
		}
	}
	return features, p
}

// incrementalIdentity walks a randomized trajectory of 1..3-coordinate
// moves through one delta session, checking every step bit for bit
// against a cold Compute sweep of the same pack at the same point — the
// predicate the speedup figures are conditioned on.
func incrementalIdentity(seed int64, b *kernel.Batch, orig []float64) bool {
	rng := rand.New(rand.NewSource(seed + 11))
	n := b.Len()
	dim := len(orig)
	deltaOut := make([]core.RadiusResult, n)
	coldOut := make([]core.RadiusResult, n)
	prev := append([]float64(nil), orig...)
	next := append([]float64(nil), orig...)
	d := b.Delta()
	if _, err := d.Full(prev, deltaOut); err != nil {
		fatal(err)
	}
	for step := 0; step < 64; step++ {
		copy(next, prev)
		dirty := make([]int, 1+rng.Intn(3))
		for i := range dirty {
			j := rng.Intn(dim)
			dirty[i] = j
			next[j] *= 0.9 + 0.2*rng.Float64()
		}
		if _, _, err := d.ComputeDelta(prev, next, dirty, deltaOut); err != nil {
			fatal(err)
		}
		if _, err := b.Compute(next, coldOut); err != nil {
			fatal(err)
		}
		if !resultsIdentical(deltaOut, coldOut) {
			return false
		}
		prev, next = next, prev
	}
	return true
}

// incrementalContenders builds the full-recompute and delta-session
// competitors for one interleaved incremental series. Each op is one
// trajectory step that bumps k coordinates spread across distinct
// machine blocks; both contenders walk the identical deterministic
// trajectory from the same start. The delta contender keeps one session
// across steps — the Watcher shape — and resyncs itself from orig at
// the top of each rep.
func incrementalContenders(b *kernel.Batch, orig []float64, steps, k int) []contender {
	n := b.Len()
	dim := len(orig)
	move := func(point []float64, step int, dirty []int) {
		for t := 0; t < k; t++ {
			j := ((step*k+t)*(dim/k) + step) % dim
			point[j] += 0.001
			if dirty != nil {
				dirty[t] = j
			}
		}
	}
	fullOut := make([]core.RadiusResult, n)
	fullPoint := make([]float64, dim)
	deltaOut := make([]core.RadiusResult, n)
	deltaPrev := make([]float64, dim)
	deltaNext := make([]float64, dim)
	dirty := make([]int, k)
	d := b.Delta()
	return []contender{
		{impl: "full", body: func() {
			copy(fullPoint, orig)
			for s := 0; s < steps; s++ {
				move(fullPoint, s, nil)
				if _, err := b.Compute(fullPoint, fullOut); err != nil {
					fatal(err)
				}
			}
		}},
		{impl: "delta", body: func() {
			copy(deltaPrev, orig)
			if _, err := d.Full(deltaPrev, deltaOut); err != nil {
				fatal(err)
			}
			for s := 0; s < steps; s++ {
				copy(deltaNext, deltaPrev)
				move(deltaNext, s, dirty)
				if _, _, err := d.ComputeDelta(deltaPrev, deltaNext, dirty, deltaOut); err != nil {
					fatal(err)
				}
				deltaPrev, deltaNext = deltaNext, deltaPrev
			}
		}},
	}
}

// contender is one named competitor in an interleaved measurement.
// When setup is set it runs before each rep, outside the timed region,
// and returns that rep's body in place of body.
type contender struct {
	impl  string
	body  func()
	setup func() func()
}

// hammer runs w goroutines, each performing iters lookups over the
// working set with a coprime per-worker stride so neighbours touch
// different keys at any instant.
func hammer(w, iters int, features []core.Feature, visit func(core.Feature)) {
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			stride := 2*g + 1
			for i := 0; i < iters; i++ {
				visit(features[(g+i*stride)%len(features)])
			}
		}()
	}
	wg.Wait()
}

// series is one measured line of the report.
type series struct {
	Scenario    string  `json:"scenario"`
	Impl        string  `json:"impl"`
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

type meta struct {
	Seed       int64  `json:"seed"`
	Keys       int    `json:"keys"`
	Dim        int    `json:"dim"`
	Iters      int    `json:"iters"`
	Reps       int    `json:"reps"`
	MaxWorkers int    `json:"max_workers"`
	Shards     int    `json:"shards"`
	Sweeps     int    `json:"sweeps"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type summary struct {
	// ContendedSpeedup is baseline ns/op divided by live-cache ns/op at
	// the widest contended worker count — the headline ≥2x acceptance
	// figure, derived from series recorded in this same file.
	ContendedSpeedup float64 `json:"contended_speedup"`
	ContendedWorkers int     `json:"contended_workers"`
	BaselineNsPerOp  float64 `json:"baseline_ns_per_op"`
	ShardedNsPerOp   float64 `json:"sharded_ns_per_op"`
	// Warm single-threaded allocation counts: the baseline pays for a
	// key string and a boundary clone per hit, the shared path pays
	// nothing.
	WarmBaselineAllocs float64 `json:"warm_hit_allocs_baseline"`
	WarmClonedAllocs   float64 `json:"warm_hit_allocs_sharded"`
	WarmSharedAllocs   float64 `json:"warm_hit_allocs_sharded_shared"`
	// KernelSpeedup is per-feature ns/op divided by SoA-kernel ns/op on
	// the warm sweep — the ≥4x acceptance figure of the kernel series.
	// KernelColdSpeedup is the same ratio when the kernel also pays for
	// Pack. Both ratios are only claimed when KernelIdentical held.
	KernelSpeedup      float64 `json:"kernel_speedup"`
	KernelColdSpeedup  float64 `json:"kernel_cold_speedup"`
	KernelPerFeatureNs float64 `json:"kernel_perfeature_ns_per_op"`
	KernelNsPerOp      float64 `json:"kernel_ns_per_op"`
	// KernelIdentical records that the kernel reproduced the scalar
	// path's RadiusResults bit for bit on the all-linear workload;
	// KernelMixedIdentical the same through batch.AnalyzeOneContext on
	// the mixed linear/convex workload (routing included).
	KernelIdentical      bool `json:"kernel_identical"`
	KernelMixedIdentical bool `json:"kernel_mixed_identical"`
	// Incremental speedups are full-recompute ns/step divided by
	// ComputeDelta ns/step on the block-sparse HCS workload:
	// IncrementalSpeedup1 for single-coordinate moves (the ≥3x acceptance
	// figure of the incremental series), IncrementalSpeedupK for moves
	// touching several machine blocks at once. Both ratios are only
	// claimed when IncrementalIdentical held: the delta session
	// reproduced cold Compute sweeps bit for bit along a randomized walk.
	IncrementalSpeedup1  float64 `json:"incremental_speedup_1"`
	IncrementalSpeedupK  float64 `json:"incremental_speedup_k"`
	IncrementalFullNs    float64 `json:"incremental_full_ns_per_op"`
	IncrementalDeltaNs   float64 `json:"incremental_delta_ns_per_op"`
	IncrementalIdentical bool    `json:"incremental_identical"`
}

type report struct {
	Meta    meta     `json:"meta"`
	Series  []series `json:"series"`
	Summary summary  `json:"summary"`
}

func (r *report) add(s ...series) { r.Series = append(r.Series, s...) }

func (r *report) find(scenario, impl string, workers int) *series {
	for i := range r.Series {
		s := &r.Series[i]
		if s.Scenario == scenario && s.Impl == impl && s.Workers == workers {
			return s
		}
	}
	return nil
}

func (r *report) summarise(maxWorkers int) {
	base := r.find("contended", "baseline", maxWorkers)
	live := r.find("contended", "sharded", maxWorkers)
	if base != nil && live != nil && live.NsPerOp > 0 {
		r.Summary.ContendedSpeedup = base.NsPerOp / live.NsPerOp
		r.Summary.ContendedWorkers = maxWorkers
		r.Summary.BaselineNsPerOp = base.NsPerOp
		r.Summary.ShardedNsPerOp = live.NsPerOp
	}
	if s := r.find("warm_hit", "baseline", 1); s != nil {
		r.Summary.WarmBaselineAllocs = s.AllocsPerOp
	}
	if s := r.find("warm_hit", "sharded", 1); s != nil {
		r.Summary.WarmClonedAllocs = s.AllocsPerOp
	}
	if s := r.find("warm_hit_shared", "sharded", 1); s != nil {
		r.Summary.WarmSharedAllocs = s.AllocsPerOp
	}
	if pf, k := r.find("kernel_warm", "perfeature", 1), r.find("kernel_warm", "kernel", 1); pf != nil && k != nil && k.NsPerOp > 0 {
		r.Summary.KernelSpeedup = pf.NsPerOp / k.NsPerOp
		r.Summary.KernelPerFeatureNs = pf.NsPerOp
		r.Summary.KernelNsPerOp = k.NsPerOp
	}
	if pf, k := r.find("kernel_cold", "perfeature", 1), r.find("kernel_cold", "kernel", 1); pf != nil && k != nil && k.NsPerOp > 0 {
		r.Summary.KernelColdSpeedup = pf.NsPerOp / k.NsPerOp
	}
	if full, delta := r.find("incremental_1", "full", 1), r.find("incremental_1", "delta", 1); full != nil && delta != nil && delta.NsPerOp > 0 {
		r.Summary.IncrementalSpeedup1 = full.NsPerOp / delta.NsPerOp
		r.Summary.IncrementalFullNs = full.NsPerOp
		r.Summary.IncrementalDeltaNs = delta.NsPerOp
	}
	if full, delta := r.find("incremental_k", "full", 1), r.find("incremental_k", "delta", 1); full != nil && delta != nil && delta.NsPerOp > 0 {
		r.Summary.IncrementalSpeedupK = full.NsPerOp / delta.NsPerOp
	}
}

// measure times reps runs of one scenario and keeps the fastest, the
// usual defence against scheduler noise on shared CI machines. setup
// runs outside the timed region and returns the body to time.
func measure(scenario, impl string, workers, reps, ops int, setup func() func()) series {
	best := math.MaxFloat64
	for r := 0; r < reps; r++ {
		body := setup()
		runtime.GC()
		start := time.Now()
		body()
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return series{
		Scenario: scenario, Impl: impl, Workers: workers, Ops: ops,
		NsPerOp:   best * 1e9 / float64(ops),
		OpsPerSec: float64(ops) / best,
	}
}

// measureInterleaved times several competing bodies round-robin — rep 1
// of every contender, then rep 2, … — keeping each contender's fastest
// rep. A contender's setup result lives for its own rep only. Head-to-head series produced this way share the machine's slow
// and fast phases instead of each owning a different stretch of time.
func measureInterleaved(scenario string, workers, reps, ops int, cs []contender) []series {
	best := make([]float64, len(cs))
	for i := range best {
		best[i] = math.MaxFloat64
	}
	for r := 0; r < reps; r++ {
		for i, c := range cs {
			body := c.body
			if c.setup != nil {
				body = c.setup()
			}
			runtime.GC()
			start := time.Now()
			body()
			if d := time.Since(start).Seconds(); d < best[i] {
				best[i] = d
			}
		}
	}
	out := make([]series, len(cs))
	for i, c := range cs {
		out[i] = series{
			Scenario: scenario, Impl: c.impl, Workers: workers, Ops: ops,
			NsPerOp:   best[i] * 1e9 / float64(ops),
			OpsPerSec: float64(ops) / best[i],
		}
	}
	return out
}

// measureAllocs is measure for single-threaded bodies, adding exact
// allocation counts from the runtime's per-process malloc counters
// (valid only because nothing else runs during the timed region).
func measureAllocs(scenario, impl string, reps, ops int, body func(n int)) series {
	best := math.MaxFloat64
	allocs, bytes := math.MaxFloat64, math.MaxFloat64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		body(ops / 10) // warm the pools outside the measured region
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		body(ops)
		d := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		if d < best {
			best = d
		}
		if a := float64(ms1.Mallocs-ms0.Mallocs) / float64(ops); a < allocs {
			allocs = a
			bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops)
		}
	}
	return series{
		Scenario: scenario, Impl: impl, Workers: 1, Ops: ops,
		NsPerOp:     best * 1e9 / float64(ops),
		OpsPerSec:   float64(ops) / best,
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
	}
}

func mustRadius(_ core.RadiusResult, err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// ---------------------------------------------------------------------------
// Frozen baseline: the cache as it stood before sharding — one global
// mutex, a string key materialised on every lookup, a defensive boundary
// clone on every hit, no miss coalescing. Kept verbatim (minus the
// injection-failure branches and the address keys of non-linear impacts,
// which the benchmark's all-linear workload never takes) so BENCH_5.json
// compares the live cache against the real predecessor, not a strawman.
// ---------------------------------------------------------------------------

type baselineCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List
	entries  map[string]*list.Element
	hits     uint64
	misses   uint64
}

type baselineEntry struct {
	key    string
	impact core.Impact
	result core.RadiusResult
}

func newBaselineCache(capacity int) *baselineCache {
	return &baselineCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

func (c *baselineCache) radius(f core.Feature, p core.Perturbation, opts core.Options) (core.RadiusResult, error) {
	ctx := context.Background()
	key, ok := baselineKey(f, p, opts.WithDefaults())
	if !ok {
		return core.ComputeRadius(f, p, opts)
	}
	// The live path consults the fault context on every lookup and the
	// trace only on a fault branch; keep those calls so the baseline is
	// not penalised for work the live path also does.
	if err := faults.Inject(ctx, faults.CacheGet); err != nil {
		obs.StartSpan(ctx, "cache_get").End(err)
		return core.RadiusResult{}, err
	}
	c.mu.Lock()
	if el, found := c.entries[key]; found {
		c.order.MoveToFront(el)
		c.hits++
		res := el.Value.(*baselineEntry).result
		c.mu.Unlock()
		res.Boundary = vecmath.Clone(res.Boundary)
		res.Feature = f.Name
		return res, nil
	}
	c.mu.Unlock()

	res, err := core.ComputeRadius(f, p, opts)
	if err != nil {
		return core.RadiusResult{}, err
	}
	if err := faults.Inject(ctx, faults.CachePut); err != nil {
		obs.StartSpan(ctx, "cache_put").End(err)
		return res, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, found := c.entries[key]; !found {
		c.entries[key] = c.order.PushFront(&baselineEntry{key: key, impact: f.Impact, result: res})
		for c.order.Len() > c.capacity {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*baselineEntry).key)
		}
	}
	c.misses++
	stored := res
	stored.Boundary = vecmath.Clone(stored.Boundary)
	return stored, nil
}

func baselineKey(f core.Feature, p core.Perturbation, opts core.Options) (string, bool) {
	b := make([]byte, 0, 64+8*len(p.Orig))
	switch imp := f.Impact.(type) {
	case *core.LinearImpact:
		b = append(b, 'L')
		b = baselineFloats(b, imp.Coeffs)
		b = baselineFloat(b, imp.Offset)
	default:
		return "", false
	}
	b = append(b, '|')
	b = baselineFloat(b, f.Bounds.Min)
	b = baselineFloat(b, f.Bounds.Max)
	b = append(b, '|')
	b = baselineFloats(b, p.Orig)
	b = append(b, '|')
	b = append(b, opts.Norm.Name()...)
	if w, ok := opts.Norm.(*vecmath.WeightedL2); ok {
		b = baselineFloats(b, w.W)
	}
	b = append(b, '|')
	s := opts.Solver
	b = baselineFloats(b, []float64{s.Tol, float64(s.MaxIter), float64(s.Restarts), float64(s.Seed), s.GradStep, s.RayMax})
	a := opts.Anneal
	b = baselineFloats(b, []float64{float64(a.Steps), a.InitialTemp, a.FinalTemp, a.Sigma, float64(a.Seed), a.Tol, a.RayMax})
	return string(b), true
}

func baselineFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func baselineFloats(b []byte, vs []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(vs)))
	for _, v := range vs {
		b = baselineFloat(b, v)
	}
	return b
}
