package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/obs"
)

// Options tunes a batch run.
type Options struct {
	// Workers bounds the number of concurrent analysis goroutines;
	// values ≤ 0 select runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, memoises per-feature radius computations
	// across the whole batch (and across batches — the cache is shared
	// state). A nil cache disables memoisation.
	Cache *Cache
	// Core configures every underlying radius computation (norm choice,
	// solver budgets).
	Core core.Options
	// Retry, when non-nil, re-attempts transiently failing per-feature
	// radius solves (injected faults, flaky delegated backends) with
	// decorrelated-jitter backoff. Permanent failures — validation,
	// cancellation, unsupported norms — are never retried, so a nil
	// policy and the default classifier behave identically on fault-free
	// runs.
	Retry *faults.Policy
	// ShareBoundaries skips the defensive per-hit clone of each cached
	// RadiusResult.Boundary: results may alias cache-owned memory, so the
	// caller must treat Boundary slices as read-only. The fepiad server
	// sets it — its results are JSON-encoded and dropped — which makes
	// the warm cache-hit path allocation-free. Leave it false whenever
	// results escape to callers that might mutate them (the public
	// facade).
	ShareBoundaries bool
	// Kernel routes eligible features — valid linear impacts under an
	// ℓ₂/ℓ₁/ℓ∞/weighted-ℓ₂ norm — through the vectorized SoA analytic
	// kernel (internal/kernel): all their radii are computed in one
	// cache-friendly sweep with results bit-identical to the per-feature
	// path. Ineligible features (non-linear impacts, unsupported or
	// mismatched norms, invalid inputs) keep the exact per-feature path,
	// as does the whole job on a fault-injected request, so chaos
	// injection points never silently disappear. Traced requests use the
	// kernel and record one "kernel" span for the sweep; a "solve" stage
	// span covers only the features the kernel handed back, and none
	// starts when the kernel took them all. Kernel-routed features flow
	// through the radius cache in both directions: memoised radii are
	// served from warm hits without sweeping, and every swept radius
	// populates the cache — so degraded serving and cluster
	// cache-affinity cover the kernel path too (see docs/PERFORMANCE.md
	// for the routing rules).
	Kernel bool
	// Anytime turns a mid-solve deadline expiry into a certified partial
	// answer instead of an aborted analysis: per-feature solves run
	// through core.ComputeRadiusAnytime, and a feature whose minimiser
	// did not converge in time reports its best certified lower bound
	// (Kind core.LowerBound) with a nil error. Cancellation that is not
	// a deadline still aborts. Partial results never enter the cache or
	// the singleflight — waiters under different deadlines must not
	// inherit them — so anytime misses bypass flight coalescing: warm
	// hits are still served (and counted) from the shared cache, and
	// exact results still populate it.
	Anytime bool
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Job is one analysis unit: a feature set Φ against one perturbation
// parameter π — exactly the input of core.Analyze.
type Job struct {
	// Features is Φ: the features with their impact functions against
	// this job's parameter.
	Features []core.Feature
	// Perturbation is π with its operating point π^orig.
	Perturbation core.Perturbation
}

// ForEach runs fn(0) … fn(n−1) over a pool of at most `workers`
// goroutines (≤ 0 selects GOMAXPROCS) and returns the first error
// encountered, cancelling the remaining work. It is the scheduling
// substrate of Analyze and of the experiment harness: callers write
// result i into slot i of a preallocated slice, so output order never
// depends on scheduling. A pool of one needs no goroutine: it runs the
// tasks in order on the caller's goroutine, under the caller's profiler
// labels.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	for w := 0; w < workers; w++ {
		if w > 0 {
			// Chaos harness worker_spawn point: a fault means this worker
			// is never born and the survivors drain the queue. Worker 0 is
			// exempt, so the pool always makes progress.
			if err := faults.Inject(ctx, faults.WorkerSpawn); err != nil {
				continue
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Inherit the caller's pprof label set (the fepiad handlers
			// attach endpoint=…) and add the worker index, so CPU profiles
			// attribute engine time to the endpoint and worker that spent it.
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("batch_worker", strconv.Itoa(w))))
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := runTask(fn, i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// runTask runs fn(i), isolating a stray task panic (one that escaped the
// per-feature recovery in solveFeature, e.g. from a caller-supplied fn)
// into the batch's first error instead of tearing down the process.
func runTask(fn func(i int) error, i int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("batch: task %d panicked: %v", i, rec)
		}
	}()
	return fn(i)
}

// Analyze evaluates every job concurrently and returns one core.Analysis
// per job, in input order. Each result is identical to what
// core.Analyze(job.Features, job.Perturbation, opts.Core) would return;
// only the schedule (and, with opts.Cache set, the amount of repeated
// solving) differs. The first failing job aborts the batch.
func Analyze(ctx context.Context, jobs []Job, opts Options) ([]core.Analysis, error) {
	out := make([]core.Analysis, len(jobs))
	err := ForEach(ctx, len(jobs), opts.workers(), func(i int) error {
		a, err := AnalyzeOneContext(ctx, jobs[i], opts)
		if err != nil {
			return fmt.Errorf("batch: job %d (%s): %w", i, jobs[i].Perturbation.Name, err)
		}
		out[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnalyzeOneContext evaluates a single job through the engine's cached
// radius path without spawning workers, so callers with their own
// per-item pipelines (e.g. hiperd.EvaluateBatch, which interleaves
// feature construction and slack computation) can still share one radius
// cache; it is safe to call concurrently. Like core.AnalyzeContext,
// cancellation is observed between per-feature radius computations and
// the ctx error is returned verbatim. It is the per-request entry point
// of the fepiad server, which must never run an uncancellable solve.
//
// Resilience: every per-feature solve is panic-isolated (a crash becomes
// a typed *core.SolveError wrapping core.ErrSolvePanic for this job only)
// and, with opts.Retry set, transient failures are re-attempted under the
// policy. The faults.Solve / faults.CacheGet / faults.CachePut injection
// points fire when ctx carries an injector.
func AnalyzeOneContext(ctx context.Context, job Job, opts Options) (core.Analysis, error) {
	return AnalyzeInto(ctx, job, opts, nil)
}

// AnalyzeInto is AnalyzeOneContext writing the radii into radii when it
// holds one slot per feature, and into a new slice otherwise; the
// analysis aliases the slots. Every slot is written before a nil error
// returns, so they may hold anything beforehand.
func AnalyzeInto(ctx context.Context, job Job, opts Options, radii []core.RadiusResult) (core.Analysis, error) {
	if len(job.Features) == 0 {
		return core.Analysis{}, fmt.Errorf("core: empty feature set Φ")
	}
	copts := opts.Core.WithDefaults()
	if len(radii) != len(job.Features) {
		radii = make([]core.RadiusResult, len(job.Features))
	}
	// With Options.Kernel set, the vectorized analytic kernel fills the
	// slots of every eligible linear feature in one SoA sweep; the loop
	// below then only visits what the kernel could not take (solved is
	// nil when the kernel is off or nothing was eligible).
	solved := kernelSolve(ctx, job, copts, opts, radii)
	if solved != nil && !slices.Contains(solved, false) {
		// The kernel took every feature; its span is the system's record.
		return core.NewAnalysis(job.Perturbation, radii), nil
	}
	var st solveStage
	ctx = st.open(ctx)
	for i, f := range job.Features {
		if solved != nil && solved[i] {
			continue
		}
		if err := st.solve(ctx, i, f, job.Perturbation, copts, opts, &radii[i]); err != nil {
			st.end(err)
			return core.Analysis{}, err
		}
	}
	st.end(nil)
	return core.NewAnalysis(job.Perturbation, radii), nil
}

// solveStage traces one system's per-feature loop at stage granularity:
// one "solve" span for the whole loop, carrying the feature, cache and
// retry counts and the slowest feature, instead of spans per feature. A
// feature gets its own "solve_feature" span only when it retried, failed
// (a recovered panic included) or returned an anytime partial, so a
// fault-free trace pays for its stages, not its features. On an
// untraced context — or a trace already at its span cap — the stage is
// inert and reads no clock.
//
// The zero value is ready for open; it lives on the caller's stack.
type solveStage struct {
	tr *obs.Trace
	sp *obs.Span
	rs *RequestStats
	// Collector readings when the stage opened: the span reports what the
	// loop added, not what an earlier kernel sweep counted.
	hits, misses, coalesced uint64
	features, retries       int
	slowest                 string
	slowestNS               int64
}

// open starts the stage span on a traced ctx and returns the context the
// features must be solved under. The span's cache counts are read from
// the request's RequestStats; a traced caller that attached none gets a
// stage-local collector.
func (st *solveStage) open(ctx context.Context) context.Context {
	st.tr = obs.TraceFrom(ctx)
	st.sp = st.tr.StartSpan("solve")
	if st.sp == nil {
		return ctx
	}
	if st.rs = requestStats(ctx); st.rs == nil {
		st.rs = &RequestStats{}
		ctx = WithRequestStats(ctx, st.rs)
	}
	st.hits, st.misses, st.coalesced = st.rs.Hits.Load(), st.rs.Misses.Load(), st.rs.Coalesced.Load()
	return ctx
}

// solve runs one feature through solveFeature into *out and, on a live
// stage, folds it into the stage's counts and commits its solve_feature
// span when the feature is worth one. An ended ctx fails the feature
// before any clock is read, except for a passed deadline in anytime
// mode: the solve then returns a certified partial bound.
func (st *solveStage) solve(ctx context.Context, idx int, f core.Feature, p core.Perturbation, copts core.Options, opts Options, out *core.RadiusResult) error {
	if err := ctx.Err(); err != nil && (!opts.Anytime || !errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	if st.sp == nil {
		_, err := solveFeature(ctx, f, p, copts, opts, out)
		return err
	}
	start := st.tr.Clock()
	retries, err := solveFeature(ctx, f, p, copts, opts, out)
	d := st.tr.Clock() - start
	st.features++
	st.retries += retries
	if st.features == 1 || d > st.slowestNS {
		st.slowest, st.slowestNS = f.Name, d
	}
	partial := err == nil && out.Kind == core.LowerBound
	if retries > 0 || err != nil || partial {
		fs := st.tr.StartSpanAt("solve_feature", start).Set("feature", f.Name).SetInt("feature_index", idx)
		fs.AddRetries(retries)
		if partial {
			fs.Set("anytime", "partial")
		}
		fs.End(err)
	}
	return err
}

// end records the stage span with its counts; err is the loop's verdict.
func (st *solveStage) end(err error) {
	if st.sp == nil {
		return
	}
	st.sp.SetInt("features", st.features).
		SetInt("hits", int(st.rs.Hits.Load()-st.hits)).
		SetInt("misses", int(st.rs.Misses.Load()-st.misses)).
		SetInt("coalesced", int(st.rs.Coalesced.Load()-st.coalesced)).
		SetInt("retries", st.retries)
	if st.features > 0 {
		st.sp.Set("slowest", st.slowest).SetInt("slowest_us", int(st.slowestNS/int64(time.Microsecond)))
	}
	st.sp.End(err)
}

// solveFeature computes one radius through the cached path under the
// retry policy, converting a panicking attempt (an Impact.Eval crash, or
// an injected panic fault) into a typed *core.SolveError so the rest of
// the batch is never lost to a single bad item. The radius is written
// to *out, which holds no meaningful value on error; the result is the
// retry attempts the policy spent. Tracing is its caller's (solveStage).
func solveFeature(ctx context.Context, f core.Feature, p core.Perturbation, copts core.Options, opts Options, out *core.RadiusResult) (int, error) {
	attempts := 0
	err := opts.Retry.Do(ctx, func() error {
		attempts++
		if attempts > 1 {
			return solveLabelled(ctx, f, p, copts, opts, out)
		}
		return solveOnce(ctx, f, p, copts, opts, out)
	})
	return attempts - 1, err
}

// solveOnce is one solve attempt: the Solve injection point, then the
// anytime or cached radius, with a panic recovered into the attempt's
// error.
func solveOnce(ctx context.Context, f core.Feature, p core.Perturbation, copts core.Options, opts Options, out *core.RadiusResult) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = core.RecoveredSolveError(f.Name, rec)
		}
	}()
	if err := faults.Inject(ctx, faults.Solve); err != nil {
		return err
	}
	if opts.Anytime {
		*out, err = anytimeRadius(ctx, f, p, copts, opts)
		return err
	}
	if opts.ShareBoundaries {
		*out, err = opts.Cache.RadiusContextShared(ctx, f, p, copts)
	} else {
		*out, err = opts.Cache.RadiusContext(ctx, f, p, copts)
	}
	return err
}

// solveLabelled runs a retried attempt on a goroutine of its own,
// labelled with the feature, so a CPU profile of a flaky request names
// the feature the policy is re-solving. The calling goroutine's labels
// are never touched: ctx need not carry them (ForEach adds batch_worker
// to its workers), so a label set restored from ctx would drop them for
// the rest of the worker's tasks.
func solveLabelled(ctx context.Context, f core.Feature, p core.Perturbation, copts core.Options, opts Options, out *core.RadiusResult) error {
	done := make(chan error, 1)
	go pprof.Do(ctx, pprof.Labels("feature", f.Name), func(context.Context) {
		done <- solveOnce(ctx, f, p, copts, opts, out)
	})
	return <-done
}

// anytimeRadius is the anytime-mode cache discipline: a counting warm
// lookup first (a hit is an exact answer regardless of the deadline),
// then a direct certified solve outside the singleflight — a partial
// result must never be published to coalesced waiters holding different
// deadlines, nor cached. Exact results are inserted with Put so later
// traffic still warms up; the trade-off is that concurrent anytime
// misses on one key may solve it more than once.
func anytimeRadius(ctx context.Context, f core.Feature, p core.Perturbation, copts core.Options, opts Options) (core.RadiusResult, error) {
	rs := requestStats(ctx)
	if r, ok := opts.Cache.kernelGet(f, p, copts, !opts.ShareBoundaries); ok {
		if rs != nil {
			rs.Hits.Add(1)
		}
		return r, nil
	}
	r, err := core.ComputeRadiusAnytime(ctx, f, p, copts, nil)
	if err != nil {
		return core.RadiusResult{}, err
	}
	if rs != nil {
		rs.Misses.Add(1)
	}
	if r.Kind != core.LowerBound {
		opts.Cache.Put(f, p, copts, r)
	}
	return r, nil
}

// Result pairs one job's analysis with its error: the item-isolated
// output of AnalyzeAll. Exactly one of Analysis and Err is meaningful.
type Result struct {
	Analysis core.Analysis
	Err      error
}

// AnalyzeAll evaluates every job like Analyze but never aborts the
// batch: each item's failure — including a recovered panic — lands in
// its own Result slot while every other item completes normally, in
// input order. Only context cancellation stops the sweep early, in which
// case the unvisited items carry the context error.
func AnalyzeAll(ctx context.Context, jobs []Job, opts Options) []Result {
	out := make([]Result, len(jobs))
	err := ForEach(ctx, len(jobs), opts.workers(), func(i int) error {
		a, err := AnalyzeOneContext(ctx, jobs[i], opts)
		out[i] = Result{Analysis: a, Err: err}
		return nil // item failures stay in their slot; only ctx aborts
	})
	if err != nil {
		for i := range out {
			if out[i].Err == nil && out[i].Analysis.Radii == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// AnalyzeCached evaluates a job purely from the cache: ok is false
// (with a zero Analysis) unless every feature's radius is already
// memoised. No solve is ever started and no injection point fires — this
// is the degraded serving path of the fepiad server when its engine
// breaker is open or the engine just failed.
func AnalyzeCached(job Job, opts Options) (core.Analysis, bool) {
	if opts.Cache == nil || len(job.Features) == 0 {
		return core.Analysis{}, false
	}
	copts := opts.Core.WithDefaults()
	radii := make([]core.RadiusResult, len(job.Features))
	for i, f := range job.Features {
		var (
			r  core.RadiusResult
			ok bool
		)
		if opts.ShareBoundaries {
			r, ok = opts.Cache.LookupShared(f, job.Perturbation, copts)
		} else {
			r, ok = opts.Cache.Lookup(f, job.Perturbation, copts)
		}
		if !ok {
			return core.Analysis{}, false
		}
		radii[i] = r
	}
	return core.NewAnalysis(job.Perturbation, radii), true
}
