package batch

import (
	"context"

	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/kernel"
	"fepia/internal/obs"
)

// kernelSolve is the engine's routing step for Options.Kernel: it serves
// every kernel-eligible feature already memoised straight from the warm
// radius cache, packs the remaining cold subset into one SoA batch,
// computes those radii in a single sweep, populates the cache with the
// swept results, scatters everything into its input-ordered slot, and
// returns a mask of the slots it filled. A nil return means "kernel took
// nothing" — the caller's per-feature loop then behaves exactly as if
// Kernel were off.
//
// Routing rules (the full table lives in docs/PERFORMANCE.md):
//
//   - a request carrying a fault injector keeps the per-feature path
//     wholesale, so the solve/cache_get/cache_put injection points fire
//     per feature exactly as the chaos suite expects;
//   - an invalid perturbation keeps the per-feature path so the scalar
//     validation error is surfaced verbatim;
//   - per feature, only valid linear impacts of matching dimension under
//     a supported norm are packed (kernel.Eligible); everything else —
//     convex/non-convex impacts headed for internal/optimize, exotic
//     norms, malformed features — keeps the per-feature path;
//   - a feature whose impact evaluates to NaN at the operating point is
//     handed back by the kernel and re-routed through the scalar path,
//     which owns that error's wording.
//
// Traced requests DO use the kernel (fepiad traces every request into
// the /debug/traces ring, so falling back on trace presence would
// disable the kernel for the whole serving surface); the sweep records
// one "kernel" span carrying the hit/solved/fallback counts. The features
// re-routed to the per-feature path are covered by the caller's one
// "solve" stage span, and when the kernel took every feature no solve
// span starts at all.
//
// Cache integration: kernel-swept results are bit-identical to
// core.ComputeRadius, so they flow through the shared radius cache in
// both directions — warm entries are served without sweeping (counted as
// cache hits), and every swept radius is inserted for later hits
// (counted as misses through Cache.Put, preserving the one-miss-per-
// solve accounting). This keeps cluster cache-affinity and degraded
// serving effective on the kernel path. The cache is consulted without
// injection points, which is sound because a fault-injected request
// never reaches the kernel path at all.
func kernelSolve(ctx context.Context, job Job, copts core.Options, opts Options, radii []core.RadiusResult) []bool {
	if !opts.Kernel {
		return nil
	}
	if faults.From(ctx) != nil {
		return nil
	}
	if job.Perturbation.Validate() != nil {
		return nil
	}
	dim := len(job.Perturbation.Orig)
	if !kernel.SupportedNorm(copts.Norm) {
		return nil
	}
	idx := make([]int, 0, len(job.Features))
	for i, f := range job.Features {
		if kernel.Eligible(f, dim, copts.Norm) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	sp := obs.StartSpan(ctx, "kernel")
	rs := requestStats(ctx)
	solved := make([]bool, len(job.Features))

	// Warm reads first: a memoised radius is cheaper than re-sweeping it,
	// and on a cluster node that owns this spec's arc the whole request
	// should resolve here. In-place filter — cold reuses idx's backing
	// array, writing only behind the read position.
	cold := idx[:0]
	hits := 0
	for _, i := range idx {
		if r, ok := opts.Cache.kernelGet(job.Features[i], job.Perturbation, copts, !opts.ShareBoundaries); ok {
			radii[i] = r
			solved[i] = true
			hits++
			continue
		}
		cold = append(cold, i)
	}
	if rs != nil && hits > 0 {
		rs.Hits.Add(uint64(hits))
	}
	sp.SetInt("cache_hits", hits)
	if len(cold) == 0 {
		sp.SetInt("features", 0).SetInt("fallback", 0)
		sp.End(nil)
		return solved
	}

	eligible := make([]core.Feature, len(cold))
	for j, i := range cold {
		eligible[j] = job.Features[i]
	}
	b, err := kernel.Pack(eligible, dim, copts.Norm)
	if err != nil {
		// Defensive: Eligible vetted every feature, so Pack cannot fail;
		// if it ever does, the per-feature path still produces a correct
		// answer (or the authoritative error) for the cold subset.
		sp.End(err)
		return solved
	}
	out := make([]core.RadiusResult, len(cold))
	fallback, err := b.Compute(job.Perturbation.Orig, out)
	if err != nil {
		sp.End(err)
		return solved
	}
	swept := make([]bool, len(cold))
	for j := range cold {
		swept[j] = true
	}
	for _, j := range fallback {
		swept[j] = false
	}
	sweptN := 0
	for j, i := range cold {
		if !swept[j] {
			continue
		}
		solved[i] = true
		radii[i] = out[j]
		sweptN++
		// Populate the shared cache so the next request — on this node or
		// served degraded — hits instead of sweeping again.
		opts.Cache.Put(job.Features[i], job.Perturbation, copts, out[j])
	}
	if rs != nil && sweptN > 0 {
		rs.Kernel.Add(uint64(sweptN))
	}
	sp.SetInt("features", sweptN).SetInt("fallback", len(fallback))
	sp.End(nil)
	return solved
}
