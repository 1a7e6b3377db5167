package batch

import (
	"context"
	"fmt"
	"math"

	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/kernel"
	"fepia/internal/obs"
)

// Watcher is the engine's incremental re-analysis session: one feature
// set Φ watched as its operating point π^orig moves. It packs the
// kernel-eligible features ONCE (the pack is reused across every step)
// and opens a kernel.Delta session on it, so a step that moves only
// some coordinates re-solves only the radii those coordinates can
// touch; everything else — non-linear impacts, unsupported norms,
// NaN-fallback features — keeps the exact per-feature path with the
// engine's full cache/retry/fault/anytime discipline, every step.
//
// Cache discipline: kernel-delta results bypass the radius cache in
// both directions. A watch session's operating point moves every step,
// so each point is a brand-new cache key — inserting them would churn
// the LRU with entries no other request can hit, and looking them up
// costs more than the delta update itself. Scalar-path features DO keep
// the cached path (solveFeature), so convex solves still memoise,
// degraded serving still covers them, and injected cache faults still
// fire. Fault-injected steps route every feature through the scalar
// path (mirroring kernelSolve's rule) and mark the delta session for a
// cold resync on the next clean step, so injection points never
// silently disappear mid-session.
//
// Results returned by Step alias session-owned memory (the delta
// witness arena) and, with Options.ShareBoundaries, cache-owned memory:
// they are valid until the next Step call. A Watcher is single-
// goroutine; concurrent sessions share packs' underlying caches safely.
type Watcher struct {
	opts  Options
	copts core.Options
	job   Job
	pert  core.Perturbation

	pack  *kernel.Batch
	delta *kernel.Delta
	// kidx maps pack-local feature indices to job-global ones; kout is
	// the session-owned result slice the delta writes.
	kidx []int
	kout []core.RadiusResult
	// scalar lists the features that always take the per-feature path.
	scalar []int

	point    []float64
	radii    []core.RadiusResult
	prevBits []uint64
	prevKind []core.BoundKind
	changed  []int
	started  bool
	resync   bool
	steps    int
}

// StepResult is one watch frame: the full analysis at the new operating
// point plus the indices of the features whose answer moved since the
// previous step (radius bits, bound kind, or method — boundary-witness
// coordinates tracking the operating point do not count). On the first
// step every feature is "changed".
type StepResult struct {
	Analysis core.Analysis
	// Changed indexes into Analysis.Radii / the job's feature slice,
	// ascending. It aliases a session buffer overwritten by the next Step.
	Changed []int
	// Step is the 1-based step count of the session.
	Step int
}

// NewWatcher opens a session on the job. The job's
// Perturbation.Orig provides the dimension (and the first step's
// previous point for delta purposes, though the first Step always
// performs a full solve). Kernel packing follows Options.Kernel and
// per-feature eligibility exactly like the one-shot engine.
func NewWatcher(job Job, opts Options) (*Watcher, error) {
	if len(job.Features) == 0 {
		return nil, fmt.Errorf("core: empty feature set Φ")
	}
	if err := job.Perturbation.Validate(); err != nil {
		return nil, err
	}
	copts := opts.Core.WithDefaults()
	dim := len(job.Perturbation.Orig)
	w := &Watcher{
		opts:     opts,
		copts:    copts,
		job:      job,
		pert:     job.Perturbation,
		point:    make([]float64, dim),
		radii:    make([]core.RadiusResult, len(job.Features)),
		prevBits: make([]uint64, len(job.Features)),
		prevKind: make([]core.BoundKind, len(job.Features)),
		changed:  make([]int, 0, len(job.Features)),
	}
	copy(w.point, job.Perturbation.Orig)
	w.pert.Orig = w.point

	if opts.Kernel && kernel.SupportedNorm(copts.Norm) {
		for i, f := range job.Features {
			if kernel.Eligible(f, dim, copts.Norm) {
				w.kidx = append(w.kidx, i)
			} else {
				w.scalar = append(w.scalar, i)
			}
		}
		if len(w.kidx) > 0 {
			eligible := make([]core.Feature, len(w.kidx))
			for j, i := range w.kidx {
				eligible[j] = job.Features[i]
			}
			pack, err := kernel.Pack(eligible, dim, copts.Norm)
			if err != nil {
				// Defensive, like kernelSolve: Eligible vetted every
				// feature. Fall back to the scalar path wholesale.
				w.kidx, w.scalar, w.pack = nil, nil, nil
			} else {
				w.pack = pack
				w.delta = pack.Delta()
				w.kout = make([]core.RadiusResult, len(w.kidx))
			}
		}
	}
	if w.pack == nil {
		w.scalar = w.scalar[:0]
		for i := range job.Features {
			w.scalar = append(w.scalar, i)
		}
	}
	return w, nil
}

// Dim returns the session's perturbation dimension.
func (w *Watcher) Dim() int { return len(w.point) }

// Steps returns the number of completed steps.
func (w *Watcher) Steps() int { return w.steps }

// Step advances the session to the operating point next and returns the
// analysis there plus the changed-feature set. Results are byte-
// identical to a one-shot AnalyzeOneContext of the same job at next.
// On error the session keeps its previous point of record, so a retried
// or subsequent Step stays consistent (the delta session resyncs itself
// if it had already advanced).
func (w *Watcher) Step(ctx context.Context, next []float64) (StepResult, error) {
	if len(next) != len(w.point) {
		return StepResult{}, fmt.Errorf("batch: watcher step dimension %d != session dimension %d", len(next), len(w.point))
	}
	// The perturbation handed to solves and to the result must carry the
	// NEW point; w.point stays the previous point until the step commits.
	stepPert := w.pert
	stepPert.Orig = next

	// Mirror kernelSolve's routing: a fault-injected step and an invalid
	// operating point (non-finite coordinates) keep the per-feature path
	// wholesale — the former so injection points fire, the latter so the
	// scalar path surfaces its authoritative validation error.
	injected := faults.From(ctx) != nil
	kernelStep := w.pack != nil && !injected && stepPert.Validate() == nil
	first := !w.started
	w.changed = w.changed[:0]

	// scalarSolve runs one feature through the engine's per-feature
	// discipline (cache, retry, panic isolation, faults, anytime) inside
	// the step's solve stage and records whether its answer moved.
	var st solveStage
	scalarSolve := func(ctx context.Context, i int) error {
		r := &w.radii[i]
		if err := st.solve(ctx, i, w.job.Features[i], stepPert, w.copts, w.opts, r); err != nil {
			return err
		}
		bits := math.Float64bits(r.Radius)
		if first || bits != w.prevBits[i] || r.Kind != w.prevKind[i] {
			w.changed = append(w.changed, i)
		}
		w.prevBits[i], w.prevKind[i] = bits, r.Kind
		return nil
	}

	var fallback []int
	if kernelStep {
		var (
			changedK []int
			err      error
		)
		if first || w.resync {
			fallback, err = w.delta.Full(next, w.kout)
			changedK = nil // every kernel feature reports changed below
		} else {
			changedK, fallback, err = w.delta.ComputeDelta(w.point, next, nil, w.kout)
		}
		if err != nil {
			return StepResult{}, err
		}
		isFallback := make(map[int]bool, len(fallback))
		for _, j := range fallback {
			isFallback[j] = true
		}
		if first || w.resync {
			for j, i := range w.kidx {
				if !isFallback[j] {
					w.changed = append(w.changed, i)
				}
			}
		} else {
			for _, j := range changedK {
				if !isFallback[j] {
					w.changed = append(w.changed, w.kidx[j])
				}
			}
		}
		for j, i := range w.kidx {
			if isFallback[j] {
				continue
			}
			w.radii[i] = w.kout[j]
			w.prevBits[i] = math.Float64bits(w.kout[j].Radius)
			w.prevKind[i] = w.kout[j].Kind
		}
		obs.StartSpan(ctx, "kernel_delta").
			SetInt("features", len(w.kidx)-len(fallback)).
			SetInt("changed", len(w.changed)).
			SetInt("fallback", len(fallback)).
			End(nil)
	}

	// Scalar features every step; kernel NaN-fallback features whenever
	// they are in fallback at this point. A step the kernel delta covered
	// in full starts no solve stage: its kernel_delta span is the record.
	if !kernelStep || len(w.scalar)+len(fallback) > 0 {
		sctx := st.open(ctx)
		err := w.solveScalar(sctx, kernelStep, fallback, scalarSolve)
		st.end(err)
		if err != nil {
			return StepResult{}, err
		}
	}
	// A step that bypassed the delta session (if any) leaves its point of
	// record stale, so the next kernel step must resweep cold.
	w.resync = !kernelStep && w.pack != nil

	copy(w.point, next)
	w.started = true
	w.steps++
	sortInts(w.changed)
	resPert := w.pert // Orig aliases w.point, which now holds next
	return StepResult{
		Analysis: core.NewAnalysis(resPert, w.radii),
		Changed:  w.changed,
		Step:     w.steps,
	}, nil
}

// solveScalar runs the step's per-feature solves: the scalar features
// and the kernel's NaN fallbacks on a kernel step, every feature
// otherwise.
func (w *Watcher) solveScalar(ctx context.Context, kernelStep bool, fallback []int, solve func(context.Context, int) error) error {
	if !kernelStep {
		for i := range w.job.Features {
			if err := solve(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range w.scalar {
		if err := solve(ctx, i); err != nil {
			return err
		}
	}
	for _, j := range fallback {
		if err := solve(ctx, w.kidx[j]); err != nil {
			return err
		}
	}
	return nil
}

// sortInts is an insertion sort for the small changed-index buffer —
// kernel and scalar contributions interleave, and frames promise
// ascending order. Avoids pulling package sort into the hot step path
// (the buffer is usually tiny).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
