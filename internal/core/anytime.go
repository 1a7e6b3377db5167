package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"fepia/internal/optimize"
	"fepia/internal/vecmath"
)

// anytimeSide tracks one finite boundary of an anytime computation: the
// certified lower bound tightens while the solver runs, and exactly one
// of exact/unreachable/skipped describes how the side ended.
type anytimeSide struct {
	beta float64
	kind BoundKind
	// lb is the best certified lower bound on this side's distance so
	// far; 0 until the first certificate lands (always sound).
	lb float64
	// exact, when non-nil, is the side's converged solution.
	exact *RadiusResult
	// unreachable: the level set cannot be reached (contributes +Inf).
	unreachable bool
	// skipped: the deadline expired before this side converged; lb is
	// everything that is known about it.
	skipped bool
}

// ComputeRadiusAnytime evaluates Eq. 1 like ComputeRadius, but under a
// context with certified anytime semantics:
//
//   - progress, when non-nil, receives a strictly increasing stream of
//     certified lower bounds on the final radius while the solve runs.
//     Every reported value is proven safe — no perturbation smaller than
//     it can violate the feature — by convexity certificates (a
//     supporting-halfspace bound on boundaries approached from above, a
//     cross-polytope inscribed-ball bound from below), not by trusting
//     solver iterates.
//   - when ctx's deadline expires mid-solve, the best certified bound is
//     returned as a partial result with Kind == LowerBound, Method ==
//     MethodAnytime, a nil Boundary, and a nil error. For non-convex
//     impacts nothing can be certified, so the partial radius is 0.
//   - cancellation that is not a deadline (client gone, forced drain) is
//     returned as an error, exactly like the rest of the engine.
//
// With a context that never expires, the result is bit-identical to
// ComputeRadius: the same solvers run with the same options in the same
// order, and the certification probes never feed back into them.
func ComputeRadiusAnytime(ctx context.Context, f Feature, p Perturbation, opts Options, progress func(lower float64)) (RadiusResult, error) {
	if err := validateRadiusInputs(f, p); err != nil {
		return RadiusResult{}, err
	}
	opts = opts.WithDefaults()

	// Everything with a closed form is exact in microseconds — deadlines
	// are a numeric-minimiser problem. Linear impacts (any norm) and the
	// non-ℓ₂ rejection path behave exactly like ComputeRadius.
	if _, ok := f.Impact.(*LinearImpact); ok {
		r, err := ComputeRadius(f, p, opts)
		if err == nil && progress != nil && !math.IsInf(r.Radius, 1) {
			progress(r.Radius)
		}
		return r, err
	}
	if _, ok := opts.Norm.(vecmath.L2); !ok {
		return ComputeRadius(f, p, opts)
	}

	v0 := f.Impact.Eval(p.Orig)
	if math.IsNaN(v0) {
		return RadiusResult{}, fmt.Errorf("core: feature %q impact is NaN at the operating point", f.Name)
	}
	if !f.Bounds.Contains(v0) {
		return RadiusResult{
			Feature:  f.Name,
			Radius:   0,
			Boundary: vecmath.Clone(p.Orig),
			Kind:     AlreadyViolated,
			Method:   MethodNone,
		}, nil
	}

	fi, isFunc := f.Impact.(*FuncImpact)
	obj := objective(f.Impact)
	convex := obj.Convex

	sides := make([]anytimeSide, 0, 2)
	for _, side := range []struct {
		beta float64
		kind BoundKind
	}{
		{f.Bounds.Max, AtMax},
		{f.Bounds.Min, AtMin},
	} {
		if math.IsInf(side.beta, 0) {
			continue
		}
		sides = append(sides, anytimeSide{beta: side.beta, kind: side.kind})
	}

	// The radius is the min over sides, so the certified combined bound
	// is the min of the per-side bounds (exact sides contribute their
	// radius, unreachable sides +Inf). progress sees only improvements.
	combined := func() float64 {
		lb := math.Inf(1)
		for i := range sides {
			s := &sides[i]
			switch {
			case s.unreachable:
			case s.exact != nil:
				lb = math.Min(lb, s.exact.Radius)
			default:
				lb = math.Min(lb, s.lb)
			}
		}
		return lb
	}
	reported := 0.0
	emit := func() {
		if progress == nil {
			return
		}
		if lb := combined(); lb > reported && !math.IsInf(lb, 1) {
			reported = lb
			progress(lb)
		}
	}

	// Certification pass: before any expensive exact solve, put a floor
	// under every side a convexity argument can reach. Boundaries
	// approached from below (v0 < β) get the cross-polytope probe
	// certificate here; boundaries approached from above are certified by
	// the solver's own halfspace bounds from its first gradient onward.
	if convex {
		for i := range sides {
			s := &sides[i]
			if v0 < s.beta {
				optimize.CertifyLevelBelow(ctx, obj, p.Orig, s.beta, opts.Solver, func(lower float64) {
					if lower > s.lb {
						s.lb = lower
						emit()
					}
				})
			}
		}
	}

	for i := range sides {
		s := &sides[i]
		var onBound func(float64)
		if convex {
			onBound = func(lower float64) {
				if lower > s.lb {
					s.lb = lower
					emit()
				}
			}
		}
		res, err := optimize.MinNormToLevelSetCtx(ctx, obj, p.Orig, s.beta, opts.Solver, onBound)
		if err != nil && isContextErr(err) {
			if !errors.Is(err, context.DeadlineExceeded) {
				return RadiusResult{}, err
			}
			s.skipped = true
			continue
		}
		method := MethodConvex
		if isFunc && !fi.Convex {
			ares, aerr := optimize.AnnealMinDistanceCtx(ctx, obj, p.Orig, s.beta, opts.Anneal)
			if aerr != nil && isContextErr(aerr) {
				if !errors.Is(aerr, context.DeadlineExceeded) {
					return RadiusResult{}, aerr
				}
				// A partial annealing run certifies nothing and taking the
				// SLP answer alone could exceed the true (anneal-found)
				// minimum, so the whole side degrades to its bound.
				s.skipped = true
				continue
			}
			switch {
			case err != nil && aerr == nil:
				res, err, method = ares, nil, MethodAnneal
			case err == nil && aerr == nil && ares.Distance < res.Distance:
				res, method = ares, MethodAnneal
			}
		}
		if err != nil {
			if errors.Is(err, optimize.ErrUnreachable) {
				s.unreachable = true
				emit()
				continue
			}
			return RadiusResult{}, &SolveError{Feature: f.Name, Kind: s.kind, Err: err}
		}
		s.exact = &RadiusResult{Feature: f.Name, Radius: res.Distance, Boundary: res.X, Kind: s.kind, Method: method}
		emit()
	}

	anySkipped := false
	best := RadiusResult{Feature: f.Name, Radius: math.Inf(1), Kind: Unreachable, Method: MethodNone}
	for i := range sides {
		s := &sides[i]
		if s.skipped {
			anySkipped = true
		}
		if s.exact != nil && s.exact.Radius < best.Radius {
			best = *s.exact
		}
	}
	if !anySkipped {
		return best, nil
	}
	// Deadline expired with at least one side undecided. If an exact side
	// already answers below every pending side's certified floor, the min
	// is decided anyway and the result is exact; otherwise hand back the
	// combined certified bound as a first-class partial answer.
	lbPending := math.Inf(1)
	for i := range sides {
		if sides[i].skipped {
			lbPending = math.Min(lbPending, sides[i].lb)
		}
	}
	if best.Radius <= lbPending {
		return best, nil
	}
	return RadiusResult{Feature: f.Name, Radius: lbPending, Kind: LowerBound, Method: MethodAnytime}, nil
}

// isContextErr reports whether a solver error is the context's own
// (deadline or cancellation) rather than a numeric failure.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
