package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"fepia/internal/optimize"
	"fepia/internal/vecmath"
)

// BoundKind says which boundary relationship produced a radius.
type BoundKind int

const (
	// AtMax means the binding relationship was f(π) = β^max.
	AtMax BoundKind = iota
	// AtMin means the binding relationship was f(π) = β^min.
	AtMin
	// AlreadyViolated means f(π^orig) was outside the bounds, so the
	// radius is zero without any perturbation.
	AlreadyViolated
	// Unreachable means no boundary can be reached: the feature satisfies
	// its requirement for every value of the parameter, and the radius is
	// +Inf.
	Unreachable
	// LowerBound marks an anytime partial answer: the deadline expired
	// before the minimiser converged, and Radius is a certified lower
	// bound on the true radius — the system is proven safe for every
	// perturbation smaller than it, but larger perturbations are
	// undecided. Only ComputeRadiusAnytime produces it.
	LowerBound
)

// String names the bound kind.
func (k BoundKind) String() string {
	switch k {
	case AtMax:
		return "beta-max"
	case AtMin:
		return "beta-min"
	case AlreadyViolated:
		return "already-violated"
	case Unreachable:
		return "unreachable"
	case LowerBound:
		return "lower"
	default:
		return fmt.Sprintf("BoundKind(%d)", int(k))
	}
}

// Method records how a radius was computed.
type Method string

const (
	// MethodHyperplane is the exact point-to-hyperplane formula (affine
	// impact functions; Eq. 6 is the special case with 0/1 coefficients).
	MethodHyperplane Method = "hyperplane"
	// MethodConvex is the sequential-linearisation convex solver.
	MethodConvex Method = "convex-slp"
	// MethodAnneal is the simulated-annealing fallback (non-convex
	// impacts); the smaller of MethodConvex/MethodAnneal is kept.
	MethodAnneal Method = "anneal"
	// MethodNone means no optimisation was needed (violated / unreachable).
	MethodNone Method = "none"
	// MethodAnytime marks a partial result assembled from certified
	// lower bounds after a deadline expired mid-solve (Kind LowerBound).
	MethodAnytime Method = "anytime"
)

// Options tunes the analysis.
type Options struct {
	// Norm is the perturbation-space norm; nil selects the paper's ℓ₂.
	// Non-ℓ₂ norms are supported analytically for linear impact functions
	// (via the dual norm) and rejected for general impacts.
	Norm vecmath.Norm
	// Solver configures the convex minimum-norm solver; the zero value
	// selects optimize.DefaultOptions.
	Solver optimize.Options
	// Anneal configures the non-convex fallback; the zero value selects
	// optimize.DefaultAnnealOptions.
	Anneal optimize.AnnealOptions
}

// WithDefaults returns a copy with every zero-valued field replaced by its
// default (ℓ₂ norm, optimize.DefaultOptions, optimize.DefaultAnnealOptions).
// The radius solvers apply it internally; callers that need a stable
// identity for a configuration — the batch cache keys on it — can
// normalise first.
func (o Options) WithDefaults() Options {
	if o.Norm == nil {
		o.Norm = vecmath.L2{}
	}
	if o.Solver.MaxIter == 0 {
		o.Solver = optimize.DefaultOptions()
	}
	if o.Anneal.Steps == 0 {
		o.Anneal = optimize.DefaultAnnealOptions()
	}
	return o
}

// RadiusResult reports the robustness radius r_μ(φ_i, π_j) of one feature.
type RadiusResult struct {
	// Feature is the feature's name.
	Feature string
	// Radius is r_μ(φ_i, π_j); +Inf when no parameter value can violate
	// the requirement.
	Radius float64
	// Boundary is the minimising boundary point π*(φ_i); nil when the
	// radius is infinite.
	Boundary []float64
	// Kind says which boundary relationship was binding.
	Kind BoundKind
	// Method says how the radius was computed.
	Method Method
}

// ErrNormUnsupported is returned when a non-ℓ₂ norm is combined with a
// non-linear impact function.
var ErrNormUnsupported = errors.New("core: non-ℓ₂ norms are only supported for linear impact functions")

// SolveError reports that the minimum-norm solver failed while computing a
// robustness radius — an engine-side failure on a valid input, as opposed
// to the validation errors ComputeRadius returns for malformed features.
// Callers that relay analyses (cmd/fepiad maps it to HTTP 500) detect it
// with errors.As; the underlying optimize error stays reachable through
// errors.Is/As via Unwrap.
type SolveError struct {
	// Feature names the feature whose radius was being computed.
	Feature string
	// Kind says which boundary relationship was being solved.
	Kind BoundKind
	// Err is the underlying solver error.
	Err error
}

// Error renders "core: feature %q at <bound>: <cause>".
func (e *SolveError) Error() string {
	return fmt.Sprintf("core: feature %q at %s: %v", e.Feature, e.Kind, e.Err)
}

// Unwrap exposes the underlying solver error.
func (e *SolveError) Unwrap() error { return e.Err }

// ErrSolvePanic marks SolveErrors recovered from a panic inside a radius
// solve: errors.Is(err, ErrSolvePanic) distinguishes a crashed solve from
// one that failed with an ordinary solver error.
var ErrSolvePanic = errors.New("panic during radius solve")

// RecoveredSolveError converts a recovered panic value into the typed
// engine failure for the one item whose solve crashed — the batch
// engine's per-task panic isolation. The result wraps ErrSolvePanic, and
// when the panic value is itself an error (e.g. an injected fault) it
// stays reachable through errors.Is/As so retry classification and HTTP
// mapping see through the recovery.
func RecoveredSolveError(feature string, rec any) *SolveError {
	var err error
	if cause, ok := rec.(error); ok {
		err = fmt.Errorf("%w: %w", ErrSolvePanic, cause)
	} else {
		err = fmt.Errorf("%w: %v", ErrSolvePanic, rec)
	}
	return &SolveError{Feature: feature, Err: err}
}

// ComputeRadius evaluates Eq. 1 for a single feature: the smallest
// variation of the perturbation parameter (measured by opts.Norm, ℓ₂ by
// default) that drives the feature onto either boundary of its tolerable
// range. It is ComputeRadiusAnytime under a context that never expires.
func ComputeRadius(f Feature, p Perturbation, opts Options) (RadiusResult, error) {
	return ComputeRadiusAnytime(context.Background(), f, p, opts, nil)
}

// ComputeRadiusAnytime evaluates Eq. 1 like ComputeRadius, under a
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
// Affine impacts take the exact dual-norm hyperplane distance under any
// norm, so a deadline never degrades them and progress hears their
// radius once. Any other impact needs the ℓ₂ norm: it runs the convex
// minimum-norm solver, raced against annealing for a declared non-convex
// FuncImpact. The certificates are worked out only when progress is set
// or ctx can expire, and they never feed back into the solvers, so a
// solve the deadline does not cut short answers bit for bit the same
// either way.
func ComputeRadiusAnytime(ctx context.Context, f Feature, p Perturbation, opts Options, progress func(lower float64)) (RadiusResult, error) {
	if err := f.Validate(); err != nil {
		return RadiusResult{}, err
	}
	if err := p.Validate(); err != nil {
		return RadiusResult{}, err
	}
	if d := f.Impact.Dim(); d != len(p.Orig) {
		return RadiusResult{}, fmt.Errorf("core: feature %q impact dimension %d != perturbation dimension %d", f.Name, d, len(p.Orig))
	}
	opts = opts.WithDefaults()

	v0 := f.Impact.Eval(p.Orig)
	if math.IsNaN(v0) {
		return RadiusResult{}, fmt.Errorf("core: feature %q impact is NaN at the operating point", f.Name)
	}
	if !f.Bounds.Contains(v0) {
		// The system violates the requirement before any perturbation.
		return RadiusResult{
			Feature:  f.Name,
			Radius:   0,
			Boundary: vecmath.Clone(p.Orig),
			Kind:     AlreadyViolated,
			Method:   MethodNone,
		}, nil
	}

	// Only a non-linear impact under ℓ₂ is solved numerically, and only a
	// numeric solve whose bounds can be read — by progress, or as the
	// answer of a ctx that expires — is certified. A linear impact needs
	// neither: the loop below answers its sides in closed form.
	lin, _ := f.Impact.(*LinearImpact)
	_, l2 := opts.Norm.(vecmath.L2)
	var (
		obj    optimize.Objective
		anneal bool       // a declared non-convex FuncImpact also races annealing
		cert   *certifier // nil unless a bound can be reported or served
	)
	if lin == nil && l2 {
		obj.F = f.Impact.Eval
		if gi, ok := f.Impact.(GradImpact); ok {
			obj.Grad = gi.Gradient
		}
		if fi, ok := f.Impact.(*FuncImpact); ok {
			obj.Convex, anneal = fi.Convex, !fi.Convex
			obj.Support, obj.Monotone = fi.Support, fi.Monotone
		}
		if progress != nil || ctx.Done() != nil {
			cert = newCertifier(f.Bounds, obj.Convex, progress)
			// β^max is the one boundary approached from below, where the
			// solver's halfspace bounds never fire: floor it with the
			// cross-polytope certificate before any exact solve.
			if obj.Convex && v0 < f.Bounds.Max && !math.IsInf(f.Bounds.Max, 1) {
				optimize.CertifyLevelBelow(ctx, obj, p.Orig, f.Bounds.Max, opts.Solver, cert.raiser(0))
			}
		}
	}

	best := RadiusResult{Feature: f.Name, Radius: math.Inf(1), Kind: Unreachable, Method: MethodNone}
	pending := math.Inf(1) // the least certified bound of a side the deadline cut short
	for i, side := range [2]struct {
		beta float64
		kind BoundKind
	}{
		{f.Bounds.Max, AtMax},
		{f.Bounds.Min, AtMin},
	} {
		if math.IsInf(side.beta, 0) {
			continue // one-sided requirement
		}
		var (
			dist   float64
			x      []float64
			method Method
			err    error
		)
		switch {
		case lin != nil:
			dist, x, method, err = linearDistance(lin, p.Orig, side.beta, opts.Norm)
		case !l2:
			err = ErrNormUnsupported
		default:
			dist, x, method, err = numericDistance(ctx, obj, anneal, p.Orig, side.beta, opts, cert.raiser(i))
		}
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// Undecided: its certified bound is all that is known of it.
			pending = math.Min(pending, cert.bound(i))
			continue
		case errors.Is(err, context.Canceled):
			return RadiusResult{}, err
		case errors.Is(err, optimize.ErrUnreachable):
			dist = math.Inf(1)
		case err != nil:
			return RadiusResult{}, &SolveError{Feature: f.Name, Kind: side.kind, Err: err}
		}
		cert.settle(i, dist)
		if dist < best.Radius {
			best = RadiusResult{Feature: f.Name, Radius: dist, Boundary: x, Kind: side.kind, Method: method}
		}
	}
	if lin != nil && progress != nil && !math.IsInf(best.Radius, 1) {
		progress(best.Radius) // a closed form is exact at once
	}
	if best.Radius <= pending {
		// Nothing was cut short, or an exact side answers below every
		// pending side's certified floor: the minimum is decided anyway.
		return best, nil
	}
	return RadiusResult{Feature: f.Name, Radius: pending, Kind: LowerBound, Method: MethodAnytime}, nil
}

// numericDistance is linearDistance for any other impact under ℓ₂: the
// convex minimum-norm solver, streaming its halfspace bounds to onBound
// (nil-safe), and with anneal set the annealing fallback too, keeping the
// nearer boundary point. A context error from either solver is returned
// as it is: a partial annealing run certifies nothing, and the SLP answer
// alone could exceed the minimum annealing would have found.
func numericDistance(ctx context.Context, obj optimize.Objective, anneal bool, orig []float64, beta float64, opts Options, onBound func(float64)) (float64, []float64, Method, error) {
	res, err := optimize.MinNormToLevelSet(ctx, obj, orig, beta, opts.Solver, onBound)
	if isContextErr(err) {
		return 0, nil, MethodNone, err
	}
	method := MethodConvex
	if anneal {
		ares, aerr := optimize.AnnealMinDistance(ctx, obj, orig, beta, opts.Anneal)
		switch {
		case isContextErr(aerr):
			return 0, nil, MethodNone, aerr
		case err != nil && aerr == nil:
			res, err, method = ares, nil, MethodAnneal
		case err == nil && aerr == nil && ares.Distance < res.Distance:
			res, method = ares, MethodAnneal
		}
	}
	if err != nil {
		return 0, nil, MethodNone, err
	}
	return res.Distance, res.X, method, nil
}

// isContextErr reports whether a solver error is the context's own
// (deadline or cancellation) rather than a numeric failure.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// certifier gathers the certified lower bounds of one anytime solve, per
// side (AtMax, AtMin): the best bound proven so far, replaced by the
// side's exact distance (+Inf when unreachable) once it settles. A
// one-sided requirement's missing side is +Inf from the start. Their
// minimum bounds the radius from below, and progress, when set, hears
// every increase of it.
type certifier struct {
	lower [2]float64
	// convex: the certificates are sound only for a convex impact.
	convex   bool
	reported float64
	progress func(lower float64)
}

func newCertifier(b Bounds, convex bool, progress func(lower float64)) *certifier {
	c := &certifier{convex: convex, progress: progress}
	if math.IsInf(b.Max, 0) {
		c.lower[0] = math.Inf(1)
	}
	if math.IsInf(b.Min, 0) {
		c.lower[1] = math.Inf(1)
	}
	return c
}

// raiser returns the callback that raises side i's bound, or nil when
// nothing can be certified (no certifier, or a non-convex impact).
func (c *certifier) raiser(i int) func(lower float64) {
	if c == nil || !c.convex {
		return nil
	}
	return func(lower float64) {
		if lower > c.lower[i] {
			c.lower[i] = lower
			c.emit()
		}
	}
}

// settle records side i's exact distance; a nil certifier ignores it.
func (c *certifier) settle(i int, dist float64) {
	if c != nil {
		c.lower[i] = dist
		c.emit()
	}
}

// bound is side i's certified bound: 0, which always holds, without a
// certifier.
func (c *certifier) bound(i int) float64 {
	if c == nil {
		return 0
	}
	return c.lower[i]
}

// emit reports the combined bound to progress when it has grown.
func (c *certifier) emit() {
	if lb := math.Min(c.lower[0], c.lower[1]); c.progress != nil && lb > c.reported && !math.IsInf(lb, 1) {
		c.reported = lb
		c.progress(lb)
	}
}

// linearDistance computes the exact distance from orig to the hyperplane
// {π : coeffs·π + offset = beta} under the chosen norm, using the dual-norm
// form of the point-to-plane formula.
func linearDistance(lin *LinearImpact, orig []float64, beta float64, norm vecmath.Norm) (float64, []float64, Method, error) {
	residual := beta - lin.Eval(orig)
	dual, err := DualNorm(lin.Coeffs, norm)
	if err != nil {
		return 0, nil, MethodNone, err
	}
	if dual == 0 {
		// Constant impact: either it never reaches beta, or is identically
		// on it (residual 0 → distance 0 at the operating point).
		if residual == 0 {
			return 0, vecmath.Clone(orig), MethodHyperplane, nil
		}
		return 0, nil, MethodNone, optimize.ErrUnreachable
	}
	dist := math.Abs(residual) / dual
	// The minimising boundary point under ℓ₂ is the orthogonal projection;
	// for other norms report the ℓ₂ projection of the same hyperplane as a
	// representative witness (any norm's minimiser lies on the same plane).
	h := vecmath.Hyperplane{A: lin.Coeffs, C: beta - lin.Offset}
	x := h.Project(nil, orig)
	return dist, x, MethodHyperplane, nil
}

// DualNorm returns ‖a‖_* for the dual of the chosen norm:
// ℓ₂↔ℓ₂, ℓ₁↔ℓ∞, ℓ∞↔ℓ₁, weighted-ℓ₂(w) ↔ sqrt(Σ a_i²/w_i). It is the
// single source of truth for the dual-norm factor of the linear radius
// formula — internal/kernel precomputes it per feature at pack time, so
// kernel and scalar path agree bit for bit by construction. It errors on
// a weighted norm whose weight vector does not match the coefficient
// dimension, and wraps ErrNormUnsupported for norms with no analytic
// dual here.
func DualNorm(a []float64, norm vecmath.Norm) (float64, error) {
	switch n := norm.(type) {
	case vecmath.L2:
		return vecmath.Euclidean(a), nil
	case vecmath.L1:
		return vecmath.LInf{}.Of(a), nil
	case vecmath.LInf:
		return vecmath.L1{}.Of(a), nil
	case *vecmath.WeightedL2:
		if len(n.W) != len(a) {
			return 0, fmt.Errorf("core: weighted norm dimension %d != coefficient dimension %d", len(n.W), len(a))
		}
		var k vecmath.KahanSum
		for i, ai := range a {
			k.Add(ai * ai / n.W[i])
		}
		return math.Sqrt(k.Sum()), nil
	default:
		return 0, fmt.Errorf("%w: norm %q", ErrNormUnsupported, norm.Name())
	}
}
