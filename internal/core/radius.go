package core

import (
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
// ComputeRadius applies it internally; callers that need a stable identity
// for a configuration — the batch cache keys on it — can normalise first.
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
// range.
func ComputeRadius(f Feature, p Perturbation, opts Options) (RadiusResult, error) {
	if err := validateRadiusInputs(f, p); err != nil {
		return RadiusResult{}, err
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

	best := RadiusResult{Feature: f.Name, Radius: math.Inf(1), Kind: Unreachable, Method: MethodNone}
	for _, side := range []struct {
		beta float64
		kind BoundKind
	}{
		{f.Bounds.Max, AtMax},
		{f.Bounds.Min, AtMin},
	} {
		if math.IsInf(side.beta, 0) {
			continue // one-sided requirement
		}
		r, x, method, err := distanceToLevel(f.Impact, p.Orig, side.beta, opts)
		if err != nil {
			if errors.Is(err, optimize.ErrUnreachable) {
				continue
			}
			return RadiusResult{}, &SolveError{Feature: f.Name, Kind: side.kind, Err: err}
		}
		if r < best.Radius {
			best = RadiusResult{Feature: f.Name, Radius: r, Boundary: x, Kind: side.kind, Method: method}
		}
	}
	return best, nil
}

// validateRadiusInputs is the shared input validation of ComputeRadius
// and ComputeRadiusAnytime, so both reject malformed inputs with
// identical errors.
func validateRadiusInputs(f Feature, p Perturbation) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if d := f.Impact.Dim(); d != len(p.Orig) {
		return fmt.Errorf("core: feature %q impact dimension %d != perturbation dimension %d", f.Name, d, len(p.Orig))
	}
	return nil
}

// distanceToLevel dispatches on the impact type: exact dual-norm hyperplane
// distance for affine impacts, convex solver (plus annealing fallback for
// declared-non-convex impacts) otherwise.
func distanceToLevel(imp Impact, orig []float64, beta float64, opts Options) (float64, []float64, Method, error) {
	if lin, ok := imp.(*LinearImpact); ok {
		return linearDistance(lin, orig, beta, opts.Norm)
	}
	if _, ok := opts.Norm.(vecmath.L2); !ok {
		return 0, nil, MethodNone, ErrNormUnsupported
	}
	obj := objective(imp)
	res, err := optimize.MinNormToLevelSet(obj, orig, beta, opts.Solver)
	method := MethodConvex
	if fi, ok := imp.(*FuncImpact); ok && !fi.Convex {
		ares, aerr := optimize.AnnealMinDistance(obj, orig, beta, opts.Anneal)
		switch {
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

// objective adapts a non-linear impact to the minimum-norm solver: its
// gradient when it supplies one, and its declared convexity. Both
// ComputeRadius and ComputeRadiusAnytime build their objective here, so
// the two run the same search.
func objective(imp Impact) optimize.Objective {
	obj := optimize.Objective{F: imp.Eval}
	if gi, ok := imp.(GradImpact); ok {
		obj.Grad = gi.Gradient
	}
	if fi, ok := imp.(*FuncImpact); ok {
		obj.Convex = fi.Convex
	}
	return obj
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
