// Package core implements the paper's primary contribution: the
// generalized robustness metric of Section 2 and the analysis step of the
// FePIA procedure.
//
// The FePIA procedure derives a robustness metric in four steps:
//
//  1. Fe — identify the performance features Φ that must stay within
//     tolerable bounds ⟨β_i^min, β_i^max⟩ (the Feature type);
//  2. P — identify the perturbation parameters Π (the Perturbation type);
//  3. I — identify the impact f_ij of each parameter on each feature (the
//     Impact interface);
//  4. A — analyse: find the smallest collective variation of the parameter
//     that drives some feature out of its bounds (ComputeRadius/Analyze).
//
// The robustness radius (Eq. 1) is
//
//	r_μ(φ_i, π_j) = min ‖π_j − π_j^orig‖₂  over  f_ij(π_j) ∈ {β_i^min, β_i^max}
//
// and the robustness metric (Eq. 2) is ρ_μ(Φ, π_j) = min_i r_μ(φ_i, π_j).
package core

import (
	"fmt"
	"math"

	"fepia/internal/optimize"
	"fepia/internal/vecmath"
)

// Impact is the relationship φ_i = f_ij(π_j) identified in step 3 of the
// FePIA procedure: a scalar-valued function of the perturbation-parameter
// vector.
type Impact interface {
	// Eval returns f(π).
	Eval(pi []float64) float64
	// Dim returns the expected length of π.
	Dim() int
}

// GradImpact is an Impact that can supply its own gradient; the analysis
// uses it to avoid finite differences.
type GradImpact interface {
	Impact
	// Gradient stores ∇f(π) into dst (allocating when dst is nil) and
	// returns it.
	Gradient(dst, pi []float64) []float64
}

// LinearImpact is the affine impact function f(π) = coeffs·π + offset.
// Both example systems in the paper reduce to this form: Eq. 4 (finishing
// times as sums of execution times) and the §4.3 computation-time functions
// Σ_z b_ijz·λ_z. Its boundary relationships are hyperplanes, so robustness
// radii have the closed form of Eq. 6.
type LinearImpact struct {
	// Coeffs holds the linear coefficients.
	Coeffs []float64
	// Offset is the constant term.
	Offset float64
}

// NewLinearImpact validates the coefficients (see Validate) and returns
// an impact over a copy of them.
func NewLinearImpact(coeffs []float64, offset float64) (*LinearImpact, error) {
	l := &LinearImpact{Coeffs: coeffs, Offset: offset}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	l.Coeffs = vecmath.Clone(coeffs)
	return l, nil
}

// Validate requires finite coefficients and offset; any values are
// allowed otherwise, including all-zero, which models a feature
// unaffected by the parameter.
func (l *LinearImpact) Validate() error {
	if !vecmath.AllFinite(l.Coeffs) || math.IsNaN(l.Offset) || math.IsInf(l.Offset, 0) {
		return fmt.Errorf("core: linear impact coefficients must be finite")
	}
	return nil
}

// Eval returns coeffs·π + offset.
func (l *LinearImpact) Eval(pi []float64) float64 {
	return vecmath.Dot(l.Coeffs, pi) + l.Offset
}

// Dim returns the coefficient count.
func (l *LinearImpact) Dim() int { return len(l.Coeffs) }

// Gradient returns the (constant) coefficient vector.
func (l *LinearImpact) Gradient(dst, pi []float64) []float64 {
	if len(dst) != len(l.Coeffs) {
		dst = make([]float64, len(l.Coeffs))
	}
	copy(dst, l.Coeffs)
	return dst
}

// FuncImpact adapts an arbitrary function (with optional gradient) to the
// Impact interface — the general case of step 3, e.g. convex complexity
// functions such as x^p or e^px (§3.2 lists the admissible forms).
type FuncImpact struct {
	// N is the perturbation dimension.
	N int
	// F evaluates the impact.
	F func(pi []float64) float64
	// Grad, optional, stores the gradient in dst and returns it.
	Grad func(dst, pi []float64) []float64
	// Convex declares that F is convex; the analysis then trusts the
	// sequential-linearisation solver's global optimum. Non-convex impacts
	// additionally run the simulated-annealing fallback and keep the
	// smaller radius.
	Convex bool
	// Fingerprint, optional, is a content identity for memoisation: two
	// FuncImpacts with equal non-empty fingerprints are treated as the
	// same function by the radius cache, so decoding the same document
	// twice hits the cache instead of re-solving. Leave nil for closures
	// with no canonical encoding: the radius cache then never memoises
	// the impact and solves it on every call, which is always safe.
	// Callers that set it own the contract: equal fingerprints MUST
	// imply identical F (and Grad), Support and Monotone.
	Fingerprint []byte
	// Support, optional, lists in increasing order the coordinates of π
	// that F reads. The convex solver then searches only those
	// coordinates, since Eq. 1's minimiser never moves the others
	// (optimize.Objective.Support). Empty means F may read every
	// coordinate; a list that is not strictly increasing within [0, N)
	// fails validation.
	Support []int
	// Monotone declares F non-decreasing in every coordinate, so the
	// solvers skip the searches such an F can only fail
	// (optimize.Objective.Monotone). Like Convex, it is the caller's
	// contract: a wrong declaration gives wrong radii.
	Monotone bool
}

// Eval invokes F.
func (f *FuncImpact) Eval(pi []float64) float64 { return f.F(pi) }

// Dim returns N.
func (f *FuncImpact) Dim() int { return f.N }

// Gradient uses Grad when provided; otherwise the caller falls back to
// finite differences via the optimizer.
func (f *FuncImpact) Gradient(dst, pi []float64) []float64 {
	if f.Grad == nil {
		obj := optimize.Objective{F: f.F}
		return obj.Gradient(dst, pi, 1e-6)
	}
	return f.Grad(dst, pi)
}
