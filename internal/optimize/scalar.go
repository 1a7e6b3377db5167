// Package optimize implements the optimisation substrate behind step 4 of
// the FePIA procedure: finding the minimum-Euclidean-norm perturbation that
// drives an impact function onto a boundary relationship
//
//	min_x ‖x − x₀‖₂   subject to   f(x) = target.
//
// The paper observes (§3.2) that when f is convex this is a convex program
// with an attainable global minimum; for affine f it collapses to the
// point-to-hyperplane formula. This package provides
//
//   - scalar root finding (geometric bracketing + Illinois regula falsi),
//   - golden-section minimisation,
//   - numerical gradients,
//   - a sequential-linearisation solver for the minimum-norm boundary
//     problem with ray-retraction and multistart, and
//   - a simulated-annealing fallback for non-convex impact functions,
//     which the paper explicitly permits ("heuristic techniques can be
//     used to find near-optimal solutions").
//
// Each solver has one entry point, and it takes a context: on expiry it
// stops with the best point found so far and ctx.Err(). For the anytime
// mode, MinNormToLevelSet and CertifyLevelBelow also stream certified
// lower bounds on the distance of a convex f.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket indicates a sign change could not be established for root
// finding — typically the level set is unreachable along the ray searched.
var ErrNoBracket = errors.New("optimize: could not bracket a root")

// ErrMaxIter indicates an iteration limit was hit before reaching the
// requested tolerance.
var ErrMaxIter = errors.New("optimize: iteration limit exceeded")

// RegulaFalsi finds a root of g in [lo, hi] by the Illinois variant of
// regula falsi, given glo = g(lo) and ghi = g(hi) of opposite signs; a
// caller that has just bracketed the root already holds both, so neither
// end is evaluated again. A zero endpoint is returned immediately. Each
// step evaluates g where the chord through the bracket's ends crosses
// zero; when the same end survives two steps in a row its value is
// halved, so the bracket closes from both sides even against an end of
// much larger magnitude (e.g. a saturation plateau). It stops when
// |g| ≤ tol or the bracket is no wider than tol and returns the root with
// g there. If maxIter steps do not suffice it returns the bracket's
// midpoint, where g was not evaluated, with a NaN value and ErrMaxIter.
func RegulaFalsi(g func(float64) float64, lo, glo, hi, ghi, tol float64, maxIter int) (x, gx float64, err error) {
	if lo > hi {
		lo, glo, hi, ghi = hi, ghi, lo, glo
	}
	if glo == 0 {
		return lo, 0, nil
	}
	if ghi == 0 {
		return hi, 0, nil
	}
	if math.IsNaN(glo) || math.IsNaN(ghi) || glo*ghi > 0 {
		return 0, 0, fmt.Errorf("%w: g(%v)=%v, g(%v)=%v", ErrNoBracket, lo, glo, hi, ghi)
	}
	kept := 0 // −1 after a step that kept lo, +1 after one that kept hi
	for iter := 0; iter < maxIter; iter++ {
		x = lo - glo*(hi-lo)/(ghi-glo)
		if !(x > lo && x < hi) {
			x = 0.5 * (lo + hi) // the chord rounded onto an end
		}
		gx = g(x)
		if math.Abs(gx) <= tol || hi-lo <= tol {
			return x, gx, nil
		}
		if glo*gx < 0 {
			hi, ghi = x, gx
			if kept == -1 {
				glo /= 2
			}
			kept = -1
		} else {
			lo, glo = x, gx
			if kept == 1 {
				ghi /= 2
			}
			kept = 1
		}
	}
	return 0.5 * (lo + hi), math.NaN(), ErrMaxIter
}

// BracketAbove expands an interval [0, t] geometrically until
// g(t) ≥ 0 (given g(0) < 0), returning the bracketing t. It is used to find
// where an increasing excursion crosses a boundary level. It fails with
// ErrNoBracket if the level is not reached before tMax.
func BracketAbove(g func(float64) float64, t0, tMax float64) (float64, error) {
	if t0 <= 0 {
		t0 = 1
	}
	b, err := expandBracket(g, 0, math.NaN(), t0, tMax) // g(0) is not needed for hi
	return b.hi, err
}

// bracket is an interval [lo, hi] with g(lo) = glo < 0 ≤ g(hi) = ghi.
type bracket struct{ lo, glo, hi, ghi float64 }

// expandBracket doubles t from t0 until g(t) ≥ 0, given g(lo) = glo < 0
// at some lo < t0. The bracket it returns runs from the last probe below
// zero (lo itself when the first probe crosses) to the first at or above
// it. It fails with ErrNoBracket on a NaN probe or when no probe up to
// tMax crosses.
func expandBracket(g func(float64) float64, lo, glo, t0, tMax float64) (bracket, error) {
	for t := t0; t <= tMax; t *= 2 {
		v := g(t)
		if math.IsNaN(v) {
			return bracket{}, fmt.Errorf("%w: g(%v) is NaN", ErrNoBracket, t)
		}
		if v >= 0 {
			return bracket{lo, glo, t, v}, nil
		}
		lo, glo = t, v
	}
	return bracket{}, fmt.Errorf("%w: no crossing before t=%v", ErrNoBracket, tMax)
}

// GoldenSection minimises a unimodal scalar function on [lo, hi] to within
// tol, returning the minimiser. For non-unimodal functions it returns a
// local minimiser.
func GoldenSection(f func(float64) float64, lo, hi, tol float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	const invPhi = 0.6180339887498949 // 1/φ
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return 0.5 * (a + b)
}
