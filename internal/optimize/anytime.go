package optimize

import (
	"context"
	"math"

	"fepia/internal/vecmath"
)

// CertifyLevelBelow streams certified lower bounds on the ℓ₂ distance
// from x₀ to the level set {f = target} for CONVEX f with f(x₀) < target
// — the side the halfspace bound of MinNormToLevelSet cannot certify.
//
// The certificate is geometric: if every vertex x₀ ± t·eᵢ of a scaled
// cross-polytope satisfies f < target strictly, convexity keeps f
// strictly below target on the whole polytope (a convex maximum over a
// polytope sits on a vertex), so the level set cannot enter the ball of
// radius t/√n inscribed in it. No perturbation smaller than t/√n can
// reach the level set, making each safe probe scale t a rigorous bound
// at the cost of 2n evaluations. With Objective.Support the polytope
// spans only the m coordinates f reads: the level set is a cylinder over
// them, so a safe scale certifies t/√m for 2m evaluations. With
// Objective.Monotone the vertices x₀ − t·eᵢ, where a non-decreasing f is
// at most f(x₀), are safe without an evaluation.
//
// The search halves t until the smallest polytope is safe, doubles while
// safety holds, then bisects between the last safe and first unsafe
// scale, reporting every improvement through onBound (nil-safe) in
// increasing order. The scales, and their cap RayMax·(1 + ‖x₀‖), grow
// with the full x₀. It returns the best bound found — 0 when even the
// smallest probe is unsafe, f is not below target at x₀, the Support is
// malformed, or ctx expired before the first certificate. The bound
// stream stops (and the best so far is returned) as soon as ctx expires.
func CertifyLevelBelow(ctx context.Context, obj Objective, x0 []float64, target float64, opts Options, onBound func(lower float64)) float64 {
	n := len(x0)
	sup, err := obj.reduced(n)
	if n == 0 || err != nil || !(obj.F(x0) < target) {
		return 0
	}
	m := n
	if sup != nil {
		m = len(sup)
	}
	inv := 1 / math.Sqrt(float64(m))
	probe := vecmath.Clone(x0)
	// below reports whether f stays below target with coordinate i moved
	// by d; NaN counts as not below.
	below := func(i int, d float64) bool {
		probe[i] = x0[i] + d
		v := obj.F(probe)
		probe[i] = x0[i]
		return v < target
	}
	safe := func(t float64) bool {
		for k := 0; k < m; k++ {
			i := k
			if sup != nil {
				i = sup[k]
			}
			if !below(i, t) || !obj.Monotone && !below(i, -t) {
				return false
			}
		}
		return true
	}

	scale := 1 + vecmath.Euclidean(x0)
	tMax := opts.RayMax * scale
	if !(tMax > 0) {
		tMax = 1e9 * scale
	}
	t := 1e-6 * scale
	for k := 0; !safe(t); k++ {
		// 40 quarterings span ~24 decades below the starting scale; a
		// level set closer than that is numerically indistinguishable
		// from touching x₀, so give up with no certificate.
		if k >= 40 || ctx.Err() != nil {
			return 0
		}
		t /= 4
	}
	best := t * inv
	if onBound != nil {
		onBound(best)
	}
	lo, hi := t, math.Inf(1)
	for k := 0; k < 64 && ctx.Err() == nil; k++ {
		next := lo * 2
		if next > tMax {
			break
		}
		if !safe(next) {
			hi = next
			break
		}
		lo = next
		best = lo * inv
		if onBound != nil {
			onBound(best)
		}
	}
	for k := 0; k < 30 && !math.IsInf(hi, 1) && ctx.Err() == nil; k++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if safe(mid) {
			lo = mid
			best = lo * inv
			if onBound != nil {
				onBound(best)
			}
		} else {
			hi = mid
		}
	}
	return best
}
