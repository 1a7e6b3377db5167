package optimize

import (
	"context"
	"math"

	"fepia/internal/stats"
	"fepia/internal/vecmath"
)

// AnnealOptions tunes the simulated-annealing fallback solver.
type AnnealOptions struct {
	// Steps is the number of annealing proposals.
	Steps int
	// InitialTemp and FinalTemp bound the geometric cooling schedule,
	// expressed relative to the starting distance.
	InitialTemp, FinalTemp float64
	// Sigma is the relative perturbation applied to the search direction
	// per proposal.
	Sigma float64
	// Seed drives the deterministic proposal stream.
	Seed int64
	// Tol and RayMax mirror Options for the inner root finds.
	Tol, RayMax float64
}

// DefaultAnnealOptions returns a schedule adequate for the smooth
// low-dimensional impact functions in this repository.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{
		Steps:       4000,
		InitialTemp: 0.5,
		FinalTemp:   1e-4,
		Sigma:       0.35,
		Seed:        1,
		Tol:         1e-10,
		RayMax:      1e9,
	}
}

// AnnealMinDistance approximates min ‖x − x₀‖₂ s.t. f(x) = target for
// possibly non-convex f by annealing over ray directions: a state is a unit
// direction u, its energy is the distance t(u) along the ray x₀ + t·u to
// the first boundary crossing (infinite when the ray misses the level set).
// The paper sanctions exactly this kind of heuristic when the impact
// functions are not convex.
//
// It returns ErrUnreachable when no sampled ray ever crosses the level
// set, and an error for an empty x₀. The proposal loop polls ctx every
// few steps and, on expiry, returns whatever it has found so far together
// with ctx.Err(). A partial annealing run is NOT a certified answer of any
// kind — callers that need rigour (the anytime mode) must discard it.
func AnnealMinDistance(ctx context.Context, obj Objective, x0 []float64, target float64, opts AnnealOptions) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{}, errEmptyStart
	}
	rng := stats.NewRNG(opts.Seed)
	f0 := obj.F(x0)
	if math.Abs(f0-target) <= opts.Tol*math.Max(1, math.Abs(target)) {
		return Result{X: vecmath.Clone(x0), Distance: 0, Converged: true}, nil
	}

	// The first crossing along a ray of a non-convex f depends on where
	// the bracket starts, so the ray searches take no hint and always
	// double up from rayT0.
	rays := newRaySearch(subspace{obj: obj, orig: x0}, x0, make([]float64, n), f0, target, opts.Tol, opts.RayMax)
	energy := func(u []float64) (float64, []float64) {
		t, _, err := rays.crossing(u, 0)
		if err != nil {
			return math.Inf(1), nil
		}
		x := vecmath.AddScaled(nil, x0, t, u)
		return vecmath.Distance(x0, x), x
	}

	randUnit := func() []float64 {
		u := make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		v, norm := vecmath.Normalize(nil, u)
		if norm == 0 {
			v[0] = 1
		}
		return v
	}

	// Seed the search with the gradient direction plus random probes.
	cur := randUnit()
	if g, norm := vecmath.Normalize(nil, obj.Gradient(nil, x0, 1e-6)); norm > 0 {
		if f0 > target {
			vecmath.Scale(g, -1, g)
		}
		cur = g
	}
	curE, curX := energy(cur)
	for probe := 0; probe < 16 && math.IsInf(curE, 1) && ctx.Err() == nil; probe++ {
		cur = randUnit()
		curE, curX = energy(cur)
	}
	best := Result{Distance: curE, X: curX}

	if opts.Steps <= 0 {
		if math.IsInf(best.Distance, 1) {
			return Result{}, ErrUnreachable
		}
		return best, nil
	}

	t0 := opts.InitialTemp
	t1 := opts.FinalTemp
	if !(t0 > 0) || !(t1 > 0) || t1 > t0 {
		t0, t1 = 0.5, 1e-4
	}
	scaleE := curE
	if math.IsInf(scaleE, 1) || scaleE == 0 {
		scaleE = 1
	}
	for step := 0; step < opts.Steps; step++ {
		// Poll coarsely: each energy() is itself many evaluations, so an
		// every-8-steps check keeps expiry latency in the microseconds
		// without a per-proposal syscall-free-but-branchy ctx load.
		if step%8 == 0 && ctx.Err() != nil {
			if math.IsInf(best.Distance, 1) {
				return Result{}, ctx.Err()
			}
			return best, ctx.Err()
		}
		frac := float64(step) / float64(opts.Steps)
		temp := scaleE * t0 * math.Pow(t1/t0, frac)
		// Propose: jitter the direction and renormalise.
		prop := make([]float64, n)
		for i := range prop {
			prop[i] = cur[i] + opts.Sigma*rng.NormFloat64()
		}
		u, norm := vecmath.Normalize(nil, prop)
		if norm == 0 {
			continue
		}
		pe, px := energy(u)
		accept := false
		switch {
		case math.IsInf(pe, 1):
			accept = false
		case math.IsInf(curE, 1) || pe <= curE:
			accept = true
		default:
			accept = rng.Float64() < math.Exp(-(pe-curE)/temp)
		}
		if accept {
			cur, curE = u, pe
			if pe < best.Distance {
				best = Result{Distance: pe, X: px}
			}
		}
		best.Iterations++
	}
	if math.IsInf(best.Distance, 1) {
		return Result{}, ErrUnreachable
	}
	best.Converged = true
	return best, nil
}
