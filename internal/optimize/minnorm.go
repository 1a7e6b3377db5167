package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"fepia/internal/stats"
	"fepia/internal/vecmath"
)

// Objective wraps an impact function f: ℝⁿ → ℝ and, optionally, its
// gradient. When Grad is nil, central finite differences are used.
type Objective struct {
	// F evaluates the impact function.
	F func(x []float64) float64
	// Grad, if non-nil, stores ∇f(x) into dst (allocating when dst is nil)
	// and returns it.
	Grad func(dst, x []float64) []float64
	// Convex declares f convex. The minimum-norm solver then starts each
	// ray search's bracket from its estimate of the crossing instead of
	// doubling up from a tiny step; that shortcut is only sound when f is
	// convex.
	Convex bool
	// Support, optional, lists in increasing order the coordinates f
	// reads: f(x) depends on x only through them. The minimum-norm solver
	// and CertifyLevelBelow then search only those coordinates, since
	// moving any other one adds distance without changing f. Empty means
	// f may read every coordinate. A list that is not strictly increasing
	// within [0, len(x₀)) is an error (CheckSupport).
	Support []int
	// Monotone declares f non-decreasing in every coordinate. The solvers
	// then skip, without evaluating f, every search a non-decreasing f can
	// only fail: a starting ray with no component toward the level, and a
	// cross-polytope vertex below x₀ when certifying from below.
	Monotone bool
}

// CheckSupport reports whether support is a valid Objective.Support for
// an n-dimensional x₀: strictly increasing, within [0, n).
func CheckSupport(support []int, n int) error {
	for k, i := range support {
		if i < 0 || i >= n || k > 0 && i <= support[k-1] {
			return fmt.Errorf("optimize: support %v is not strictly increasing within [0,%d)", support, n)
		}
	}
	return nil
}

// reduced returns the validated Support, or nil when the search must
// cover every coordinate: no support given, or one that lists all n.
func (o Objective) reduced(n int) ([]int, error) {
	if err := CheckSupport(o.Support, n); err != nil {
		return nil, err
	}
	if len(o.Support) == 0 || len(o.Support) == n {
		return nil, nil
	}
	return o.Support, nil
}

// Gradient returns ∇f(x), using the analytic gradient when available and
// central differences with step h otherwise. dst is reused when it has the
// right length.
func (o Objective) Gradient(dst, x []float64, h float64) []float64 {
	if o.Grad != nil {
		return o.Grad(dst, x)
	}
	if len(dst) != len(x) {
		dst = make([]float64, len(x))
	}
	xx := vecmath.Clone(x)
	for i := range x {
		step := h * math.Max(1, math.Abs(x[i]))
		xx[i] = x[i] + step
		fp := o.F(xx)
		xx[i] = x[i] - step
		fm := o.F(xx)
		xx[i] = x[i]
		dst[i] = (fp - fm) / (2 * step)
	}
	return dst
}

// Options tunes the minimum-norm boundary solver. The zero value is not
// usable; call DefaultOptions.
type Options struct {
	// Tol is the convergence tolerance on both the constraint residual
	// (relative to |target|) and the distance improvement.
	Tol float64
	// MaxIter bounds the sequential-linearisation iterations per start.
	MaxIter int
	// Restarts is the number of additional random-direction starts used to
	// escape poor initialisations (and to survive mild non-convexity).
	Restarts int
	// Seed drives the deterministic multistart direction sampling.
	Seed int64
	// GradStep is the relative finite-difference step for numeric
	// gradients.
	GradStep float64
	// RayMax bounds the bracketing excursion along any ray, expressed as a
	// multiple of (1 + ‖x₀‖). Level sets beyond it are treated as
	// unreachable.
	RayMax float64
}

// DefaultOptions returns the solver settings the library runs with:
// Tol 1e-10, 200 linearisation steps per start and 8 random restarts.
// Tol bounds the constraint residual and the last distance improvement,
// not the error of the distance. Approached from inside the sublevel set
// of a convex f, where the problem is reverse-convex, a solve can stop at
// MaxIter with Result.Converged false and a distance above the true
// minimum, by up to 8.9e-4 relative on near-isotropic separable features
// (ROADMAP Table E).
func DefaultOptions() Options {
	return Options{
		Tol:      1e-10,
		MaxIter:  200,
		Restarts: 8,
		Seed:     1,
		GradStep: 1e-6,
		RayMax:   1e9,
	}
}

// Result reports a minimum-norm boundary solution.
type Result struct {
	// X is the boundary point found (f(X) = target within tolerance).
	X []float64
	// Distance is ‖X − x₀‖₂ — a robustness radius when x₀ = π^orig and
	// target is a bound β.
	Distance float64
	// Iterations counts linearisation steps summed over restarts.
	Iterations int
	// Converged reports whether the last accepted iterate met the
	// tolerance before hitting MaxIter.
	Converged bool
}

// ErrUnreachable indicates that the level set f(x) = target could not be
// reached from x₀ along any direction tried (e.g. a constant impact
// function below its bound — the feature can never violate, so the
// robustness radius is +Inf).
var ErrUnreachable = errors.New("optimize: level set unreachable from the starting point")

// errEmptyStart rejects a zero-dimensional starting point, which neither
// solver can draw a search direction for.
var errEmptyStart = errors.New("optimize: empty starting point")

// MinNormToLevelSet solves min ‖x − x₀‖₂ s.t. f(x) = target using
// sequential linearisation:
//
//  1. find any boundary point by searching along a ray from x₀ (the
//     gradient direction first, then random restarts): bracket the
//     crossing, then close the bracket with RegulaFalsi;
//  2. at the current boundary point x_k, replace f by its tangent plane
//     and project x₀ onto it (the exact solution for affine f);
//  3. retract the projection back onto the true boundary along the ray
//     from x₀ through it (the same bracketed root find);
//  4. repeat until the distance stops improving.
//
// For a convex objective (Objective.Convex) each ray's bracket starts
// from an estimate of the crossing: the linearised step from x₀ for the
// initial rays, and the projection's distance in step 3. Any other
// objective brackets by doubling the step up from 1e-6.
//
// Every fixed point of the iteration satisfies the KKT condition
// x* − x₀ ∥ ∇f(x*). For convex f approached from outside the sublevel set
// (f(x₀) > target) the problem is a projection onto a convex set, whose
// only KKT point is the global minimum-norm point. Approached from inside
// (f(x₀) < target: a feature within its bound at the operating point)
// the problem is reverse-convex: KKT points need not be global, the
// restarts only sample them, and the linearisation converges linearly at
// a rate that tends to 1 as the boundary's curvature becomes isotropic,
// so a solve can hit MaxIter with Converged false and a distance above
// the true one (ROADMAP Table E). For non-convex f, use
// AnnealMinDistance and take the better of the two.
//
// If f(x₀) = target the distance is 0. The sign of f(x₀) − target selects
// which side the boundary is approached from automatically.
//
// With Objective.Support shorter than x₀ the solve runs in the
// |Support|-dimensional space of the coordinates f reads, where Eq. 1's
// minimiser lies: every other coordinate stays at x₀, and the witness is
// x₀ with the support's coordinates replaced. The random restart
// directions are the full-space ones projected onto the support and
// renormalised, so each ray retraces its full-space path up to rounding;
// RayMax and the tolerances still scale with the full x₀. With
// Objective.Monotone, a starting ray with no component toward the level
// (none positive from below, none negative from above) is skipped
// unevaluated: a non-decreasing f can only fail it, so the answer is bit
// for bit the same.
//
// onBound, when non-nil, receives a monotonically increasing stream of
// certified lower bounds on the true minimum distance, derived from the
// supporting-halfspace inequality at each iterate x with gradient g:
// convexity puts the whole level set inside {y : g·(y−x) ≤ target−f(x)},
// so whenever x₀ lies outside that halfspace its distance to it,
// (f(x)+g·(x₀−x)−target)/‖g‖, bounds the answer from below. The bound is
// only valid for convex f — pass nil otherwise. Approaching the level
// from below (f(x₀) < target) the expression is never positive and the
// callback simply never fires; CertifyLevelBelow covers that side.
//
// When ctx expires mid-search, the best result found so far is returned
// together with ctx.Err(): the Result is a usable upper bound (or zero
// with Distance +Inf when nothing was found) but not certified optimal.
// An empty x₀ or a malformed Support is an error.
func MinNormToLevelSet(ctx context.Context, obj Objective, x0 []float64, target float64, opts Options, onBound func(lower float64)) (Result, error) {
	if len(x0) == 0 {
		return Result{}, errEmptyStart
	}
	if opts.MaxIter <= 0 || opts.Tol <= 0 {
		return Result{}, fmt.Errorf("optimize: invalid options %+v", opts)
	}
	sup, err := obj.reduced(len(x0))
	if err != nil {
		return Result{}, err
	}
	f0 := obj.F(x0)
	scale := math.Max(1, math.Abs(target))
	if math.Abs(f0-target) <= opts.Tol*scale {
		return Result{X: vecmath.Clone(x0), Distance: 0, Converged: true}, nil
	}

	s := newSolver(obj, sup, x0, f0, target, opts)
	best := Result{Distance: math.Inf(1)}
	totalIter := 0

	// Initial search directions: ±gradient at x₀, then random unit vectors.
	grad0 := s.gradient(s.grad0, s.x0)
	if onBound != nil {
		s.track = &boundTracker{x0: s.x0, target: target, report: onBound}
		// The operating point itself is the first iterate: its halfspace
		// bound costs nothing extra and certifies before any ray search.
		s.track.observe(s.x0, grad0, f0, vecmath.Euclidean(grad0))
	}
	for _, dir := range s.startDirections(grad0) {
		if ctx.Err() != nil {
			break
		}
		if obj.Monotone && !s.towardLevel(dir) {
			continue
		}
		// Estimate the crossing by the linearised step along dir, or, when
		// f does not head for the level that way, by the best distance so
		// far (+Inf, i.e. no estimate, before the first ray lands).
		hint := best.Distance
		if lin := (target - f0) / vecmath.Dot(grad0, dir); lin > 0 {
			hint = lin
		}
		t, ft, err := s.crossing(dir, hint)
		if err != nil {
			continue
		}
		vecmath.AddScaled(s.x, s.x0, t, dir)
		res := s.refine(ctx, ft)
		totalIter += res.Iterations
		if res.Distance < best.Distance {
			best = res
			best.X = append(s.best[:0], res.X...)
		}
		if best.Converged && best.Distance == 0 {
			break
		}
	}
	best.Iterations = totalIter
	if !math.IsInf(best.Distance, 1) {
		best.X = s.embed(best.X)
	}
	if cerr := ctx.Err(); cerr != nil {
		if math.IsInf(best.Distance, 1) {
			return Result{}, cerr
		}
		return best, cerr
	}
	if math.IsInf(best.Distance, 1) {
		return Result{}, ErrUnreachable
	}
	return best, nil
}

// restartDirections returns the first restarts+2 random unit directions
// the seed draws in n dimensions: the restarts of a solve whose gradient
// supplied two directions take a prefix of restarts, one with a zero
// gradient all of them. Drawing them costs a seeded math/rand source per
// solve, so they are memoised per (seed, n, restarts) in dirMemo, a
// copy-on-write table of at most maxDirSets sets of at most maxDirFloats
// coordinates each; a key beyond either cap is drawn afresh every time.
// The directions are shared: callers only read them.
func restartDirections(seed int64, n, restarts int) [][]float64 {
	key := dirKey{seed: seed, n: n, restarts: restarts}
	if m := dirMemo.Load(); m != nil {
		if dirs, ok := (*m)[key]; ok {
			return dirs
		}
	}
	dirs := drawDirections(seed, n, restarts+2)
	if n*(restarts+2) > maxDirFloats {
		return dirs
	}
	for {
		old := dirMemo.Load()
		var table map[dirKey][][]float64
		if old != nil {
			if _, ok := (*old)[key]; ok || len(*old) >= maxDirSets {
				return dirs
			}
			table = make(map[dirKey][][]float64, len(*old)+1)
			for k, v := range *old {
				table[k] = v
			}
		} else {
			table = make(map[dirKey][][]float64, 1)
		}
		table[key] = dirs
		if dirMemo.CompareAndSwap(old, &table) {
			return dirs
		}
	}
}

// drawDirections draws count random unit directions in n dimensions from
// a generator seeded with seed, skipping draws of zero norm.
func drawDirections(seed int64, n, count int) [][]float64 {
	rng := stats.NewRNG(seed)
	dirs := make([][]float64, 0, max(count, 0))
	for len(dirs) < count {
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		if _, norm := vecmath.Normalize(d, d); norm > 0 {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// dirKey identifies one memoised set of restart directions.
type dirKey struct {
	seed        int64
	n, restarts int
}

// Caps of dirMemo: at most maxDirSets direction sets, each of at most
// maxDirFloats coordinates, so the table holds at most 512 KB whatever
// dimensions clients send.
const (
	maxDirSets   = 32
	maxDirFloats = 2048
)

// dirMemo is restartDirections' table; a published map is never written.
var dirMemo atomic.Pointer[map[dirKey][][]float64]

// boundTracker turns solver iterates into the monotone certified
// lower-bound stream of MinNormToLevelSet: it keeps the best
// halfspace bound seen and reports only improvements.
type boundTracker struct {
	x0     []float64
	target float64
	best   float64
	report func(lower float64)
}

// observe evaluates the supporting-halfspace bound at iterate x, where
// fx = f(x), grad = ∇f(x) and gnorm = ‖grad‖ are already in hand — the
// certification reuses the solver's own evaluations and costs only two
// dot products.
func (t *boundTracker) observe(x, grad []float64, fx, gnorm float64) {
	if t == nil || gnorm == 0 || math.IsNaN(gnorm) {
		return
	}
	lb := (fx - t.target + vecmath.Dot(grad, t.x0) - vecmath.Dot(grad, x)) / gnorm
	if lb > t.best && !math.IsInf(lb, 1) {
		t.best = lb
		t.report(lb)
	}
}

// rayT0 is the first step a cold bracket probes, and the step below
// which a warm bracket stops halving toward x₀.
const rayT0 = 1e-6

// subspace is the space one solve searches: the coordinates in sup, or
// every coordinate when sup is nil. Its points hold only those
// coordinates; f and gradient scatter them into full, a scratch copy of
// x₀, so F and Grad always see a whole point whose other coordinates
// stay at x₀.
type subspace struct {
	obj Objective
	// orig is the full starting point x₀.
	orig []float64
	sup  []int
	// full and gfull are the full-length scratch point and gradient of a
	// support; nil without one.
	full, gfull []float64
	// h is Options.GradStep.
	h float64
}

// f evaluates the objective at the subspace point y.
func (p *subspace) f(y []float64) float64 {
	if p.sup == nil {
		return p.obj.F(y)
	}
	for k, i := range p.sup {
		p.full[i] = y[k]
	}
	return p.obj.F(p.full)
}

// gradient stores the subspace part of ∇f(y) in dst and returns it.
// Without an analytic gradient, the central differences run over the
// subspace's own coordinates only.
func (p *subspace) gradient(dst, y []float64) []float64 {
	if p.sup == nil {
		return p.obj.Gradient(dst, y, p.h)
	}
	if p.obj.Grad == nil {
		return Objective{F: p.f}.Gradient(dst, y, p.h)
	}
	for k, i := range p.sup {
		p.full[i] = y[k]
	}
	p.gfull = p.obj.Grad(p.gfull, p.full)
	for k, i := range p.sup {
		dst[k] = p.gfull[i]
	}
	return dst
}

// embed returns a new full-length copy of the subspace point y: x₀ with
// the support's coordinates taken from y.
func (p *subspace) embed(y []float64) []float64 {
	if p.sup == nil {
		return vecmath.Clone(y)
	}
	x := vecmath.Clone(p.orig)
	for k, i := range p.sup {
		x[i] = y[k]
	}
	return x
}

// raySearch finds where rays x₀ + t·dir (t > 0, ‖dir‖ = 1) of a subspace
// first meet the level set f = target. One serves a whole solve: it
// evaluates f(x₀) once and writes every probe into the same scratch
// point.
type raySearch struct {
	subspace
	// x0 is x₀ in the subspace's coordinates.
	x0     []float64
	target float64
	// sign is +1 when the level is approached from below (f(x₀) < target)
	// and −1 from above, so that s0 = sign·(f(x₀) − target) < 0.
	sign, s0 float64
	// scale is max(1, |target|); tol = Tol·scale is the root tolerance.
	scale, tol float64
	// rayMax bounds t: Options.RayMax·(1 + ‖x₀‖), of the full x₀.
	rayMax  float64
	dir, pt []float64
}

// newRaySearch prepares the ray searches of one solve in sp from x0, sp's
// starting point in its own coordinates, given f0 = f(x₀), a scratch point
// pt of x0's length, and the relative tolerance and excursion bound of
// Options.Tol and Options.RayMax.
func newRaySearch(sp subspace, x0, pt []float64, f0, target, tol, rayMax float64) raySearch {
	r := raySearch{subspace: sp, x0: x0, target: target, sign: 1, pt: pt}
	r.rayMax = rayMax * (1 + vecmath.Euclidean(sp.orig))
	if f0 > target {
		r.sign = -1
	}
	r.s0 = r.sign * (f0 - target)
	r.scale = math.Max(1, math.Abs(target))
	r.tol = tol * r.scale
	return r
}

// towardLevel reports whether dir has a component toward the level: a
// positive one from below, a negative one from above. Along a ray with
// none, a non-decreasing f never nears the level.
func (r *raySearch) towardLevel(dir []float64) bool {
	for _, d := range dir {
		if r.sign*d > 0 {
			return true
		}
	}
	return false
}

// s is sign·(f(x₀ + t·dir) − target): negative at t = 0 and ≥ 0 once the
// ray has reached the level set.
func (r *raySearch) s(t float64) float64 {
	vecmath.AddScaled(r.pt, r.x0, t, r.dir)
	return r.sign * (r.f(r.pt) - r.target)
}

// crossing returns the smallest t > 0 with f(x₀ + t·dir) = target, and f
// there. hint estimates t; warmBracket uses it for convex objectives, and
// otherwise the bracket doubles up from rayT0.
func (r *raySearch) crossing(dir []float64, hint float64) (t, ft float64, err error) {
	r.dir = dir
	b, ok, err := r.warmBracket(hint)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		if b, err = expandBracket(r.s, 0, r.s0, rayT0, r.rayMax); err != nil {
			return 0, 0, err
		}
	}
	t, st, err := RegulaFalsi(r.s, b.lo, b.glo, b.hi, b.ghi, r.tol, 200)
	if errors.Is(err, ErrMaxIter) {
		st = r.s(t)
	} else if err != nil {
		return 0, 0, err
	}
	// Never hand back a point that is not actually on the level set: a
	// bracketing interval can close onto a jump discontinuity (the level
	// is skipped entirely) without |f − target| ever getting small.
	if math.Abs(st) > 1e-6*r.scale {
		return 0, 0, fmt.Errorf("%w: ray crossing is a discontinuity, |f−target|=%v", ErrNoBracket, math.Abs(st))
	}
	return t, r.target + r.sign*st, nil
}

// warmBracket brackets the crossing from a hint for a convex objective,
// reporting ok = false when the caller must double up from rayT0 instead.
// Approached from below, a convex f meets its level at most once along a
// ray, so any hint is safe: halve toward x₀ from a hint that has crossed,
// double away from one that has not. Approached from above, the ray may
// enter the sublevel set and leave it again; a hint inside it has the
// entry point below it, but one outside may lie past the exit, so it is
// not used.
func (r *raySearch) warmBracket(hint float64) (b bracket, ok bool, err error) {
	if !r.obj.Convex || !(hint > 0 && hint <= r.rayMax) {
		return bracket{}, false, nil
	}
	v := r.s(hint)
	switch {
	case math.IsNaN(v) || v < 0 && r.sign < 0:
		return bracket{}, false, nil
	case v < 0:
		b, err = expandBracket(r.s, hint, v, 2*hint, r.rayMax)
		return b, true, err
	}
	b = bracket{lo: 0, glo: r.s0, hi: hint, ghi: v}
	for t := hint / 2; t >= rayT0; t /= 2 {
		v := r.s(t)
		if math.IsNaN(v) {
			return bracket{}, false, nil
		}
		if v < 0 {
			b.lo, b.glo = t, v
			break
		}
		b.hi, b.ghi = t, v
	}
	return b, true, nil
}

// solver is one minimum-norm solve: its ray search, options and bound
// tracker, and the scratch vectors its refinements reuse.
type solver struct {
	raySearch
	opts  Options
	track *boundTracker
	// x is the current boundary point; next is the candidate the ray
	// search retracts to; best keeps the best point found.
	x, next, best []float64
	// grad0 is ∇f(x₀), g and ng are its two unit directions, restarts
	// holds the restart directions projected onto a support, and dirs
	// lists the starting rays.
	grad0, g, ng, restarts []float64
	dirs                   [][]float64
	// The rest hold intermediate vectors.
	grad, proj, diff, u []float64
}

// newSolver prepares one solve from x₀, where f = f0, in the subspace of
// sup (nil: every coordinate). Every vector it writes is carved from one
// allocation.
func newSolver(obj Objective, sup []int, x0 []float64, f0, target float64, opts Options) *solver {
	n, m := len(x0), len(x0)
	if sup != nil {
		m = len(sup)
	}
	nDirs := max(opts.Restarts+2, 0)
	size := 11 * m
	if sup != nil {
		size += 2*n + m + nDirs*m
	}
	block := make([]float64, size)
	vec := func(k int) []float64 {
		v := block[:k:k]
		block = block[k:]
		return v
	}
	sp := subspace{obj: obj, orig: x0, h: opts.GradStep}
	xr := x0
	if sup != nil {
		sp.sup, sp.full, sp.gfull, xr = sup, vec(n), vec(n), vec(m)
		copy(sp.full, x0)
		for k, i := range sup {
			xr[k] = x0[i]
		}
	}
	s := &solver{opts: opts, dirs: make([][]float64, 0, nDirs)}
	s.raySearch = newRaySearch(sp, xr, vec(m), f0, target, opts.Tol, opts.RayMax)
	s.x, s.next, s.best, s.grad0, s.g = vec(m), vec(m), vec(m), vec(m), vec(m)
	s.ng, s.grad, s.proj, s.diff, s.u = vec(m), vec(m), vec(m), vec(m), vec(m)
	s.restarts = block
	return s
}

// startDirections returns the solve's starting rays: ±∇f(x₀) normalised,
// when the gradient is non-zero, then the seed's random restart
// directions. In a support those are projected onto it and renormalised,
// and one whose projection is zero is dropped.
func (s *solver) startDirections(grad0 []float64) [][]float64 {
	dirs := s.dirs[:0]
	if _, norm := vecmath.Normalize(s.g, grad0); norm > 0 {
		dirs = append(dirs, s.g, vecmath.Scale(s.ng, -1, s.g))
	}
	k := s.opts.Restarts + 2 - len(dirs)
	if k <= 0 {
		return dirs
	}
	restarts := restartDirections(s.opts.Seed, len(s.orig), s.opts.Restarts)[:k]
	if s.sup == nil {
		return append(dirs, restarts...)
	}
	m := len(s.sup)
	for j, d := range restarts {
		p := s.restarts[j*m : (j+1)*m]
		for c, i := range s.sup {
			p[c] = d[i]
		}
		if _, norm := vecmath.Normalize(p, p); norm > 0 {
			dirs = append(dirs, p)
		}
	}
	return dirs
}

// refine runs the linearise-project-retract loop from the boundary point
// s.x, where f = fx, reporting each iterate's halfspace bound to the
// tracker (nil-safe) and stopping early when ctx expires. The result's X
// is s.x, which the next refine overwrites.
func (s *solver) refine(ctx context.Context, fx float64) Result {
	x0, target, opts := s.x0, s.target, s.opts
	dist := vecmath.Distance(x0, s.x)
	s.grad = s.gradient(s.grad, s.x)
	converged := false
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		if ctx.Err() != nil {
			break
		}
		gnorm := vecmath.Euclidean(s.grad)
		if gnorm == 0 {
			break // flat spot: cannot linearise further
		}
		s.track.observe(s.x, s.grad, fx, gnorm)
		// Tangent plane at x: ∇f(x)·(y − x) = 0 shifted to pass through the
		// level set, i.e. ∇f·y = ∇f·x + (target − f(x)).
		c := vecmath.Dot(s.grad, s.x) + (target - fx)
		plane := vecmath.Hyperplane{A: s.grad, C: c}
		plane.Project(s.proj, x0)
		// Retract the projection onto the true boundary along the ray
		// x₀ → proj. Its length estimates the crossing: from below, the
		// tangent plane of a convex f supports the sublevel set, so the
		// ray crosses no later than the plane.
		_, norm := vecmath.Normalize(s.u, vecmath.Sub(s.diff, s.proj, x0))
		var nfx float64
		if norm == 0 {
			copy(s.next, s.proj)
			nfx = s.f(s.next)
		} else {
			t, ft, err := s.crossing(s.u, norm)
			if err != nil {
				break
			}
			vecmath.AddScaled(s.next, x0, t, s.u)
			nfx = ft
		}
		nd := vecmath.Distance(x0, s.next)
		improved := nd < dist-opts.Tol*math.Max(1, dist)
		if nd < dist {
			s.x, s.next = s.next, s.x
			dist, fx = nd, nfx
		}
		onBoundary := math.Abs(fx-target) <= 1e3*opts.Tol*s.scale
		if !improved && !onBoundary {
			break // stalled off the level set: not converged
		}
		s.grad = s.gradient(s.grad, s.x)
		// KKT: at the optimum, (x−x₀) is parallel to ∇f(x).
		if onBoundary && s.aligned() {
			converged = true
			break
		}
		if !improved {
			// Stalled without alignment (e.g. non-smooth boundary): the
			// best point found is on the level set, so accept it as
			// near-optimal.
			converged = true
			break
		}
	}
	return Result{X: s.x, Distance: dist, Iterations: iters, Converged: converged}
}

// aligned reports whether x−x₀ and ∇f(x) point along the same line to
// within a loose angular tolerance.
func (s *solver) aligned() bool {
	d := vecmath.Sub(s.diff, s.x, s.x0)
	nd := vecmath.Euclidean(d)
	ng := vecmath.Euclidean(s.grad)
	if nd == 0 || ng == 0 {
		return true
	}
	cos := math.Abs(vecmath.Dot(d, s.grad)) / (nd * ng)
	return cos >= 1-1e2*s.opts.Tol
}
