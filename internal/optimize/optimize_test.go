package optimize

import (
	"context"
	"errors"
	"math"
	"testing"

	"fepia/internal/vecmath"
)

// regulaFalsi runs RegulaFalsi on [lo, hi], evaluating the ends itself.
func regulaFalsi(g func(float64) float64, lo, hi, tol float64, maxIter int) (float64, error) {
	x, _, err := RegulaFalsi(g, lo, g(lo), hi, g(hi), tol, maxIter)
	return x, err
}

func TestRegulaFalsiKnownRoots(t *testing.T) {
	// x² − 2 on [0,2] → sqrt(2).
	root, err := regulaFalsi(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-9 {
		t.Errorf("root = %v", root)
	}
	// Endpoints that are exact roots return immediately.
	if r, err := regulaFalsi(func(x float64) float64 { return x }, 0, 1, 1e-12, 10); err != nil || r != 0 {
		t.Errorf("zero endpoint: %v, %v", r, err)
	}
	if r, err := regulaFalsi(func(x float64) float64 { return x - 1 }, 0, 1, 1e-12, 10); err != nil || r != 1 {
		t.Errorf("one endpoint: %v, %v", r, err)
	}
	// Reversed interval is normalised.
	if r, err := regulaFalsi(func(x float64) float64 { return x - 0.5 }, 1, 0, 1e-12, 100); err != nil || math.Abs(r-0.5) > 1e-9 {
		t.Errorf("reversed interval: %v, %v", r, err)
	}
	// The value returned is g at the root.
	g := func(x float64) float64 { return math.Exp(x) - 3 }
	x, gx, err := RegulaFalsi(g, 0, g(0), 2, g(2), 1e-12, 200)
	if err != nil || gx != g(x) || math.Abs(x-math.Log(3)) > 1e-9 {
		t.Errorf("exp root: x=%v g=%v (g(x)=%v), %v", x, gx, g(x), err)
	}
}

func TestRegulaFalsiNoBracket(t *testing.T) {
	_, err := regulaFalsi(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12, 100)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v", err)
	}
	_, err = regulaFalsi(func(x float64) float64 { return math.NaN() }, 0, 1, 1e-12, 100)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("NaN err = %v", err)
	}
}

func TestRegulaFalsiMaxIter(t *testing.T) {
	g := func(x float64) float64 { return x*x*x - 2 }
	x, gx, err := RegulaFalsi(g, 0, g(0), 4, g(4), 1e-300, 3)
	if !errors.Is(err, ErrMaxIter) {
		t.Fatalf("err = %v", err)
	}
	if !math.IsNaN(gx) || !(x > 0 && x < 4) {
		t.Errorf("after the cap: x=%v g=%v, want a point inside the bracket and NaN", x, gx)
	}
}

// The Illinois step: plain regula falsi on a strongly convex g keeps the
// same end forever and creeps toward the root from one side. Halving the
// kept end's value each time it survives again must pull the chord past
// the root within a few steps, so the root is found in far fewer
// evaluations than either plain false position or bisection needs.
func TestRegulaFalsiIllinoisHalving(t *testing.T) {
	evals := 0
	g := func(x float64) float64 { evals++; return math.Pow(x, 10) - 1 } // root at 1
	root, err := regulaFalsi(g, 0, 3, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-1) > 1e-9 {
		t.Errorf("root = %v want 1", root)
	}
	// Bisection needs ~41 halvings of [0,3] to reach 1e-12; plain false
	// position stalls against the end at 3, whose value is 59048.
	if evals > 2+30 {
		t.Errorf("%d evaluations: the kept end was not halved", evals)
	}
}

func TestBracketAbove(t *testing.T) {
	// g(t) = t − 100 crosses zero at 100.
	hi, err := BracketAbove(func(t float64) float64 { return t - 100 }, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if hi < 100 {
		t.Errorf("bracket %v below crossing", hi)
	}
	if _, err := BracketAbove(func(t float64) float64 { return -1 }, 1, 1e3); !errors.Is(err, ErrNoBracket) {
		t.Errorf("unreachable level: err = %v", err)
	}
	if _, err := BracketAbove(func(t float64) float64 { return math.NaN() }, 1, 1e3); !errors.Is(err, ErrNoBracket) {
		t.Errorf("NaN: err = %v", err)
	}
}

func TestGoldenSection(t *testing.T) {
	// (x−3)² has its minimum at 3.
	x := GoldenSection(func(x float64) float64 { return (x - 3) * (x - 3) }, 0, 10, 1e-10)
	if math.Abs(x-3) > 1e-8 {
		t.Errorf("minimiser = %v", x)
	}
	// Reversed bounds.
	x = GoldenSection(func(x float64) float64 { return math.Abs(x + 1) }, 2, -4, 1e-10)
	if math.Abs(x+1) > 1e-8 {
		t.Errorf("minimiser = %v", x)
	}
}

func TestNumericalGradient(t *testing.T) {
	// f(x,y) = x² + 3xy; ∇f = (2x+3y, 3x).
	obj := Objective{F: func(x []float64) float64 { return x[0]*x[0] + 3*x[0]*x[1] }}
	g := obj.Gradient(nil, []float64{2, 5}, 1e-6)
	if math.Abs(g[0]-19) > 1e-5 || math.Abs(g[1]-6) > 1e-5 {
		t.Errorf("gradient = %v", g)
	}
	// Analytic gradient takes precedence.
	objA := Objective{
		F:    obj.F,
		Grad: func(dst, x []float64) []float64 { return append(dst[:0], -1, -2) },
	}
	if g := objA.Gradient(make([]float64, 2), []float64{2, 5}, 1e-6); g[0] != -1 || g[1] != -2 {
		t.Errorf("analytic gradient not used: %v", g)
	}
}

// affineObjective builds f(x) = a·x for testing against the exact
// hyperplane answer.
func affineObjective(a []float64) Objective {
	return Objective{
		F: func(x []float64) float64 { return vecmath.Dot(a, x) },
		Grad: func(dst, x []float64) []float64 {
			if len(dst) != len(a) {
				dst = make([]float64, len(a))
			}
			copy(dst, a)
			return dst
		},
	}
}

func TestMinNormAffineMatchesHyperplane(t *testing.T) {
	a := []float64{2, -1, 3}
	target := 12.0
	x0 := []float64{1, 1, 1}
	res, err := MinNormToLevelSet(context.Background(), affineObjective(a), x0, target, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := vecmath.NewHyperplane(a, target)
	want := h.Distance(x0)
	if math.Abs(res.Distance-want) > 1e-8 {
		t.Errorf("distance = %v want %v", res.Distance, want)
	}
	if !res.Converged {
		t.Errorf("affine problem did not converge")
	}
	if math.Abs(vecmath.Dot(a, res.X)-target) > 1e-6 {
		t.Errorf("solution off the boundary: f = %v", vecmath.Dot(a, res.X))
	}
}

func TestMinNormSphereLevelSet(t *testing.T) {
	// f(x) = ‖x‖² = 25 from x0 = (1,0): nearest point (5,0), distance 4.
	obj := Objective{F: func(x []float64) float64 {
		return x[0]*x[0] + x[1]*x[1]
	}}
	res, err := MinNormToLevelSet(context.Background(), obj, []float64{1, 0}, 25, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Distance-4) > 1e-6 {
		t.Errorf("distance = %v want 4", res.Distance)
	}
}

func TestMinNormFromAboveTheLevel(t *testing.T) {
	// Start outside the sphere: from (10,0) to ‖x‖² = 25 the distance is 5.
	obj := Objective{F: func(x []float64) float64 {
		return x[0]*x[0] + x[1]*x[1]
	}}
	res, err := MinNormToLevelSet(context.Background(), obj, []float64{10, 0}, 25, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Distance-5) > 1e-6 {
		t.Errorf("distance = %v want 5", res.Distance)
	}
}

func TestMinNormConvexQuadratic(t *testing.T) {
	// f(x,y) = x² + 4y², level 16 from the origin. The closest boundary
	// point is along the steep axis: (0, ±2), distance 2.
	obj := Objective{F: func(x []float64) float64 {
		return x[0]*x[0] + 4*x[1]*x[1]
	}}
	res, err := MinNormToLevelSet(context.Background(), obj, []float64{0, 0}, 16, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Distance-2) > 1e-6 {
		t.Errorf("distance = %v want 2", res.Distance)
	}
	if math.Abs(res.X[0]) > 1e-3 || math.Abs(math.Abs(res.X[1])-2) > 1e-3 {
		t.Errorf("boundary point = %v want (0, ±2)", res.X)
	}
}

func TestMinNormAtBoundaryAlready(t *testing.T) {
	obj := affineObjective([]float64{1, 1})
	res, err := MinNormToLevelSet(context.Background(), obj, []float64{3, 4}, 7, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 {
		t.Errorf("on-boundary distance = %v", res.Distance)
	}
}

func TestMinNormUnreachable(t *testing.T) {
	// Constant function can never reach the level.
	obj := Objective{F: func(x []float64) float64 { return 1 }}
	opts := DefaultOptions()
	opts.RayMax = 1e3
	if _, err := MinNormToLevelSet(context.Background(), obj, []float64{0, 0}, 5, opts, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestMinNormSaturationPlateau(t *testing.T) {
	// Regression: an M/M/1-style impact with a saturation plateau
	// (f jumps to a huge constant once the load reaches capacity) used to
	// defeat the secant acceleration — each step moved the bracket
	// endpoint infinitesimally against the plateau's large magnitude, and
	// the ErrMaxIter midpoint (not on the level set) was accepted as a
	// boundary point, yielding distance 268 instead of 600/√2 ≈ 424.26.
	mu, sla := 1200.0, 0.01
	obj := Objective{F: func(lam []float64) float64 {
		load := lam[0] + lam[1]
		if load >= mu {
			return sla * 1e6
		}
		return 1 / (mu - load)
	}}
	res, err := MinNormToLevelSet(context.Background(), obj, []float64{300, 200}, sla, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 600 / math.Sqrt2 // boundary load = μ − 1/sla = 1100
	if math.Abs(res.Distance-want) > 1e-4 {
		t.Errorf("distance = %v want %v", res.Distance, want)
	}
	if got := obj.F(res.X); math.Abs(got-sla) > 1e-6 {
		t.Errorf("solution off the level set: f = %v", got)
	}
	if !res.Converged {
		t.Errorf("did not converge")
	}
}

func TestRegulaFalsiPlateauBracket(t *testing.T) {
	// The scalar regression distilled: g is −ε on the left and jumps to
	// +10⁴ on the right, with a genuine root in between. The Illinois
	// halving of the plateau end must find it despite the magnitude
	// imbalance.
	g := func(x float64) float64 {
		if x >= 2 {
			return 1e4
		}
		return x - 1 // root at 1
	}
	root, err := regulaFalsi(g, 0, 100, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-1) > 1e-6 {
		t.Errorf("root = %v want 1", root)
	}
}

func TestMinNormInvalidOptions(t *testing.T) {
	obj := affineObjective([]float64{1})
	if _, err := MinNormToLevelSet(context.Background(), obj, []float64{0}, 1, Options{}, nil); err == nil {
		t.Errorf("zero options accepted")
	}
}

func TestAnnealMatchesConvexAnswer(t *testing.T) {
	obj := Objective{F: func(x []float64) float64 {
		return x[0]*x[0] + 4*x[1]*x[1]
	}}
	res, err := AnnealMinDistance(context.Background(), obj, []float64{0, 0}, 16, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < 2-1e-9 {
		t.Fatalf("anneal found infeasible distance %v < true optimum 2", res.Distance)
	}
	if res.Distance > 2.05 {
		t.Errorf("anneal distance = %v, want ≈2", res.Distance)
	}
}

func TestAnnealNonConvex(t *testing.T) {
	// A non-convex level set: f(x,y) = min((x−4)²+y², (x+1)²+y²) = 0.25 has
	// two disc boundaries; the nearest from the origin is around (−1,0)
	// with distance 0.5.
	obj := Objective{F: func(x []float64) float64 {
		a := (x[0]-4)*(x[0]-4) + x[1]*x[1]
		b := (x[0]+1)*(x[0]+1) + x[1]*x[1]
		return math.Min(a, b)
	}}
	res, err := AnnealMinDistance(context.Background(), obj, []float64{0, 0}, 0.25, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance > 0.55 {
		t.Errorf("anneal stuck in far basin: distance = %v, want ≈0.5", res.Distance)
	}
}

func TestAnnealOnBoundaryAndUnreachable(t *testing.T) {
	obj := affineObjective([]float64{1, 0})
	res, err := AnnealMinDistance(context.Background(), obj, []float64{5, 0}, 5, DefaultAnnealOptions())
	if err != nil || res.Distance != 0 {
		t.Errorf("on-boundary: %v, %v", res, err)
	}
	konst := Objective{F: func(x []float64) float64 { return 1 }}
	opts := DefaultAnnealOptions()
	opts.RayMax = 1e3
	opts.Steps = 50
	if _, err := AnnealMinDistance(context.Background(), konst, []float64{0, 0}, 5, opts); !errors.Is(err, ErrUnreachable) {
		t.Errorf("unreachable err = %v", err)
	}
}

func TestAnnealDeterministicForSeed(t *testing.T) {
	obj := Objective{F: func(x []float64) float64 { return x[0]*x[0] + 4*x[1]*x[1] }}
	o := DefaultAnnealOptions()
	o.Steps = 500
	a, err := AnnealMinDistance(context.Background(), obj, []float64{0, 0}, 16, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnnealMinDistance(context.Background(), obj, []float64{0, 0}, 16, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Distance != b.Distance {
		t.Errorf("same seed, different results: %v vs %v", a.Distance, b.Distance)
	}
}
