package core_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"fepia/internal/convexfn"
	"fepia/internal/core"
	"fepia/internal/montecarlo"
	"fepia/internal/stats"
	"fepia/internal/vecmath"
)

// termsSetSize and termsSetSeed fix the convex feature set shared by the
// terms-radius oracle test, the evaluation-count gate and
// BenchmarkTermsRadius.
const (
	termsSetSize = 200
	termsSetSeed = 7
)

// termsCase is one convex "terms" feature, its operating point, and a
// counter of the impact evaluations made through it.
type termsCase struct {
	f     core.Feature
	p     core.Perturbation
	c     convexfn.Complexity
	evals *int
}

// newTermsCase wraps c as a convex FuncImpact whose F counts its calls,
// declaring its support and monotonicity as internal/spec's terms
// builder does, so the solves below take the served path.
func newTermsCase(c convexfn.Complexity, orig []float64, bounds core.Bounds) termsCase {
	evals := new(int)
	f := core.Feature{Name: "queue", Bounds: bounds, Impact: &core.FuncImpact{
		N:        len(orig),
		F:        func(x []float64) float64 { *evals++; return c.Eval(x) },
		Grad:     c.Gradient,
		Convex:   true,
		Support:  c.Support(),
		Monotone: true,
	}}
	return termsCase{f: f, p: core.Perturbation{Name: "lambda", Orig: orig}, c: c, evals: evals}
}

// termsSet draws n features in the shape of perfbench's convex_zipf
// systems: a 12–16 dimensional operating point in [1, 10), x², x³,
// x·log(1+x) and e^{x/2} terms on four consecutive coordinates, and a
// β^max between 1.5 and 2.5 times the impact at the operating point.
func termsSet(seed int64, n int) []termsCase {
	rng := stats.NewRNG(seed)
	cases := make([]termsCase, n)
	for i := range cases {
		dim := 12 + rng.Intn(5)
		orig := make([]float64, dim)
		for j := range orig {
			orig[j] = 1 + 9*rng.Float64()
		}
		at := rng.Intn(dim)
		c := convexfn.Complexity{
			{Kind: convexfn.PowerTerm, Index: at, Coeff: 1 + rng.Float64(), P: 2},
			{Kind: convexfn.PowerTerm, Index: (at + 1) % dim, Coeff: 1 + rng.Float64(), P: 3},
			{Kind: convexfn.XLogXTerm, Index: (at + 2) % dim, Coeff: 1 + rng.Float64()},
			{Kind: convexfn.ExpTerm, Index: (at + 3) % dim, Coeff: 0.1 + 0.1*rng.Float64(), P: 0.5},
		}
		cases[i] = newTermsCase(c, orig, core.NoMin(c.Eval(orig)*(1.5+rng.Float64())))
	}
	return cases
}

// checkTermsRadius checks a terms radius against its own witness π*
// without trusting the solver: π* lies on the binding level set, at
// distance r from π^orig, and the move π* − π^orig is parallel to
// ∇f(π*) (the KKT condition of Eq. 1), pointing up the gradient when the
// bound is approached from below and down it from above. Monte Carlo
// sampling then confirms no perturbation inside the radius violates.
func checkTermsRadius(t *testing.T, name string, tc termsCase, res core.RadiusResult) {
	t.Helper()
	beta := tc.f.Bounds.Max
	if res.Kind == core.AtMin {
		beta = tc.f.Bounds.Min
	} else if res.Kind != core.AtMax {
		t.Fatalf("%s: kind %v, want a finite bound", name, res.Kind)
	}
	if v := tc.c.Eval(res.Boundary); math.Abs(v-beta) > 1e-9*math.Abs(beta) {
		t.Errorf("%s: f(π*) = %.17g, want β = %.17g", name, v, beta)
	}
	move := vecmath.Sub(nil, res.Boundary, tc.p.Orig)
	if d := vecmath.Euclidean(move); math.Abs(d-res.Radius) > 1e-12*res.Radius {
		t.Errorf("%s: ‖π* − π^orig‖ = %.17g, radius %.17g", name, d, res.Radius)
	}
	if beta < tc.c.Eval(tc.p.Orig) {
		vecmath.Scale(move, -1, move)
	}
	g := tc.c.Gradient(nil, res.Boundary)
	if cos := vecmath.Dot(move, g) / (vecmath.Euclidean(move) * vecmath.Euclidean(g)); !(1-cos <= 1e-6) {
		t.Errorf("%s: 1 − cos(π* − π^orig, ∇f) = %.3g", name, 1-cos)
	}
	rep, err := montecarlo.Certify(stats.NewRNG(1), []core.Feature{tc.f}, tc.p, res.Radius, montecarlo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Errorf("%s: Monte Carlo rejects the radius: %v", name, rep)
	}
}

// termsOracleSet is the fixed terms set plus two features on its first
// case's impact that bind at β^min, approached from above: one with only
// that bound, and a two-sided one nearer its lower bound than its upper.
func termsOracleSet() []termsCase {
	cases := termsSet(termsSetSeed, termsSetSize)
	base := cases[0]
	v0 := base.c.Eval(base.p.Orig)
	return append(cases,
		newTermsCase(base.c, base.p.Orig, core.NoMax(0.5*v0)),
		newTermsCase(base.c, base.p.Orig, core.Bounds{Min: 0.7 * v0, Max: 1.4 * v0}))
}

// Non-linear terms radii get the same independent check as linear ones:
// every convex_zipf-shaped radius is verified by its witness and by Monte
// Carlo sampling, together with a bound approached from above and a
// two-sided feature whose nearer side decides the radius.
func TestTermsRadiiOracle(t *testing.T) {
	for i, tc := range termsOracleSet() {
		name := fmt.Sprintf("case %d", i)
		res, err := core.ComputeRadius(tc.f, tc.p, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Method != core.MethodConvex {
			t.Fatalf("%s: method %v, want %v", name, res.Method, core.MethodConvex)
		}
		// Both extra cases bind at β^min: the two-sided one sits nearer
		// its lower bound than its upper.
		if i >= termsSetSize && res.Kind != core.AtMin {
			t.Errorf("%s: kind %v, want %v", name, res.Kind, core.AtMin)
		}
		checkTermsRadius(t, name, tc, res)
	}
}

// termsEvalBudget pins the mean impact evaluations per convex radius on
// the fixed terms set. The count is deterministic, so any change to the
// solver's search that adds evaluations shows here.
const termsEvalBudget = 320

func TestTermsRadiusEvaluations(t *testing.T) {
	cases := termsSet(termsSetSeed, termsSetSize)
	total := 0
	for i, tc := range cases {
		if _, err := core.ComputeRadius(tc.f, tc.p, core.Options{}); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		total += *tc.evals
	}
	mean := float64(total) / float64(len(cases))
	t.Logf("%.1f impact evaluations per radius", mean)
	if mean > termsEvalBudget {
		t.Errorf("%.1f impact evaluations per radius, budget %d", mean, termsEvalBudget)
	}
}

// BenchmarkTermsRadius solves one convex terms radius per op, cycling
// through the fixed convex_zipf-shaped set, and reports the impact
// evaluations each solve makes.
func BenchmarkTermsRadius(b *testing.B) {
	cases := termsSet(termsSetSeed, termsSetSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := cases[i%len(cases)]
		if _, err := core.ComputeRadius(tc.f, tc.p, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := 0
	for _, tc := range cases {
		total += *tc.evals
	}
	b.ReportMetric(float64(total)/float64(b.N), "evals/op")
}

// declared returns f with its FuncImpact's Support and Monotone replaced.
func declared(f core.Feature, support []int, monotone bool) core.Feature {
	fi := *f.Impact.(*core.FuncImpact)
	fi.Support, fi.Monotone = support, monotone
	f.Impact = &fi
	return f
}

// sameRadius reports whether two radius results agree bit for bit,
// witness included.
func sameRadius(a, b core.RadiusResult) bool {
	return math.Float64bits(a.Radius) == math.Float64bits(b.Radius) && a.Kind == b.Kind &&
		slices.EqualFunc(a.Boundary, b.Boundary, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Declaring an impact's support and monotonicity changes where the solver
// searches, not what it finds. Monotone only skips rays that cannot reach
// the level, so turning it off changes no bit. Solving in the support
// instead of the whole space retraces each ray's path up to rounding, so
// a feature binding at a bound approached from below keeps its radius to
// 1e-13 relative. Approached from above, both paths stall at the x ≤ 0
// kink of the power and xlogx terms with the same KKT residual, so those
// radii are held only to TestTermsRadiiOracle's checks.
func TestTermsSupportEquivalence(t *testing.T) {
	worst := 0.0
	for i, tc := range termsOracleSet() {
		served, err := core.ComputeRadius(tc.f, tc.p, core.Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		fi := tc.f.Impact.(*core.FuncImpact)
		unmono, err := core.ComputeRadius(declared(tc.f, fi.Support, false), tc.p, core.Options{})
		if err != nil {
			t.Fatalf("case %d without Monotone: %v", i, err)
		}
		if !sameRadius(served, unmono) {
			t.Errorf("case %d: radius %v (%v) with Monotone, %v (%v) without", i, served.Radius, served.Kind, unmono.Radius, unmono.Kind)
		}
		full, err := core.ComputeRadius(declared(tc.f, nil, false), tc.p, core.Options{})
		if err != nil {
			t.Fatalf("case %d undeclared: %v", i, err)
		}
		if served.Kind != full.Kind {
			t.Fatalf("case %d: binds at %v in the support, %v in the whole space", i, served.Kind, full.Kind)
		}
		for j, x := range served.Boundary {
			if _, read := slices.BinarySearch(fi.Support, j); !read && math.Float64bits(x) != math.Float64bits(tc.p.Orig[j]) {
				t.Errorf("case %d: witness moves unread coordinate %d from %v to %v", i, j, tc.p.Orig[j], x)
			}
		}
		if served.Kind != core.AtMax {
			continue
		}
		rel := math.Abs(served.Radius-full.Radius) / full.Radius
		worst = math.Max(worst, rel)
		if rel > 1e-13 {
			t.Errorf("case %d: radius %.17g in the support, %.17g in the whole space (%.2g relative)", i, served.Radius, full.Radius, rel)
		}
	}
	t.Logf("largest relative radius change from below: %.3g", worst)
}

// termsAnytimeEvalBudget pins the mean impact evaluations per convex
// radius on the fixed terms set when a deadline turns certification on.
const termsAnytimeEvalBudget = 650

// Under a deadline every convex radius is certified as well as solved:
// the cross-polytope certificate probes the loads the impact reads at
// each scale before the exact solve. Far from the deadline the answer is
// the plain solve's bit for bit, every streamed bound is at most the
// exact radius, and the probes stay within termsAnytimeEvalBudget.
func TestTermsAnytimeEvaluations(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	cases := termsSet(termsSetSeed, termsSetSize)
	total := 0
	for i, tc := range cases {
		exact, err := core.ComputeRadius(tc.f, tc.p, core.Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		*tc.evals = 0
		var bounds []float64
		got, err := core.ComputeRadiusAnytime(ctx, tc.f, tc.p, core.Options{}, func(lower float64) { bounds = append(bounds, lower) })
		if err != nil {
			t.Fatalf("case %d under a deadline: %v", i, err)
		}
		total += *tc.evals
		if !sameRadius(got, exact) {
			t.Errorf("case %d: radius %v (%v) under a deadline, %v (%v) without", i, got.Radius, got.Kind, exact.Radius, exact.Kind)
		}
		if len(bounds) == 0 {
			t.Errorf("case %d: no bound streamed", i)
		}
		for _, lower := range bounds {
			if lower > exact.Radius {
				t.Errorf("case %d: streamed bound %.17g exceeds the radius %.17g", i, lower, exact.Radius)
			}
		}
	}
	mean := float64(total) / float64(len(cases))
	t.Logf("%.1f impact evaluations per certified radius", mean)
	if mean > termsAnytimeEvalBudget {
		t.Errorf("%.1f impact evaluations per certified radius, budget %d", mean, termsAnytimeEvalBudget)
	}
}
