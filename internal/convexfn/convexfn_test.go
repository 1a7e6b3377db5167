package convexfn

import (
	"math"
	"testing"
	"testing/quick"

	"fepia/internal/stats"
)

// TestQuickConvexityAndMonotonicity checks the package's defining
// contract on random instances: every Complexity built from valid terms is
// midpoint-convex and componentwise non-decreasing over the non-negative
// orthant.
func TestQuickConvexityAndMonotonicity(t *testing.T) {
	rng := stats.NewRNG(1)
	randomComplexity := func(dim int) Complexity {
		n := 1 + rng.Intn(4)
		c := make(Complexity, 0, n)
		for i := 0; i < n; i++ {
			term := Term{Index: rng.Intn(dim), Coeff: rng.Float64() * 3}
			switch rng.Intn(4) {
			case 0:
				term.Kind = LinearTerm
			case 1:
				term.Kind = PowerTerm
				term.P = 1 + rng.Float64()*2
			case 2:
				term.Kind = ExpTerm
				term.P = 0.01 + rng.Float64()*0.1
			default:
				term.Kind = XLogXTerm
			}
			c = append(c, term)
		}
		return c
	}
	f := func(struct{}) bool {
		const dim = 3
		c := randomComplexity(dim)
		if err := c.Validate(dim); err != nil {
			return false
		}
		x := make([]float64, dim)
		y := make([]float64, dim)
		for i := 0; i < dim; i++ {
			x[i] = rng.Float64() * 20
			y[i] = rng.Float64() * 20
		}
		mid := make([]float64, dim)
		for i := range mid {
			mid[i] = 0.5 * (x[i] + y[i])
		}
		// Midpoint convexity.
		if c.Eval(mid) > 0.5*(c.Eval(x)+c.Eval(y))+1e-9 {
			return false
		}
		// Monotonicity: increasing one component never decreases f.
		bumped := append([]float64(nil), x...)
		bumped[rng.Intn(dim)] += rng.Float64() * 5
		return c.Eval(bumped) >= c.Eval(x)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickGradientMatchesFiniteDifference(t *testing.T) {
	rng := stats.NewRNG(2)
	f := func(struct{}) bool {
		const dim = 2
		c := Complexity{
			{Kind: PowerTerm, Index: 0, Coeff: 1 + rng.Float64(), P: 1 + rng.Float64()*2},
			{Kind: ExpTerm, Index: 1, Coeff: rng.Float64(), P: 0.01 + rng.Float64()*0.05},
			{Kind: XLogXTerm, Index: 0, Coeff: rng.Float64()},
		}
		x := []float64{1 + rng.Float64()*10, 1 + rng.Float64()*10}
		g := c.Gradient(nil, x)
		const h = 1e-6
		for i := range x {
			up := append([]float64(nil), x...)
			dn := append([]float64(nil), x...)
			up[i] += h
			dn[i] -= h
			fd := (c.Eval(up) - c.Eval(dn)) / (2 * h)
			if math.Abs(fd-g[i]) > 1e-3*(1+math.Abs(fd)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGradientReuseAndReset(t *testing.T) {
	c := Complexity{{Kind: LinearTerm, Index: 0, Coeff: 2}}
	buf := []float64{99, 99}
	g := c.Gradient(buf, []float64{1, 1})
	if &g[0] != &buf[0] {
		t.Errorf("gradient did not reuse the buffer")
	}
	if g[0] != 2 || g[1] != 0 {
		t.Errorf("stale buffer contents leaked: %v", g)
	}
}

func TestValidateAndRendering(t *testing.T) {
	bad := []Term{
		{Kind: LinearTerm, Index: -1, Coeff: 1},
		{Kind: LinearTerm, Index: 3, Coeff: 1},
		{Kind: LinearTerm, Index: 0, Coeff: -1},
		{Kind: LinearTerm, Index: 0, Coeff: math.Inf(1)},
		{Kind: PowerTerm, Index: 0, Coeff: 1, P: 0.9},
		{Kind: ExpTerm, Index: 0, Coeff: 1, P: -1},
		{Kind: TermKind(77), Index: 0, Coeff: 1},
	}
	for i, term := range bad {
		if err := term.Validate(3); err == nil {
			t.Errorf("bad term %d accepted", i)
		}
	}
	if err := (Complexity{bad[0]}).Validate(3); err == nil {
		t.Errorf("complexity with bad term accepted")
	}
	for _, k := range []TermKind{LinearTerm, PowerTerm, ExpTerm, XLogXTerm, TermKind(7)} {
		if k.String() == "" {
			t.Errorf("empty kind string")
		}
	}
	terms := Complexity{
		{Kind: LinearTerm, Index: 0, Coeff: 1},
		{Kind: PowerTerm, Index: 1, Coeff: 2, P: 2},
		{Kind: ExpTerm, Index: 0, Coeff: 1, P: 0.1},
		{Kind: XLogXTerm, Index: 1, Coeff: 1},
		{Kind: TermKind(7), Index: 0, Coeff: 1},
	}
	for _, term := range terms {
		if term.String() == "" {
			t.Errorf("empty term rendering")
		}
	}
	if (Complexity{}).String() != "0" {
		t.Errorf("empty complexity rendering")
	}
	// Unknown kinds evaluate to NaN rather than silently to zero.
	if !math.IsNaN(terms[4].Eval([]float64{1, 1})) || !math.IsNaN(terms[4].Deriv([]float64{1, 1})) {
		t.Errorf("unknown kind should evaluate to NaN")
	}
}

func TestLinearCoeffsAndIsLinear(t *testing.T) {
	c := LinearComplexity([]float64{2, 0, 3})
	if len(c) != 2 || !c.IsLinear() {
		t.Fatalf("LinearComplexity = %v", c)
	}
	coeffs := c.LinearCoeffs(3)
	if coeffs[0] != 2 || coeffs[1] != 0 || coeffs[2] != 3 {
		t.Errorf("round trip = %v", coeffs)
	}
	nl := Complexity{{Kind: ExpTerm, Index: 0, Coeff: 1, P: 1}}
	if nl.IsLinear() {
		t.Errorf("exp misclassified as linear")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("LinearCoeffs on nonlinear should panic")
		}
	}()
	nl.LinearCoeffs(1)
}

func TestScaleLinearityAcrossKinds(t *testing.T) {
	c := Complexity{
		{Kind: LinearTerm, Index: 0, Coeff: 1},
		{Kind: PowerTerm, Index: 0, Coeff: 1, P: 2},
		{Kind: ExpTerm, Index: 0, Coeff: 1, P: 0.1},
		{Kind: XLogXTerm, Index: 0, Coeff: 1},
	}
	x := []float64{7}
	before := c.Eval(x)
	c.Scale(2.5)
	if after := c.Eval(x); math.Abs(after-2.5*before) > 1e-9*after {
		t.Errorf("Scale is not linear: %v vs %v", after, 2.5*before)
	}
}

// TestIntegerPowersMatchMathPow holds the multiplied-out powers of
// PowerTerm to the math.Pow formulas bit for bit: Eval and Deriv for
// P = 1, 2 and 3 over a log-uniform sweep of both signs from the
// subnormals to the overflow range, the edges of pow's multiplying range
// and the special values.
func TestIntegerPowersMatchMathPow(t *testing.T) {
	wantEval := func(tm Term, x float64) float64 {
		if x <= 0 {
			return 0
		}
		return tm.Coeff * math.Pow(x, tm.P)
	}
	wantDeriv := func(tm Term, x float64) float64 {
		if x <= 0 {
			if tm.P == 1 {
				return tm.Coeff
			}
			return 0
		}
		return tm.Coeff * tm.P * math.Pow(x, tm.P-1)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	xs := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, edge := range []float64{0x1p-300, 0x1p300, 0x1p-340, 0x1p340, 0x1p-511, 0x1p511} {
		xs = append(xs, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 400000; i++ {
		x := math.Exp(-745 + 1455*rng.Float64())
		if i%2 == 1 {
			x = -x
		}
		xs = append(xs, x)
	}
	lambda := make([]float64, 1)
	for _, p := range []float64{1, 2, 3} {
		for _, coeff := range []float64{1, 1.7} {
			tm := Term{Kind: PowerTerm, Coeff: coeff, P: p}
			for _, x := range xs {
				lambda[0] = x
				if got, want := tm.Eval(lambda), wantEval(tm, x); !same(got, want) {
					t.Fatalf("%v at %v: Eval %v, math.Pow gives %v", tm, x, got, want)
				}
				if got, want := tm.Deriv(lambda), wantDeriv(tm, x); !same(got, want) {
					t.Fatalf("%v at %v: Deriv %v, math.Pow gives %v", tm, x, got, want)
				}
			}
		}
	}
}
