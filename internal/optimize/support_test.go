package optimize

import (
	"context"
	"math"
	"testing"
)

// readsTwo is a convex, non-decreasing f on ℝ⁶ that reads only
// coordinates 1 and 4, counting its evaluations.
type readsTwo struct{ evals int }

func (r *readsTwo) f(x []float64) float64 {
	r.evals++
	return x[1]*x[1] + math.Exp(x[4]/2)
}

func (r *readsTwo) grad(dst, x []float64) []float64 {
	if len(dst) != len(x) {
		dst = make([]float64, len(x))
	}
	for i := range dst {
		dst[i] = 0
	}
	dst[1], dst[4] = 2*x[1], math.Exp(x[4]/2)/2
	return dst
}

// A solve in the support finds the whole-space minimiser, with the
// analytic gradient and with central differences, from below and from
// above, and its witness keeps every unread coordinate at x₀.
func TestMinNormSupportMatchesWholeSpace(t *testing.T) {
	x0 := []float64{3, 1, -2, 5, 0.5, 7}
	for _, target := range []float64{40, 1.5} {
		for _, analytic := range []bool{true, false} {
			r := new(readsTwo)
			obj := Objective{F: r.f, Convex: true}
			if analytic {
				obj.Grad = r.grad
			}
			whole, err := MinNormToLevelSet(context.Background(), obj, x0, target, DefaultOptions(), nil)
			if err != nil {
				t.Fatalf("target %v, analytic %v, whole space: %v", target, analytic, err)
			}
			obj.Support = []int{1, 4}
			sub, err := MinNormToLevelSet(context.Background(), obj, x0, target, DefaultOptions(), nil)
			if err != nil {
				t.Fatalf("target %v, analytic %v, support: %v", target, analytic, err)
			}
			if rel := math.Abs(sub.Distance-whole.Distance) / whole.Distance; rel > 1e-9 {
				t.Errorf("target %v, analytic %v: distance %.17g in the support, %.17g in the whole space", target, analytic, sub.Distance, whole.Distance)
			}
			if len(sub.X) != len(x0) {
				t.Fatalf("witness has %d coordinates, want %d", len(sub.X), len(x0))
			}
			for _, j := range []int{0, 2, 3, 5} {
				if sub.X[j] != x0[j] {
					t.Errorf("target %v, analytic %v: witness moves unread coordinate %d to %v", target, analytic, j, sub.X[j])
				}
			}
			if v := r.f(sub.X); math.Abs(v-target) > 1e-8*target {
				t.Errorf("target %v, analytic %v: f(witness) = %v", target, analytic, v)
			}
		}
	}
}

// Monotone skips the starting rays that head away from the level, such
// as −∇f from below: the answer keeps every bit and the evaluations fall.
func TestMinNormMonotoneSkipsDeadRays(t *testing.T) {
	x0 := []float64{3, 1, -2, 5, 0.5, 7}
	solve := func(monotone bool) (Result, int) {
		r := new(readsTwo)
		obj := Objective{F: r.f, Grad: r.grad, Convex: true, Support: []int{1, 4}, Monotone: monotone}
		res, err := MinNormToLevelSet(context.Background(), obj, x0, 40, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("monotone %v: %v", monotone, err)
		}
		return res, r.evals
	}
	plain, plainEvals := solve(false)
	skip, skipEvals := solve(true)
	if math.Float64bits(plain.Distance) != math.Float64bits(skip.Distance) {
		t.Errorf("distance %v with Monotone, %v without", skip.Distance, plain.Distance)
	}
	for j := range plain.X {
		if math.Float64bits(plain.X[j]) != math.Float64bits(skip.X[j]) {
			t.Errorf("witness coordinate %d is %v with Monotone, %v without", j, skip.X[j], plain.X[j])
		}
	}
	if skipEvals >= plainEvals {
		t.Errorf("%d evaluations with Monotone, %d without", skipEvals, plainEvals)
	}
}

// In the support, the cross-polytope spans only the read coordinates:
// its certificate stays below the true distance but comes nearer to it
// than the whole-space one, and Monotone saves the probes below x₀
// without changing a bound.
func TestCertifyLevelBelowSupport(t *testing.T) {
	// f = x₁² reaches 4 at distance 1 from x₀ = e₁ in ℝ¹⁶.
	x0 := make([]float64, 16)
	x0[1] = 1
	evals := 0
	obj := Objective{F: func(x []float64) float64 { evals++; return x[1] * x[1] }, Convex: true}
	certify := func(support []int, monotone bool) (float64, int) {
		obj.Support, obj.Monotone = support, monotone
		evals = 0
		return CertifyLevelBelow(context.Background(), obj, x0, 4, DefaultOptions(), nil), evals
	}
	whole, _ := certify(nil, false)
	sub, subEvals := certify([]int{1}, false)
	mono, monoEvals := certify([]int{1}, true)
	if !(whole > 0 && whole < sub && sub <= 1) {
		t.Fatalf("certificates %v in the whole space, %v in the support; true distance 1", whole, sub)
	}
	if sub < 0.99 {
		t.Errorf("support certificate %v, want nearly the true distance 1", sub)
	}
	if math.Float64bits(mono) != math.Float64bits(sub) || monoEvals >= subEvals {
		t.Errorf("Monotone: certificate %v in %d evaluations, %v in %d without", mono, monoEvals, sub, subEvals)
	}
}

// A Support that is not strictly increasing within the dimension is an
// error from the solver and no certificate, never an index panic.
func TestMalformedSupportRejected(t *testing.T) {
	x0 := []float64{1, 1, 1}
	for _, support := range [][]int{{2, 1}, {0, 0}, {-1}, {3}, {0, 1, 2, 3}} {
		obj := Objective{F: func(x []float64) float64 { return x[0] + x[1] + x[2] }, Convex: true, Support: support}
		if err := CheckSupport(support, len(x0)); err == nil {
			t.Errorf("CheckSupport accepts %v", support)
		}
		if _, err := MinNormToLevelSet(context.Background(), obj, x0, 10, DefaultOptions(), nil); err == nil {
			t.Errorf("support %v: MinNormToLevelSet accepted it", support)
		}
		if lb := CertifyLevelBelow(context.Background(), obj, x0, 10, DefaultOptions(), nil); lb != 0 {
			t.Errorf("support %v: certificate %v, want 0", support, lb)
		}
	}
}
