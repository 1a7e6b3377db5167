package optimize_test

import (
	"math"
	"testing"

	"fepia/internal/convexfn"
	"fepia/internal/core"
	"fepia/internal/optimize"
	"fepia/internal/stats"
)

// TestConvexRadiiMemoBitIdentical solves the convex features of core's
// TestTermsRadiiOracle — 200 convex_zipf-shaped terms features, drawn as
// its termsSet(7, 200) draws them, and its two extra cases — once with
// each solve drawing its restart directions afresh and once from a table
// every other solve of the same dimension has used: every radius, bound
// kind and witness coordinate must agree bit for bit.
func TestConvexRadiiMemoBitIdentical(t *testing.T) {
	defer optimize.ForgetRestartDirections()
	features, p := termsOracleFeatures()
	fresh := make([]core.RadiusResult, len(features))
	for i := range features {
		optimize.ForgetRestartDirections()
		r, err := core.ComputeRadius(features[i], p[i], core.Options{})
		if err != nil {
			t.Fatalf("feature %d: %v", i, err)
		}
		fresh[i] = r
	}
	for i := len(features) - 1; i >= 0; i-- {
		got, err := core.ComputeRadius(features[i], p[i], core.Options{})
		if err != nil {
			t.Fatalf("feature %d: %v", i, err)
		}
		want := fresh[i]
		if math.Float64bits(got.Radius) != math.Float64bits(want.Radius) || got.Kind != want.Kind || len(got.Boundary) != len(want.Boundary) {
			t.Fatalf("feature %d: memoised radius %v (%v), fresh %v (%v)", i, got.Radius, got.Kind, want.Radius, want.Kind)
		}
		for j := range want.Boundary {
			if math.Float64bits(got.Boundary[j]) != math.Float64bits(want.Boundary[j]) {
				t.Fatalf("feature %d: witness coordinate %d is %v memoised, %v fresh", i, j, got.Boundary[j], want.Boundary[j])
			}
		}
	}
}

// termsOracleFeatures rebuilds TestTermsRadiiOracle's features
// (internal/core/terms_test.go) and their perturbations.
func termsOracleFeatures() ([]core.Feature, []core.Perturbation) {
	rng := stats.NewRNG(7)
	var features []core.Feature
	var perts []core.Perturbation
	add := func(c convexfn.Complexity, orig []float64, b core.Bounds) {
		features = append(features, core.Feature{Name: "queue", Bounds: b, Impact: &core.FuncImpact{
			N: len(orig), F: c.Eval, Grad: c.Gradient, Convex: true,
		}})
		perts = append(perts, core.Perturbation{Name: "lambda", Orig: orig})
	}
	var first convexfn.Complexity
	var firstOrig []float64
	for i := 0; i < 200; i++ {
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
		add(c, orig, core.NoMin(c.Eval(orig)*(1.5+rng.Float64())))
		if i == 0 {
			first, firstOrig = c, orig
		}
	}
	v0 := first.Eval(firstOrig)
	add(first, firstOrig, core.NoMax(0.5*v0))
	add(first, firstOrig, core.Bounds{Min: 0.7 * v0, Max: 1.4 * v0})
	return features, perts
}
