package core

import (
	"errors"
	"math"
	"testing"

	"fepia/internal/vecmath"
)

// TestComputeRadiusEdgeContract pins what ComputeRadius answers at the
// edges of Eq. 1, whatever path inside core produces it: the errors, the
// zero and infinite radii, and which side a one-sided or rejected
// feature names.
func TestComputeRadiusEdgeContract(t *testing.T) {
	lin := func(offset float64, coeffs ...float64) Impact {
		l, err := NewLinearImpact(coeffs, offset)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	nan := &FuncImpact{N: 2, F: func([]float64) float64 { return math.NaN() }, Convex: true}
	sphere := sphereFeature(25).Impact // ‖π‖², convex
	orig := []float64{1, 0}            // 3π₁+4π₂ = 3 and ‖π‖² = 1 here
	inf := math.Inf(1)
	both := Bounds{Min: math.Inf(-1), Max: inf}

	cases := []struct {
		name   string
		impact Impact
		bounds Bounds
		norm   vecmath.Norm
		// err, when set, checks the error; the result is then not read.
		err      func(error) bool
		kind     BoundKind
		method   Method
		radius   float64 // compared to within tol
		tol      float64
		boundary []float64 // nil: the result must carry none
	}{
		{name: "NaN at the operating point", impact: nan, bounds: NoMin(1),
			err: func(err error) bool { return err != nil && !errors.As(err, new(*SolveError)) }},
		{name: "already violated", impact: lin(0, 3, 4), bounds: NoMin(1),
			kind: AlreadyViolated, method: MethodNone, boundary: orig},
		{name: "both bounds infinite, linear, ℓ₂", impact: lin(0, 3, 4), bounds: both,
			kind: Unreachable, method: MethodNone, radius: inf},
		{name: "both bounds infinite, linear, ℓ₁", impact: lin(0, 3, 4), bounds: both, norm: vecmath.L1{},
			kind: Unreachable, method: MethodNone, radius: inf},
		{name: "both bounds infinite, convex, ℓ₂", impact: sphere, bounds: both,
			kind: Unreachable, method: MethodNone, radius: inf},
		{name: "both bounds infinite, convex, ℓ₁", impact: sphere, bounds: both, norm: vecmath.L1{},
			kind: Unreachable, method: MethodNone, radius: inf},
		{name: "non-ℓ₂ nonlinear, two-sided", impact: sphere, bounds: Bounds{Min: 0.25, Max: 25}, norm: vecmath.L1{},
			err: solveErrorAt(AtMax)},
		{name: "non-ℓ₂ nonlinear, β^min only", impact: sphere, bounds: NoMax(0.25), norm: vecmath.LInf{},
			err: solveErrorAt(AtMin)},
		{name: "constant linear off β", impact: lin(3, 0, 0), bounds: NoMin(5),
			kind: Unreachable, method: MethodNone, radius: inf},
		{name: "constant linear on β^max", impact: lin(3, 0, 0), bounds: NoMin(3),
			kind: AtMax, method: MethodHyperplane, boundary: orig},
		{name: "constant linear on β^min", impact: lin(3, 0, 0), bounds: NoMax(3),
			kind: AtMin, method: MethodHyperplane, boundary: orig},
		{name: "linear, β^max only", impact: lin(0, 3, 4), bounds: NoMin(8),
			kind: AtMax, method: MethodHyperplane, radius: 1, boundary: []float64{1.6, 0.8}},
		{name: "linear, β^min only", impact: lin(0, 3, 4), bounds: NoMax(-2),
			kind: AtMin, method: MethodHyperplane, radius: 1, boundary: []float64{0.4, -0.8}},
		{name: "convex, β^max only", impact: sphere, bounds: NoMin(25),
			kind: AtMax, method: MethodConvex, radius: 4, tol: 1e-6, boundary: []float64{5, 0}},
		{name: "convex, β^min only", impact: sphere, bounds: NoMax(0.25),
			kind: AtMin, method: MethodConvex, radius: 0.5, tol: 1e-6, boundary: []float64{0.5, 0}},
	}
	for _, tc := range cases {
		p := Perturbation{Name: "π", Orig: vecmath.Clone(orig)}
		res, err := ComputeRadius(Feature{Name: "φ", Impact: tc.impact, Bounds: tc.bounds}, p, Options{Norm: tc.norm})
		if tc.err != nil {
			if !tc.err(err) {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if res.Feature != "φ" || res.Kind != tc.kind || res.Method != tc.method {
			t.Errorf("%s: feature/kind/method %q/%v/%v, want φ/%v/%v", tc.name, res.Feature, res.Kind, res.Method, tc.kind, tc.method)
		}
		if !(res.Radius == tc.radius || math.Abs(res.Radius-tc.radius) <= tc.tol) {
			t.Errorf("%s: radius %v, want %v", tc.name, res.Radius, tc.radius)
		}
		if tc.boundary == nil {
			if res.Boundary != nil {
				t.Errorf("%s: boundary %v, want none", tc.name, res.Boundary)
			}
			continue
		}
		if len(res.Boundary) != len(tc.boundary) {
			t.Errorf("%s: boundary %v, want %v", tc.name, res.Boundary, tc.boundary)
			continue
		}
		for i, want := range tc.boundary {
			if math.Abs(res.Boundary[i]-want) > tc.tol+1e-15 {
				t.Errorf("%s: boundary %v, want %v", tc.name, res.Boundary, tc.boundary)
				break
			}
		}
		// A boundary is the caller's own copy, never the operating point.
		res.Boundary[0] = 99
		if p.Orig[0] != orig[0] {
			t.Errorf("%s: the boundary aliases the operating point", tc.name)
		}
	}
}

// solveErrorAt accepts a *SolveError naming side kind and wrapping
// ErrNormUnsupported.
func solveErrorAt(kind BoundKind) func(error) bool {
	return func(err error) bool {
		var se *SolveError
		return errors.As(err, &se) && se.Kind == kind && errors.Is(err, ErrNormUnsupported)
	}
}

// A linear radius is two hyperplane projections: the witness point of
// each side is its only allocation, 8 dimensions or not.
func TestComputeRadiusLinearAllocs(t *testing.T) {
	f := Feature{Name: "φ", Impact: &LinearImpact{Coeffs: []float64{1, 2, 3, 4, 5, 6, 7, 8}}, Bounds: Bounds{Min: -100, Max: 100}}
	p := Perturbation{Name: "π", Orig: []float64{1, 1, 1, 1, 1, 1, 1, 1}}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { _, err = ComputeRadius(f, p, Options{}) }); allocs > 2 {
		t.Errorf("linear ComputeRadius allocates %v times per call, want ≤ 2", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// A FuncImpact whose Support is not strictly increasing within [0, N)
// is a malformed feature: ComputeRadius rejects it as a validation error
// before any solve, not as an engine failure.
func TestComputeRadiusMalformedSupport(t *testing.T) {
	p := Perturbation{Name: "π", Orig: []float64{1, 0}}
	for _, support := range [][]int{{1, 0}, {1, 1}, {2}, {-1}} {
		f := sphereFeature(25)
		fi := *f.Impact.(*FuncImpact)
		fi.Support = support
		f.Impact = &fi
		_, err := ComputeRadius(f, p, Options{})
		var se *SolveError
		if err == nil || errors.As(err, &se) {
			t.Errorf("support %v: err = %v, want a validation error", support, err)
		}
	}
}
