package core

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"fepia/internal/vecmath"
)

// sphereFeature: impact ‖π‖² with analytic gradient, violated at β — the
// convex model system whose radius from the origin is √β.
func sphereFeature(beta float64) Feature {
	return Feature{
		Name: "sphere",
		Impact: &FuncImpact{
			N:      2,
			F:      func(pi []float64) float64 { return vecmath.Dot(pi, pi) },
			Convex: true,
		},
		Bounds: NoMin(beta),
	}
}

// With a context that never expires, the anytime entry point must be
// bit-identical to ComputeRadius — same solvers, same options, same
// order — whether or not the context can expire: a far deadline turns
// the certification on, and its probes must never feed back.
func TestAnytimeBitIdenticalWithoutDeadline(t *testing.T) {
	lin, err := NewLinearImpact([]float64{3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Feature{
		sphereFeature(25),
		{Name: "lin", Impact: lin, Bounds: NoMin(25)},
		{Name: "nonconvex", Impact: &FuncImpact{
			N: 2,
			F: func(pi []float64) float64 {
				d := pi[0] - 2
				return d*d*d*d - 8*d*d + pi[1]*pi[1]
			},
		}, Bounds: NoMin(5)},
	}
	far, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	p := Perturbation{Name: "π", Orig: []float64{1, 0}}
	for _, f := range cases {
		plain, perr := ComputeRadius(f, p, Options{})
		for _, ctx := range []context.Context{context.Background(), far} {
			any, aerr := ComputeRadiusAnytime(ctx, f, p, Options{}, nil)
			if (perr == nil) != (aerr == nil) {
				t.Fatalf("%s: errors diverge: %v vs %v", f.Name, perr, aerr)
			}
			if math.Float64bits(plain.Radius) != math.Float64bits(any.Radius) {
				t.Fatalf("%s: radius %v != %v (not bit-identical)", f.Name, plain.Radius, any.Radius)
			}
			if plain.Kind != any.Kind || plain.Method != any.Method {
				t.Fatalf("%s: kind/method %v/%v != %v/%v", f.Name, plain.Kind, plain.Method, any.Kind, any.Method)
			}
			for i := range plain.Boundary {
				if math.Float64bits(plain.Boundary[i]) != math.Float64bits(any.Boundary[i]) {
					t.Fatalf("%s: boundary[%d] %v != %v", f.Name, i, plain.Boundary[i], any.Boundary[i])
				}
			}
		}
	}
}

// The progress stream must be strictly increasing and every value — the
// final one included — must stay at or below the converged radius (the
// certificates are mathematical; allow only the solver's own tolerance).
func TestAnytimeBoundsMonotoneBelowExact(t *testing.T) {
	f := sphereFeature(25)
	p := Perturbation{Name: "π", Orig: []float64{1, 0}} // radius 4: (5,0) is nearest violation
	var bounds []float64
	res, err := ComputeRadiusAnytime(context.Background(), f, p, Options{},
		func(lb float64) { bounds = append(bounds, lb) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Radius-4) > 1e-6 {
		t.Fatalf("radius = %v, want 4", res.Radius)
	}
	if len(bounds) == 0 {
		t.Fatal("no certified bounds reported")
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Fatalf("bounds not monotone: %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, bounds)
		}
	}
	slack := 1e-9 * (1 + res.Radius)
	if last := bounds[len(bounds)-1]; last > res.Radius+slack {
		t.Fatalf("certified bound %v exceeds converged radius %v", last, res.Radius)
	}
	if last := bounds[len(bounds)-1]; last <= 0 {
		t.Fatalf("final bound %v not positive", last)
	}
}

// An expired deadline yields a partial answer: Kind == LowerBound,
// Method == MethodAnytime, nil Boundary, nil error — and the partial
// radius is a true lower bound on the exact one.
func TestAnytimeDeadlinePartial(t *testing.T) {
	f := sphereFeature(25)
	p := Perturbation{Name: "π", Orig: []float64{1, 0}}
	exact, err := ComputeRadius(f, p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancel()
	partial, err := ComputeRadiusAnytime(ctx, f, p, Options{}, nil)
	if err != nil {
		t.Fatalf("deadline expiry must not be an error in anytime mode: %v", err)
	}
	if partial.Kind != LowerBound || partial.Method != MethodAnytime {
		t.Fatalf("partial = %+v, want Kind=LowerBound Method=anytime", partial)
	}
	if partial.Boundary != nil {
		t.Fatalf("partial answer carries a boundary point: %v", partial.Boundary)
	}
	if partial.Radius < 0 || partial.Radius > exact.Radius+1e-9 {
		t.Fatalf("partial radius %v outside [0, exact=%v]", partial.Radius, exact.Radius)
	}
	if partial.Kind.String() != "lower" {
		t.Fatalf("LowerBound renders as %q on the wire, want \"lower\"", partial.Kind.String())
	}
}

// Cancellation that is not a deadline propagates as an error, exactly
// like the rest of the engine: a gone client gets nothing, not a bound.
func TestAnytimeCancelledPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ComputeRadiusAnytime(ctx, sphereFeature(25), Perturbation{Name: "π", Orig: []float64{1, 0}}, Options{}, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A non-convex impact certifies nothing: under an expired deadline the
// partial answer is the trivial bound 0, never a guess from a partial
// annealing run.
func TestAnytimeNonConvexUncertified(t *testing.T) {
	f := Feature{Name: "w", Impact: &FuncImpact{
		N: 2,
		F: func(pi []float64) float64 {
			d := pi[0] - 2
			return d*d*d*d - 8*d*d + pi[1]*pi[1]
		},
	}, Bounds: NoMin(5)}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancel()
	res, err := ComputeRadiusAnytime(ctx, f, Perturbation{Name: "π", Orig: []float64{2, 0}}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != LowerBound || res.Radius != 0 {
		t.Fatalf("non-convex partial = %+v, want the trivial bound 0", res)
	}
}

// Linear impacts are closed-form: the deadline is irrelevant and the
// answer stays exact even under an already-expired context (matching the
// analytic kernel's behaviour).
func TestAnytimeLinearExactUnderDeadline(t *testing.T) {
	lin, err := NewLinearImpact([]float64{3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := Feature{Name: "lin", Impact: lin, Bounds: NoMin(25)}
	p := Perturbation{Name: "π", Orig: []float64{1, 0}}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancel()
	var got []float64
	res, err := ComputeRadiusAnytime(ctx, f, p, Options{}, func(lb float64) { got = append(got, lb) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind == LowerBound {
		t.Fatalf("linear radius degraded to a bound: %+v", res)
	}
	exact, _ := ComputeRadius(f, p, Options{})
	if math.Float64bits(res.Radius) != math.Float64bits(exact.Radius) {
		t.Fatalf("radius %v != exact %v", res.Radius, exact.Radius)
	}
	if len(got) != 1 || got[0] != res.Radius {
		t.Fatalf("progress for an exact linear answer = %v, want one report of the radius", got)
	}
}
