package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"fepia/internal/vecmath"
)

// sphereObjective is ‖x‖² with its analytic gradient: the convex model
// problem whose level-set distances are known in closed form.
func sphereObjective() Objective {
	return Objective{
		F: func(x []float64) float64 { return vecmath.Dot(x, x) },
		Grad: func(dst, x []float64) []float64 {
			if len(dst) != len(x) {
				dst = make([]float64, len(x))
			}
			for i, v := range x {
				dst[i] = 2 * v
			}
			return dst
		},
	}
}

// The bit-identity contract: the certified bound stream and a context
// that can expire only observe the solve, so under a deadline that never
// arrives the solver runs the same iterates to the same answer as under
// a background context, down to the float bits.
func TestMinNormCtxBitIdentical(t *testing.T) {
	objs := []Objective{affineObjective([]float64{2, -1, 3}), sphereObjective()}
	// Both levels are approached from above, where the bounds fire.
	starts := [][]float64{{1, 1, 1}, {6, 0, 0}}
	targets := []float64{-2, 25}
	far, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for i := range objs {
		plain, perr := MinNormToLevelSet(context.Background(), objs[i], starts[i], targets[i], DefaultOptions(), nil)
		bounds := 0
		ctxed, cerr := MinNormToLevelSet(far, objs[i], starts[i], targets[i], DefaultOptions(), func(float64) { bounds++ })
		if (perr == nil) != (cerr == nil) {
			t.Fatalf("case %d: errors diverge: %v vs %v", i, perr, cerr)
		}
		if math.Float64bits(plain.Distance) != math.Float64bits(ctxed.Distance) {
			t.Fatalf("case %d: distance %v != %v (not bit-identical)", i, plain.Distance, ctxed.Distance)
		}
		for j := range plain.X {
			if math.Float64bits(plain.X[j]) != math.Float64bits(ctxed.X[j]) {
				t.Fatalf("case %d: X[%d] %v != %v", i, j, plain.X[j], ctxed.X[j])
			}
		}
		if bounds == 0 {
			t.Fatalf("case %d: no bound was reported", i)
		}
	}
}

// Reported lower bounds must tighten monotonically and never exceed the
// converged distance (the bound is certified, the solve is iterative —
// allow the solver's own tolerance on the final comparison).
func TestMinNormCtxBoundsMonotoneAndValid(t *testing.T) {
	obj := sphereObjective()
	x0 := []float64{1, 0}
	// From above the level: f(x0)=26 > 25 never happens here; use a start
	// outside the ball so the halfspace certificate fires: f(6,0)=36>25,
	// true distance to {‖x‖²=25} is 1.
	x0 = []float64{6, 0}
	var bounds []float64
	res, err := MinNormToLevelSet(context.Background(), obj, x0, 25, DefaultOptions(),
		func(lb float64) { bounds = append(bounds, lb) })
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) == 0 {
		t.Fatal("no lower bounds reported from above the level set")
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Fatalf("bounds not monotone: %v", bounds)
	}
	last := bounds[len(bounds)-1]
	if last <= 0 {
		t.Fatalf("final bound %v not positive", last)
	}
	slack := 1e-9 * (1 + math.Abs(res.Distance))
	if last > res.Distance+slack {
		t.Fatalf("certified bound %v exceeds converged distance %v", last, res.Distance)
	}
	if math.Abs(res.Distance-1) > 1e-6 {
		t.Fatalf("distance = %v, want 1", res.Distance)
	}
}

// An already-expired context still returns the x0-certificate bound (the
// pre-loop observe) and the context error, never a hang or a panic.
func TestMinNormCtxExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var bounds []float64
	_, err := MinNormToLevelSet(ctx, sphereObjective(), []float64{6, 0}, 25, DefaultOptions(),
		func(lb float64) { bounds = append(bounds, lb) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(bounds) == 0 {
		t.Fatal("expired context reported no x0 certificate")
	}
	// The x0 halfspace bound for ‖x‖²=25 from (6,0): (36−25)/‖(12,0)‖ = 11/12.
	if got, want := bounds[0], 11.0/12.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("x0 certificate = %v, want %v", got, want)
	}
}

// CertifyLevelBelow from inside the level set: distance from the origin
// to {‖x‖²=25} is 5; the cross-polytope certificate reaches 5/√n·(search
// resolution) — strictly positive, never above the true distance.
func TestCertifyLevelBelow(t *testing.T) {
	obj := sphereObjective()
	n := 2
	x0 := make([]float64, n)
	var bounds []float64
	lb := CertifyLevelBelow(context.Background(), obj, x0, 25, DefaultOptions(),
		func(b float64) { bounds = append(bounds, b) })
	if lb <= 0 {
		t.Fatalf("no certificate from strictly inside the level set: %v", lb)
	}
	truth := 5.0
	if lb > truth {
		t.Fatalf("certified %v exceeds the true distance %v", lb, truth)
	}
	// The inscribed-ball bound t/√n can reach truth/1 only at t=truth·√n…
	// but safe(t) caps t where a vertex reaches the level: t < truth. So
	// the best achievable is truth/√2 ≈ 3.53; require most of it.
	if want := truth / math.Sqrt(float64(n)); lb < 0.9*want {
		t.Fatalf("certificate %v is far below the achievable %v", lb, want)
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Fatalf("reported bounds not monotone: %v", bounds)
	}
}

// From on or above the level there is nothing to certify: the distance
// could be zero.
func TestCertifyLevelBelowOutside(t *testing.T) {
	obj := sphereObjective()
	if lb := CertifyLevelBelow(context.Background(), obj, []float64{6, 0}, 25, DefaultOptions(), nil); lb != 0 {
		t.Fatalf("certificate %v from above the level, want 0", lb)
	}
	if lb := CertifyLevelBelow(context.Background(), obj, []float64{5, 0}, 25, DefaultOptions(), nil); lb != 0 {
		t.Fatalf("certificate %v from on the level, want 0", lb)
	}
}

// AnnealMinDistance under a deadline that never arrives is bit-identical
// to a background run, and an expired context surfaces ctx.Err.
func TestAnnealCtx(t *testing.T) {
	obj := Objective{F: func(x []float64) float64 {
		// The W-shaped double well of the non-convex anneal tests.
		d := x[0] - 2
		return d*d*d*d - 8*d*d + x[1]*x[1]
	}}
	x0 := []float64{2, 0}
	far, cancelFar := context.WithTimeout(context.Background(), time.Hour)
	defer cancelFar()
	plain, perr := AnnealMinDistance(context.Background(), obj, x0, 5, DefaultAnnealOptions())
	ctxed, cerr := AnnealMinDistance(far, obj, x0, 5, DefaultAnnealOptions())
	if (perr == nil) != (cerr == nil) {
		t.Fatalf("errors diverge: %v vs %v", perr, cerr)
	}
	if math.Float64bits(plain.Distance) != math.Float64bits(ctxed.Distance) {
		t.Fatalf("distance %v != %v (not bit-identical)", plain.Distance, ctxed.Distance)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnnealMinDistance(expired, obj, x0, 5, DefaultAnnealOptions()); err != context.Canceled {
		t.Fatalf("expired anneal err = %v, want context.Canceled", err)
	}
}

// An empty operating point has no direction to search: both solvers
// reject it at once instead of spinning on zero-norm draws or indexing
// past the end of the point.
func TestEmptyStartRejected(t *testing.T) {
	konst := Objective{F: func([]float64) float64 { return 0 }}
	for _, tc := range []struct {
		name  string
		solve func() error
	}{
		{"minnorm", func() error {
			_, err := MinNormToLevelSet(context.Background(), konst, []float64{}, 1, DefaultOptions(), nil)
			return err
		}},
		{"anneal", func() error {
			_, err := AnnealMinDistance(context.Background(), konst, []float64{}, 1, DefaultAnnealOptions())
			return err
		}},
	} {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if rec := recover(); rec != nil {
					done <- fmt.Errorf("panic: %v", rec)
				}
			}()
			done <- tc.solve()
		}()
		select {
		case err := <-done:
			if !errors.Is(err, errEmptyStart) {
				t.Errorf("%s: err = %v, want errEmptyStart", tc.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: no answer within 5 s", tc.name)
		}
	}
}
