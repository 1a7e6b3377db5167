package batch

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fepia/internal/core"
	"fepia/internal/faults"
)

// gateImpact is a convex impact whose first evaluation parks until
// released, so a test can hold a singleflight leader mid-solve while
// waiters pile onto its flight. evals counts every Eval call; the solver
// is deterministic, so a fixed subproblem costs a fixed number of
// evaluations and the total counts solves exactly.
type gateImpact struct {
	evals   atomic.Int64
	entered chan struct{} // closed when the first Eval begins
	release chan struct{} // Eval proceeds once this is closed
	once    sync.Once
}

// gateFingerprint is the cache identity of a gateImpact's ‖π‖²: the
// cache memoises only impacts it can identify by content.
var gateFingerprint = []byte("gate-sum-of-squares")

func newGateImpact() *gateImpact {
	return &gateImpact{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateImpact) eval(x []float64) float64 {
	g.evals.Add(1)
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return x[0]*x[0] + x[1]*x[1]
}

// waitFor polls cond until it holds or the deadline passes — chaos tests
// must never hang on a broken singleflight, they must fail.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightSingleCompute is the dedup contract: N concurrent
// misses on one key run core.ComputeRadius exactly once. The leader is
// parked inside its first impact evaluation until every other goroutine
// has joined its flight, so the schedule cannot race past the window;
// the deterministic solver's evaluation count then proves one solve.
func TestSingleflightSingleCompute(t *testing.T) {
	const workers = 8
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}

	// Price one solo solve of the same subproblem (same seed, same
	// options) so the concurrent run has an exact evaluation budget.
	solo := newGateImpact()
	close(solo.release)
	fSolo := core.Feature{Name: "q", Impact: &core.FuncImpact{N: 2, F: solo.eval, Convex: true, Fingerprint: gateFingerprint}, Bounds: core.NoMin(9)}
	want, err := core.ComputeRadius(fSolo, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evalsPerSolve := solo.evals.Load()

	g := newGateImpact()
	f := core.Feature{Name: "q", Impact: &core.FuncImpact{N: 2, F: g.eval, Convex: true, Fingerprint: gateFingerprint}, Bounds: core.NoMin(9)}
	c := NewCacheSharded(64, 8)

	results := make([]core.RadiusResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = c.Radius(f, p, core.Options{})
		}()
	}

	// Leader is inside Eval; hold it until the other workers are parked
	// on its flight.
	<-g.entered
	waitFor(t, "waiters to coalesce", func() bool { return c.Stats().DupSuppressed == workers-1 })
	close(g.release)
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w].Radius != want.Radius || results[w].Kind != want.Kind {
			t.Fatalf("worker %d diverged: %+v vs %+v", w, results[w], want)
		}
	}
	if got := g.evals.Load(); got != evalsPerSolve {
		t.Fatalf("impact evaluated %d times, want %d (exactly one solve)", got, evalsPerSolve)
	}
	st := c.Stats()
	if st.Misses != 1 || st.DupSuppressed != workers-1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss / %d dups / 0 hits", st, workers-1)
	}
	if st.Size != 1 {
		t.Fatalf("size = %d, want the one shared entry", st.Size)
	}
}

// TestSingleflightLeaderErrorPropagates parks waiters on a leader whose
// solve fails, and requires the leader's error verbatim at every waiter
// with nothing cached — a failed solve must be retried by a future
// caller, not memoised.
func TestSingleflightLeaderErrorPropagates(t *testing.T) {
	const workers = 6
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}
	g := newGateImpact()
	// NaN at the operating point is a deterministic ComputeRadius error —
	// but only after the gated first Eval, so waiters have time to park.
	impact := &core.FuncImpact{N: 2, F: func(x []float64) float64 {
		g.eval(x)
		return nan()
	}, Convex: true, Fingerprint: []byte("gate-nan")}
	f := core.Feature{Name: "bad", Impact: impact, Bounds: core.NoMin(9)}
	c := NewCacheSharded(64, 8)

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = c.Radius(f, p, core.Options{})
		}()
	}
	<-g.entered
	waitFor(t, "waiters to coalesce", func() bool { return c.Stats().DupSuppressed == workers-1 })
	close(g.release)
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] == nil || !strings.Contains(errs[w].Error(), "NaN") {
			t.Fatalf("worker %d: error = %v, want the leader's NaN failure", w, errs[w])
		}
	}
	st := c.Stats()
	if st.Size != 0 {
		t.Fatalf("a failed solve was cached: %+v", st)
	}
	if st.Misses != 1 || st.DupSuppressed != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d dups", st, workers-1)
	}

	// The failure is not sticky: the key is free again, so a fresh call
	// leads a fresh attempt (and fails the same way, as a new leader).
	if _, err := c.Radius(f, p, core.Options{}); err == nil {
		t.Fatal("second attempt should re-solve and fail again")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want a second leader miss", st)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestSingleflightChaosPutFaultOnLeader is the PR 3 chaos-suite extension
// for the singleflight layer: a cache_put fault firing on the leader
// while waiters are parked must not deadlock them and must not poison the
// cache — every caller still receives the computed result, the insert is
// dropped and accounted, and a subsequent Lookup misses.
func TestSingleflightChaosPutFaultOnLeader(t *testing.T) {
	const workers = 6
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}
	g := newGateImpact()
	f := core.Feature{Name: "q", Impact: &core.FuncImpact{N: 2, F: g.eval, Convex: true, Fingerprint: gateFingerprint}, Bounds: core.NoMin(9)}
	c := NewCacheSharded(64, 8)

	// Exactly one cache_put consult happens (the leader's); fail it.
	inj := faults.NewScript().At(faults.CachePut, 1, faults.KindError)
	ctx := faults.With(context.Background(), inj)

	results := make([]core.RadiusResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = c.RadiusContext(ctx, f, p, core.Options{})
		}()
	}
	<-g.entered
	waitFor(t, "waiters to coalesce", func() bool { return c.Stats().DupSuppressed == workers-1 })
	close(g.release)
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: put fault must not fail the call: %v", w, errs[w])
		}
		if results[w].Radius != results[0].Radius {
			t.Fatalf("worker %d diverged from the shared result", w)
		}
	}
	st := c.Stats()
	if st.PutFailures != 1 {
		t.Fatalf("put failures = %d, want the leader's dropped insert", st.PutFailures)
	}
	if st.Size != 0 {
		t.Fatalf("dropped insert still landed in the cache: %+v", st)
	}
	if _, ok := c.Lookup(f, p, core.Options{}); ok {
		t.Fatal("Lookup found an entry the put fault should have dropped")
	}
	if got := inj.Calls(faults.CachePut); got != 1 {
		t.Fatalf("cache_put consulted %d times, want 1 (the leader only)", got)
	}
}

// TestSingleflightChaosPanicFaultOnLeader injects a panic-kind fault at
// the leader's cache_put: the leader's caller sees the panic (recovered
// into a typed solve failure by the engine's per-feature isolation), the
// parked waiters receive the injected error instead of deadlocking, and
// the cache stays clean. The waiters' error keeps its injected-fault
// identity, so the retry layer still classifies it as transient.
func TestSingleflightChaosPanicFaultOnLeader(t *testing.T) {
	const workers = 5
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}
	g := newGateImpact()
	f := core.Feature{Name: "q", Impact: &core.FuncImpact{N: 2, F: g.eval, Convex: true, Fingerprint: gateFingerprint}, Bounds: core.NoMin(9)}
	c := NewCacheSharded(64, 8)

	inj := faults.NewScript().At(faults.CachePut, 1, faults.KindPanic)
	ctx := faults.With(context.Background(), inj)

	errs := make([]error, workers)
	var panics atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panics.Add(1)
					if _, ok := rec.(*faults.InjectedError); !ok {
						t.Errorf("worker %d: panic value %v, want the injected fault", w, rec)
					}
				}
			}()
			_, errs[w] = c.RadiusContext(ctx, f, p, core.Options{})
		}()
	}
	<-g.entered
	waitFor(t, "waiters to coalesce", func() bool { return c.Stats().DupSuppressed == workers-1 })
	close(g.release)
	wg.Wait()

	if got := panics.Load(); got != 1 {
		t.Fatalf("%d goroutines panicked, want only the leader", got)
	}
	var ie *faults.InjectedError
	failed := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			failed++
			if !errors.As(errs[w], &ie) {
				t.Fatalf("worker %d: error %v lost its injected-fault identity", w, errs[w])
			}
		}
	}
	if failed != workers-1 {
		t.Fatalf("%d waiters saw the leader's failure, want %d", failed, workers-1)
	}
	st := c.Stats()
	if st.Size != 0 {
		t.Fatalf("a panicked put left a cache entry: %+v", st)
	}

	// The flight is gone: the same key solves cleanly afterwards.
	got, err := c.RadiusContext(context.Background(), f, p, core.Options{})
	if err != nil {
		t.Fatalf("post-panic solve: %v", err)
	}
	if got.Feature != "q" {
		t.Fatalf("post-panic solve returned %+v", got)
	}
}

// TestSingleflightChaosWaiterCancellation parks waiters, cancels one of
// their contexts, and requires the cancelled waiter to return promptly
// with ctx.Err() while the remaining waiters still receive the leader's
// result.
func TestSingleflightChaosWaiterCancellation(t *testing.T) {
	const workers = 4
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}
	g := newGateImpact()
	f := core.Feature{Name: "q", Impact: &core.FuncImpact{N: 2, F: g.eval, Convex: true, Fingerprint: gateFingerprint}, Bounds: core.NoMin(9)}
	c := NewCacheSharded(64, 8)

	cancelCtx, cancel := context.WithCancel(context.Background())
	errs := make([]error, workers)
	var wg sync.WaitGroup
	// Worker 0 starts alone and is parked inside its solve before anyone
	// else is launched, so it is provably the leader and the cancelled
	// caller below is provably a waiter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = c.RadiusContext(context.Background(), f, p, core.Options{})
	}()
	<-g.entered
	cancelledErr := make(chan error, 1)
	for w := 1; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if w == workers-1 {
				ctx = cancelCtx
			}
			_, errs[w] = c.RadiusContext(ctx, f, p, core.Options{})
			if w == workers-1 {
				cancelledErr <- errs[w]
			}
		}()
	}
	waitFor(t, "waiters to coalesce", func() bool { return c.Stats().DupSuppressed == workers-1 })
	cancel()
	// The cancelled caller must unpark without the leader finishing...
	select {
	case err := <-cancelledErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never unparked while the leader was held")
	}
	// ...and everyone else completes once the leader is released.
	close(g.release)
	wg.Wait()

	cancelled, succeeded := 0, 0
	for w := 0; w < workers; w++ {
		switch {
		case errs[w] == nil:
			succeeded++
		case errors.Is(errs[w], context.Canceled):
			cancelled++
		default:
			t.Fatalf("worker %d: unexpected error %v", w, errs[w])
		}
	}
	if cancelled != 1 || succeeded != workers-1 {
		t.Fatalf("cancelled=%d succeeded=%d, want 1/%d", cancelled, succeeded, workers-1)
	}
}
