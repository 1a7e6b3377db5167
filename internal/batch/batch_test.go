package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"fepia/internal/core"
	"fepia/internal/etcgen"
	"fepia/internal/faults"
	"fepia/internal/hcs"
	"fepia/internal/indalloc"
	"fepia/internal/stats"
)

// paperJobs builds n analysis jobs from random §3.1 mappings of one
// paper-distribution instance.
func paperJobs(t testing.TB, n int, seed int64) []Job {
	t.Helper()
	etc, err := etcgen.Generate(stats.NewRNG(seed), etcgen.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed + 1)
	jobs := make([]Job, n)
	for i := range jobs {
		m := hcs.RandomMapping(rng, inst)
		features, p, err := indalloc.Features(m, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{Features: features, Perturbation: p}
	}
	return jobs
}

// TestAnalyzeMatchesSequential is the engine's core contract: for every
// worker count and cache configuration, batch results must be
// byte-identical to core.Analyze run job by job.
func TestAnalyzeMatchesSequential(t *testing.T) {
	jobs := paperJobs(t, 40, 7)
	want := make([]core.Analysis, len(jobs))
	for i, j := range jobs {
		a, err := core.Analyze(j.Features, j.Perturbation, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Workers: 1}},
		{"parallel", Options{Workers: 8}},
		{"parallel-cached", Options{Workers: 8, Cache: NewCache(0)}},
		{"parallel-cached-1shard", Options{Workers: 8, Cache: NewCacheSharded(0, 1)}},
		{"parallel-cached-4shards", Options{Workers: 8, Cache: NewCacheSharded(0, 4)}},
		{"parallel-cached-64shards", Options{Workers: 8, Cache: NewCacheSharded(0, 64)}},
		{"parallel-cached-shared", Options{Workers: 8, Cache: NewCacheSharded(0, 4), ShareBoundaries: true}},
		{"default-workers", Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Analyze(context.Background(), jobs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch results differ from sequential core.Analyze")
			}
			// A second pass over the same jobs must also be identical —
			// this is the warm-cache path when a cache is configured.
			again, err := Analyze(context.Background(), jobs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("second (warm) batch pass differs from sequential results")
			}
		})
	}
}

func TestAnalyzeEmptyAndInvalid(t *testing.T) {
	if out, err := Analyze(context.Background(), nil, Options{}); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	// An empty feature set must fail exactly like core.Analyze.
	_, err := Analyze(context.Background(), []Job{{Perturbation: core.Perturbation{Name: "π", Orig: []float64{1}}}}, Options{})
	if err == nil {
		t.Fatal("empty feature set should fail")
	}
}

func TestAnalyzeCancellation(t *testing.T) {
	jobs := paperJobs(t, 16, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, jobs, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 257
	counts := make([]int32, n)
	var mu sync.Mutex
	err := ForEach(context.Background(), n, 7, func(i int) error {
		mu.Lock()
		counts[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	boom := fmt.Errorf("boom")
	err := ForEach(context.Background(), 100, 4, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if err := ForEach(context.Background(), 0, 4, func(int) error { return boom }); err != nil {
		t.Fatalf("n=0 should be a no-op, got %v", err)
	}
}

// TestForEachPoolOfOne: a one-worker pool runs the tasks in order on
// the caller's goroutine and keeps the pooled contract — a cancelled
// context runs nothing, and a panicking task becomes the error that
// stops the rest.
func TestForEachPoolOfOne(t *testing.T) {
	var order []int
	err := ForEach(context.Background(), 5, 1, func(i int) error {
		order = append(order, i) // no lock: one goroutine
		if i == 2 {
			panic("bad task")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "batch: task 2 panicked: bad task") {
		t.Fatalf("err = %v, want the task 2 panic", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("ran %v, want [0 1 2]", order)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := ForEach(ctx, 1, 4, func(int) error { ran = true; return nil }); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("cancelled pool of one: err %v, ran %v", err, ran)
	}
}

// TestForEachWorkerLabelSurvivesRetry: a retried solve must not strip
// the batch_worker profiler label ForEach gave its worker. Two workers
// each solve a job whose first feature meets one scripted solve fault
// (retried away on one of them) and whose second feature parks inside
// its impact evaluation; a goroutine profile taken while both are
// parked must show both parked workers still labelled.
func TestForEachWorkerLabelSurvivesRetry(t *testing.T) {
	inj := faults.NewScript().At(faults.Solve, 1, faults.KindError)
	opts := Options{Workers: 1, Retry: &faults.Policy{
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}}
	p := core.Perturbation{Name: "π", Orig: []float64{1, 1}}
	gates := []*gateImpact{newGateImpact(), newGateImpact()}
	done := make(chan error, 1)
	go func() {
		done <- ForEach(context.Background(), len(gates), 2, func(i int) error {
			job := Job{Perturbation: p, Features: []core.Feature{
				{Name: fmt.Sprintf("plain%d", i), Bounds: core.NoMin(9), Impact: &core.FuncImpact{N: 2, Convex: true,
					F: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }}},
				{Name: fmt.Sprintf("gate%d", i), Bounds: core.NoMin(9), Impact: &core.FuncImpact{N: 2, Convex: true, F: gates[i].eval}},
			}}
			_, err := AnalyzeOneContext(faults.With(context.Background(), inj), job, opts)
			return err
		})
	}()
	for _, g := range gates {
		<-g.entered
	}
	var prof bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		close(g.release)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := inj.Calls(faults.Solve); got != 5 {
		t.Fatalf("%d solve injections, want 5 (4 features, one retried)", got)
	}

	// After a "goroutine profile: total N" header, records are blank-line
	// separated: "<count> @ <pcs>", an optional "# labels: {…}" line,
	// then the stack.
	_, records, _ := strings.Cut(prof.String(), "\n")
	parked, labelled := 0, 0
	for _, rec := range strings.Split(records, "\n\n") {
		if !strings.Contains(rec, "(*gateImpact).eval") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(rec, "%d @", &n); err != nil {
			t.Fatalf("unparsable profile record: %v\n%s", err, rec)
		}
		parked += n
		if strings.Contains(rec, `"batch_worker":`) {
			labelled += n
		}
	}
	if parked != 2 || labelled != 2 {
		t.Fatalf("%d of %d parked workers carry batch_worker, want 2 of 2:\n%s", labelled, parked, prof.String())
	}
}

// TestAnalyzeBatchRaceHammer drives one shared engine + cache from many
// goroutines with a mix of identical and distinct inputs. Run under the
// race detector by the tier-2 target (go test -race ./internal/batch/...).
func TestAnalyzeBatchRaceHammer(t *testing.T) {
	shared := paperJobs(t, 6, 23) // identical across goroutines → cache contention
	distinct := make([][]Job, 16) // per-goroutine inputs
	for g := range distinct {
		distinct[g] = paperJobs(t, 4, int64(100+g))
	}
	cache := NewCache(64) // small: forces concurrent eviction too
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, jobs := range [][]Job{shared, distinct[g]} {
					if _, err := Analyze(context.Background(), jobs, Options{Workers: 2, Cache: cache}); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("expected cache hits under contention, got %+v", st)
	}
}
