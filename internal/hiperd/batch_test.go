package hiperd

import (
	"context"
	"reflect"
	"testing"

	"fepia/internal/batch"
	"fepia/internal/faults"
	"fepia/internal/stats"
)

// TestEvaluateBatchMatchesSequential pins the engine contract on the §3.2
// system: batched, cached, parallel evaluation must reproduce Evaluate
// byte for byte, mapping by mapping.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	sys, err := GenerateSystem(stats.NewRNG(2003), PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	ms := make([]Mapping, 30)
	for i := range ms {
		ms[i] = RandomMapping(rng, sys)
	}
	want := make([]Result, len(ms))
	for i, m := range ms {
		res, err := Evaluate(sys, m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, opts := range []batch.Options{
		{Workers: 1},
		{Workers: 8},
		{Workers: 8, Cache: batch.NewCache(0)},
	} {
		got, err := EvaluateBatch(context.Background(), sys, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("EvaluateBatch(workers=%d, cache=%v) differs from sequential Evaluate",
				opts.Workers, opts.Cache != nil)
		}
	}
	// The population shares hyperplane subproblems across mappings: the
	// cache must observe real cross-mapping hits.
	cache := batch.NewCache(0)
	if _, err := EvaluateBatch(context.Background(), sys, ms, batch.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("expected cross-mapping cache hits on the §4.3 population, got %+v", st)
	}
}

// EvaluateBatch solves each mapping's features under the caller's
// context, so what the context carries — here a fault injector with an
// empty schedule — reaches every per-feature solve.
func TestEvaluateBatchCarriesContext(t *testing.T) {
	sys, err := GenerateSystem(stats.NewRNG(2003), PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	ms := []Mapping{RandomMapping(rng, sys), RandomMapping(rng, sys)}
	script := faults.NewScript()
	if _, err := EvaluateBatch(faults.With(context.Background(), script), sys, ms, batch.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if script.Calls(faults.Solve) == 0 {
		t.Fatal("no per-feature solve saw the context's fault injector")
	}
}

func TestJobsShape(t *testing.T) {
	sys, err := GenerateSystem(stats.NewRNG(2003), PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	ms := []Mapping{RandomMapping(rng, sys), RandomMapping(rng, sys)}
	jobs, err := Jobs(sys, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	for _, j := range jobs {
		if len(j.Features) == 0 || j.Perturbation.Name != "λ" || !j.Perturbation.Discrete {
			t.Fatalf("malformed job: %+v", j.Perturbation)
		}
	}
}
