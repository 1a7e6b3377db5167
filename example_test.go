package robustness_test

import (
	"context"
	"fmt"
	"log"

	robustness "fepia"
)

// The §2 running example: two machines whose finishing times must stay
// within 1.3× the predicted makespan against ETC estimation errors.
func ExampleAnalyze() {
	f0, err := robustness.NewLinearImpact([]float64{1, 1, 0}, 0) // m0 runs a0, a1
	if err != nil {
		log.Fatal(err)
	}
	f1, err := robustness.NewLinearImpact([]float64{0, 0, 1}, 0) // m1 runs a2
	if err != nil {
		log.Fatal(err)
	}
	features := []robustness.Feature{
		{Name: "finish(m0)", Impact: f0, Bounds: robustness.NoMin(13)},
		{Name: "finish(m1)", Impact: f1, Bounds: robustness.NoMin(13)},
	}
	p := robustness.Perturbation{Name: "C", Orig: []float64{6, 4, 8}, Units: "seconds"}
	a, err := robustness.Analyze(features, p, robustness.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rho = %.4f %s\n", a.Robustness, a.Units)
	fmt.Printf("critical feature: %s\n", a.CriticalFeature().Feature)
	// Output:
	// rho = 2.1213 seconds
	// critical feature: finish(m0)
}

// A single feature's robustness radius: the distance from the operating
// point to the hyperplane where the bound is met with equality.
func ExampleComputeRadius() {
	impact, err := robustness.NewLinearImpact([]float64{1, 2}, 0)
	if err != nil {
		log.Fatal(err)
	}
	f := robustness.Feature{Name: "load", Impact: impact, Bounds: robustness.NoMin(10)}
	p := robustness.Perturbation{Name: "x", Orig: []float64{0, 0}}
	r, err := robustness.ComputeRadius(f, p, robustness.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("radius = %.4f (%s)\n", r.Radius, r.Kind)
	// Output:
	// radius = 4.4721 (beta-max)
}

// The §3.1 closed form (Eq. 6/7): makespan robustness of a concrete
// mapping against ETC errors.
func ExampleEvaluateIndependentAllocation() {
	etc := [][]float64{
		{1, 9}, // a0: fast on m0
		{2, 9}, // a1
		{9, 3}, // a2: fast on m1
		{9, 4}, // a3
	}
	res, err := robustness.EvaluateIndependentAllocation(etc, []int{0, 0, 1, 1}, 1.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted makespan = %g\n", res.PredictedMakespan)
	fmt.Printf("rho = %.4f on machine m%d\n", res.Robustness, res.CriticalMachine)
	// Output:
	// predicted makespan = 7
	// rho = 0.9899 on machine m1
}

// Scoring several candidate mappings at once: AnalyzeBatch fans the
// analyses over a bounded worker pool and returns input-ordered results,
// while a shared RadiusCache skips radius subproblems it has already
// solved — here jobs 0 and 2 are the same mapping, so its two radii are
// cache hits the second time.
func ExampleAnalyzeBatch() {
	p := robustness.Perturbation{Name: "C", Orig: []float64{6, 4, 8}, Units: "seconds"}
	job := func(rows ...[]float64) robustness.BatchJob {
		j := robustness.BatchJob{Perturbation: p}
		for i, coeffs := range rows {
			impact, err := robustness.NewLinearImpact(coeffs, 0)
			if err != nil {
				log.Fatal(err)
			}
			j.Features = append(j.Features, robustness.Feature{
				Name:   fmt.Sprintf("finish(m%d)", i),
				Impact: impact,
				Bounds: robustness.NoMin(13),
			})
		}
		return j
	}
	jobs := []robustness.BatchJob{
		job([]float64{1, 1, 0}, []float64{0, 0, 1}), // a0,a1 → m0; a2 → m1
		job([]float64{1, 0, 0}, []float64{0, 1, 1}), // a0 → m0; a1,a2 → m1
		job([]float64{1, 1, 0}, []float64{0, 0, 1}), // mapping 0 again
	}
	cache := robustness.NewRadiusCache(0)
	// Workers: 1 keeps the hit/miss split deterministic for this example's
	// output; the analyses themselves are identical for any worker count.
	res, err := robustness.AnalyzeBatch(context.Background(), jobs,
		robustness.BatchOptions{Workers: 1, Cache: cache})
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range res {
		fmt.Printf("mapping %d: rho = %.4f %s\n", i, a.Robustness, a.Units)
	}
	st := cache.Stats()
	fmt.Printf("cache: %d hits, %d misses\n", st.Hits, st.Misses)
	// Output:
	// mapping 0: rho = 2.1213 seconds
	// mapping 1: rho = 0.7071 seconds
	// mapping 2: rho = 2.1213 seconds
	// cache: 2 hits, 4 misses
}

// Simultaneous perturbation of two parameters (the case the paper defers
// to its reference [1]): execution times and a machine slowdown factor.
func ExampleConcatPerturbations() {
	c := robustness.Perturbation{Name: "C", Orig: []float64{6, 4}, Units: "s"}
	s := robustness.Perturbation{Name: "s", Orig: []float64{1}}
	joint, err := robustness.ConcatPerturbations("", c, s)
	if err != nil {
		log.Fatal(err)
	}
	// F(C, s) = s·(C0 + C1): bilinear, analysed with the annealing pass.
	impact := &robustness.FuncImpact{
		N: 3,
		F: func(x []float64) float64 { return x[2] * (x[0] + x[1]) },
	}
	a, err := robustness.Analyze([]robustness.Feature{
		{Name: "F", Impact: impact, Bounds: robustness.NoMin(13)},
	}, joint.Perturbation, robustness.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joint parameter %s has %d components\n", joint.Name, len(joint.Orig))
	fmt.Printf("joint rho is positive and below the pure-slowdown excursion 0.3: %v\n",
		a.Robustness > 0 && a.Robustness <= 0.3+1e-9)
	// Output:
	// joint parameter C⊕s has 3 components
	// joint rho is positive and below the pure-slowdown excursion 0.3: true
}

// A system described as JSON data instead of Go code: the same schema the
// fepia CLI reads and the fepiad HTTP service serves, so a spec document
// analysed in-process, on the command line, or over POST /v1/analyze
// yields the identical result.
func ExampleParseSpec() {
	doc := []byte(`{
	  "name": "two machines",
	  "perturbation": {"name": "C", "orig": [6, 4, 8], "units": "seconds"},
	  "features": [
	    {"name": "finish(m0)", "max": 13, "impact": {"type": "linear", "coeffs": [1, 1, 0]}},
	    {"name": "finish(m1)", "max": 13, "impact": {"type": "linear", "coeffs": [0, 0, 1]}}
	  ]
	}`)
	sys, err := robustness.ParseSpec(doc)
	if err != nil {
		log.Fatal(err)
	}
	a, err := robustness.Analyze(sys.Features, sys.Perturbation, sys.Options)
	if err != nil {
		log.Fatal(err)
	}
	out := robustness.EncodeAnalysis(sys.Name, a)
	fmt.Printf("rho = %.4f %s\n", out.Robustness, out.Units)
	fmt.Printf("critical feature: %s\n", out.Critical)
	// Output:
	// rho = 2.1213 seconds
	// critical feature: finish(m0)
}

// A client's view of a fepiad cluster: the same ring arithmetic the
// nodes use (any membership order yields the same ring) plus the
// ResponseMeta block every /v1 result carries, so a caller can tell
// which node answered, whether the request was relayed to its ring
// owner, and whether the answer came warm from the radius cache.
func ExampleNewClusterRing() {
	peers, err := robustness.ParseClusterPeers("n0=http://a:8080,n1=http://b:8080,n2=http://c:8080")
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]string, len(peers))
	for i, p := range peers {
		ids[i] = p.ID
	}
	ring, err := robustness.NewClusterRing(ids, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The route key of a parsed spec document decides the owning node —
	// structurally identical systems always land on the same warm cache.
	sys, err := robustness.ParseSpec([]byte(`{
	  "perturbation": {"orig": [300, 200]},
	  "features": [{"max": 1000, "impact": {"type": "linear", "coeffs": [1, 1]}}]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner stays fixed: %v\n", ring.Owner(sys.RouteKey()) == ring.Owner(sys.RouteKey()))

	// Decoding the meta block of a forwarded /v1/analyze response.
	meta := robustness.ResponseMeta{Node: "n2", Forwarded: true, Cache: "hit"}
	fmt.Printf("served by %s (forwarded=%v, cache=%s)\n", meta.Node, meta.Forwarded, meta.Cache)
	// Output:
	// owner stays fixed: true
	// served by n2 (forwarded=true, cache=hit)
}
