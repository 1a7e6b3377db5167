package robustness

// One benchmark per paper artifact (E1–E7 of DESIGN.md) plus micro and
// ablation benches. The experiment benches regenerate the full artifact
// per iteration and additionally report the headline quantities via
// b.ReportMetric, so `go test -bench=.` doubles as a results table:
//
//	BenchmarkFigure3Experiment reports corr(makespan,ρ) and the max
//	robustness spread at similar makespan;
//	BenchmarkFigure4Experiment reports corr(slack,ρ) and the spread at
//	similar slack; BenchmarkTable2 reports the A/B robustness ratio.

import (
	"context"
	"reflect"
	"testing"

	"fepia/internal/core"
	"fepia/internal/etcgen"
	"fepia/internal/experiments"
	"fepia/internal/hcs"
	"fepia/internal/heuristics"
	"fepia/internal/hiperd"
	"fepia/internal/indalloc"
	"fepia/internal/lattice"
	"fepia/internal/montecarlo"
	"fepia/internal/sim"
	"fepia/internal/stats"
)

// BenchmarkFigure1Boundary regenerates the Figure 1 illustration (E1):
// boundary curve sampling plus the convex minimum-norm radius.
func BenchmarkFigure1Boundary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(experiments.PaperFig1Config())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Radius, "radius")
		}
	}
}

// BenchmarkFigure2PathEnum regenerates the Figure 2 DAG (E2): the
// 19-path instance search plus path enumeration.
func BenchmarkFigure2PathEnum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(experiments.PaperFig2Config())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Paths) != 19 {
			b.Fatalf("paths = %d", len(res.Paths))
		}
	}
}

// BenchmarkFigure3Experiment regenerates Figure 3 (E3, E6): 1000 random
// mappings of the §4.2 instance, robustness + makespan + load-balance
// index + cluster classification for each.
func BenchmarkFigure3Experiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(experiments.PaperFig3Config())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PearsonMakespan, "corr")
			b.ReportMetric(res.MaxSpreadSimilarMakespan, "spread")
		}
	}
}

// BenchmarkFigure4Experiment regenerates Figure 4 (E4, E7): 1000 random
// mappings of the §4.3 HiPer-D instance, robustness + slack for each.
func BenchmarkFigure4Experiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(experiments.PaperFig4Config())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PearsonSlack, "corr")
			b.ReportMetric(res.MaxSpreadSimilarSlack, "spread")
		}
	}
}

// BenchmarkTable2 regenerates the Table 2 analogue (E5): the Figure 4
// population scan for the maximal-ratio similar-slack pair.
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.PaperFig4Config()
	res, err := experiments.RunFig4(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair, err := experiments.FindTable2Pair(res, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pair.Ratio, "ratio")
		}
	}
}

// BenchmarkRadiusEq6 measures the §3.1 closed form on the paper instance —
// the per-mapping cost inside the Figure 3 loop.
func BenchmarkRadiusEq6(b *testing.B) {
	etc, err := etcgen.Generate(stats.NewRNG(1), etcgen.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		b.Fatal(err)
	}
	m := hcs.RandomMapping(stats.NewRNG(2), inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := indalloc.Evaluate(m, 1.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadiusGenericLinear measures the same radii through the generic
// hyperplane path of internal/core — the ablation of closed form vs
// generic machinery.
func BenchmarkRadiusGenericLinear(b *testing.B) {
	etc, err := etcgen.Generate(stats.NewRNG(1), etcgen.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		b.Fatal(err)
	}
	m := hcs.RandomMapping(stats.NewRNG(2), inst)
	features, p, err := indalloc.Features(m, 1.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(features, p, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadiusConvexSolver measures the sequential-linearisation solver
// on the Figure 1 quadratic — the non-affine step-4 path.
func BenchmarkRadiusConvexSolver(b *testing.B) {
	f := Feature{
		Name: "phi",
		Impact: &FuncImpact{
			N:      2,
			F:      func(pi []float64) float64 { return pi[0]*pi[0] + pi[0]*pi[1] + pi[1]*pi[1] },
			Convex: true,
		},
		Bounds: NoMin(25),
	}
	p := Perturbation{Name: "π", Orig: []float64{1.5, 1.0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeRadius(f, p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHiPerDEvaluate measures one full §3.2 mapping analysis — the
// per-mapping cost inside the Figure 4 loop.
func BenchmarkHiPerDEvaluate(b *testing.B) {
	sys, err := hiperd.GenerateSystem(stats.NewRNG(2003), hiperd.PaperGenParams())
	if err != nil {
		b.Fatal(err)
	}
	m := hiperd.RandomMapping(stats.NewRNG(1), sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hiperd.Evaluate(sys, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormAblation compares the metric under alternative norms on the
// same instance (extension: the paper fixes ℓ₂).
func BenchmarkNormAblation(b *testing.B) {
	etc, err := etcgen.Generate(stats.NewRNG(1), etcgen.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		b.Fatal(err)
	}
	m := hcs.RandomMapping(stats.NewRNG(2), inst)
	features, p, err := indalloc.Features(m, 1.2)
	if err != nil {
		b.Fatal(err)
	}
	for _, norm := range []struct {
		name string
		n    core.Options
	}{
		{"l2", core.Options{}},
		{"l1", core.Options{Norm: L1{}}},
		{"linf", core.Options{Norm: LInf{}}},
	} {
		b.Run(norm.name, func(b *testing.B) {
			var rho float64
			for i := 0; i < b.N; i++ {
				a, err := core.Analyze(features, p, norm.n)
				if err != nil {
					b.Fatal(err)
				}
				rho = a.Robustness
			}
			b.ReportMetric(rho, "rho")
		})
	}
}

// BenchmarkHeuristics times each mapping heuristic on the paper instance
// and reports the makespan and robustness it achieves (the ablation table
// behind cmd/heuristicstudy).
func BenchmarkHeuristics(b *testing.B) {
	etc, err := etcgen.Generate(stats.NewRNG(1), etcgen.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		b.Fatal(err)
	}
	suite := append(heuristics.All(),
		heuristics.RobustGreedy{Tau: 1.2},
		heuristics.RobustRefine{Tau: 1.2},
		heuristics.RobustGA{Tau: 1.2},
	)
	for _, h := range suite {
		h := h
		b.Run(sanitizeName(h.Name()), func(b *testing.B) {
			var span, rho float64
			for i := 0; i < b.N; i++ {
				m, err := h.Map(stats.NewRNG(7), inst)
				if err != nil {
					b.Fatal(err)
				}
				res, err := indalloc.Evaluate(m, 1.2)
				if err != nil {
					b.Fatal(err)
				}
				span, rho = res.PredictedMakespan, res.Robustness
			}
			b.ReportMetric(span, "makespan")
			b.ReportMetric(rho, "rho")
		})
	}
}

// BenchmarkAnalyzeBatch measures the batch engine on 64 random mappings
// of the §4.3 HiPer-D instance: the one-worker baseline vs the full
// GOMAXPROCS pool, and a cold vs warm radius cache. Setup asserts the
// acceptance contract — the parallel results are byte-identical to the
// sequential ones — before any timing starts.
func BenchmarkAnalyzeBatch(b *testing.B) {
	sys, err := hiperd.GenerateSystem(stats.NewRNG(2003), hiperd.PaperGenParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(4)
	ms := make([]hiperd.Mapping, 64)
	for i := range ms {
		ms[i] = hiperd.RandomMapping(rng, sys)
	}
	jobs, err := hiperd.Jobs(sys, ms)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	seq, err := AnalyzeBatch(ctx, jobs, BatchOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	par, err := AnalyzeBatch(ctx, jobs, BatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		b.Fatal("parallel AnalyzeBatch results differ from the sequential baseline")
	}
	run := func(opts func() BatchOptions) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeBatch(ctx, jobs, opts()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", run(func() BatchOptions { return BatchOptions{Workers: 1} }))
	b.Run("parallel", run(func() BatchOptions { return BatchOptions{} }))
	b.Run("parallel-coldcache", run(func() BatchOptions {
		return BatchOptions{Cache: NewRadiusCache(0)}
	}))
	warm := NewRadiusCache(0)
	if _, err := AnalyzeBatch(ctx, jobs, BatchOptions{Cache: warm}); err != nil {
		b.Fatal(err)
	}
	b.Run("parallel-warmcache", run(func() BatchOptions { return BatchOptions{Cache: warm} }))
}

// BenchmarkRadiusCacheConvex isolates the cache's payoff regime: radii
// that need the iterative convex solver rather than the closed
// hyperplane formula. All 32 jobs share the same fingerprinted convex
// feature, so a warm cache answers every radius from the map — whereas
// on cheap affine radii (BenchmarkAnalyzeBatch) the key-building
// overhead can exceed the solve and the cache is rightly a loss.
// Without the fingerprint the cache could not identify the impact and
// "warmcache" would solve every radius.
func BenchmarkRadiusCacheConvex(b *testing.B) {
	f := Feature{
		Name: "phi",
		Impact: &FuncImpact{
			N:           2,
			F:           func(pi []float64) float64 { return pi[0]*pi[0] + pi[0]*pi[1] + pi[1]*pi[1] },
			Convex:      true,
			Fingerprint: []byte("x0^2 + x0*x1 + x1^2"),
		},
		Bounds: NoMin(25),
	}
	job := BatchJob{
		Features:     []Feature{f},
		Perturbation: Perturbation{Name: "π", Orig: []float64{1.5, 1.0}},
	}
	jobs := make([]BatchJob, 32)
	for i := range jobs {
		jobs[i] = job
	}
	ctx := context.Background()
	run := func(opts BatchOptions) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeBatch(ctx, jobs, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("nocache", run(BatchOptions{}))
	warm := NewRadiusCache(0)
	if _, err := AnalyzeBatch(ctx, jobs, BatchOptions{Cache: warm}); err != nil {
		b.Fatal(err)
	}
	b.Run("warmcache", run(BatchOptions{Cache: warm}))
}

// BenchmarkMonteCarloCertify measures the sampling certification of one
// analytic radius.
func BenchmarkMonteCarloCertify(b *testing.B) {
	etc, err := etcgen.Generate(stats.NewRNG(1), etcgen.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		b.Fatal(err)
	}
	m := hcs.RandomMapping(stats.NewRNG(2), inst)
	res, err := indalloc.Evaluate(m, 1.2)
	if err != nil {
		b.Fatal(err)
	}
	features, p, err := indalloc.Features(m, 1.2)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := montecarlo.Certify(rng, features, p, res.Robustness,
			montecarlo.Config{InteriorSamples: 500, Directions: 50})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Sound {
			b.Fatalf("analytic radius failed certification: %v", rep)
		}
	}
}

// BenchmarkViolationExperiment runs the simulation-backed validation (X1):
// violation probability vs error norm with the ρ-ball guarantee check.
func BenchmarkViolationExperiment(b *testing.B) {
	cfg := experiments.PaperViolationConfig()
	cfg.PerRadius = 500
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunViolation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.GuaranteeHolds {
			b.Fatalf("guarantee violated: %+v", res)
		}
	}
}

// BenchmarkDiscreteExperiment runs the exact-lattice comparison (X2):
// floor(ρ) vs the exact discrete radius on feasible HiPer-D mappings.
func BenchmarkDiscreteExperiment(b *testing.B) {
	cfg := experiments.PaperDiscreteConfig()
	cfg.Mappings = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDiscrete(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanGiveaway, "giveaway")
		}
	}
}

// BenchmarkLatticeExact measures one exact discrete-radius computation on
// a HiPer-D mapping (the per-row cost inside X2).
func BenchmarkLatticeExact(b *testing.B) {
	rng := stats.NewRNG(2003)
	sys, err := hiperd.GenerateSystem(rng, hiperd.PaperGenParams())
	if err != nil {
		b.Fatal(err)
	}
	var m hiperd.Mapping
	for {
		m = hiperd.RandomMapping(rng, sys)
		if hiperd.Slack(sys, m) > 0 {
			break
		}
	}
	features, p, err := hiperd.Features(sys, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lattice.MinViolatingPoint(features, p, lattice.Options{NonNegative: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun measures one event-driven execution of a paper-scale
// mapping (the inner loop of X1).
func BenchmarkSimRun(b *testing.B) {
	etc, err := etcgen.Generate(stats.NewRNG(1), etcgen.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		b.Fatal(err)
	}
	m := hcs.RandomMapping(stats.NewRNG(2), inst)
	c := m.ETCVector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(m, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicStudy runs the online-mapping comparison (X5).
func BenchmarkDynamicStudy(b *testing.B) {
	cfg := experiments.PaperDynStudyConfig()
	cfg.Trials = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDynStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// sanitizeName makes heuristic names safe as sub-benchmark identifiers.
func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', '*', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
