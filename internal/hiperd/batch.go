package hiperd

import (
	"context"

	"fepia/internal/batch"
)

// EvaluateBatch runs the full §3.2 analysis of many mappings of one
// system concurrently over the batch engine. Results are returned in
// mapping order and are identical to calling Evaluate per mapping; only
// the schedule differs. With opts.Cache set, structurally identical
// feature subproblems — e.g. the computation-time hyperplane of an
// application that several mappings place alone on the same machine —
// are solved once across the whole population, which is where the §4.3
// 1000-mapping sweep recovers most of its repeated work.
func EvaluateBatch(ctx context.Context, s *System, ms []Mapping, opts batch.Options) ([]Result, error) {
	out := make([]Result, len(ms))
	err := batch.ForEach(ctx, len(ms), opts.Workers, func(i int) error {
		features, p, err := Features(s, ms[i])
		if err != nil {
			return err
		}
		a, err := batch.AnalyzeOneContext(ctx, batch.Job{Features: features, Perturbation: p}, opts)
		if err != nil {
			return err
		}
		res := Result{
			Analysis:   a,
			Robustness: a.Robustness,
			Slack:      Slack(s, ms[i]),
		}
		if cf := a.CriticalFeature(); cf != nil {
			res.BoundaryLoads = cf.Boundary
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Jobs converts mappings into batch-engine jobs (one feature set per
// mapping) for callers that drive batch.Analyze directly, e.g. through
// the public robustness.AnalyzeBatch facade.
func Jobs(s *System, ms []Mapping) ([]batch.Job, error) {
	jobs := make([]batch.Job, len(ms))
	for i, m := range ms {
		features, p, err := Features(s, m)
		if err != nil {
			return nil, err
		}
		jobs[i] = batch.Job{Features: features, Perturbation: p}
	}
	return jobs, nil
}
