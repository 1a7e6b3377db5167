package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fepia/internal/batch"
	"fepia/internal/core"
	"fepia/internal/kernel"
	"fepia/internal/spec"
)

// The side passes time single layers on fixed samples of a workload's
// own inputs, or of the shared generators where the workload has none:
// the layers the replay does not reach on every workload still get a
// measured figure on every run.

// medianOf runs pass reps times and returns the median of its results.
func medianOf(reps int, pass func() (float64, error)) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		x, err := pass()
		if err != nil {
			return 0, err
		}
		xs[i] = x
	}
	sort.Float64s(xs)
	return xs[reps/2], nil
}

func build(files []spec.File) ([]*spec.System, error) {
	out := make([]*spec.System, len(files))
	for i, f := range files {
		sys, err := spec.Build(f)
		if err != nil {
			return nil, fmt.Errorf("side-pass sample %s: %w", f.Name, err)
		}
		out[i] = sys
	}
	return out, nil
}

// coreLinearNS is core.ComputeRadius per linear feature, in ns.
func coreLinearNS(systems []*spec.System) (float64, error) {
	return medianOf(7, func() (float64, error) {
		n, start := 0, time.Now()
		for rep := 0; rep < 20; rep++ {
			for _, s := range systems {
				for _, f := range s.Features {
					if _, err := core.ComputeRadius(f, s.Perturbation, s.Options); err != nil {
						return 0, err
					}
					n++
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	})
}

// kernelNS is kernel.Pack plus Batch.Compute per linear feature, in ns.
func kernelNS(systems []*spec.System) (float64, error) {
	n := 0
	for _, s := range systems {
		n = max(n, len(s.Features))
	}
	out := make([]core.RadiusResult, n)
	return medianOf(7, func() (float64, error) {
		n, start := 0, time.Now()
		for rep := 0; rep < 20; rep++ {
			for _, s := range systems {
				b, err := kernel.Pack(s.Features, len(s.Perturbation.Orig), s.Options.Norm)
				if err != nil {
					return 0, err
				}
				if _, err := b.Compute(s.Perturbation.Orig, out); err != nil {
					return 0, err
				}
				n += len(s.Features)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	})
}

// convexUS is core.ComputeRadius per convex terms feature, in µs.
func convexUS(systems []*spec.System) (float64, error) {
	return medianOf(5, func() (float64, error) {
		n, start := 0, time.Now()
		for _, s := range systems {
			for _, f := range s.Features {
				if _, err := core.ComputeRadius(f, s.Perturbation, s.Options); err != nil {
					return 0, err
				}
				n++
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
	})
}

// analyzeUS is a cold batch.AnalyzeOneContext per system on a fresh
// default cache, in µs.
func analyzeUS(systems []*spec.System) (float64, error) {
	return medianOf(5, func() (float64, error) {
		cache := batch.NewCache(0)
		start := time.Now()
		for _, s := range systems {
			opts := batch.Options{Cache: cache, Core: s.Options, ShareBoundaries: true}
			if _, err := batch.AnalyzeOneContext(context.Background(), job(s), opts); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(systems)), nil
	})
}

// stepUS is batch.Watcher.Step per step over the sample sessions on a
// fresh default cache, in µs.
func stepUS(sessions []spec.WatchRequest) (float64, error) {
	return medianOf(5, func() (float64, error) {
		cache := batch.NewCache(0)
		var busy time.Duration
		steps := 0
		for _, wr := range sessions {
			sys, err := spec.Build(wr.System)
			if err != nil {
				return 0, err
			}
			wt, err := batch.NewWatcher(job(sys), batch.Options{Cache: cache, Core: sys.Options, ShareBoundaries: true})
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for _, pt := range wr.Points {
				if _, err := wt.Step(context.Background(), pt); err != nil {
					return 0, err
				}
			}
			busy += time.Since(start)
			steps += len(wr.Points)
		}
		return float64(busy.Nanoseconds()) / 1e3 / float64(steps), nil
	})
}
