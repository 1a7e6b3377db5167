package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	batchengine "fepia/internal/batch"
	"fepia/internal/dynamic"
	"fepia/internal/stats"
)

// DynStudyConfig parameterises the dynamic-mapping study: the five
// immediate-mode heuristics of Maheswaran et al. (reference [21] of the
// paper) compared on makespan and on the online robustness timeline —
// the conditional Eq. 6 radius of the committed work at every arrival.
type DynStudyConfig struct {
	// Seed drives workload generation and the heuristics.
	Seed int64
	// Trials is the number of workloads averaged over.
	Trials int
	// Tau is the tolerance for the conditional radii.
	Tau float64
	// Gen parameterises workload generation.
	Gen dynamic.GenParams
	// Workers bounds the concurrent (trial × heuristic) simulations
	// (≤ 0 selects GOMAXPROCS). Each simulation owns its RNG, so results
	// are independent of the worker count.
	Workers int
}

// PaperDynStudyConfig averages 20 paper-scale workloads at τ = 1.2.
func PaperDynStudyConfig() DynStudyConfig {
	return DynStudyConfig{Seed: 2003, Trials: 20, Tau: 1.2, Gen: dynamic.PaperGenParams()}
}

// DynRow is one heuristic's averages.
type DynRow struct {
	Name string
	// Makespan is the mean completion time of the workload.
	Makespan float64
	// MeanRho is the mean conditional robustness over all snapshots.
	MeanRho float64
	// MinRho is the mean over trials of the run's most fragile snapshot.
	MinRho float64
}

// DynStudyResult is the study outcome.
type DynStudyResult struct {
	Config DynStudyConfig
	Rows   []DynRow
}

// RunDynStudy executes the study over both the immediate-mode suite and
// the batch-mode suite (batch interval: four mean interarrival times, so
// each mapping event sees a handful of pending tasks).
func RunDynStudy(cfg DynStudyConfig) (*DynStudyResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: dynamic study needs a positive trial count")
	}
	immediate := dynamic.All()
	batch := dynamic.AllBatch()
	interval := 4 * cfg.Gen.MeanInterarrival
	total := len(immediate) + len(batch)
	type agg struct{ makespan, meanRho, minRho float64 }
	sums := make([]agg, total)

	accumulate := func(i int, res *dynamic.Result) {
		sums[i].makespan += res.Makespan
		sums[i].meanRho += res.MeanRobustness
		minRho := math.Inf(1)
		for _, s := range res.Snapshots {
			if s.Robustness < minRho {
				minRho = s.Robustness
			}
		}
		if !math.IsInf(minRho, 1) {
			sums[i].minRho += minRho
		}
	}

	// Generate the workloads sequentially (shared RNG stream), then run
	// the trial × heuristic grid concurrently; each simulation seeds its
	// own RNG. Results land in a fixed grid and are accumulated in the
	// sequential order afterwards, so the averages are bit-identical to a
	// serial run.
	rng := stats.NewRNG(cfg.Seed)
	workloads := make([]dynamic.Workload, cfg.Trials)
	for trial := range workloads {
		w, err := dynamic.Generate(rng, cfg.Gen)
		if err != nil {
			return nil, err
		}
		workloads[trial] = w
	}
	grid := make([]*dynamic.Result, cfg.Trials*total)
	err := batchengine.ForEach(context.Background(), len(grid), cfg.Workers, func(c int) error {
		trial, i := c/total, c%total
		w := workloads[trial]
		var res *dynamic.Result
		var err error
		// Each cell takes fresh heuristic values: some carry state from
		// one arrival to the next (Switching's MCT/MET mode), which must
		// neither leak between trials nor be shared by concurrent cells.
		if i < len(immediate) {
			res, err = dynamic.Run(stats.NewRNG(cfg.Seed+int64(trial)), w, dynamic.All()[i], cfg.Tau)
		} else {
			res, err = dynamic.RunBatch(stats.NewRNG(cfg.Seed+int64(trial)), w, dynamic.AllBatch()[i-len(immediate)], interval, cfg.Tau)
		}
		if err != nil {
			return err
		}
		grid[c] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		for i := 0; i < total; i++ {
			accumulate(i, grid[trial*total+i])
		}
	}
	out := &DynStudyResult{Config: cfg}
	n := float64(cfg.Trials)
	names := make([]string, 0, total)
	for _, h := range immediate {
		names = append(names, h.Name())
	}
	for _, h := range batch {
		names = append(names, h.Name())
	}
	for i, name := range names {
		out.Rows = append(out.Rows, DynRow{
			Name:     name,
			Makespan: sums[i].makespan / n,
			MeanRho:  sums[i].meanRho / n,
			MinRho:   sums[i].minRho / n,
		})
	}
	return out, nil
}

// WriteCSV emits the table.
func (r *DynStudyResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "heuristic,makespan,mean_rho,min_rho"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%g,%g,%g\n", row.Name, row.Makespan, row.MeanRho, row.MinRho); err != nil {
			return err
		}
	}
	return nil
}

// Report renders the table.
func (r *DynStudyResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dynamic mapping study: %d workloads of %d arrivals on %d machines (tau=%.2f)\n\n",
		r.Config.Trials, r.Config.Gen.Tasks, r.Config.Gen.Machines, r.Config.Tau)
	fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "heuristic", "makespan", "mean ρ(t)", "min ρ(t)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %12.4g %12.4g %12.4g\n", row.Name, row.Makespan, row.MeanRho, row.MinRho)
	}
	b.WriteString("\nρ(t) is the conditional Eq. 6 radius of the committed work at each\n")
	b.WriteString("arrival: how much collective error in the outstanding estimates the\n")
	b.WriteString("current commitment tolerates. min ρ(t) is the run's most fragile moment.\n")
	return b.String()
}
