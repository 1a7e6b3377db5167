package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunViolation(t *testing.T) {
	cfg := PaperViolationConfig()
	cfg.PerRadius = 300 // keep the unit test fast
	res, err := RunViolation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GuaranteeHolds {
		t.Errorf("violation inside the ρ-ball")
	}
	if len(res.Curve) != len(cfg.RadiiFractions) {
		t.Fatalf("curve points = %d", len(res.Curve))
	}
	// The big spheres must produce violations (otherwise the experiment
	// is vacuous).
	last := res.Curve[len(res.Curve)-1]
	if last.Probability == 0 {
		t.Errorf("no violations even at %gρ", cfg.RadiiFractions[len(cfg.RadiiFractions)-1])
	}
	if res.FirstViolationRadius <= res.Rho {
		t.Errorf("first violation at %v inside ρ=%v", res.FirstViolationRadius, res.Rho)
	}
	rep := res.Report()
	for _, want := range []string{"P(violation)", "guarantee holds: true"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "violation_probability") {
		t.Errorf("CSV header missing")
	}
	if _, err := RunViolation(ViolationConfig{}); err == nil {
		t.Errorf("zero config accepted")
	}
}

func TestRunDiscrete(t *testing.T) {
	cfg := PaperDiscreteConfig()
	cfg.Mappings = 8
	res, err := RunDiscrete(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.OrderingViolations != 0 {
		t.Errorf("%d ordering violations", res.OrderingViolations)
	}
	for i, row := range res.Rows {
		if row.Exact < row.Floored-1e-9 {
			t.Errorf("row %d: exact %v below floored %v", i, row.Exact, row.Floored)
		}
	}
	if res.MeanGiveaway < 0 {
		t.Errorf("negative mean giveaway %v", res.MeanGiveaway)
	}
	rep := res.Report()
	for _, want := range []string{"floor", "exact", "giveaway"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := RunDiscrete(DiscreteConfig{}); err == nil {
		t.Errorf("zero config accepted")
	}
}

func TestRunConsistency(t *testing.T) {
	cfg := PaperConsistencyConfig()
	cfg.Mappings = 120
	res, err := RunConsistency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	classes := map[string]bool{}
	for _, row := range res.Rows {
		classes[row.Class] = true
		// The Eq. 6 structure is class-independent: positive correlation
		// and at least one S₁(x) cluster in every class.
		if row.Pearson < 0.2 {
			t.Errorf("%s: corr = %v", row.Class, row.Pearson)
		}
		if row.Clusters == 0 {
			t.Errorf("%s: no clusters", row.Class)
		}
		if row.MeanRho <= 0 || row.MeanMakespan <= 0 {
			t.Errorf("%s: implausible means %+v", row.Class, row)
		}
	}
	for _, want := range []string{"inconsistent", "semi-consistent", "consistent"} {
		if !classes[want] {
			t.Errorf("class %q missing", want)
		}
	}
	rep := res.Report()
	if !strings.Contains(rep, "consistency ablation") {
		t.Errorf("report header missing")
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 4 {
		t.Errorf("CSV lines = %d", lines)
	}
	if _, err := RunConsistency(ConsistencyConfig{}); err == nil {
		t.Errorf("zero config accepted")
	}
}

func TestRunDynStudy(t *testing.T) {
	cfg := PaperDynStudyConfig()
	cfg.Trials = 3
	res, err := RunDynStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 { // 5 immediate + 3 batch
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var olb, mct, batchMin DynRow
	for _, row := range res.Rows {
		if row.Makespan <= 0 || row.MeanRho < 0 || row.MinRho < 0 {
			t.Errorf("%s: implausible %+v", row.Name, row)
		}
		switch row.Name {
		case "OLB":
			olb = row
		case "MCT":
			mct = row
		case "batch-Min-min":
			batchMin = row
		}
	}
	if batchMin.Makespan <= 0 {
		t.Fatalf("batch rows missing")
	}
	// MCT sees ETCs, OLB does not: MCT wins on makespan for this
	// heterogeneous workload.
	if mct.Makespan > olb.Makespan {
		t.Errorf("MCT %v worse than OLB %v", mct.Makespan, olb.Makespan)
	}
	rep := res.Report()
	if !strings.Contains(rep, "min ρ(t)") {
		t.Errorf("report missing fragile-moment column")
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 9 { // header + 8 rows
		t.Errorf("CSV lines = %d", lines)
	}
	if _, err := RunDynStudy(DynStudyConfig{}); err == nil {
		t.Errorf("zero config accepted")
	}
}

// Every (trial × heuristic) cell runs on its own heuristic value, so the
// rows cannot depend on how many cells run at once: a stateful heuristic
// (Switching's MCT/MET mode) shared across cells would carry its mode
// from one trial into the next, and race under concurrent cells.
func TestRunDynStudyWorkerInvariant(t *testing.T) {
	cfg := PaperDynStudyConfig()
	cfg.Workers = 1
	serial, err := RunDynStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := RunDynStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Errorf("Workers 1 and 4 disagree:\n%+v\n%+v", serial.Rows, parallel.Rows)
	}
}

func TestRunNorms(t *testing.T) {
	cfg := PaperNormsConfig()
	cfg.Mappings = 100
	res, err := RunNorms(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RhoL2) != 100 || len(res.RhoL1) != 100 || len(res.RhoLInf) != 100 {
		t.Fatalf("series lengths wrong")
	}
	// For the §3.1 system the dual norms order the metrics strictly:
	// ρ_ℓ∞ ≤ ρ_ℓ₂ ≤ ρ_ℓ₁ per mapping (1 ≤ √n ≤ n).
	for i := range res.RhoL2 {
		if !(res.RhoLInf[i] <= res.RhoL2[i]+1e-9 && res.RhoL2[i] <= res.RhoL1[i]+1e-9) {
			t.Fatalf("norm ordering violated at %d: %v %v %v", i, res.RhoLInf[i], res.RhoL2[i], res.RhoL1[i])
		}
	}
	if !(res.MeanRatioL1 >= 1) || !(res.MeanRatioLInf <= 1) {
		t.Errorf("mean ratios: l1 %v linf %v", res.MeanRatioL1, res.MeanRatioLInf)
	}
	// Rankings should be strongly (but not perfectly) preserved.
	if res.SpearmanL1 < 0.7 || res.SpearmanLInf < 0.7 {
		t.Errorf("rank correlations too low: %v %v", res.SpearmanL1, res.SpearmanLInf)
	}
	rep := res.Report()
	if !strings.Contains(rep, "Spearman") {
		t.Errorf("report missing correlations")
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := RunNorms(NormsConfig{}); err == nil {
		t.Errorf("zero config accepted")
	}
}

func TestRunHeurStudy(t *testing.T) {
	cfg := PaperHeurStudyConfig()
	cfg.Trials = 2
	res, err := RunHeurStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 { // 11 classics + Sufferage + 3 robust variants
		t.Fatalf("rows = %d", len(res.Rows))
	}
	names := map[string]bool{}
	var minmin, refine HeurRow
	for _, row := range res.Rows {
		names[row.Name] = true
		if row.Makespan <= 0 || row.Rho <= 0 || row.LBI < 0 || row.LBI > 1 {
			t.Errorf("%s: implausible averages %+v", row.Name, row)
		}
		switch row.Name {
		case "Min-min":
			minmin = row
		case "Robust-refine(Min-min)":
			refine = row
		}
	}
	if !names["GA"] || !names["A*"] || !names["Robust-greedy"] || !names["Robust-GA"] {
		t.Errorf("suite incomplete: %v", names)
	}
	if minmin.RhoVersusMinMin != 1 {
		t.Errorf("Min-min self-ratio = %v", minmin.RhoVersusMinMin)
	}
	// The refinement maximises ρ subject to the τ cap: it must beat its
	// seed on ρ and stay within τ on makespan.
	if refine.Rho < minmin.Rho {
		t.Errorf("refinement ρ %v below Min-min %v", refine.Rho, minmin.Rho)
	}
	if refine.Makespan > cfg.Tau*minmin.Makespan*1.0001 {
		t.Errorf("refinement makespan %v exceeds τ×Min-min %v", refine.Makespan, cfg.Tau*minmin.Makespan)
	}
	rep := res.Report()
	if !strings.Contains(rep, "rho/Min-min") {
		t.Errorf("report missing ratio column")
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 16 {
		t.Errorf("CSV lines = %d", lines)
	}
	if _, err := RunHeurStudy(HeurStudyConfig{}); err == nil {
		t.Errorf("zero config accepted")
	}
	if _, err := RunHeurStudy(HeurStudyConfig{Trials: 1, Tau: 0.5}); err == nil {
		t.Errorf("bad tau accepted")
	}
}
