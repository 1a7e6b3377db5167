package core

import (
	"fmt"
	"math"

	"fepia/internal/optimize"
	"fepia/internal/vecmath"
)

// Bounds is the tuple ⟨β^min, β^max⟩ of step 1: the tolerable variation of
// a performance feature. Use math.Inf(-1) / math.Inf(1) for one-sided
// requirements (e.g. the makespan example only bounds the maximum).
type Bounds struct {
	Min, Max float64
}

// NoMin returns bounds with only an upper limit.
func NoMin(max float64) Bounds { return Bounds{Min: math.Inf(-1), Max: max} }

// NoMax returns bounds with only a lower limit.
func NoMax(min float64) Bounds { return Bounds{Min: min, Max: math.Inf(1)} }

// Validate rejects NaNs and inverted bounds.
func (b Bounds) Validate() error {
	if math.IsNaN(b.Min) || math.IsNaN(b.Max) {
		return fmt.Errorf("core: bounds contain NaN")
	}
	if b.Min > b.Max {
		return fmt.Errorf("core: inverted bounds ⟨%v, %v⟩", b.Min, b.Max)
	}
	return nil
}

// Contains reports whether value v satisfies β^min ≤ v ≤ β^max.
func (b Bounds) Contains(v float64) bool { return v >= b.Min && v <= b.Max }

// String renders the tuple as the paper writes it.
func (b Bounds) String() string { return fmt.Sprintf("⟨%g, %g⟩", b.Min, b.Max) }

// Feature is one performance feature φ_i ∈ Φ together with its tolerable
// variation (step 1) and its impact function against one perturbation
// parameter (step 3).
type Feature struct {
	// Name identifies the feature in reports (e.g. "F_3" or "L_7").
	Name string
	// Impact is f_ij for this feature against the perturbation parameter
	// under analysis.
	Impact Impact
	// Bounds is the tolerable variation ⟨β^min, β^max⟩.
	Bounds Bounds
}

// Validate checks the feature is analysable: it has an impact, its
// bounds are valid, and a FuncImpact's Support is well formed.
func (f Feature) Validate() error {
	if f.Impact == nil {
		return fmt.Errorf("core: feature %q has no impact function", f.Name)
	}
	if err := f.Bounds.Validate(); err != nil {
		return fmt.Errorf("core: feature %q: %w", f.Name, err)
	}
	if fi, ok := f.Impact.(*FuncImpact); ok {
		if err := optimize.CheckSupport(fi.Support, fi.N); err != nil {
			return fmt.Errorf("core: feature %q: %w", f.Name, err)
		}
	}
	return nil
}

// Perturbation is one perturbation parameter π_j ∈ Π: an uncertain vector
// quantity with an assumed operating point π_j^orig (step 2).
type Perturbation struct {
	// Name identifies the parameter in reports (e.g. "C" or "λ").
	Name string
	// Orig is π_j^orig, the value at which the system is assumed to
	// operate.
	Orig []float64
	// Units, optional, annotates reports (the metric inherits the units of
	// the parameter — seconds for ETC errors, objects/data-set for loads).
	Units string
	// Discrete marks integer-valued parameters such as the HiPer-D sensor
	// loads; the aggregate metric ρ is then floored, as §3.2 prescribes.
	Discrete bool
}

// Validate rejects empty or non-finite operating points.
func (p Perturbation) Validate() error {
	if len(p.Orig) == 0 {
		return fmt.Errorf("core: perturbation %q has an empty operating point", p.Name)
	}
	if !vecmath.AllFinite(p.Orig) {
		return fmt.Errorf("core: perturbation %q has a non-finite operating point", p.Name)
	}
	return nil
}
