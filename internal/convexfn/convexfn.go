// Package convexfn provides componentwise-convex, monotone scalar
// functions built from the forms §3.2 of the paper lists as admissible
// complexity functions — linear terms, powers x^p (p ≥ 1), exponentials
// e^{px} (p > 0), and x·log x — together with exact gradients. They serve
// as impact functions wherever a convex, non-decreasing dependence on a
// non-negative parameter vector is needed: the HiPer-D computation-time
// model and the generic JSON system specifications both build on it.
package convexfn

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// TermKind enumerates the complexity-function building blocks §3.2 lists
// as convex over positive loads: linear terms, powers x^p with p ≥ 1,
// exponentials e^{px} with p > 0, and x·log x. Positive multiples and sums
// of convex functions are convex, so any Complexity built from these terms
// is convex — the analysis can then trust the convex solver's global
// minimum, exactly as the paper argues.
type TermKind int

const (
	// LinearTerm contributes coeff·λ_z.
	LinearTerm TermKind = iota
	// PowerTerm contributes coeff·λ_z^P (P ≥ 1).
	PowerTerm
	// ExpTerm contributes coeff·(e^{P·λ_z} − 1) (P > 0; the −1 keeps the
	// value 0 at zero load).
	ExpTerm
	// XLogXTerm contributes coeff·λ_z·log(1+λ_z) (the +1 keeps it finite
	// and convex at zero load).
	XLogXTerm
)

// String names the kind.
func (k TermKind) String() string {
	switch k {
	case LinearTerm:
		return "linear"
	case PowerTerm:
		return "power"
	case ExpTerm:
		return "exp"
	case XLogXTerm:
		return "xlogx"
	default:
		return fmt.Sprintf("TermKind(%d)", int(k))
	}
}

// Term is one additive piece of a complexity function, depending on a
// single sensor's load.
type Term struct {
	// Kind selects the functional form.
	Kind TermKind
	// Index is the load index λ_z the term depends on.
	Index int
	// Coeff is the non-negative multiplier.
	Coeff float64
	// P is the power/rate parameter (PowerTerm, ExpTerm; ignored
	// otherwise).
	P float64
}

// Validate checks convexity and monotonicity requirements.
func (t Term) Validate(dim int) error {
	if t.Index < 0 || t.Index >= dim {
		return fmt.Errorf("convexfn: term index %d out of range [0,%d)", t.Index, dim)
	}
	if t.Coeff < 0 || math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
		return fmt.Errorf("convexfn: term coefficient %v must be finite and ≥ 0", t.Coeff)
	}
	switch t.Kind {
	case LinearTerm, XLogXTerm:
	case PowerTerm:
		if !(t.P >= 1) {
			return fmt.Errorf("convexfn: power term exponent %v must be ≥ 1 for convexity", t.P)
		}
	case ExpTerm:
		if !(t.P > 0) {
			return fmt.Errorf("convexfn: exp term rate %v must be > 0", t.P)
		}
	default:
		return fmt.Errorf("convexfn: unknown term kind %d", int(t.Kind))
	}
	return nil
}

// Eval returns the term's value at load vector lambda.
func (t Term) Eval(lambda []float64) float64 {
	x := lambda[t.Index]
	switch t.Kind {
	case LinearTerm:
		return t.Coeff * x
	case PowerTerm:
		if x <= 0 {
			return 0
		}
		return t.Coeff * pow(x, t.P)
	case ExpTerm:
		return t.Coeff * (math.Exp(t.P*x) - 1)
	case XLogXTerm:
		if x <= 0 {
			return 0
		}
		return t.Coeff * x * math.Log(1+x)
	default:
		return math.NaN()
	}
}

// Deriv returns d(term)/dλ_z at lambda (for the term's own sensor).
func (t Term) Deriv(lambda []float64) float64 {
	x := lambda[t.Index]
	switch t.Kind {
	case LinearTerm:
		return t.Coeff
	case PowerTerm:
		if x <= 0 {
			if t.P == 1 {
				return t.Coeff
			}
			return 0
		}
		return t.Coeff * t.P * pow(x, t.P-1)
	case ExpTerm:
		return t.Coeff * t.P * math.Exp(t.P*x)
	case XLogXTerm:
		if x <= 0 {
			return 0
		}
		return t.Coeff * (math.Log(1+x) + x/(1+x))
	default:
		return math.NaN()
	}
}

// pow returns x^p for x > 0. The exponents 0 to 3 (power terms with
// P ∈ {1, 2, 3} and their derivatives) are multiplied out while x lies
// within [2⁻³⁰⁰, 2³⁰⁰]: there every product is a normal float, and the
// result is bit for bit math.Pow's, whose repeated squaring rounds the
// same products. Anything else goes to math.Pow.
func pow(x, p float64) float64 {
	if x >= 0x1p-300 && x <= 0x1p300 {
		switch p {
		case 0:
			return 1
		case 1:
			return x
		case 2:
			return x * x
		case 3:
			return x * x * x
		}
	}
	return math.Pow(x, p)
}

// String renders the term in the paper's notation, e.g. "3.2λ1^2".
func (t Term) String() string {
	z := t.Index + 1
	switch t.Kind {
	case LinearTerm:
		return fmt.Sprintf("%.3gλ%d", t.Coeff, z)
	case PowerTerm:
		return fmt.Sprintf("%.3gλ%d^%.3g", t.Coeff, z, t.P)
	case ExpTerm:
		return fmt.Sprintf("%.3g(e^{%.3gλ%d}−1)", t.Coeff, t.P, z)
	case XLogXTerm:
		return fmt.Sprintf("%.3gλ%d·log(1+λ%d)", t.Coeff, z, z)
	default:
		return "?"
	}
}

// Complexity is a sum of terms — a convex, componentwise non-decreasing
// function of the load vector.
type Complexity []Term

// Validate checks every term.
func (c Complexity) Validate(dim int) error {
	for i, t := range c {
		if err := t.Validate(dim); err != nil {
			return fmt.Errorf("term %d: %w", i, err)
		}
	}
	return nil
}

// Eval returns Σ term values at lambda.
func (c Complexity) Eval(lambda []float64) float64 {
	var sum float64
	for _, t := range c {
		sum += t.Eval(lambda)
	}
	return sum
}

// Gradient accumulates the complexity's gradient into dst (allocating when
// nil) and returns it.
func (c Complexity) Gradient(dst, lambda []float64) []float64 {
	if len(dst) != len(lambda) {
		dst = make([]float64, len(lambda))
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	for _, t := range c {
		dst[t.Index] += t.Deriv(lambda)
	}
	return dst
}

// Support returns the sorted distinct load indices the terms read: the
// only coordinates the complexity depends on.
func (c Complexity) Support() []int {
	sup := make([]int, len(c))
	for i, t := range c {
		sup[i] = t.Index
	}
	slices.Sort(sup)
	return slices.Compact(sup)
}

// IsLinear reports whether every term is linear, in which case the
// analysis can use the exact hyperplane path.
func (c Complexity) IsLinear() bool {
	for _, t := range c {
		if t.Kind != LinearTerm {
			return false
		}
	}
	return true
}

// LinearCoeffs returns the coefficient vector of a linear complexity.
// It panics when IsLinear is false.
func (c Complexity) LinearCoeffs(dim int) []float64 {
	out := make([]float64, dim)
	for _, t := range c {
		if t.Kind != LinearTerm {
			panic("convexfn: LinearCoeffs on a non-linear complexity")
		}
		out[t.Index] += t.Coeff
	}
	return out
}

// Scale multiplies every coefficient by s (used by the generator's
// calibration; every term kind scales linearly in its coefficient).
func (c Complexity) Scale(s float64) {
	for i := range c {
		c[i].Coeff *= s
	}
}

// String renders the sum, e.g. "3λ1 + 0.2λ2^2".
func (c Complexity) String() string {
	if len(c) == 0 {
		return "0"
	}
	parts := make([]string, len(c))
	for i, t := range c {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// LinearComplexity builds a Complexity from a plain coefficient vector,
// omitting zero entries.
func LinearComplexity(coeffs []float64) Complexity {
	var c Complexity
	for z, b := range coeffs {
		if b != 0 {
			c = append(c, Term{Kind: LinearTerm, Index: z, Coeff: b})
		}
	}
	return c
}
