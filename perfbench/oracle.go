package main

// The answer oracle: the benchmark's own evaluation of every radius
// fepiad serves, written from the paper's formulas (Eq. 6 for linear
// impacts, the boundary-witness conditions of Eq. 1 for convex ones)
// rather than taken from the internal/core code it checks.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"fepia/internal/spec"
)

const (
	// linearTol: Eq. 6 is a closed form, so answers agree to rounding.
	linearTol = 1e-9
	// convexTol: the convex minimiser stops at its own tolerance.
	convexTol = 1e-6
	// kktTol bounds 1 − cos of the angle between the move π* − π^orig and
	// ∇f(π*): every minimiser of the distance to a level set satisfies
	// the first-order condition that the two are parallel.
	kktTol = 1e-4
)

type radiusWire struct {
	Feature  string    `json:"feature"`
	Radius   float64   `json:"radius"`
	Bound    string    `json:"bound"`
	Boundary []float64 `json:"boundary"`
}

type resultWire struct {
	Name       string       `json:"name"`
	Robustness float64      `json:"robustness"`
	Critical   string       `json:"critical_feature"`
	Radii      []radiusWire `json:"radii"`
}

// frameWire decodes both watch frames and the closing summary, which is
// the line carrying "done".
type frameWire struct {
	Step         int          `json:"step"`
	Orig         []float64    `json:"orig"`
	Robustness   float64      `json:"robustness"`
	Critical     string       `json:"critical_feature"`
	Changed      []radiusWire `json:"changed"`
	ChangedCount int          `json:"changed_count"`

	Done         *bool  `json:"done"`
	Steps        int    `json:"steps"`
	TotalChanged int    `json:"total_changed"`
	Error        string `json:"error"`
}

func checkSystem(f spec.File) func([]byte) error {
	return func(body []byte) error {
		var got resultWire
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decoding result: %w", err)
		}
		return checkResult(f, got)
	}
}

func checkBatch(files []spec.File) func([]byte) error {
	return func(body []byte) error {
		var got struct {
			Results []resultWire `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decoding batch: %w", err)
		}
		if len(got.Results) != len(files) {
			return fmt.Errorf("%d results for %d systems", len(got.Results), len(files))
		}
		for i, f := range files {
			if err := checkResult(f, got.Results[i]); err != nil {
				return fmt.Errorf("systems[%d]: %w", i, err)
			}
		}
		return nil
	}
}

func checkResult(f spec.File, got resultWire) error {
	if got.Name != f.Name {
		return fmt.Errorf("result for %q, want %q", got.Name, f.Name)
	}
	if len(got.Radii) != len(f.Features) {
		return fmt.Errorf("%s: %d radii for %d features", f.Name, len(got.Radii), len(f.Features))
	}
	for i, fs := range f.Features {
		if err := checkRadius(fs, f.Perturbation.Orig, got.Radii[i], true); err != nil {
			return fmt.Errorf("%s/%s: %w", f.Name, fs.Name, err)
		}
	}
	if err := checkMin(got.Radii, got.Robustness, got.Critical); err != nil {
		return fmt.Errorf("%s: %w", f.Name, err)
	}
	return nil
}

// checkMin checks Eq. 2: ρ is the smallest radius and the critical
// feature the first one attaining it.
func checkMin(radii []radiusWire, rho float64, critical string) error {
	best, name := math.Inf(1), ""
	for _, r := range radii {
		if r.Radius < best {
			best, name = r.Radius, r.Feature
		}
	}
	if rho != best || critical != name {
		return fmt.Errorf("robustness %v at %q, want %v at %q", rho, critical, best, name)
	}
	return nil
}

func checkRadius(fs spec.FeatureSpec, orig []float64, got radiusWire, witness bool) error {
	if got.Feature != fs.Name {
		return fmt.Errorf("radius for %q", got.Feature)
	}
	switch fs.Impact.Type {
	case "linear":
		return checkLinear(fs, orig, got, witness)
	case "terms":
		return checkConvex(fs, orig, got)
	}
	return fmt.Errorf("no oracle for impact type %q", fs.Impact.Type)
}

// checkLinear checks Eq. 6: for f(π) = a·π + c the distance from π^orig
// to the hyperplane f = β is |β − f(π^orig)| / ‖a‖₂, the radius is the
// nearer finite bound, and, with witness set, the boundary point lies on
// that hyperplane at that distance.
func checkLinear(fs spec.FeatureSpec, orig []float64, got radiusWire, witness bool) error {
	a := fs.Impact.Coeffs
	v := fs.Impact.Offset + dot(a, orig)
	norm := math.Sqrt(dot(a, a))
	want, bound, beta := math.Inf(1), "unreachable", 0.0
	switch {
	case fs.Max != nil && v > *fs.Max, fs.Min != nil && v < *fs.Min:
		want, bound = 0, "already-violated"
	default:
		if fs.Max != nil {
			want, bound, beta = (*fs.Max-v)/norm, "beta-max", *fs.Max
		}
		if fs.Min != nil {
			if d := (v - *fs.Min) / norm; d < want {
				want, bound, beta = d, "beta-min", *fs.Min
			}
		}
	}
	if got.Bound != bound {
		return fmt.Errorf("bound %q, want %q", got.Bound, bound)
	}
	if !near(got.Radius, want, linearTol) {
		return fmt.Errorf("radius %.17g, Eq. 6 gives %.17g", got.Radius, want)
	}
	if !witness || bound != "beta-max" && bound != "beta-min" {
		return nil
	}
	if len(got.Boundary) != len(orig) {
		return fmt.Errorf("witness of dimension %d, want %d", len(got.Boundary), len(orig))
	}
	if on := fs.Impact.Offset + dot(a, got.Boundary); !near(on, beta, linearTol) {
		return fmt.Errorf("witness has f = %.17g, want β = %.17g", on, beta)
	}
	if d := dist(got.Boundary, orig); !near(d, want, linearTol) {
		return fmt.Errorf("witness at distance %.17g, want %.17g", d, want)
	}
	return nil
}

// checkConvex checks a convex terms radius r by its boundary witness
// π*: it lies at distance r from π^orig, the benchmark's own evaluation
// of the impact there equals β^max, and the move π* − π^orig points
// along ∇f(π*).
func checkConvex(fs spec.FeatureSpec, orig []float64, got radiusWire) error {
	if fs.Max == nil || fs.Min != nil {
		return errors.New("the convex oracle covers β^max-only features")
	}
	beta := *fs.Max
	if got.Bound != "beta-max" {
		return fmt.Errorf("bound %q, want beta-max", got.Bound)
	}
	if !(got.Radius > 0) || math.IsInf(got.Radius, 0) || len(got.Boundary) != len(orig) {
		return fmt.Errorf("radius %v with a witness of dimension %d", got.Radius, len(got.Boundary))
	}
	if d := dist(got.Boundary, orig); !near(d, got.Radius, convexTol) {
		return fmt.Errorf("witness at distance %.17g, radius %.17g", d, got.Radius)
	}
	if v := termsValue(fs.Impact.Terms, got.Boundary); !near(v, beta, convexTol) {
		return fmt.Errorf("witness has f = %.17g, want β = %.17g", v, beta)
	}
	g := termsGradient(fs.Impact.Terms, got.Boundary)
	move := make([]float64, len(orig))
	for i := range move {
		move[i] = got.Boundary[i] - orig[i]
	}
	if cos := dot(g, move) / math.Sqrt(dot(g, g)*dot(move, move)); !(cos >= 1-kktTol) {
		return fmt.Errorf("witness move at cos %.9f to ∇f: not a minimiser", cos)
	}
	return nil
}

// checkWatch rebuilds the full radius set from each frame's changed
// radii and checks it against Eq. 6 at every step: a radius the server
// left out of a frame must still be exact at the new operating point.
func checkWatch(req spec.WatchRequest) func([]byte) error {
	byName := make(map[string]spec.FeatureSpec, len(req.System.Features))
	for _, fs := range req.System.Features {
		byName[fs.Name] = fs
	}
	return func(body []byte) error {
		cur := make(map[string]radiusWire, len(byName))
		radii := make([]radiusWire, len(req.System.Features))
		step, total := 0, 0
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		for li, line := range lines {
			var fr frameWire
			if err := json.Unmarshal(line, &fr); err != nil {
				return fmt.Errorf("decoding line %d: %w", li+1, err)
			}
			if fr.Done != nil {
				switch {
				case li != len(lines)-1:
					return errors.New("summary before the end of the stream")
				case fr.Error != "":
					return fmt.Errorf("session aborted: %s", fr.Error)
				case fr.Steps != len(req.Points) || step != len(req.Points) || fr.TotalChanged != total:
					return fmt.Errorf("summary says %d steps, %d changed; saw %d frames, %d changed", fr.Steps, fr.TotalChanged, step, total)
				}
				return nil
			}
			step++
			if fr.Step != step || step > len(req.Points) {
				return fmt.Errorf("frame %d numbered %d", step, fr.Step)
			}
			pt := req.Points[step-1]
			if !equalFloats(fr.Orig, pt) {
				return fmt.Errorf("step %d: frame echoes another operating point", step)
			}
			if fr.ChangedCount != len(fr.Changed) {
				return fmt.Errorf("step %d: changed_count %d for %d radii", step, fr.ChangedCount, len(fr.Changed))
			}
			total += len(fr.Changed)
			for _, r := range fr.Changed {
				fs, ok := byName[r.Feature]
				if !ok {
					return fmt.Errorf("step %d: unknown feature %q", step, r.Feature)
				}
				if err := checkRadius(fs, pt, r, true); err != nil {
					return fmt.Errorf("step %d, changed %s: %w", step, r.Feature, err)
				}
				cur[r.Feature] = r
			}
			for i, fs := range req.System.Features {
				r, ok := cur[fs.Name]
				if !ok {
					return fmt.Errorf("step %d: %s never sent", step, fs.Name)
				}
				// A carried-over witness tracked an earlier point, so only
				// the radius and its bound are checked.
				if err := checkRadius(fs, pt, r, false); err != nil {
					return fmt.Errorf("step %d, carried-over %s: %w", step, fs.Name, err)
				}
				radii[i] = r
			}
			if err := checkMin(radii, fr.Robustness, fr.Critical); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		return errors.New("stream ended without a summary")
	}
}

// termsValue evaluates Σ terms at x: coeff·x, coeff·x^p, coeff·(e^{px} − 1)
// and coeff·x·log(1+x), the last two zero at x = 0 and powers and
// x·log(1+x) zero for x ≤ 0.
func termsValue(terms []spec.TermSpec, x []float64) float64 {
	var sum float64
	for _, t := range terms {
		xi := x[t.Index]
		switch t.Kind {
		case "linear":
			sum += t.Coeff * xi
		case "power":
			if xi > 0 {
				sum += t.Coeff * math.Pow(xi, t.P)
			}
		case "exp":
			sum += t.Coeff * (math.Exp(t.P*xi) - 1)
		case "xlogx":
			if xi > 0 {
				sum += t.Coeff * xi * math.Log1p(xi)
			}
		default:
			return math.NaN()
		}
	}
	return sum
}

// termsGradient is ∇ termsValue.
func termsGradient(terms []spec.TermSpec, x []float64) []float64 {
	g := make([]float64, len(x))
	for _, t := range terms {
		xi := x[t.Index]
		switch t.Kind {
		case "linear":
			g[t.Index] += t.Coeff
		case "power":
			if xi > 0 {
				g[t.Index] += t.Coeff * t.P * math.Pow(xi, t.P-1)
			}
		case "exp":
			g[t.Index] += t.Coeff * t.P * math.Exp(t.P*xi)
		case "xlogx":
			if xi > 0 {
				g[t.Index] += t.Coeff * (math.Log1p(xi) + xi/(1+xi))
			}
		}
	}
	return g
}

func near(got, want, tol float64) bool {
	return got == want || math.Abs(got-want) <= tol*math.Abs(want)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
