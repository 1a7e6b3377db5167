// Package spec parses JSON descriptions of arbitrary systems into the
// FePIA vocabulary, so the robustness analysis can be run from the command
// line without writing Go (cmd/fepia and cmd/certify build on it). A spec
// captures the outcome of FePIA steps 1–3 — features with bounds,
// perturbation parameter, impact functions — and the tool performs step 4.
//
// Format:
//
//	{
//	  "name": "web farm",
//	  "perturbation": {
//	    "name": "λ", "orig": [300, 200], "units": "req/s", "discrete": false
//	  },
//	  "norm": "l2",                      // optional: l2 (default), l1, linf
//	  "features": [
//	    {
//	      "name": "T(edge)",
//	      "max": 0.01,                   // omit min/max for one-sided bounds
//	      "impact": {"type": "linear", "coeffs": [0.9, 1.1], "offset": 0}
//	    },
//	    {
//	      "name": "T(db)",
//	      "max": 0.05,
//	      "impact": {"type": "terms", "terms": [
//	        {"kind": "power", "index": 0, "coeff": 2.5, "p": 2},
//	        {"kind": "xlogx", "index": 1, "coeff": 0.3}
//	      ]}
//	    }
//	  ]
//	}
//
// "terms" impacts are built from the §3.2 convex forms (linear, power with
// p ≥ 1, exp with p > 0, xlogx) and are therefore convex and analysed with
// the global convex solver.
package spec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"fepia/internal/convexfn"
	"fepia/internal/core"
	"fepia/internal/vecmath"
)

// File is the top-level JSON document.
type File struct {
	// Name labels reports.
	Name string `json:"name"`
	// Perturbation is FePIA step 2.
	Perturbation PerturbationSpec `json:"perturbation"`
	// Norm selects the perturbation-space norm: "l2" (default), "l1",
	// "linf".
	Norm string `json:"norm,omitempty"`
	// Features is FePIA steps 1 and 3.
	Features []FeatureSpec `json:"features"`
	// Anytime opts this document into anytime serving: if the request
	// deadline expires before a numeric boundary solve converges, the
	// response carries the best certified lower bound ("bound": "lower",
	// meta.anytime true) instead of failing with a timeout. The fepiad
	// -anytime flag enables the same behaviour server-wide. omitempty
	// keeps the canonical route-key digest of non-anytime documents
	// unchanged.
	Anytime bool `json:"anytime,omitempty"`
}

// PerturbationSpec mirrors core.Perturbation.
type PerturbationSpec struct {
	Name     string    `json:"name"`
	Orig     []float64 `json:"orig"`
	Units    string    `json:"units,omitempty"`
	Discrete bool      `json:"discrete,omitempty"`
}

// FeatureSpec is one performance feature. Min/Max are pointers so "absent"
// (one-sided bound) is distinguishable from zero.
type FeatureSpec struct {
	Name   string     `json:"name"`
	Min    *float64   `json:"min,omitempty"`
	Max    *float64   `json:"max,omitempty"`
	Impact ImpactSpec `json:"impact"`
}

// ImpactSpec describes an impact function.
type ImpactSpec struct {
	// Type is "linear" or "terms".
	Type string `json:"type"`
	// Coeffs and Offset apply to "linear".
	Coeffs []float64 `json:"coeffs,omitempty"`
	Offset float64   `json:"offset,omitempty"`
	// Terms applies to "terms".
	Terms []TermSpec `json:"terms,omitempty"`
}

// TermSpec is one convex term.
type TermSpec struct {
	// Kind is "linear", "power", "exp", or "xlogx".
	Kind string `json:"kind"`
	// Index is the perturbation component the term depends on.
	Index int `json:"index"`
	// Coeff is the non-negative multiplier.
	Coeff float64 `json:"coeff"`
	// P is the exponent/rate for "power" and "exp".
	P float64 `json:"p,omitempty"`
}

// System is a parsed, validated spec ready for analysis.
type System struct {
	// Name labels reports.
	Name string
	// Features is Φ.
	Features []core.Feature
	// Perturbation is π with its operating point.
	Perturbation core.Perturbation
	// Options carries the norm selection.
	Options core.Options
	// File is the decoded source document the system was built from,
	// retained so cluster forwarding can re-marshal sub-batches without
	// keeping the original request body around, and so RouteKey can be
	// computed on demand.
	File File
}

// RouteKey is a deterministic 64-bit digest of the canonical spec
// document, identical for the same spec on every node regardless of
// request formatting: FNV-64a of json.Marshal(s.File), whose struct
// field order is fixed and which drops the request's whitespace. The
// cluster layer (internal/cluster) hashes it onto the consistent-hash
// ring to pick the owning fepiad node, so structurally identical systems
// always land on the same node's warm cache. It is computed on every
// call; only a ring router needs it.
func (s *System) RouteKey() uint64 {
	doc, err := json.Marshal(s.File)
	if err != nil {
		// A decoded File always re-marshals; keep the key infallible.
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write(doc)
	return h.Sum64()
}

// Parse decodes and validates a JSON spec. Every failure is a
// *ValidationError carrying the JSON field path of the offending value
// (and matching ErrInvalidSpec), so callers can distinguish client
// mistakes from engine failures with errors.As. The system's features
// and operating point share their float slices with its File.
func Parse(data []byte) (*System, error) { return new(Workspace).Parse(data) }

// Build validates a decoded File and assembles the analysable system.
// The system copies the coefficient vectors and the operating point, so
// the caller keeps f's slices.
func Build(f File) (*System, error) { return new(Workspace).build(f, false) }

// build is Build into w. owned says f's slices were decoded for this
// call alone, so the system aliases them instead of copying.
func (w *Workspace) build(f File, owned bool) (*System, error) {
	p := core.Perturbation{
		Name:     f.Perturbation.Name,
		Orig:     w.own(f.Perturbation.Orig, owned),
		Units:    f.Perturbation.Units,
		Discrete: f.Perturbation.Discrete,
	}
	if p.Name == "" {
		p.Name = "π"
	}
	if err := p.Validate(); err != nil {
		return nil, invalidErr("perturbation", err)
	}
	dim := len(p.Orig)

	var opts core.Options
	switch f.Norm {
	case "", "l2":
		opts.Norm = vecmath.L2{}
	case "l1":
		opts.Norm = vecmath.L1{}
	case "linf":
		opts.Norm = vecmath.LInf{}
	default:
		return nil, invalidf("norm", "unknown norm %q (want l2, l1, or linf)", f.Norm)
	}

	if len(f.Features) == 0 {
		return nil, invalidf("features", "no features")
	}
	features := w.feats.take(len(f.Features))
	for i, fs := range f.Features {
		name := fs.Name
		if name == "" {
			name = fmt.Sprintf("phi_%d", i+1)
		}
		bounds := core.Bounds{Min: math.Inf(-1), Max: math.Inf(1)}
		if fs.Min != nil {
			bounds.Min = *fs.Min
		}
		if fs.Max != nil {
			bounds.Max = *fs.Max
		}
		if fs.Min == nil && fs.Max == nil {
			return nil, invalidf(featurePath(i), "feature %q has neither min nor max", name)
		}
		impact, err := w.buildImpact(fs.Impact, dim, owned)
		if err != nil {
			return nil, PrefixPath(featurePath(i)+".impact", err)
		}
		features[i] = core.Feature{Name: name, Impact: impact, Bounds: bounds}
		if err := features[i].Validate(); err != nil {
			return nil, invalidErr(featurePath(i), err)
		}
	}
	sys := &w.systems.take(1)[0]
	*sys = System{Name: f.Name, Features: features, Perturbation: p, Options: opts, File: f}
	return sys, nil
}

// featurePath is the document path of feature i, formatted only for an
// error.
func featurePath(i int) string { return "features[" + strconv.Itoa(i) + "]" }

// own returns xs when the caller owns it, else a copy in w's arena.
func (w *Workspace) own(xs []float64, owned bool) []float64 {
	if owned || xs == nil {
		return xs
	}
	c := w.floats.take(len(xs))
	copy(c, xs)
	return c
}

// buildImpact assembles the impact function of one feature; the paths
// of its errors are relative to the impact object.
func (w *Workspace) buildImpact(is ImpactSpec, dim int, owned bool) (core.Impact, error) {
	switch is.Type {
	case "linear":
		if len(is.Coeffs) != dim {
			return nil, invalidf("coeffs", "%d coefficients for a %d-dimensional perturbation", len(is.Coeffs), dim)
		}
		return w.linearImpact(w.own(is.Coeffs, owned), is.Offset, "")
	case "terms":
		if len(is.Terms) == 0 {
			return nil, invalidf("terms", "empty term list")
		}
		c := make(convexfn.Complexity, len(is.Terms))
		for j, ts := range is.Terms {
			kind, err := parseKind(ts.Kind)
			if err != nil {
				return nil, invalidErr("terms["+strconv.Itoa(j)+"].kind", err)
			}
			c[j] = convexfn.Term{Kind: kind, Index: ts.Index, Coeff: ts.Coeff, P: ts.P}
		}
		if err := c.Validate(dim); err != nil {
			return nil, invalidErr("terms", err)
		}
		if c.IsLinear() {
			return w.linearImpact(c.LinearCoeffs(dim), 0, "terms")
		}
		return &core.FuncImpact{
			N:      dim,
			F:      c.Eval,
			Grad:   c.Gradient,
			Convex: true,
			// The term list fully determines the function, so encode it as
			// the impact's content identity: decoding the same document
			// twice — or on two cluster nodes — yields cache-equal
			// impacts, and convex radii memoise across requests like
			// linear ones do. Support and Monotone are functions of the
			// list too, so equal fingerprints imply equal ones.
			Fingerprint: termsFingerprint(dim, c),
			// Each term reads one load, and Validate has forced
			// Coeff ≥ 0 and P ≥ 1 (or P > 0 for exp), so every term, and
			// their sum, is non-decreasing.
			Support:  c.Support(),
			Monotone: true,
		}, nil
	case "":
		return nil, invalidf("type", "impact type missing")
	default:
		return nil, invalidf("type", "unknown impact type %q (want linear or terms)", is.Type)
	}
}

// linearImpact validates a linear impact over coeffs, which it keeps,
// and places it in w; path locates a validation error.
func (w *Workspace) linearImpact(coeffs []float64, offset float64, path string) (core.Impact, error) {
	imp := &w.linear.take(1)[0]
	*imp = core.LinearImpact{Coeffs: coeffs, Offset: offset}
	if err := imp.Validate(); err != nil {
		return nil, invalidErr(path, err)
	}
	return imp, nil
}

// termsFingerprint canonically encodes a validated term list (plus the
// perturbation dimension) as the FuncImpact content identity. Every
// field that changes the function's value enters the encoding, floats by
// IEEE-754 bit pattern, so fingerprint equality is exactly functional
// equality for terms-built impacts.
func termsFingerprint(dim int, c convexfn.Complexity) []byte {
	// "t1", the dimension, then per term its kind byte and three words.
	b := make([]byte, 0, 10+25*len(c))
	b = append(b, 't', '1') // terms encoding, version 1
	b = binary.LittleEndian.AppendUint64(b, uint64(dim))
	for _, t := range c {
		b = append(b, byte(t.Kind))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Index))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Coeff))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.P))
	}
	return b
}

// parseKind maps the JSON kind strings onto TermKind.
func parseKind(s string) (convexfn.TermKind, error) {
	switch s {
	case "linear":
		return convexfn.LinearTerm, nil
	case "power":
		return convexfn.PowerTerm, nil
	case "exp":
		return convexfn.ExpTerm, nil
	case "xlogx":
		return convexfn.XLogXTerm, nil
	default:
		return 0, fmt.Errorf("unknown term kind %q (want linear, power, exp, or xlogx)", s)
	}
}

// ResultJSON is the machine-readable analysis output of cmd/fepia.
type ResultJSON struct {
	Name         string       `json:"name,omitempty"`
	Perturbation string       `json:"perturbation"`
	Units        string       `json:"units,omitempty"`
	Robustness   float64      `json:"robustness"`
	Critical     string       `json:"critical_feature,omitempty"`
	Radii        []RadiusJSON `json:"radii"`
	// Meta is the fepiad serving envelope: which node answered, whether
	// the request was forwarded across the cluster ring, whether the
	// answer was served degraded, and where the radii came from (cache
	// hit, fresh solve, coalesced wait, or kernel sweep). Nil on library
	// and CLI output, so in-process documents stay byte-identical to
	// pre-cluster releases.
	Meta *ResponseMeta `json:"meta,omitempty"`
}

// RadiusJSON is one feature's radius.
type RadiusJSON struct {
	Feature  string    `json:"feature"`
	Radius   float64   `json:"radius"`
	Kind     string    `json:"bound"`
	Boundary []float64 `json:"boundary,omitempty"`
}

// Encode converts an analysis into the JSON result document.
// Non-finite radii are serialised as the string "inf" by the caller's
// encoder settings; to stay plain-JSON compatible they are emitted as −1
// with the bound "unreachable".
func Encode(name string, a core.Analysis) ResultJSON { return EncodeInto(nil, name, a) }

// EncodeInto is Encode writing the radii into dst when it holds one slot
// per radius, and into a new slice otherwise.
func EncodeInto(dst []RadiusJSON, name string, a core.Analysis) ResultJSON {
	out := ResultJSON{
		Name:         name,
		Perturbation: a.Perturbation,
		Units:        a.Units,
		Robustness:   finiteOr(a.Robustness, -1),
	}
	if cf := a.CriticalFeature(); cf != nil {
		out.Critical = cf.Feature
	}
	if len(a.Radii) == 0 {
		return out
	}
	if len(dst) != len(a.Radii) {
		dst = make([]RadiusJSON, len(a.Radii))
	}
	for i, r := range a.Radii {
		dst[i] = RadiusJSON{
			Feature:  r.Feature,
			Radius:   finiteOr(r.Radius, -1),
			Kind:     r.Kind.String(),
			Boundary: r.Boundary,
		}
	}
	out.Radii = dst
	return out
}

func finiteOr(x, alt float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return alt
	}
	return x
}
