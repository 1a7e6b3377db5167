package spec

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"fepia/internal/convexfn"
	"fepia/internal/core"
)

const webFarm = `{
  "name": "web farm",
  "perturbation": {"name": "λ", "orig": [300, 200], "units": "req/s"},
  "features": [
    {"name": "T(edge)", "max": 1000,
     "impact": {"type": "linear", "coeffs": [1, 1], "offset": 0}},
    {"name": "T(db)", "max": 250000,
     "impact": {"type": "terms", "terms": [
       {"kind": "power", "index": 0, "coeff": 2, "p": 2},
       {"kind": "linear", "index": 1, "coeff": 3}
     ]}}
  ]
}`

func TestParseAndAnalyze(t *testing.T) {
	sys, err := Parse([]byte(webFarm))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "web farm" || len(sys.Features) != 2 {
		t.Fatalf("parsed system: %+v", sys)
	}
	a, err := core.Analyze(sys.Features, sys.Perturbation, sys.Options)
	if err != nil {
		t.Fatal(err)
	}
	// Feature 1: plane λ₁+λ₂ = 1000 from (300,200): radius 500/√2.
	want := 500 / math.Sqrt2
	if math.Abs(a.Radii[0].Radius-want) > 1e-9 {
		t.Errorf("linear radius = %v want %v", a.Radii[0].Radius, want)
	}
	// Feature 2: convex 2λ₁² + 3λ₂ = 250000 — solved by the convex path;
	// just require a finite positive radius on the boundary.
	if !(a.Radii[1].Radius > 0) || math.IsInf(a.Radii[1].Radius, 0) {
		t.Errorf("convex radius = %v", a.Radii[1].Radius)
	}
	if got := sys.Features[1].Impact.Eval(a.Radii[1].Boundary); math.Abs(got-250000) > 1 {
		t.Errorf("boundary point off: f = %v", got)
	}
}

// Two decodes of the same document must produce terms impacts with the
// same content fingerprint — that equality is what lets the radius cache
// (and a peer node the request is forwarded to) reuse a convex solve
// across requests. Different term lists must not collide.
func TestTermsImpactFingerprintStable(t *testing.T) {
	fp := func(doc string) []byte {
		t.Helper()
		sys, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		fi, ok := sys.Features[1].Impact.(*core.FuncImpact)
		if !ok {
			t.Fatalf("terms impact decoded as %T, want *core.FuncImpact", sys.Features[1].Impact)
		}
		if len(fi.Fingerprint) == 0 {
			t.Fatal("terms impact has no fingerprint")
		}
		return fi.Fingerprint
	}
	a, b := fp(webFarm), fp(webFarm)
	if string(a) != string(b) {
		t.Fatalf("same document, different fingerprints:\n%x\n%x", a, b)
	}
	other := strings.Replace(webFarm, `"coeff": 2, "p": 2`, `"coeff": 2, "p": 3`, 1)
	if string(fp(other)) == string(a) {
		t.Fatal("different term lists share a fingerprint")
	}
}

// termsFingerprint sizes its buffer exactly, so a terms impact's
// content identity costs one allocation and no copy.
func TestTermsFingerprintOneAllocation(t *testing.T) {
	c := convexfn.Complexity{
		{Kind: convexfn.PowerTerm, Index: 3, Coeff: 1.5, P: 2},
		{Kind: convexfn.PowerTerm, Index: 4, Coeff: 1.2, P: 3},
		{Kind: convexfn.XLogXTerm, Index: 5, Coeff: 1.1},
		{Kind: convexfn.ExpTerm, Index: 6, Coeff: 0.1, P: 0.5},
	}
	var fp []byte
	if allocs := testing.AllocsPerRun(100, func() { fp = termsFingerprint(16, c) }); allocs != 1 {
		t.Errorf("termsFingerprint makes %v allocations, want 1", allocs)
	}
	if len(fp) != cap(fp) {
		t.Errorf("fingerprint of %d bytes in a buffer of %d", len(fp), cap(fp))
	}
}

// A terms impact declares the loads it reads, sorted and distinct, and
// that it is non-decreasing, so the solver can search only those loads.
func TestTermsImpactSupportAndMonotone(t *testing.T) {
	sys, err := Parse([]byte(`{"perturbation":{"orig":[1,2,3,4,5]},"features":[{"max":500,"impact":{"type":"terms","terms":[
	  {"kind":"power","index":3,"coeff":1,"p":2},
	  {"kind":"exp","index":1,"coeff":0.5,"p":0.25},
	  {"kind":"linear","index":3,"coeff":2},
	  {"kind":"xlogx","index":0,"coeff":1}]}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := sys.Features[0].Impact.(*core.FuncImpact)
	if !ok {
		t.Fatalf("terms impact decoded as %T, want *core.FuncImpact", sys.Features[0].Impact)
	}
	if want := []int{0, 1, 3}; !slices.Equal(fi.Support, want) || !fi.Monotone {
		t.Errorf("Support %v, Monotone %v; want %v, true", fi.Support, fi.Monotone, want)
	}
}

func TestParseNorms(t *testing.T) {
	base := `{"perturbation": {"orig": [0, 0]}, "norm": %q,
	  "features": [{"max": 10, "impact": {"type": "linear", "coeffs": [1, 2]}}]}`
	for norm, want := range map[string]float64{
		"l2":   10 / math.Sqrt(5),
		"l1":   5,
		"linf": 10.0 / 3,
	} {
		sys, err := Parse([]byte(strings.Replace(base, "%q", `"`+norm+`"`, 1)))
		if err != nil {
			t.Fatalf("%s: %v", norm, err)
		}
		a, err := core.Analyze(sys.Features, sys.Perturbation, sys.Options)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Robustness-want) > 1e-9 {
			t.Errorf("%s: ρ = %v want %v", norm, a.Robustness, want)
		}
	}
	if _, err := Parse([]byte(strings.Replace(base, "%q", `"l7"`, 1))); err == nil {
		t.Errorf("unknown norm accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"malformed JSON":     `{`,
		"empty perturbation": `{"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`,
		"no features":        `{"perturbation":{"orig":[1]}}`,
		"no bounds":          `{"perturbation":{"orig":[1]},"features":[{"impact":{"type":"linear","coeffs":[1]}}]}`,
		"coeff dimension":    `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1,2]}}]}`,
		"missing type":       `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{}}]}`,
		"unknown type":       `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"magic"}}]}`,
		"empty terms":        `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms"}}]}`,
		"unknown kind":       `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms","terms":[{"kind":"quux","index":0,"coeff":1}]}}]}`,
		"bad term index":     `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms","terms":[{"kind":"linear","index":5,"coeff":1}]}}]}`,
		"non-convex power":   `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms","terms":[{"kind":"power","index":0,"coeff":1,"p":0.5}]}}]}`,
		"inverted bounds":    `{"perturbation":{"orig":[1]},"features":[{"min":5,"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`,
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	doc := `{"perturbation":{"orig":[1,1]},
	  "features":[{"max":10,"impact":{"type":"linear","coeffs":[1,1]}}]}`
	sys, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Perturbation.Name != "π" {
		t.Errorf("default perturbation name = %q", sys.Perturbation.Name)
	}
	if sys.Features[0].Name != "phi_1" {
		t.Errorf("default feature name = %q", sys.Features[0].Name)
	}
	if !math.IsInf(sys.Features[0].Bounds.Min, -1) {
		t.Errorf("absent min should be −Inf")
	}
}

func TestLinearTermsCollapse(t *testing.T) {
	// An all-linear "terms" impact becomes a LinearImpact (hyperplane
	// path).
	doc := `{"perturbation":{"orig":[0,0]},
	  "features":[{"max":6,"impact":{"type":"terms","terms":[
	    {"kind":"linear","index":0,"coeff":1},
	    {"kind":"linear","index":1,"coeff":1}]}}]}`
	sys, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Features[0].Impact.(*core.LinearImpact); !ok {
		t.Errorf("all-linear terms did not collapse: %T", sys.Features[0].Impact)
	}
}

func TestEncode(t *testing.T) {
	sys, err := Parse([]byte(webFarm))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(sys.Features, sys.Perturbation, sys.Options)
	if err != nil {
		t.Fatal(err)
	}
	out := Encode(sys.Name, a)
	if out.Name != "web farm" || out.Robustness <= 0 || len(out.Radii) != 2 {
		t.Errorf("encoded: %+v", out)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("result not JSON-serialisable: %v", err)
	}
	if !strings.Contains(string(data), "critical_feature") {
		t.Errorf("JSON missing fields: %s", data)
	}
	// Infinite radii must serialise as −1, keeping the document plain JSON.
	inf := core.Analysis{
		Perturbation: "π",
		Robustness:   math.Inf(1),
		Critical:     -1,
		Radii:        []core.RadiusResult{{Feature: "f", Radius: math.Inf(1), Kind: core.Unreachable}},
	}
	enc := Encode("x", inf)
	if enc.Robustness != -1 || enc.Radii[0].Radius != -1 {
		t.Errorf("infinite radii not sanitised: %+v", enc)
	}
	if _, err := json.Marshal(enc); err != nil {
		t.Errorf("infinite-result document not serialisable: %v", err)
	}
}
