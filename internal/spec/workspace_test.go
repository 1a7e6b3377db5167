package spec

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fepia/internal/core"
)

// decodeFile and decodeBatch are the fast paths of Parse and ParseBatch
// on a fresh workspace, for the differential tests.
func decodeFile(data []byte) (File, bool) { return new(Workspace).decodeFile(data) }

func decodeBatch(data []byte) (BatchRequest, bool) { return new(Workspace).decodeBatch(data) }

// sameSystem requires got, built in a reused workspace, to equal want,
// built fresh: the same document, operating point, norm and features,
// impacts compared by content.
func sameSystem(t *testing.T, data []byte, got, want *System) {
	t.Helper()
	if got.Name != want.Name || !reflect.DeepEqual(got.File, want.File) ||
		!reflect.DeepEqual(got.Perturbation, want.Perturbation) || got.Options != want.Options ||
		len(got.Features) != len(want.Features) {
		t.Fatalf("reused workspace built a different system from %q", data)
	}
	for i, g := range got.Features {
		w := want.Features[i]
		if g.Name != w.Name || g.Bounds != w.Bounds {
			t.Fatalf("feature %d differs on %q: %+v vs %+v", i, data, g, w)
		}
		switch gi := g.Impact.(type) {
		case *core.LinearImpact:
			wi, ok := w.Impact.(*core.LinearImpact)
			if !ok || !reflect.DeepEqual(gi, wi) {
				t.Fatalf("feature %d impact differs on %q: %+v vs %+v", i, data, g.Impact, w.Impact)
			}
		case *core.FuncImpact:
			wi, ok := w.Impact.(*core.FuncImpact)
			if !ok || !bytes.Equal(gi.Fingerprint, wi.Fingerprint) {
				t.Fatalf("feature %d impact differs on %q", i, data)
			}
		default:
			t.Fatalf("feature %d: impact %T", i, g.Impact)
		}
	}
}

// encodeSystem analyses sys and encodes the result through the
// workspace's wire slots, returning the document's bytes; nil when the
// analysis fails.
func encodeSystem(t *testing.T, w *Workspace, systems []*System, i int) []byte {
	t.Helper()
	a, err := core.Analyze(systems[i].Features, systems[i].Perturbation, systems[i].Options)
	if err != nil {
		return nil
	}
	radii, wire := w.Slots(i)
	copy(radii, a.Radii)
	a.Radii = radii
	out, err := AppendJSON(nil, EncodeInto(wire, systems[i].Name, a), true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkReuse parses data as a batch envelope (batch) or a bare document
// through w and requires the same verdict, error bytes, systems and
// encoded results as a fresh parse, then resets w.
func checkReuse(t *testing.T, w *Workspace, data []byte, batch bool) {
	t.Helper()
	defer w.Reset()
	var got, want []*System
	var err, refErr error
	if batch {
		got, err = w.ParseBatch(data)
		want, refErr = ParseBatch(data)
	} else {
		var g, r *System
		g, err = w.Parse(data)
		r, refErr = Parse(data)
		got, want = []*System{g}, []*System{r}
	}
	sameError(t, data, err, refErr)
	if err != nil {
		return
	}
	results := w.Reserve(got)
	if len(results) != len(got) {
		t.Fatalf("Reserve returned %d results for %d systems", len(results), len(got))
	}
	for i := range got {
		sameSystem(t, data, got[i], want[i])
		var wantDoc []byte
		if a, err := core.Analyze(want[i].Features, want[i].Perturbation, want[i].Options); err == nil {
			if wantDoc, err = AppendJSON(nil, Encode(want[i].Name, a), true); err != nil {
				t.Fatal(err)
			}
		}
		if gotDoc := encodeSystem(t, w, got, i); !bytes.Equal(gotDoc, wantDoc) {
			t.Fatalf("system %d of %q encodes differently through the workspace:\n%s\n%s", i, data, gotDoc, wantDoc)
		}
	}
}

// TestWorkspaceReuse runs documents of different sizes and shapes
// through one workspace, each after the others have grown and reset it:
// every answer must equal a fresh parse's.
func TestWorkspaceReuse(t *testing.T) {
	var w Workspace
	long := `{"systems":[` + strings.Repeat(decodeSeeds[5]+",", 40) + decodeSeeds[6] + `]}`
	for round := 0; round < 3; round++ {
		for _, s := range decodeSeeds {
			checkReuse(t, &w, []byte(s), false)
			checkReuse(t, &w, []byte(`{"systems":[`+s+`,`+decodeSeeds[2]+`]}`), true)
		}
		checkReuse(t, &w, []byte(long), true)
		checkReuse(t, &w, []byte(`{"systems":[]}`), true)
	}
}

// FuzzWorkspaceReuse is FuzzParse through one workspace reused across
// every input: each answer must equal a fresh parse's. Built with -tags
// fepia_poison, the workspace is overwritten with junk between inputs,
// so a slot that decode or build reads before writing shows here.
func FuzzWorkspaceReuse(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s), false)
		f.Add([]byte(`{"systems":[`+s+`,`+decodeSeeds[5]+`]}`), true)
	}
	var w Workspace
	f.Fuzz(func(t *testing.T, data []byte, batch bool) {
		checkReuse(t, &w, data, batch)
	})
}

// TestWorkspaceWarmParseAllocates pins the point of the workspace: once
// it has decoded a document, decoding, building, laying out and encoding
// another of the same shape allocates nothing but the one *System slice
// of a bare document.
func TestWorkspaceWarmParseAllocates(t *testing.T) {
	if poisonSlabs {
		t.Skip("poisoning rewrites the slabs on every reset")
	}
	data := []byte(decodeSeeds[5])
	var w Workspace
	run := func() {
		sys, err := w.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		systems := []*System{sys}
		w.Reserve(systems)
		radii, wire := w.Slots(0)
		for i := range radii {
			radii[i] = core.RadiusResult{Feature: sys.Features[i].Name, Radius: 1}
		}
		_ = EncodeInto(wire, sys.Name, core.NewAnalysis(sys.Perturbation, radii))
		w.Reset()
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs > 1 {
		t.Fatalf("warm workspace parse allocates %v times, want at most 1", allocs)
	}
}

// TestBuildCopiesCallerFile pins Build's ownership rule: the system
// copies a caller's coefficient vectors and operating point, so editing
// the File afterwards leaves the system as built.
func TestBuildCopiesCallerFile(t *testing.T) {
	f, ok := decodeFile([]byte(decodeSeeds[5]))
	if !ok {
		t.Fatal("seed outside the fast path")
	}
	sys, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Perturbation.Orig[0] = math.NaN()
	f.Features[0].Impact.Coeffs[1] = math.NaN()
	if math.IsNaN(sys.Perturbation.Orig[0]) || math.IsNaN(sys.Features[0].Impact.(*core.LinearImpact).Coeffs[1]) {
		t.Fatal("Build aliased the caller's File")
	}
}

// TestWorkspaceInternBounded decodes more distinct names than the
// interning table keeps: the table stops at its cap, and every name
// still decodes.
func TestWorkspaceInternBounded(t *testing.T) {
	var w Workspace
	w.Reset() // a reused workspace interns
	for i := 0; i < 2*maxNames; i++ {
		name := "system-" + strconv.Itoa(i)
		sys, err := w.Parse([]byte(`{"name":"` + name + `","perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`))
		if err != nil || sys.Name != name {
			t.Fatalf("name %q decoded as %q, %v", name, sys.Name, err)
		}
		w.Reset()
	}
	if len(w.names) > maxNames {
		t.Fatalf("interning table holds %d names, cap %d", len(w.names), maxNames)
	}
}
