package spec

import (
	"encoding/json"
	"math"
	"strconv"
	"unsafe"

	"fepia/internal/core"
)

// Workspace is the reusable memory of one analyze or batch request: the
// decoded documents, the systems built from them, the radius slots the
// engine fills and the wire radii and results they are encoded into. A
// server keeps a pool of them, so a warm request decodes, builds,
// analyses and encodes into memory an earlier request already grew.
//
// Everything a Workspace hands out — the systems Parse and ParseBatch
// return, every slice inside them, and the slots of Reserve and Slots —
// belongs to it until Reset: no caller may keep any of it past Reset.
// Names are the exception: strings are immutable, so a reused workspace
// interns the names it decodes (a bounded table) and the strings may be
// kept. A Workspace is not safe for concurrent use, except that Slots
// only reads the layout Reserve made.
//
// The zero value is ready to use. Parse, ParseBatch and Build run on a
// fresh Workspace of their own, which becomes the caller's heap memory.
type Workspace struct {
	floats  slab[float64]
	specs   slab[FeatureSpec]
	terms   slab[TermSpec]
	files   slab[File]
	systems slab[System]
	ptrs    slab[*System]
	feats   slab[core.Feature]
	linear  slab[core.LinearImpact]
	radii   slab[core.RadiusResult]
	wire    slab[RadiusJSON]
	results slab[ResultJSON]
	// offsets[i] is where system i's slots start in the last Reserve's
	// slotRadii and slotWire runs; offsets[len] is their end.
	offsets   []int
	slotRadii []core.RadiusResult
	slotWire  []RadiusJSON
	// names interns decoded strings once the workspace is reused.
	names map[string]string
}

// Interning bounds: a reused workspace keeps at most maxNames strings of
// at most maxNameLen bytes each; longer or later strings are copied per
// request as a fresh workspace copies every string.
const (
	maxNames   = 256
	maxNameLen = 32
)

// Parse is the package-level Parse decoding into w.
func (w *Workspace) Parse(data []byte) (*System, error) {
	f, ok := w.decodeFile(data)
	if !ok {
		// A fresh value: the fast path may have filled f partway, and
		// only this path pays for the one json.Unmarshal moves to the heap.
		var full File
		if err := json.Unmarshal(data, &full); err != nil {
			return nil, malformed(err)
		}
		f = full
	}
	return w.build(f, true)
}

// ParseBatch is the package-level ParseBatch decoding into w.
func (w *Workspace) ParseBatch(data []byte) ([]*System, error) {
	req, ok := w.decodeBatch(data)
	if !ok {
		var full BatchRequest // as in Parse
		if err := json.Unmarshal(data, &full); err != nil {
			return nil, malformed(err)
		}
		req = full
	}
	if len(req.Systems) == 0 {
		return nil, invalidf("systems", "no systems")
	}
	out := w.ptrs.take(len(req.Systems))
	for i, f := range req.Systems {
		sys, err := w.build(f, true)
		if err != nil {
			return nil, PrefixPath("systems["+strconv.Itoa(i)+"]", err)
		}
		out[i] = sys
	}
	return out, nil
}

// Reserve lays out the serving slots of systems and returns one result
// slot per system: Slots(i) then holds system i's radius and wire radius
// slots, one per feature. The slots hold no meaningful value until
// written. Call it once per request, before the systems are analysed
// concurrently.
func (w *Workspace) Reserve(systems []*System) []ResultJSON {
	w.offsets = append(w.offsets[:0], 0)
	n := 0
	for _, sys := range systems {
		n += len(sys.Features)
		w.offsets = append(w.offsets, n)
	}
	w.slotRadii = w.radii.take(n)
	w.slotWire = w.wire.take(n)
	return w.results.take(len(systems))
}

// Slots returns system i's radius and wire radius slots from the last
// Reserve, each capped at its length. It is safe for concurrent use.
func (w *Workspace) Slots(i int) ([]core.RadiusResult, []RadiusJSON) {
	lo, hi := w.offsets[i], w.offsets[i+1]
	return w.slotRadii[lo:hi:hi], w.slotWire[lo:hi:hi]
}

// Reset releases everything w handed out, keeping its memory for the
// next request.
func (w *Workspace) Reset() {
	w.floats.reset()
	w.specs.reset()
	w.terms.reset()
	w.files.reset()
	w.systems.reset()
	w.ptrs.reset()
	w.feats.reset()
	w.linear.reset()
	w.radii.reset()
	w.wire.reset()
	w.results.reset()
	w.offsets, w.slotRadii, w.slotWire = w.offsets[:0], nil, nil
	if w.names == nil {
		w.names = make(map[string]string)
	}
}

// Retained is the number of bytes w's slabs hold, for a pool's
// size limit. The interning table, at most maxNames short strings, is
// not counted.
func (w *Workspace) Retained() int {
	return w.floats.bytes() + w.specs.bytes() + w.terms.bytes() + w.files.bytes() +
		w.systems.bytes() + w.ptrs.bytes() + w.feats.bytes() + w.linear.bytes() +
		w.radii.bytes() + w.wire.bytes() + w.results.bytes() + 8*cap(w.offsets)
}

// intern returns b as a string: the format's enumerated names and, on a
// reused workspace, the strings it has met before without allocating.
func (w *Workspace) intern(b []byte) string {
	if s := constant(b); s != "" {
		return s
	}
	if w.names == nil || len(b) > maxNameLen {
		return string(b)
	}
	if s, ok := w.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(w.names) < maxNames {
		w.names[s] = s
	}
	return s
}

// slabBytes is the least a slab allocates at once, so a fresh workspace
// decoding many short arrays makes a few allocations, not one per array.
const slabBytes = 1024

// slab hands out runs of T from one backing array that the workspace's
// next request reuses. When the array is full, a larger one replaces it
// and the run being built moves along; runs handed out earlier keep the
// old array, which the next request no longer uses.
type slab[T any] struct{ buf []T }

// grow makes room for n more elements after the run that starts at lo
// and returns where that run starts afterwards.
func (s *slab[T]) grow(n, lo int) int {
	if n <= cap(s.buf)-len(s.buf) {
		return lo
	}
	var zero T
	run := s.buf[lo:]
	buf := make([]T, len(run), max(2*cap(s.buf), len(run)+n, slabBytes/int(unsafe.Sizeof(zero))))
	if poisonSlabs {
		fill(buf[len(run):cap(buf)], junk[T]())
	}
	copy(buf, run)
	s.buf = buf
	return 0
}

// take returns n elements, capped at n. They are zero, or junk under the
// poison hook: the caller writes every one.
func (s *slab[T]) take(n int) []T {
	s.grow(n, len(s.buf))
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// push appends a zero element to the run that starts at *lo, updating
// *lo when the run moves, and returns it. The pointer is good until the
// next push.
func (s *slab[T]) push(lo *int) *T {
	*lo = s.grow(1, *lo)
	var zero T
	s.buf = append(s.buf, zero)
	return &s.buf[len(s.buf)-1]
}

// run returns the run that starts at lo, capped at its length.
func (s *slab[T]) run(lo int) []T {
	return s.buf[lo:len(s.buf):len(s.buf)]
}

// reset empties the slab, zeroing what it handed out so the pool does
// not keep it reachable — or overwriting its whole array with junk under
// the poison hook.
func (s *slab[T]) reset() {
	if poisonSlabs {
		fill(s.buf[:cap(s.buf)], junk[T]())
	} else {
		clear(s.buf)
	}
	s.buf = s.buf[:0]
}

func (s *slab[T]) bytes() int {
	var zero T
	return cap(s.buf) * int(unsafe.Sizeof(zero))
}

func fill[T any](xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}

// junkName is the name every poisoned slot carries.
const junkName = "\x00poisoned workspace"

var (
	junkFloats = []float64{math.NaN(), math.NaN(), math.NaN()}
	junkNaN    = math.NaN()
	junkLinear = core.LinearImpact{Coeffs: junkFloats, Offset: math.NaN()}
	junkSpec   = FeatureSpec{Name: junkName, Min: &junkNaN, Max: &junkNaN,
		Impact: ImpactSpec{Type: junkName, Coeffs: junkFloats, Offset: math.NaN(), Terms: []TermSpec{junkTerm}}}
	junkTerm = TermSpec{Kind: junkName, Index: -1, Coeff: math.NaN(), P: math.NaN()}
	junkFile = File{Name: junkName, Perturbation: PerturbationSpec{Name: junkName, Orig: junkFloats},
		Norm: junkName, Features: []FeatureSpec{junkSpec}}
	junkFeature = core.Feature{Name: junkName, Impact: &junkLinear,
		Bounds: core.Bounds{Min: math.NaN(), Max: math.NaN()}}
	junkSystem = System{Name: junkName, Features: []core.Feature{junkFeature},
		Perturbation: core.Perturbation{Name: junkName, Orig: junkFloats}, File: junkFile}
	junkRadius = core.RadiusResult{Feature: junkName, Radius: math.NaN(), Boundary: junkFloats,
		Kind: -1, Method: junkName}
	junkWire   = RadiusJSON{Feature: junkName, Radius: math.NaN(), Kind: junkName, Boundary: junkFloats}
	junkResult = ResultJSON{Name: junkName, Perturbation: junkName, Robustness: math.NaN(),
		Critical: junkName, Radii: []RadiusJSON{junkWire}, Meta: &ResponseMeta{Node: junkName}}
)

// junk is the poisoned value of one slab element type.
func junk[T any]() T {
	var v T
	switch p := any(&v).(type) {
	case *float64:
		*p = math.NaN()
	case *FeatureSpec:
		*p = junkSpec
	case *TermSpec:
		*p = junkTerm
	case *File:
		*p = junkFile
	case *System:
		*p = junkSystem
	case **System:
		*p = &junkSystem
	case *core.Feature:
		*p = junkFeature
	case *core.LinearImpact:
		*p = junkLinear
	case *core.RadiusResult:
		*p = junkRadius
	case *RadiusJSON:
		*p = junkWire
	case *ResultJSON:
		*p = junkResult
	}
	return v
}
