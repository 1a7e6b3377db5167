package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"fepia/internal/core"
)

// fpFeature builds a fingerprinted convex FuncImpact feature — the 'T'
// key class, which persists across restarts by content identity.
func fpFeature(name string, fp []byte, max float64) core.Feature {
	return core.Feature{
		Name: name,
		Impact: &core.FuncImpact{
			N:           2,
			F:           func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
			Convex:      true,
			Fingerprint: fp,
		},
		Bounds: core.NoMin(max),
	}
}

// TestSnapshotRoundTrip is the acceptance property of the codec: a
// snapshot written at one shard count restores byte-identical radii at
// any other shard count, because keys re-route through the reader's own
// shard layout.
func TestSnapshotRoundTrip(t *testing.T) {
	src := NewCacheSharded(64, 8)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}

	feats := []core.Feature{
		linFeature(t, "lin-a", []float64{3, 4}, 25),
		linFeature(t, "lin-b", []float64{1, 1}, 10),
		fpFeature("terms", []byte("fp-terms-1"), 9),
	}
	want := make([]core.RadiusResult, len(feats))
	for i, f := range feats {
		r, err := src.Radius(f, p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	// An impact with no fingerprint is never cached, so it can never
	// reach a snapshot.
	ptr := core.Feature{
		Name:   "ptr",
		Impact: &core.FuncImpact{N: 2, F: func(x []float64) float64 { return x[0] + x[1] }, Convex: true},
		Bounds: core.NoMin(100),
	}
	if _, err := src.Radius(ptr, p, core.Options{}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := src.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(feats) {
		t.Fatalf("Snapshot wrote %d entries, want %d (the unfingerprinted impact must be absent)", n, len(feats))
	}

	for _, shards := range []int{1, 2, 8, 64} {
		dst, restored, err := RestoreCache(bytes.NewReader(buf.Bytes()), 64, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if restored != n {
			t.Fatalf("shards=%d: restored %d entries, want %d", shards, restored, n)
		}
		if got := dst.Stats().Size; got != n {
			t.Fatalf("shards=%d: size %d after restore, want %d", shards, got, n)
		}
		for i, f := range feats {
			got, ok := dst.Lookup(f, p, core.Options{})
			if !ok {
				t.Fatalf("shards=%d: feature %q missing after restore", shards, f.Name)
			}
			if math.Float64bits(got.Radius) != math.Float64bits(want[i].Radius) {
				t.Fatalf("shards=%d %q: radius %v != %v (not bit-identical)", shards, f.Name, got.Radius, want[i].Radius)
			}
			if got.Kind != want[i].Kind || got.Method != want[i].Method {
				t.Fatalf("shards=%d %q: kind/method %v/%v != %v/%v",
					shards, f.Name, got.Kind, got.Method, want[i].Kind, want[i].Method)
			}
			if len(got.Boundary) != len(want[i].Boundary) {
				t.Fatalf("shards=%d %q: boundary dim %d != %d", shards, f.Name, len(got.Boundary), len(want[i].Boundary))
			}
			for j := range got.Boundary {
				if math.Float64bits(got.Boundary[j]) != math.Float64bits(want[i].Boundary[j]) {
					t.Fatalf("shards=%d %q: boundary[%d] %v != %v", shards, f.Name, j, got.Boundary[j], want[i].Boundary[j])
				}
			}
		}
		if _, ok := dst.Lookup(ptr, p, core.Options{}); ok {
			t.Fatalf("shards=%d: an unfingerprinted impact appeared after the restart", shards)
		}
		// A restore is neither a hit nor a miss (Lookup counts nothing
		// either): statistics describe serving, not persistence.
		if st := dst.Stats(); st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("shards=%d: restore moved the counters: %+v", shards, st)
		}
	}
}

// A snapshot of an empty cache round-trips to an empty cache.
func TestSnapshotEmpty(t *testing.T) {
	var buf bytes.Buffer
	n, err := NewCache(16).Snapshot(&buf)
	if err != nil || n != 0 {
		t.Fatalf("Snapshot = %d, %v; want 0, nil", n, err)
	}
	c, restored, err := RestoreCache(&buf, 16, 0)
	if err != nil || restored != 0 {
		t.Fatalf("RestoreCache = %d, %v; want 0, nil", restored, err)
	}
	if c.Stats().Size != 0 {
		t.Fatalf("restored empty snapshot has size %d", c.Stats().Size)
	}
}

// An infinite radius (Unreachable, nil Boundary) must survive the nil /
// empty boundary distinction and the Float64bits round-trip.
func TestSnapshotUnreachableRadius(t *testing.T) {
	src := NewCache(16)
	// A zero hyperplane can never reach a positive threshold.
	f := linFeature(t, "flat", []float64{0, 0}, 5)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	r, err := src.Radius(f, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.Radius, 1) || r.Boundary != nil {
		t.Fatalf("setup: want +Inf/nil boundary, got %+v", r)
	}
	var buf bytes.Buffer
	if _, err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _, err := RestoreCache(&buf, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Lookup(f, p, core.Options{})
	if !ok || !math.IsInf(got.Radius, 1) || got.Boundary != nil || got.Kind != core.Unreachable {
		t.Fatalf("unreachable entry corrupted by round-trip: ok=%v %+v", ok, got)
	}
}

// Every way a snapshot can be damaged must decode to a typed ErrSnapshot
// with nothing inserted — all-or-nothing, never a crash.
func TestSnapshotCorruptionRejected(t *testing.T) {
	src := NewCacheSharded(32, 4)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	for _, f := range []core.Feature{
		linFeature(t, "a", []float64{3, 4}, 25),
		linFeature(t, "b", []float64{1, 1}, 10),
	} {
		if _, err := src.Radius(f, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	reseal := func(b []byte) []byte {
		// Re-seal a mutated body with a valid CRC so the test exercises
		// the structural validation, not just the checksum.
		out := append([]byte(nil), b[:len(b)-4]...)
		var crc [4]byte
		for i, v := range checksum(out) {
			crc[i] = v
		}
		return append(out, crc[:]...)
	}

	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:8],
		"truncated":    good[:len(good)-9],
		"bit flip": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 0x40
			return b
		}(),
		"bad magic": func() []byte {
			b := append([]byte(nil), good...)
			copy(b, "NOPE")
			return reseal(b)
		}(),
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 0xFF
			return reseal(b)
		}(),
		"trailing bytes": reseal(append(append([]byte(nil), good[:len(good)-4]...), 0, 0, 0, 0, 0, 0, 0, 0)),
		"entry count lies": func() []byte {
			b := append([]byte(nil), good...)
			b[12] = 0xEE // far more entries than the body holds
			return reseal(b)
		}(),
	}
	for name, data := range cases {
		c := NewCache(16)
		n, err := c.Restore(bytes.NewReader(data))
		if !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: Restore err = %v, want ErrSnapshot", name, err)
		}
		if n != 0 || c.Stats().Size != 0 {
			t.Errorf("%s: failed restore inserted %d entries (size %d), want all-or-nothing", name, n, c.Stats().Size)
		}
	}

	// The unmodified image still loads — the harness itself is sound.
	if _, err := NewCache(16).Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// checksum recomputes the trailer for a mutated body (little-endian
// CRC-32 IEEE, same as the writer).
func checksum(body []byte) []byte {
	var out [4]byte
	binary.LittleEndian.PutUint32(out[:], crc32.ChecksumIEEE(body))
	return out[:]
}

// TestSnapshotImpossibleRadiusRejected patches the one entry of a good
// image to radii no solve produces, re-seals its CRC, and
// requires ErrSnapshot with the restoring cache unchanged. Served from a
// snapshot, a NaN radius would go out on the wire as -1, the code for an
// infinite radius: a claim of unbounded robustness.
func TestSnapshotImpossibleRadiusRejected(t *testing.T) {
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	src := NewCache(16)
	if _, err := src.Radius(linFeature(t, "a", []float64{3, 4}, 25), p, core.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := src.Snapshot(&buf); err != nil || n != 1 {
		t.Fatalf("Snapshot = %d, %v; want 1 entry", n, err)
	}
	good := buf.Bytes()
	// Walk the entry to its radius, kind and first boundary coordinate.
	off := len(snapshotMagic) + 4 + 4 + 8
	skip := func() { off += 4 + int(binary.LittleEndian.Uint32(good[off:])) }
	skip() // key
	skip() // feature name
	radiusAt, kindAt := off, off+8
	off = kindAt + 1
	skip() // method
	if binary.LittleEndian.Uint32(good[off:]) == 0 {
		t.Fatal("setup: the entry has no boundary coordinate to patch")
	}
	coordAt := off + 4

	patch := func(radius float64, kind core.BoundKind, coord float64) []byte {
		b := append([]byte(nil), good[:len(good)-4]...)
		binary.LittleEndian.PutUint64(b[radiusAt:], math.Float64bits(radius))
		b[kindAt] = byte(kind)
		binary.LittleEndian.PutUint64(b[coordAt:], math.Float64bits(coord))
		return append(b, checksum(b)...)
	}
	// The resident entry a failed restore must leave alone.
	resident := linFeature(t, "resident", []float64{1, 1}, 10)
	for name, data := range map[string][]byte{
		"NaN radius":            patch(math.NaN(), core.AtMax, 1),
		"negative radius":       patch(-1, core.AtMax, 1),
		"infinite AtMax radius": patch(math.Inf(1), core.AtMax, 1),
		"finite Unreachable":    patch(2, core.Unreachable, 1),
	} {
		c := NewCache(16)
		want, err := c.Radius(resident, p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := c.Stats()
		n, err := c.Restore(bytes.NewReader(data))
		if !errors.Is(err, ErrSnapshot) || n != 0 {
			t.Errorf("%s: Restore = %d, %v; want 0, ErrSnapshot", name, n, err)
		}
		if after := c.Stats(); after != before {
			t.Errorf("%s: failed restore changed the cache: %+v, was %+v", name, after, before)
		}
		if got, ok := c.Lookup(resident, p, core.Options{}); !ok || math.Float64bits(got.Radius) != math.Float64bits(want.Radius) {
			t.Errorf("%s: resident entry = %+v (ok %v), want %+v", name, got, ok, want)
		}
	}

	// The same patch with a possible answer loads, so the rejections
	// above come from the values, not from the patching. A non-finite
	// boundary coordinate is possible: a solve's projection can overflow.
	for name, data := range map[string][]byte{
		"plausible":         patch(2, core.AtMax, 1),
		"NaN boundary":      patch(2, core.AtMax, math.NaN()),
		"infinite boundary": patch(2, core.AtMax, math.Inf(-1)),
		"unreachable":       patch(math.Inf(1), core.Unreachable, 1),
	} {
		if n, err := NewCache(16).Restore(bytes.NewReader(data)); err != nil || n != 1 {
			t.Errorf("%s: Restore = %d, %v; want 1, nil", name, n, err)
		}
	}
}

// TestSnapshotRestoresOverflowedSolves caches linear radii whose solves
// overflow — a finite radius whose boundary witness is [+Inf +Inf], and a
// residual too large for a finite distance — snapshots them and requires
// the image to restore with every entry bit-equal. The reader must accept
// whatever a solve returns, or one such request would make every later
// boot start cold.
func TestSnapshotRestoresOverflowedSolves(t *testing.T) {
	type item struct {
		f core.Feature
		p core.Perturbation
	}
	items := []item{
		{linFeature(t, "tiny-coeffs", []float64{1e-200, 1e-200}, 1), core.Perturbation{Name: "π", Orig: []float64{0, 0}}},
		{linFeature(t, "huge-max", []float64{0.5}, 1.5e308), core.Perturbation{Name: "π", Orig: []float64{0}}},
		{linFeature(t, "plain", []float64{3, 4}, 25), core.Perturbation{Name: "π", Orig: []float64{1, 2}}},
	}
	src := NewCache(16)
	want := make([]core.RadiusResult, len(items))
	for i, it := range items {
		r, err := src.Radius(it.f, it.p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	if b := want[0].Boundary; math.IsInf(want[0].Radius, 0) || len(b) == 0 || !math.IsInf(b[0], 1) {
		t.Fatalf("setup: %+v is not a finite radius with an overflowed witness", want[0])
	}

	var buf bytes.Buffer
	if n, err := src.Snapshot(&buf); err != nil || n != len(items) {
		t.Fatalf("Snapshot = %d, %v; want %d entries", n, err, len(items))
	}
	dst := NewCache(16)
	if n, err := dst.Restore(&buf); err != nil || n != len(items) {
		t.Fatalf("Restore = %d, %v; want %d, nil", n, err, len(items))
	}
	for i, it := range items {
		got, ok := dst.Lookup(it.f, it.p, core.Options{})
		if !ok || !sameRadius(got, want[i]) {
			t.Errorf("%s: restored %+v (ok %v), want %+v", it.f.Name, got, ok, want[i])
		}
	}
}

// TestSnapshotSkipsRefusedEntries puts a NaN radius into a cache, which
// no solve returns, and requires Snapshot to leave it out so the image
// still restores with the other entries intact.
func TestSnapshotSkipsRefusedEntries(t *testing.T) {
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	good := linFeature(t, "good", []float64{3, 4}, 25)
	bad := linFeature(t, "bad", []float64{1, 1}, 10)
	src := NewCache(16)
	want, err := src.Radius(good, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src.Put(bad, p, core.Options{}, core.RadiusResult{Feature: "bad", Radius: math.NaN(), Kind: core.AtMax})

	var buf bytes.Buffer
	if n, err := src.Snapshot(&buf); err != nil || n != 1 {
		t.Fatalf("Snapshot = %d, %v; want 1 entry", n, err)
	}
	dst := NewCache(16)
	if n, err := dst.Restore(&buf); err != nil || n != 1 {
		t.Fatalf("Restore = %d, %v; want 1, nil", n, err)
	}
	if got, ok := dst.Lookup(good, p, core.Options{}); !ok || !sameRadius(got, want) {
		t.Errorf("restored %+v (ok %v), want %+v", got, ok, want)
	}
	if _, ok := dst.Lookup(bad, p, core.Options{}); ok {
		t.Error("the refused entry was restored")
	}
}

// sameRadius reports whether a and b are bit-identical answers.
func sameRadius(a, b core.RadiusResult) bool {
	if a.Feature != b.Feature || a.Kind != b.Kind || a.Method != b.Method ||
		math.Float64bits(a.Radius) != math.Float64bits(b.Radius) || len(a.Boundary) != len(b.Boundary) {
		return false
	}
	for i := range a.Boundary {
		if math.Float64bits(a.Boundary[i]) != math.Float64bits(b.Boundary[i]) {
			return false
		}
	}
	return true
}
