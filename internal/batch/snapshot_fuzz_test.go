package batch

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"fepia/internal/core"
)

// FuzzSnapshotDecode drives arbitrary bytes through the snapshot decoder.
// The invariant under fuzzing: every input either decodes fully or fails
// with an error wrapping ErrSnapshot — never a panic, never a silent
// partial load (a failed Restore must leave the cache empty) — and every
// entry it accepts holds a radius a solve could produce.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a real snapshot plus mutations of it, so coverage starts
	// past the header checks instead of dying on the magic bytes.
	src := NewCacheSharded(16, 2)
	p := core.Perturbation{Name: "π", Orig: []float64{1, 2}}
	lin, err := core.NewLinearImpact([]float64{3, 4}, 0)
	if err != nil {
		f.Fatal(err)
	}
	feat := core.Feature{Name: "F", Impact: lin, Bounds: core.NoMin(25)}
	if _, err := src.Radius(feat, p, core.Options{}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("FPSN"))
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache(8)
		n, err := c.Restore(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("Restore failed with a non-snapshot error: %v", err)
			}
			if n != 0 || c.Stats().Size != 0 {
				t.Fatalf("failed restore inserted %d entries (size %d)", n, c.Stats().Size)
			}
			return
		}
		if n != c.Stats().Size {
			t.Fatalf("restored %d entries but size is %d", n, c.Stats().Size)
		}
		for _, s := range c.shards {
			for i := range s.slots {
				res := s.slots[i].result
				if r := res.Radius; math.IsNaN(r) || r < 0 || math.IsInf(r, 1) != (res.Kind == core.Unreachable) {
					t.Fatalf("accepted radius %v with bound kind %v", r, res.Kind)
				}
			}
		}
	})
}
