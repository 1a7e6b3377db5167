package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"fepia/internal/core"
)

// Snapshot wire format (all integers little-endian):
//
//	magic   "FPSN"                      4 bytes
//	version u32                         currently 1
//	shards  u32                         writer's shard count (informational)
//	entries u64
//	entry × entries:
//	    keyLen   u32, key bytes         radius cache key (appendRadiusKey)
//	    featLen  u32, feature name
//	    radius   u64                    math.Float64bits
//	    kind     u8                     core.BoundKind
//	    methLen  u32, method string
//	    boundary u32                    point count, 0xFFFFFFFF = nil
//	    coord    u64 × boundary         math.Float64bits each
//	crc     u32                         CRC-32 (IEEE) of everything above
//
// The shard count is recorded for observability only: keys re-route
// through the reader's own shardFor on restore, so a snapshot written
// with 16 shards loads cleanly into a 4-shard cache.
const (
	snapshotMagic   = "FPSN"
	snapshotVersion = 1

	// maxSnapshotBytes bounds how much Restore will read before giving
	// up — a corrupt length field must not turn into an OOM.
	maxSnapshotBytes   = 1 << 30
	maxSnapshotEntries = 1 << 26
	maxSnapshotKeyLen  = 1 << 20
	maxSnapshotStrLen  = 1 << 16
	maxSnapshotDim     = 1 << 20

	// snapshotNilBoundary distinguishes a nil Boundary (infinite radius)
	// from an empty one in the boundary-count field.
	snapshotNilBoundary = ^uint32(0)
)

// ErrSnapshot marks every way a snapshot can fail to decode — truncated,
// corrupt, wrong magic, unknown version, oversized fields. Callers match
// it with errors.Is and boot cold; a failed Restore never inserts
// anything, so there is no silent partial load to reason about.
var ErrSnapshot = errors.New("batch: invalid cache snapshot")

// snapshotEntry is one decoded cache record, held until the whole
// snapshot has validated so Restore is all-or-nothing.
type snapshotEntry struct {
	key []byte
	res core.RadiusResult
}

// Snapshot serialises every cache entry to w and returns the number of
// entries written. Every key names its impact by value or fingerprint,
// so each one means the same in the next process. An entry checkRadius
// refuses is skipped, so every image written here restores. Each shard
// is walked LRU→MRU so a restore replays inserts in recency order and
// ends with the same LRU ordering the writer had.
//
// The encoding happens outside the shard locks. Under them each entry's
// key is copied, because a slot's key buffer is reused by the next
// eviction, and its result is taken by value, which is sound because a
// cached RadiusResult (Boundary included) is immutable once published.
func (c *Cache) Snapshot(w io.Writer) (int, error) {
	if c == nil {
		return 0, fmt.Errorf("batch: Snapshot on a nil cache")
	}
	var entries []snapshotEntry
	for _, s := range c.shards {
		c.lock(s)
		for i := s.tail; i != none; i = s.slots[i].prev {
			sl := &s.slots[i]
			if checkRadius(sl.result) != nil {
				continue // the reader would refuse the whole image
			}
			entries = append(entries, snapshotEntry{key: bytes.Clone(sl.key), res: sl.result})
		}
		s.mu.Unlock()
	}

	buf := make([]byte, 0, 64+128*len(entries))
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.shards)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.res.Feature)))
		buf = append(buf, e.res.Feature...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.res.Radius))
		buf = append(buf, byte(e.res.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.res.Method)))
		buf = append(buf, e.res.Method...)
		if e.res.Boundary == nil {
			buf = binary.LittleEndian.AppendUint32(buf, snapshotNilBoundary)
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.res.Boundary)))
			for _, v := range e.res.Boundary {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// Restore loads a snapshot written by Snapshot into the cache and
// returns the number of entries inserted. The whole stream is decoded
// and CRC-verified before the first insert, so a failure (any error
// wrapping ErrSnapshot, or the reader's own error) leaves the cache
// exactly as it was. Hit/miss statistics are untouched: a restore is
// neither. Entries re-route through this cache's shard layout, so the
// writer's shard count does not have to match.
func (c *Cache) Restore(r io.Reader) (int, error) {
	if c == nil {
		return 0, fmt.Errorf("batch: Restore on a nil cache")
	}
	data, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return 0, err
	}
	entries, err := decodeSnapshot(data)
	if err != nil {
		return 0, err
	}
	for i := range entries {
		c.restoreEntry(entries[i].key, entries[i].res)
	}
	return len(entries), nil
}

// RestoreCache builds a fresh cache (capacity/shards as NewCacheSharded)
// and loads a snapshot into it — the boot-time convenience wrapper.
func RestoreCache(r io.Reader, capacity, shards int) (*Cache, int, error) {
	c := NewCacheSharded(capacity, shards)
	n, err := c.Restore(r)
	if err != nil {
		return nil, 0, err
	}
	return c, n, nil
}

// restoreEntry inserts one decoded record without touching the hit/miss
// counters; a record whose key is already cached replaces its result.
func (c *Cache) restoreEntry(key []byte, res core.RadiusResult) {
	h := fnv1a(key)
	s := c.shardFor(h)
	c.lock(s)
	s.insert(key, h, res, true)
	s.mu.Unlock()
}

// decodeSnapshot validates and decodes a complete snapshot image. Every
// failure wraps ErrSnapshot with a description of what broke and where.
func decodeSnapshot(data []byte) ([]snapshotEntry, error) {
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("%w: larger than %d bytes", ErrSnapshot, maxSnapshotBytes)
	}
	// magic + version + shards + entry count + CRC trailer.
	if len(data) < len(snapshotMagic)+4+4+8+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrSnapshot, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (computed %08x, stored %08x)", ErrSnapshot, got, want)
	}
	d := snapshotDecoder{buf: body}
	if magic := d.bytes(len(snapshotMagic), "magic"); string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshot, magic)
	}
	if v := d.u32("version"); v != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrSnapshot, v, snapshotVersion)
	}
	d.u32("shard count") // informational; any value loads
	n := d.u64("entry count")
	if d.err != nil {
		return nil, d.err
	}
	if n > maxSnapshotEntries {
		return nil, fmt.Errorf("%w: %d entries exceeds the %d cap", ErrSnapshot, n, maxSnapshotEntries)
	}
	// Cheapest possible entry: four length fields, radius, kind.
	if minBytes := n * (4 + 4 + 8 + 1 + 4); minBytes > uint64(len(body)) {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", ErrSnapshot, n, len(body))
	}
	entries := make([]snapshotEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		key := d.blob(maxSnapshotKeyLen, "key")
		feature := d.str(maxSnapshotStrLen, "feature name")
		radius := math.Float64frombits(d.u64("radius"))
		kind := d.bytes(1, "bound kind")
		method := d.str(maxSnapshotStrLen, "method")
		var boundary []float64
		if cnt := d.u32("boundary count"); d.err == nil && cnt != snapshotNilBoundary {
			if cnt > maxSnapshotDim {
				d.err = fmt.Errorf("%w: boundary dimension %d exceeds the %d cap", ErrSnapshot, cnt, maxSnapshotDim)
			} else {
				boundary = make([]float64, cnt)
				for j := range boundary {
					boundary[j] = math.Float64frombits(d.u64("boundary point"))
				}
			}
		}
		if d.err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, d.err)
		}
		if len(key) == 0 || (key[0] != 'L' && key[0] != 'T') {
			return nil, fmt.Errorf("%w: entry %d has non-persistable key prefix %q", ErrSnapshot, i, key)
		}
		if bk := core.BoundKind(kind[0]); bk < core.AtMax || bk > core.LowerBound {
			return nil, fmt.Errorf("%w: entry %d has unknown bound kind %d", ErrSnapshot, i, kind[0])
		}
		res := core.RadiusResult{
			Feature:  feature,
			Radius:   radius,
			Boundary: boundary,
			Kind:     core.BoundKind(kind[0]),
			Method:   core.Method(method),
		}
		if err := checkRadius(res); err != nil {
			return nil, fmt.Errorf("%w: entry %d %v", ErrSnapshot, i, err)
		}
		entries = append(entries, snapshotEntry{key: key, res: res})
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last entry", ErrSnapshot, len(d.buf)-d.off)
	}
	return entries, nil
}

// checkRadius rejects a radius no solve can produce: NaN or negative, or
// an infinite radius that is not Unreachable (or an Unreachable one that
// is finite). Every solve path keeps a side only when its distance is
// below +Inf, so +Inf means Unreachable and nothing else. The boundary is
// not checked: a finite radius can carry a witness whose projection
// overflowed. A CRC only proves the image is the one written, not that
// its writer was sound, and the wire encodes a NaN radius as -1, its code
// for an infinite one.
func checkRadius(res core.RadiusResult) error {
	r := res.Radius
	switch {
	case math.IsNaN(r) || r < 0:
		return fmt.Errorf("has impossible radius %v", r)
	case math.IsInf(r, 1) != (res.Kind == core.Unreachable):
		return fmt.Errorf("has radius %v with bound kind %v", r, res.Kind)
	}
	return nil
}

// snapshotDecoder is a bounds-checked cursor over the snapshot body;
// the first failure sticks in err and every later read is a no-op.
type snapshotDecoder struct {
	buf []byte
	off int
	err error
}

func (d *snapshotDecoder) bytes(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.err = fmt.Errorf("%w: truncated reading %s at offset %d", ErrSnapshot, what, d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapshotDecoder) u32(what string) uint32 {
	b := d.bytes(4, what)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *snapshotDecoder) u64(what string) uint64 {
	b := d.bytes(8, what)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// blob reads a length-prefixed byte string; the result aliases the
// snapshot image.
func (d *snapshotDecoder) blob(max uint32, what string) []byte {
	n := d.u32(what + " length")
	if d.err != nil {
		return nil
	}
	if n > max {
		d.err = fmt.Errorf("%w: %s length %d exceeds the %d cap", ErrSnapshot, what, n, max)
		return nil
	}
	return d.bytes(int(n), what)
}

func (d *snapshotDecoder) str(max uint32, what string) string {
	return string(d.blob(max, what))
}
