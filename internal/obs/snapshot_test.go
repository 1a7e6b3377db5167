package obs

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// malformedPeerSnapshots are peer /v1/cluster/metrics documents whose
// histogram Counts are short of one per bucket plus +Inf: the first for
// a family the scraping node also has (the merge path), the second for
// a family only the peer has (adopted, then rendered). Each also carries
// one well-formed counter that must still merge.
var malformedPeerSnapshots = []string{
	`{"families":[{"name":"fz_lat_ms","type":"histogram","series":[{"histogram":{"bounds":[1],"counts":[1],"count":1}}]},` +
		peerCounter + `]}`,
	`{"families":[{"name":"fz_peer_only_ms","type":"histogram","series":[{"histogram":{"bounds":[1],"counts":[],"count":1}}]},` +
		peerCounter + `]}`,
}

const peerCounter = `{"name":"fz_requests_total","type":"counter","series":[{"labels":[{"name":"endpoint","value":"analyze"}],"counter":4}]}`

// liveRegistry is the scraping node's side of a federation merge: one
// instrument of every type.
func liveRegistry() *Registry {
	r := NewRegistry()
	r.Counter("fz_requests_total", "requests", L("endpoint", "analyze")).Add(3)
	r.Gauge("fz_in_flight", "in flight").Set(1)
	r.Histogram("fz_lat_ms", "latency", []float64{1}).ObserveExemplar(0.5, "aaaa111122223333")
	return r
}

// TestRegistrySnapshotMergeMalformedPeer: a peer histogram with short
// Counts is dropped by the merge instead of panicking in it or in the
// exposition, and the rest of the document merges as usual.
func TestRegistrySnapshotMergeMalformedPeer(t *testing.T) {
	for i, raw := range malformedPeerSnapshots {
		var peer RegistrySnapshot
		if err := json.Unmarshal([]byte(raw), &peer); err != nil {
			t.Fatal(err)
		}
		merged := liveRegistry().Snapshot()
		merged.Merge(peer)
		var out strings.Builder
		if err := merged.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		doc := out.String()
		for _, line := range []string{`fz_requests_total{endpoint="analyze"} 7`, `fz_lat_ms_count 1`} {
			if !strings.Contains(doc, line) {
				t.Fatalf("input %d: merged document missing %q in:\n%s", i, line, doc)
			}
		}
		if strings.Contains(doc, "fz_peer_only_ms_") {
			t.Fatalf("input %d: malformed peer-only histogram rendered:\n%s", i, doc)
		}
	}
}

// FuzzRegistrySnapshotMerge feeds arbitrary bytes through the
// federation path — decode as a peer RegistrySnapshot, merge into a
// live registry's snapshot, render — which must never panic.
func FuzzRegistrySnapshotMerge(f *testing.F) {
	for _, raw := range malformedPeerSnapshots {
		f.Add([]byte(raw))
	}
	valid, err := json.Marshal(liveRegistry().Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var peer RegistrySnapshot
		if json.Unmarshal(raw, &peer) != nil {
			return
		}
		_ = peer.WritePrometheus(io.Discard)
		merged := liveRegistry().Snapshot()
		merged.Merge(peer)
		_ = merged.WritePrometheus(io.Discard)
	})
}

// TestRegistrySnapshotSum: Sum adds a family's counter and gauge series,
// narrowed to the series carrying every given label, and reads 0 for an
// absent family or a histogram.
func TestRegistrySnapshotSum(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "", L("endpoint", "a"), L("code", "200")).Add(3)
	r.Counter("req_total", "", L("endpoint", "b"), L("code", "200")).Add(4)
	r.Counter("req_total", "", L("endpoint", "b"), L("code", "500")).Add(5)
	r.Gauge("temp", "").Set(1.5)
	r.Histogram("lat", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	for _, c := range []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"req_total", nil, 12},
		{"req_total", []Label{L("endpoint", "b")}, 9},
		{"req_total", []Label{L("code", "200"), L("endpoint", "b")}, 4},
		{"req_total", []Label{L("endpoint", "c")}, 0},
		{"temp", nil, 1.5},
		{"lat", nil, 0},
		{"absent", nil, 0},
	} {
		if got := snap.Sum(c.name, c.labels...); got != c.want {
			t.Errorf("Sum(%s, %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	if snap.Family("absent") != nil || snap.Family("temp").Type != "gauge" {
		t.Errorf("Family lookup wrong: %+v", snap.Families)
	}
}
