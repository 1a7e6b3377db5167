package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fepia/internal/faults"
	"fepia/internal/spec"
)

// snapVars reads the always-present fepiad_snapshot_* series off the
// /debug/vars registry snapshot, keyed by family name.
func snapVars(t *testing.T, base string) map[string]float64 {
	t.Helper()
	snap := getVars(t, base)
	out := make(map[string]float64)
	for _, fam := range snap.Families {
		if strings.HasPrefix(fam.Name, "fepiad_snapshot_") {
			out[fam.Name] = snap.Sum(fam.Name)
		}
	}
	return out
}

// writeGoodSnapshot boots a throwaway server on the path, serves one
// document to warm its cache, and drains a snapshot — the fixture every
// restart test restores from.
func writeGoodSnapshot(t *testing.T, path, doc string) {
	t.Helper()
	s := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: -1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", resp.StatusCode, body)
	}
	s.drainSnapshot()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("drain wrote no snapshot: %v", err)
	}
}

// The restart story end to end: a node warms its cache, drains a
// snapshot on shutdown, and the next process answers its very first
// request from the warm cache — meta.cache "hit", no solver work.
func TestSnapshotRestartWarmFirstRequest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	doc := linearSpec(1)

	// First life: serve under Run so shutdown takes the drain path.
	s1 := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: -1}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s1.Run(ctx, l) }()
	url := "http://" + l.Addr().String()
	if resp, body := postJSON(t, url+"/v1/analyze", doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("first life: status %d (%s)", resp.StatusCode, body)
	}
	stop() // SIGTERM: drain, snapshot, exit
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not drain")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot after drain: %v", err)
	}

	// Second life: New() restores at boot; the first request must hit.
	s2 := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: -1}))
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second life: status %d (%s)", resp.StatusCode, body)
	}
	var res spec.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Meta == nil || res.Meta.Cache != spec.CacheHit {
		t.Fatalf("first post-restart request not served warm: meta = %+v", res.Meta)
	}
	sv := snapVars(t, ts.URL)
	if sv["fepiad_snapshot_loads_total"] != 1 || sv["fepiad_snapshot_restored_entries"] == 0 || sv["fepiad_snapshot_load_failures_total"] != 0 {
		t.Fatalf("snapshot vars after warm boot = %v", sv)
	}

	// The snapshot series exist on the Prometheus surface too.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	exposition, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"fepiad_snapshot_loads_total", "fepiad_snapshot_restored_entries", "fepiad_anytime_partial_total"} {
		if !strings.Contains(string(exposition), series) {
			t.Errorf("%s missing from /metrics", series)
		}
	}
}

// A corrupt snapshot must cost nothing but warmth: the node boots cold,
// counts the failure, and serves normally — never a crash.
func TestSnapshotChaosCorruptFileBootsCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(path, []byte("FPSN garbage that is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: -1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("serving after corrupt snapshot: status %d (%s)", resp.StatusCode, body)
	}
	sv := snapVars(t, ts.URL)
	if sv["fepiad_snapshot_load_failures_total"] != 1 || sv["fepiad_snapshot_loads_total"] != 0 || sv["fepiad_snapshot_restored_entries"] != 0 {
		t.Fatalf("snapshot vars after corrupt boot = %v", sv)
	}
}

// A partial temp file from a writer that died mid-write sits at
// path+".tmp" and must be ignored: the last completed snapshot loads.
func TestSnapshotChaosPartialTempIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	doc := linearSpec(3)
	writeGoodSnapshot(t, path, doc)
	if err := os.WriteFile(path+".tmp", []byte("half a snapsh"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: -1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var res spec.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Meta == nil || res.Meta.Cache != spec.CacheHit {
		t.Fatalf("good snapshot not loaded past the stale temp file: meta = %+v", res.Meta)
	}
	if sv := snapVars(t, ts.URL); sv["fepiad_snapshot_loads_total"] != 1 || sv["fepiad_snapshot_load_failures_total"] != 0 {
		t.Fatalf("snapshot vars = %v", sv)
	}
}

// An injected snapshot_write fault — error or panic kind — fails the
// write, keeps the previous good snapshot untouched, and never takes the
// process down.
func TestSnapshotChaosWriteFaultKeepsLastGood(t *testing.T) {
	for _, kind := range []faults.Kind{faults.KindError, faults.KindPanic} {
		t.Run(string(kind), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.snap")
			doc := linearSpec(4)
			writeGoodSnapshot(t, path, doc)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			inj := faults.NewSeeded(1, faults.Config{
				Rates: map[faults.Point]map[faults.Kind]float64{
					faults.SnapshotWrite: {kind: 1.0},
				},
			})
			s := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: -1, Injector: inj}))
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if resp, body := postJSON(t, ts.URL+"/v1/analyze", doc); resp.StatusCode != http.StatusOK {
				t.Fatalf("warm-up: status %d (%s)", resp.StatusCode, body)
			}
			s.drainSnapshot() // must fail via the injected fault, not panic

			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(good) {
				t.Fatal("failed write damaged the previous good snapshot")
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind after failed write: %v", err)
			}
			if sv := snapVars(t, ts.URL); sv["fepiad_snapshot_write_failures_total"] != 1 || sv["fepiad_snapshot_writes_total"] != 0 {
				t.Fatalf("snapshot vars = %v", sv)
			}

			// The last good snapshot still boots the next process warm.
			s2 := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: -1}))
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			resp, body := postJSON(t, ts2.URL+"/v1/analyze", doc)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reboot from last good: status %d (%s)", resp.StatusCode, body)
			}
			var res spec.ResultJSON
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if res.Meta == nil || res.Meta.Cache != spec.CacheHit {
				t.Fatalf("last good snapshot did not restore: meta = %+v", res.Meta)
			}
		})
	}
}

// The periodic writer snapshots on its ticker without any shutdown.
func TestSnapshotPeriodicWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s := New(quietConfig(Config{SnapshotPath: path, SnapshotInterval: 20 * time.Millisecond}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, l) }()
	url := "http://" + l.Addr().String()
	if resp, body := postJSON(t, url+"/v1/analyze", linearSpec(5)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic writer produced no snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
