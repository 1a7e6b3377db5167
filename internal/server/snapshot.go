// Snapshot persistence: the warm-start layer of fepiad. With
// Config.SnapshotPath set, the shared radius cache is serialised with
// the batch snapshot codec atomically (write temp, fsync, rename) on a
// periodic ticker and on drain, and loaded once at boot — so a
// restarted node answers its first request from a warm cache instead of
// re-solving its whole working set (docs/SERVICE.md, "Persistence &
// anytime responses"). A snapshot is an optimisation, never a
// dependency: every load failure — missing, truncated, corrupt, version
// skew — is counted, logged, and answered by booting cold.
package server

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"time"

	"fepia/internal/faults"
	"fepia/internal/obs"
)

// DefaultSnapshotInterval is the periodic snapshot cadence when
// Config.SnapshotPath is set and Config.SnapshotInterval is zero.
const DefaultSnapshotInterval = 5 * time.Minute

// loadSnapshot restores the cache from Config.SnapshotPath at boot.
// ErrNotExist is a normal first boot; anything else is a warning plus
// the load-failure counter — never a crashed process. A partial temp
// file from a crashed writer sits at path+".tmp" and is ignored by
// construction: only a completed write ever renames onto the real path.
func (s *Server) loadSnapshot() {
	f, err := os.Open(s.cfg.SnapshotPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.cfg.Log.Info("no cache snapshot, booting cold", "path", s.cfg.SnapshotPath)
			return
		}
		s.metrics.snapLoadFailures.Inc()
		s.cfg.Log.Warn("cache snapshot unreadable, booting cold",
			"path", s.cfg.SnapshotPath, "error", err.Error())
		return
	}
	defer f.Close()
	n, err := s.cache.Restore(f)
	if err != nil {
		s.metrics.snapLoadFailures.Inc()
		s.cfg.Log.Warn("cache snapshot rejected, booting cold",
			"path", s.cfg.SnapshotPath, "error", err.Error())
		return
	}
	s.metrics.snapLoads.Inc()
	s.metrics.snapRestored.Set(float64(n))
	s.cfg.Log.Info("cache snapshot restored",
		"path", s.cfg.SnapshotPath, "entries", n)
}

// startSnapshots launches the periodic snapshot goroutine and returns
// its stop function (a no-op closure when persistence or the ticker is
// disabled). The writer runs outside the request path: a slow disk
// delays the next snapshot, never a response.
func (s *Server) startSnapshots() func() {
	if s.cfg.SnapshotPath == "" || s.cfg.SnapshotInterval < 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(s.cfg.SnapshotInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.writeSnapshot(context.Background(), "periodic")
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// drainSnapshot persists the cache one final time during shutdown, so
// the warm set a pod built over its lifetime survives the deploy.
func (s *Server) drainSnapshot() {
	if s.cfg.SnapshotPath == "" {
		return
	}
	s.writeSnapshot(context.Background(), "drain")
}

// writeSnapshot serialises the cache to SnapshotPath atomically: encode
// to memory, write path+".tmp", fsync, rename. A failure at any step —
// including the faults.SnapshotWrite chaos point — removes the temp
// file and leaves the previous good snapshot untouched. Each run is
// recorded as a "snapshot" trace in the /debug/traces ring and in the
// fepiad_snapshot_* counters.
func (s *Server) writeSnapshot(ctx context.Context, reason string) {
	tr := obs.NewTrace(obs.NewID(), "snapshot")
	ctx = obs.WithTrace(ctx, tr)
	tr.SetAttr("reason", reason)
	sp := obs.StartSpan(ctx, "snapshot")
	err := func() error {
		if err := faults.Inject(faults.With(ctx, s.cfg.Injector), faults.SnapshotWrite); err != nil {
			return err
		}
		var buf bytes.Buffer
		n, err := s.cache.Snapshot(&buf)
		if err != nil {
			return err
		}
		tmp := s.cfg.SnapshotPath + ".tmp"
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(buf.Bytes()); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, s.cfg.SnapshotPath)
		}
		if err != nil {
			_ = os.Remove(tmp)
			return err
		}
		sp.SetInt("entries", n).SetInt("bytes", buf.Len())
		s.metrics.snapWrites.Inc()
		s.metrics.snapLastEntries.Set(float64(n))
		s.metrics.snapLastBytes.Set(float64(buf.Len()))
		s.metrics.snapLastWrite.Set(float64(time.Now().Unix()))
		return nil
	}()
	sp.End(err)
	status := http.StatusOK
	if err != nil {
		status = http.StatusInternalServerError
		s.metrics.snapWriteFailures.Inc()
		s.cfg.Log.Warn("cache snapshot write failed",
			"path", s.cfg.SnapshotPath, "reason", reason, "error", err.Error())
	} else {
		s.cfg.Log.Info("cache snapshot written",
			"path", s.cfg.SnapshotPath, "reason", reason,
			"entries", int64(s.metrics.snapLastEntries.Value()),
			"bytes", int64(s.metrics.snapLastBytes.Value()))
	}
	tr.Seal(status, false)
	s.metrics.traces.Add(tr, false)
}
