package server

import (
	"net/http"
	"strconv"

	"fepia/internal/batch"
	"fepia/internal/obs"
	"fepia/internal/spec"
)

// maxWatchPoints bounds one watch session's trajectory. A session holds
// an admission slot for its whole run, so an unbounded trajectory would
// let one client pin a slot indefinitely; 4096 steps is hours of
// telemetry at any realistic cadence and still a bounded request.
const maxWatchPoints = 4096

// handleWatch serves GET|POST /v1/watch: one spec.WatchRequest in, a
// newline-delimited JSON stream out — one spec.WatchFrame per operating
// point, flushed as it is produced, then one spec.WatchSummary. Frames
// carry only the radii that CHANGED since the previous frame, computed
// by the engine's incremental session, batch.Watcher. With the server's
// kernel routing on (-kernel), its linear features take the kernel's
// delta path, which re-solves only the radii a step's moved coordinates
// can touch and bypasses the radius cache; on the default flags every
// feature takes the cached per-feature path on every step. See
// docs/PERFORMANCE.md, "The incremental delta engine".
//
// Watch sessions are always served locally, never relayed to a ring
// owner: the session's value is the warm delta state accumulated across
// steps, which lives on exactly one node — forwarding each request would
// work but re-forwarding mid-stream on peer failure cannot, so the
// contract is session affinity to the node the client dialled. For the
// same reason there is no watch circuit breaker: a session is one
// long-lived request, not a stream of independent verdicts the breaker's
// failure window could meaningfully sample. The admission gate still
// applies — a session occupies one in-flight slot until it finishes.
//
// Of the analyze/batch pipeline (see request) a session shares the parse
// and admit stages; each step runs under requestContext, its frame's
// meta comes from stamp, and a mid-stream error's kind from classify.
//
// Failure discipline: errors before the first frame map onto the normal
// HTTP error contract (400/503/...). Once streaming has begun the status
// line is committed, so a mid-stream failure — deadline expiry on one
// step, an engine fault that exhausts its retries, the client vanishing
// — is reported in-band as the final WatchSummary's error/error_kind
// fields, with steps counting the frames already delivered (all of which
// remain trustworthy).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req spec.WatchRequest
	var sys *spec.System
	_, ok := s.parse(epWatch, w, r, false, func(b []byte) (err error) {
		if req, err = spec.DecodeWatchRequest(b); err != nil {
			return err
		}
		if sys, err = spec.Build(req.System); err != nil {
			return err
		}
		return validateTrajectory(req.Points, len(sys.Perturbation.Orig))
	})
	if !ok {
		return
	}
	release, ok := s.admit(epWatch, w, r)
	if !ok {
		return
	}
	defer release()

	watcher, err := batch.NewWatcher(s.engineInput(sys))
	if err != nil {
		s.fail(epWatch, w, r, err)
		return
	}
	s.metrics.watchSessions.Inc()
	obs.TraceFrom(r.Context()).SetAttr("watch_points", strconv.Itoa(len(req.Points)))

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.serveHeaders(w, r, false)
	w.WriteHeader(http.StatusOK)
	buf := getBuf()
	defer putBuf(buf)
	// emit writes one compact ndjson line.
	emit := func(v any) error {
		line, err := encodeBody(buf, v, false)
		if err == nil {
			_, err = w.Write(line)
		}
		return err
	}

	totalChanged := 0
	for i, pt := range req.Points {
		sp := obs.StartSpan(r.Context(), "watch_step").SetInt("step", i+1)
		ctx, cancel := s.requestContext(r.Context())
		rs := &batch.RequestStats{}
		res, err := watcher.Step(batch.WithRequestStats(ctx, rs), pt)
		cancel()
		if err != nil {
			sp.End(err)
			_, kind := classify(err)
			obs.TraceFrom(r.Context()).SetAttr("outcome", kind)
			obs.Logger(r.Context()).Warn("watch session aborted mid-stream",
				"step", i+1, "kind", kind, "error", err.Error())
			s.metrics.errs[epWatch].Inc()
			_ = emit(spec.WatchSummary{Done: true, Steps: i, TotalChanged: totalChanged,
				Error: err.Error(), ErrorKind: kind})
			flush(flusher)
			return
		}
		sp.SetInt("changed", len(res.Changed))
		sp.End(nil)
		s.metrics.watchSteps.Inc()
		s.metrics.watchChangedRadii.Add(uint64(len(res.Changed)))
		s.metrics.analyses.Inc()
		totalChanged += len(res.Changed)

		frame := spec.EncodeWatchFrame(res.Step, pt, res.Analysis, res.Changed)
		frame.Meta = s.stamp(r.Context(), res.Analysis, false, false, rs.Source())
		if err := emit(frame); err != nil {
			// The client went away (or the frame holds a non-finite
			// float); nothing left to tell it.
			obs.TraceFrom(r.Context()).SetAttr("outcome", "client_gone")
			return
		}
		flush(flusher)
	}
	_ = emit(spec.WatchSummary{Done: true, Steps: len(req.Points), TotalChanged: totalChanged})
	flush(flusher)
}

// validateTrajectory pre-checks the shape of every trajectory point so
// shape mistakes fail with 400 before the stream commits to 200.
// Non-finite coordinates are NOT rejected here: the engine's scalar path
// owns that verdict (mirroring one-shot analysis), and it surfaces
// mid-stream as an error summary frame.
func validateTrajectory(points [][]float64, dim int) error {
	if len(points) == 0 {
		return &spec.ValidationError{Path: "points", Msg: "empty trajectory"}
	}
	if len(points) > maxWatchPoints {
		return &spec.ValidationError{Path: "points",
			Msg: "trajectory of " + strconv.Itoa(len(points)) + " points exceeds the limit of " + strconv.Itoa(maxWatchPoints)}
	}
	for i, pt := range points {
		if len(pt) != dim {
			return &spec.ValidationError{Path: "points[" + strconv.Itoa(i) + "]",
				Msg: "point has " + strconv.Itoa(len(pt)) + " coordinates, want " + strconv.Itoa(dim)}
		}
	}
	return nil
}

// flush pushes buffered frames to the client immediately; a nil flusher
// (a ResponseWriter without http.Flusher, as in some test harnesses)
// degrades to end-of-request delivery.
func flush(f http.Flusher) {
	if f != nil {
		f.Flush()
	}
}
