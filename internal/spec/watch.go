package spec

import (
	"encoding/json"

	"fepia/internal/core"
)

// Watch wire format (docs/SERVICE.md, "/v1/watch"): one request document
// opens an incremental re-analysis session over a trajectory of operating
// points; the response is newline-delimited JSON — one WatchFrame per
// step, then exactly one WatchSummary. The same types drive cmd/loadgen
// -watch and cmd/scenariolab -mode live, so every consumer of the stream
// decodes the wire the server encodes.

// WatchRequest is the body of GET|POST /v1/watch: the system to watch
// plus the ordered operating points to step it through. Every point must
// have the system's perturbation dimension.
type WatchRequest struct {
	System File        `json:"system"`
	Points [][]float64 `json:"points"`
}

// DecodeWatchRequest decodes a WatchRequest body. A malformed document
// is a document-level *ValidationError ("malformed JSON: ..."); the
// system and trajectory are not validated here.
func DecodeWatchRequest(data []byte) (WatchRequest, error) {
	req, ok := decodeWatch(data)
	if !ok {
		req = WatchRequest{} // the fast path may have filled it partway
		if err := json.Unmarshal(data, &req); err != nil {
			return WatchRequest{}, malformed(err)
		}
	}
	return req, nil
}

// WatchFrame is one streamed step: the operating point analysed, the
// resulting robustness metric, and ONLY the radii whose answer moved
// since the previous frame (on the first frame, all of them). A client
// reconstructs the full radius set by overlaying changed radii onto its
// running copy — that is the point of the incremental wire: a
// single-coordinate move ships one radius, not the whole system.
type WatchFrame struct {
	// Step is the 1-based step index within the session.
	Step int `json:"step"`
	// Orig is the operating point this frame was analysed at.
	Orig []float64 `json:"orig"`
	// Robustness is ρ_μ(Φ, π) at Orig (paper Eq. 6); -1 when unreachable,
	// matching ResultJSON's non-finite convention.
	Robustness float64 `json:"robustness"`
	// Critical names the feature attaining the minimum radius.
	Critical string `json:"critical_feature,omitempty"`
	// Changed carries the radii that moved, in ascending feature order.
	Changed []RadiusJSON `json:"changed"`
	// ChangedCount duplicates len(Changed) so consumers aggregating the
	// stream (loadgen, smoke checks) need not decode the radii.
	ChangedCount int `json:"changed_count"`
	// Meta is the per-frame serving envelope: node identity, cache
	// provenance of this step's scalar-path solves, anytime marker.
	Meta *ResponseMeta `json:"meta,omitempty"`
}

// WatchSummary is the final frame of every watch stream, successful or
// not. Done is always true — it is the end-of-stream marker clients key
// on. A mid-stream failure (the HTTP status is already committed to 200
// by then) reports itself here via Error and ErrorKind, with Steps
// holding the number of frames that were completed and are trustworthy.
type WatchSummary struct {
	Done         bool   `json:"done"`
	Steps        int    `json:"steps"`
	TotalChanged int    `json:"total_changed"`
	Error        string `json:"error,omitempty"`
	ErrorKind    string `json:"error_kind,omitempty"`
}

// EncodeWatchFrame assembles the wire frame for one analysed step at
// operating point orig: changed indexes a.Radii (ascending), exactly as
// batch.StepResult reports it. Non-finite radii follow Encode's -1
// convention.
func EncodeWatchFrame(step int, orig []float64, a core.Analysis, changed []int) WatchFrame {
	f := WatchFrame{
		Step:         step,
		Orig:         orig,
		Robustness:   finiteOr(a.Robustness, -1),
		Changed:      make([]RadiusJSON, 0, len(changed)),
		ChangedCount: len(changed),
	}
	if cf := a.CriticalFeature(); cf != nil {
		f.Critical = cf.Feature
	}
	for _, i := range changed {
		r := a.Radii[i]
		f.Changed = append(f.Changed, RadiusJSON{
			Feature:  r.Feature,
			Radius:   finiteOr(r.Radius, -1),
			Kind:     r.Kind.String(),
			Boundary: r.Boundary,
		})
	}
	return f
}
