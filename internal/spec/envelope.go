package spec

// This file defines the envelope types of the fepiad wire protocol.
// POST /v1/analyze accepts a bare File document and answers with a
// ResultJSON; POST /v1/batch accepts a BatchRequest and answers with a
// BatchResponse whose results are in request order. Every non-2xx answer
// is an ErrorJSON.

// BatchRequest is the POST /v1/batch body: many systems analysed in one
// round trip over the server's worker pool and shared radius cache.
type BatchRequest struct {
	// Systems are the spec documents to analyse, each self-contained
	// (own perturbation, norm, and features).
	Systems []File `json:"systems"`
}

// BatchResponse is the POST /v1/batch answer.
type BatchResponse struct {
	// Results holds one analysis per submitted system, in request order.
	// Each carries its own ResponseMeta when served by fepiad (systems in
	// one batch may resolve on different cluster nodes).
	Results []ResultJSON `json:"results"`
	// Meta summarises the whole batch: the accepting node, whether ANY
	// system was forwarded or degraded, and the coldest cache source any
	// system needed. Nil on library output.
	Meta *ResponseMeta `json:"meta,omitempty"`
}

// ErrorJSON is the error envelope of every non-2xx fepiad response.
type ErrorJSON struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Kind classifies the failure: "invalid_spec", "unsupported",
	// "solver_failure", "timeout", "overloaded", "shutting_down",
	// "circuit_open", "degraded", or "internal".
	Kind string `json:"kind"`
	// Path is the JSON field path of the offending value for
	// "invalid_spec" errors (e.g. "systems[3].features[0].impact").
	Path string `json:"path,omitempty"`
}

// ParseBatch decodes and validates a BatchRequest, returning one analysable
// System per entry, in order. Failures are *ValidationError values whose
// paths are rooted at "systems[i]".
func ParseBatch(data []byte) ([]*System, error) { return new(Workspace).ParseBatch(data) }
