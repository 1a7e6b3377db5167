package spec

import (
	"errors"
	"fmt"
	"strings"
)

// ErrInvalidSpec is the sentinel matched by every spec-validation failure:
// errors.Is(err, ErrInvalidSpec) reports whether err means "the submitted
// system description is wrong", as opposed to an engine failure while
// analysing a well-formed system. Services built on the parser (cmd/fepiad)
// map it to HTTP 400.
var ErrInvalidSpec = errors.New("invalid system spec")

// ValidationError is the typed parse/validation failure produced by Parse,
// Build, and ParseBatch. Path locates the offending JSON field in the
// submitted document (e.g. "features[2].impact.coeffs", or
// "systems[4].norm" for batch envelopes); an empty Path means the document
// as a whole (e.g. malformed JSON).
//
// A ValidationError matches ErrInvalidSpec with errors.Is and exposes the
// underlying cause (a json.SyntaxError, a core validation error, …)
// through errors.As when one exists.
type ValidationError struct {
	// Path is the JSON field path of the offending value, "" for
	// document-level failures.
	Path string
	// Msg says what is wrong with the value at Path.
	Msg string
	// Err is the underlying cause, if any.
	Err error
}

// Error renders "spec: <path>: <msg>".
func (e *ValidationError) Error() string {
	if e.Path == "" {
		return "spec: " + e.Msg
	}
	return "spec: " + e.Path + ": " + e.Msg
}

// Unwrap links the error to the ErrInvalidSpec sentinel and to its
// underlying cause.
func (e *ValidationError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrInvalidSpec, e.Err}
	}
	return []error{ErrInvalidSpec}
}

// malformed wraps a json.Unmarshal failure as the document-level
// "malformed JSON" ValidationError.
func malformed(err error) error {
	return &ValidationError{Msg: "malformed JSON: " + err.Error(), Err: err}
}

// invalidf builds a ValidationError at path from a format string.
func invalidf(path, format string, args ...any) error {
	return &ValidationError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// invalidErr wraps an underlying validation cause (typically a core
// Validate error) at path, stripping the "core: " prefix so the message
// reads in spec terms.
func invalidErr(path string, err error) error {
	return &ValidationError{Path: path, Msg: strings.TrimPrefix(err.Error(), "core: "), Err: err}
}

// PrefixPath relocates a ValidationError under prefix (joined with '.'),
// so envelope parsers can report "systems[3].features[0].impact" while the
// inner parser only knows "features[0].impact". Non-validation errors pass
// through unchanged.
func PrefixPath(prefix string, err error) error {
	var ve *ValidationError
	if !errors.As(err, &ve) {
		return err
	}
	path := ve.Path
	switch {
	case path == "":
		path = prefix
	case strings.HasPrefix(path, "["):
		path = prefix + path
	default:
		path = prefix + "." + path
	}
	return &ValidationError{Path: path, Msg: ve.Msg, Err: ve.Err}
}
