package spec

// This file holds the reflection-free encoder of the fepiad wire types.
// It writes byte for byte what json.Encoder writes for them:
// encoding/json's float format, its HTML-safe string escaping, its
// omitempty rules (nil slices without omitempty render as null), the
// two-space layout of SetIndent("", "  ") and the newline Encode ends
// every value with. TestAppendJSONMatchesEncoder and FuzzAppendResult
// hold it to that.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends to dst the bytes a json.Encoder writes for v —
// two-space indented (SetIndent("", "  ")) when indent is set, compact
// otherwise — including the terminating newline. ResultJSON,
// BatchResponse, ErrorJSON, WatchFrame and WatchSummary values take a
// reflection-free path; any other value is rendered by encoding/json.
// A value encoding/json cannot encode (a NaN or infinite float) fails
// with the error json.Encoder reports and dst unchanged.
func AppendJSON(dst []byte, v any, indent bool) ([]byte, error) {
	e := encoder{b: dst, indent: indent}
	switch v := v.(type) {
	case ResultJSON:
		e.result(&v)
	case BatchResponse:
		e.batch(&v)
	case ErrorJSON:
		e.errorDoc(&v)
	case WatchFrame:
		e.frame(&v)
	case WatchSummary:
		e.summary(&v)
	default:
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if indent {
			enc.SetIndent("", "  ")
		}
		if err := enc.Encode(v); err != nil {
			return dst, err
		}
		return append(dst, buf.Bytes()...), nil
	}
	if e.err != nil {
		return dst, e.err
	}
	return append(e.b, '\n'), nil
}

// encoder appends one document to b. depth is the nesting level the
// indented layout needs; err is the first unencodable value met.
type encoder struct {
	b      []byte
	indent bool
	depth  int
	err    error
}

// open starts an object or array.
func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
}

// close ends an object or array of n members; an empty one stays on
// its opening line, as in encoding/json's indented layout.
func (e *encoder) close(c byte, n int) {
	e.depth--
	if n > 0 && e.indent {
		e.newline()
	}
	e.b = append(e.b, c)
}

const indentSpaces = "                                "

func (e *encoder) newline() {
	e.b = append(e.b, '\n')
	for k := 2 * e.depth; k > 0; k -= len(indentSpaces) {
		e.b = append(e.b, indentSpaces[:min(k, len(indentSpaces))]...)
	}
}

// elem starts the n-th member (0-based) of an array.
func (e *encoder) elem(n int) {
	if n > 0 {
		e.b = append(e.b, ',')
	}
	if e.indent {
		e.newline()
	}
}

// key starts the next member of an object with the plain-ASCII name
// name; n counts the members written so far.
func (e *encoder) key(n *int, name string) {
	e.elem(*n)
	*n++
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *encoder) result(r *ResultJSON) {
	n := 0
	e.open('{')
	if r.Name != "" {
		e.key(&n, "name")
		e.string(r.Name)
	}
	e.key(&n, "perturbation")
	e.string(r.Perturbation)
	if r.Units != "" {
		e.key(&n, "units")
		e.string(r.Units)
	}
	e.key(&n, "robustness")
	e.float(r.Robustness)
	if r.Critical != "" {
		e.key(&n, "critical_feature")
		e.string(r.Critical)
	}
	e.key(&n, "radii")
	e.radii(r.Radii)
	if r.Meta != nil {
		e.key(&n, "meta")
		e.meta(r.Meta)
	}
	e.close('}', n)
}

func (e *encoder) radii(rs []RadiusJSON) {
	if rs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('[')
	for i := range rs {
		e.elem(i)
		r := &rs[i]
		n := 0
		e.open('{')
		e.key(&n, "feature")
		e.string(r.Feature)
		e.key(&n, "radius")
		e.float(r.Radius)
		e.key(&n, "bound")
		e.string(r.Kind)
		if len(r.Boundary) > 0 {
			e.key(&n, "boundary")
			e.floats(r.Boundary)
		}
		e.close('}', n)
	}
	e.close(']', len(rs))
}

func (e *encoder) meta(m *ResponseMeta) {
	n := 0
	e.open('{')
	if m.Node != "" {
		e.key(&n, "node")
		e.string(m.Node)
	}
	if m.Forwarded {
		e.key(&n, "forwarded")
		e.bool(true)
	}
	if m.Degraded {
		e.key(&n, "degraded")
		e.bool(true)
	}
	if m.Cache != "" {
		e.key(&n, "cache")
		e.string(m.Cache)
	}
	if m.Anytime {
		e.key(&n, "anytime")
		e.bool(true)
	}
	e.close('}', n)
}

func (e *encoder) batch(r *BatchResponse) {
	n := 0
	e.open('{')
	e.key(&n, "results")
	if r.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for i := range r.Results {
			e.elem(i)
			e.result(&r.Results[i])
		}
		e.close(']', len(r.Results))
	}
	if r.Meta != nil {
		e.key(&n, "meta")
		e.meta(r.Meta)
	}
	e.close('}', n)
}

func (e *encoder) errorDoc(r *ErrorJSON) {
	n := 0
	e.open('{')
	e.key(&n, "error")
	e.string(r.Error)
	e.key(&n, "kind")
	e.string(r.Kind)
	if r.Path != "" {
		e.key(&n, "path")
		e.string(r.Path)
	}
	e.close('}', n)
}

func (e *encoder) frame(f *WatchFrame) {
	n := 0
	e.open('{')
	e.key(&n, "step")
	e.int(f.Step)
	e.key(&n, "orig")
	if f.Orig == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.floats(f.Orig)
	}
	e.key(&n, "robustness")
	e.float(f.Robustness)
	if f.Critical != "" {
		e.key(&n, "critical_feature")
		e.string(f.Critical)
	}
	e.key(&n, "changed")
	e.radii(f.Changed)
	e.key(&n, "changed_count")
	e.int(f.ChangedCount)
	if f.Meta != nil {
		e.key(&n, "meta")
		e.meta(f.Meta)
	}
	e.close('}', n)
}

func (e *encoder) summary(s *WatchSummary) {
	n := 0
	e.open('{')
	e.key(&n, "done")
	e.bool(s.Done)
	e.key(&n, "steps")
	e.int(s.Steps)
	e.key(&n, "total_changed")
	e.int(s.TotalChanged)
	if s.Error != "" {
		e.key(&n, "error")
		e.string(s.Error)
	}
	if s.ErrorKind != "" {
		e.key(&n, "error_kind")
		e.string(s.ErrorKind)
	}
	e.close('}', n)
}

func (e *encoder) floats(xs []float64) {
	e.open('[')
	for i, x := range xs {
		e.elem(i)
		e.float(x)
	}
	e.close(']', len(xs))
}

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, "true"...)
	} else {
		e.b = append(e.b, "false"...)
	}
}

func (e *encoder) int(v int) {
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// float writes f as encoding/json does: the shortest decimal that
// round-trips, in 'f' form unless |f| is outside [1e-6, 1e21), then in
// 'e' form with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		b := e.b
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			e.b = b[:n-1]
		}
	}
}

// htmlSafe marks the ASCII bytes a string may carry unescaped under
// json.Encoder's default HTML-safe escaping.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// string writes s quoted and escaped as encoding/json does: short
// escapes for quote, backslash and \b\f\n\r\t; \u00XX for the other
// control bytes and for <, > and &; \ufffd for each invalid UTF-8 byte;
// and \u2028, \u2029 for the two JavaScript line separators.
func (e *encoder) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}
