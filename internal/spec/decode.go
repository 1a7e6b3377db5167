package spec

// This file holds the reflection-free fast path of the request decoders.
// It accepts a canonical subset of JSON and yields exactly the values
// json.Unmarshal would; on anything outside the subset it declines
// (ok=false) without judging the input, and the caller runs
// json.Unmarshal, which then decides every odd case and words every
// error. The subset:
//
//   - objects whose keys are exact, unescaped, lowercase known field
//     names, each at most once (encoding/json folds case, ignores
//     unknown keys and lets a later duplicate win — all fallback cases);
//   - no null anywhere (it means "leave unchanged" to encoding/json);
//   - numbers in strict JSON grammar that strconv parses without a range
//     error, integers only for "index";
//   - strings of valid UTF-8 with no control characters, whose escapes
//     are the short ones or \u outside the surrogate block (encoding/json
//     replaces invalid UTF-8 and lone surrogates with U+FFFD);
//   - nothing after the top-level value but whitespace.
//
// FuzzParse, FuzzParseBatch and FuzzWatchRequest hold the two decoders
// to the same accept/reject verdicts, the same values (reflect.DeepEqual)
// and the same ValidationError bytes.

import (
	"strconv"
	"unicode/utf8"
)

// decodeFile is the fast path of Parse, decoding into w.
func (w *Workspace) decodeFile(data []byte) (File, bool) {
	d := decoder{buf: data, w: w}
	var f File
	d.file(&f)
	return f, d.end()
}

// decodeBatch is the fast path of ParseBatch, decoding into w.
func (w *Workspace) decodeBatch(data []byte) (BatchRequest, bool) {
	d := decoder{buf: data, w: w}
	var req BatchRequest
	var seen uint8
	for n := 0; d.member(&n); {
		switch string(d.key(&seen)) {
		case "systems":
			lo := len(w.files.buf)
			for m := 0; d.element(&m); {
				d.file(w.files.push(&lo))
			}
			req.Systems = nonNil(w.files.run(lo))
		default:
			d.fail()
		}
	}
	return req, d.end()
}

// decodeWatch is the fast path of DecodeWatchRequest.
func decodeWatch(data []byte) (WatchRequest, bool) {
	d := decoder{buf: data, w: new(Workspace)}
	var req WatchRequest
	var seen uint8
	for n := 0; d.member(&n); {
		switch string(d.key(&seen)) {
		case "system":
			d.file(&req.System)
		case "points":
			req.Points = [][]float64{}
			for m := 0; d.element(&m); {
				req.Points = append(req.Points, d.floats())
			}
		default:
			d.fail()
		}
	}
	return req, d.end()
}

// nonNil returns xs, or an empty non-nil slice for an empty run: what
// json.Unmarshal makes of [].
func nonNil[T any](xs []T) []T {
	if len(xs) == 0 {
		return []T{}
	}
	return xs
}

// decoder is a single-pass cursor over one document. Every failure
// jumps the cursor to the end of the input, so each loop below stops at
// its next read and the caller only checks bad once, in end.
type decoder struct {
	buf []byte
	i   int
	bad bool
	// w backs every slice, bound pointer and name the document decodes
	// to, so a request costs a few slab allocations instead of one per
	// array — none once the workspace is reused. Each slice is capped at
	// its own length, so appending to one never writes into its
	// neighbour.
	w *Workspace
}

func (d *decoder) fail() {
	d.bad = true
	d.i = len(d.buf)
}

// end reports whether the whole input was one valid subset document.
func (d *decoder) end() bool {
	d.ws()
	return !d.bad && d.i == len(d.buf)
}

func (d *decoder) ws() {
	for d.i < len(d.buf) {
		switch d.buf[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.i < len(d.buf) {
		return d.buf[d.i]
	}
	return 0
}

// next reports whether the object or array opened by open (at n == 0)
// has another member, consuming the separating comma or the closing
// byte; n counts the members seen.
func (d *decoder) next(n *int, open, close byte) bool {
	c := d.peek()
	if *n == 0 {
		if c != open {
			d.fail()
			return false
		}
		d.i++
		c = d.peek()
		if c == close {
			d.i++
			return false
		}
	} else {
		switch c {
		case ',':
			d.i++
		case close:
			d.i++
			return false
		default:
			d.fail()
			return false
		}
	}
	*n++
	return true
}

// member advances to the next member of an object; see next.
func (d *decoder) member(n *int) bool { return d.next(n, '{', '}') }

// element advances to the next element of an array; see next.
func (d *decoder) element(n *int) bool { return d.next(n, '[', ']') }

// keyBits numbers the field names of every object the subset knows, for
// duplicate detection; the sets of different objects may share bits.
var keyBits = map[string]uint8{
	"name": 1 << 0, "perturbation": 1 << 1, "norm": 1 << 2, "features": 1 << 3, "anytime": 1 << 4,
	"orig": 1 << 2, "units": 1 << 3, "discrete": 1 << 4,
	"min": 1 << 1, "max": 1 << 2, "impact": 1 << 3,
	"type": 1 << 0, "coeffs": 1 << 1, "offset": 1 << 2, "terms": 1 << 3,
	"kind": 1 << 0, "index": 1 << 1, "coeff": 1 << 2, "p": 1 << 3,
	"systems": 1 << 0, "system": 1 << 0, "points": 1 << 1,
}

// key reads a member name and its colon. It fails on an escaped,
// unknown or repeated name; seen accumulates the object's names.
func (d *decoder) key(seen *uint8) []byte {
	d.ws()
	if d.i >= len(d.buf) || d.buf[d.i] != '"' {
		d.fail()
		return nil
	}
	start := d.i + 1
	j := start
	for j < len(d.buf) && d.buf[j] != '"' && d.buf[j] != '\\' {
		j++
	}
	if j >= len(d.buf) || d.buf[j] != '"' {
		d.fail()
		return nil
	}
	k := d.buf[start:j]
	bit := keyBits[string(k)]
	if bit == 0 || *seen&bit != 0 {
		d.fail()
		return nil
	}
	*seen |= bit
	d.i = j + 1
	if d.peek() != ':' {
		d.fail()
		return nil
	}
	d.i++
	return k
}

// file decodes one File object into f.
func (d *decoder) file(f *File) {
	var seen uint8
	for n := 0; d.member(&n); {
		switch string(d.key(&seen)) {
		case "name":
			f.Name = d.str()
		case "perturbation":
			d.perturbation(&f.Perturbation)
		case "norm":
			f.Norm = d.str()
		case "features":
			lo := len(d.w.specs.buf)
			for m := 0; d.element(&m); {
				d.feature(d.w.specs.push(&lo))
			}
			f.Features = nonNil(d.w.specs.run(lo))
		case "anytime":
			f.Anytime = d.boolean()
		default:
			d.fail()
		}
	}
}

func (d *decoder) perturbation(p *PerturbationSpec) {
	var seen uint8
	for n := 0; d.member(&n); {
		switch string(d.key(&seen)) {
		case "name":
			p.Name = d.str()
		case "orig":
			p.Orig = d.floats()
		case "units":
			p.Units = d.str()
		case "discrete":
			p.Discrete = d.boolean()
		default:
			d.fail()
		}
	}
}

func (d *decoder) feature(fs *FeatureSpec) {
	var seen uint8
	for n := 0; d.member(&n); {
		switch string(d.key(&seen)) {
		case "name":
			fs.Name = d.str()
		case "min":
			fs.Min = d.bound()
		case "max":
			fs.Max = d.bound()
		case "impact":
			d.impact(&fs.Impact)
		default:
			d.fail()
		}
	}
}

func (d *decoder) impact(is *ImpactSpec) {
	var seen uint8
	for n := 0; d.member(&n); {
		switch string(d.key(&seen)) {
		case "type":
			is.Type = d.str()
		case "coeffs":
			is.Coeffs = d.floats()
		case "offset":
			is.Offset = d.float()
		case "terms":
			lo := len(d.w.terms.buf)
			for m := 0; d.element(&m); {
				d.term(d.w.terms.push(&lo))
			}
			is.Terms = nonNil(d.w.terms.run(lo))
		default:
			d.fail()
		}
	}
}

func (d *decoder) term(ts *TermSpec) {
	var seen uint8
	for n := 0; d.member(&n); {
		switch string(d.key(&seen)) {
		case "kind":
			ts.Kind = d.str()
		case "index":
			ts.Index = d.integer()
		case "coeff":
			ts.Coeff = d.float()
		case "p":
			ts.P = d.float()
		default:
			d.fail()
		}
	}
}

// floats decodes an array of numbers.
func (d *decoder) floats() []float64 {
	lo := len(d.w.floats.buf)
	for n := 0; d.element(&n); {
		v := d.float()
		*d.w.floats.push(&lo) = v
	}
	return nonNil(d.w.floats.run(lo))
}

// bound decodes a number into a fresh pointer, as json.Unmarshal does for
// a *float64 field.
func (d *decoder) bound() *float64 {
	p := &d.w.floats.take(1)[0]
	*p = d.float()
	return p
}

// number scans one number in strict JSON grammar and returns its text;
// integral restricts it to -?(0|[1-9][0-9]*).
func (d *decoder) number(integral bool) []byte {
	d.ws()
	b, start := d.buf, d.i
	j := start
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		for j++; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		}
	default:
		d.fail()
		return nil
	}
	if !integral {
		if j < len(b) && b[j] == '.' {
			j++
			if j >= len(b) || b[j] < '0' || b[j] > '9' {
				d.fail()
				return nil
			}
			for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			}
		}
		if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
			j++
			if j < len(b) && (b[j] == '+' || b[j] == '-') {
				j++
			}
			if j >= len(b) || b[j] < '0' || b[j] > '9' {
				d.fail()
				return nil
			}
			for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			}
		}
	}
	d.i = j
	return b[start:j]
}

func (d *decoder) float() float64 {
	s := d.number(false)
	if d.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		d.fail()
		return 0
	}
	return v
}

func (d *decoder) integer() int {
	s := d.number(true)
	if d.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	if err != nil {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) boolean() bool {
	d.ws()
	rest := d.buf[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false
	}
	d.fail()
	return false
}

// str decodes a string. The common names of the format are returned as
// constants, so decoding them allocates nothing.
func (d *decoder) str() string {
	d.ws()
	b := d.buf
	if d.i >= len(b) || b[d.i] != '"' {
		d.fail()
		return ""
	}
	start := d.i + 1
	j := start
	for j < len(b) {
		c := b[j]
		if c == '"' {
			d.i = j + 1
			return d.w.intern(b[start:j])
		}
		if c == '\\' {
			return d.escaped(start, j)
		}
		if c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			j++
			continue
		}
		r, size := utf8.DecodeRune(b[j:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		j += size
	}
	d.fail()
	return ""
}

// escaped finishes a string that opened at start and holds an escape at
// j, building the unescaped value.
func (d *decoder) escaped(start, j int) string {
	b := d.buf
	out := append([]byte(nil), b[start:j]...)
	for j < len(b) {
		c := b[j]
		switch {
		case c == '"':
			d.i = j + 1
			return string(out)
		case c < 0x20:
			d.fail()
			return ""
		case c == '\\':
			if j+1 >= len(b) {
				d.fail()
				return ""
			}
			j += 2
			switch b[j-1] {
			case '"', '\\', '/':
				out = append(out, b[j-1])
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[j:])
				if r < 0 || (r >= 0xD800 && r < 0xE000) {
					d.fail()
					return ""
				}
				out = utf8.AppendRune(out, rune(r))
				j += 4
			default:
				d.fail()
				return ""
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			j++
		default:
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				d.fail()
				return ""
			}
			out = append(out, b[j:j+size]...)
			j += size
		}
	}
	d.fail()
	return ""
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) int {
	if len(b) < 4 {
		return -1
	}
	r := 0
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | int(c)
	}
	return r
}

// constant returns the spec format's enumerated string b without
// allocating, or "" when b is none of them.
func constant(b []byte) string {
	switch string(b) {
	case "linear":
		return "linear"
	case "terms":
		return "terms"
	case "power":
		return "power"
	case "exp":
		return "exp"
	case "xlogx":
		return "xlogx"
	case "l1":
		return "l1"
	case "l2":
		return "l2"
	case "linf":
		return "linf"
	}
	return ""
}
