package obs

import (
	"cmp"
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"
)

// refTrace is a reference model of a trace's span store: one struct per
// finished span, span attributes in a shared arena, and stitched peer
// spans kept as received. It is the layout the record stream replaced,
// kept here so FuzzTraceRecords can check that both render the same
// documents.
type refTrace struct {
	real    *Trace // identity fields (IDs, start, endpoint) are read from it
	started int64
	spans   []refRec
	attrs   []refAttr
	remote  []SpanData
	tattrs  []Label
	sealed  bool
	status  int
	durUS   int64
	slow    bool
	dropped int
}

// refRec is one finished span; a stitched peer span is only a start
// offset plus an index into refTrace.remote.
type refRec struct {
	name           string
	err            string
	id             uint64
	startUS        int64
	durUS          int64
	retries        int32
	attrLo, attrHi int32
	remote         int32 // 1 + index into refTrace.remote; 0 for a local span
}

// refAttr is one span attribute: a string, or an integer rendered only
// when the trace is read.
type refAttr struct {
	key   string
	str   string
	num   int64
	isInt bool
}

func (a *refAttr) value() string {
	if a.isInt {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

type refSpan struct {
	t       *refTrace
	name    string
	id      uint64
	startNS int64
	at      bool // startNS was given (StartSpanAt), not read from the clock
	retries int
	attrs   []refAttr
}

func (t *refTrace) startSpan(name string, startNS int64, at bool) *refSpan {
	t.started++
	if t.started > maxSpansPerTrace {
		return nil
	}
	return &refSpan{t: t, name: name, id: t.real.idBase + uint64(t.started), startNS: startNS, at: at}
}

func (s *refSpan) put(a refAttr) {
	if s == nil {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}

// end records the span with the offsets the real trace's clock gave it.
func (s *refSpan) end(err error, startUS, durUS int64) {
	if s == nil {
		return
	}
	t := s.t
	r := refRec{name: s.name, id: s.id, startUS: startUS, durUS: durUS, retries: int32(s.retries)}
	if err != nil {
		r.err = err.Error()
	}
	if !t.sealed {
		r.attrLo = int32(len(t.attrs))
		t.attrs = append(t.attrs, s.attrs...)
		r.attrHi = int32(len(t.attrs))
		t.spans = append(t.spans, r)
	}
}

func (t *refTrace) stitch(spans []SpanData, offsetUS int64) {
	if t.sealed {
		return
	}
	for _, sd := range spans {
		t.started++
		if t.started > maxSpansPerTrace {
			continue
		}
		sd.StartUS += offsetUS
		t.remote = append(t.remote, sd)
		t.spans = append(t.spans, refRec{startUS: sd.StartUS, remote: int32(len(t.remote))})
	}
}

func (t *refTrace) setAttr(key, value string) {
	for i := range t.tattrs {
		if t.tattrs[i].Name == key {
			t.tattrs[i].Value = value
			return
		}
	}
	t.tattrs = append(t.tattrs, Label{Name: key, Value: value})
}

func (t *refTrace) seal(status int, slow bool, durUS int64) {
	if t.sealed {
		return
	}
	t.sealed = true
	t.status, t.durUS, t.slow = status, durUS, slow
	if over := t.started - maxSpansPerTrace; over > 0 {
		t.dropped = int(over)
	}
}

func (t *refTrace) data() TraceData {
	tr := t.real
	td := TraceData{
		ID: tr.id, TraceID: tr.traceID, SpanID: tr.rootID, ParentID: tr.parent, Endpoint: tr.endpoint,
		Start: tr.start, DurationUS: t.durUS, Status: t.status, Slow: t.slow,
		Spans: t.appendSpans(nil, -1), SpansDropped: t.dropped,
	}
	if len(t.tattrs) > 0 {
		td.Attrs = make(map[string]string, len(t.tattrs))
		for _, l := range t.tattrs {
			td.Attrs[l.Name] = l.Value
		}
	}
	return td
}

// exportSpans is ExportSpans with the synthetic server span's duration,
// a clock reading, left 0.
func (t *refTrace) exportSpans(node string, limit int) []SpanData {
	root := SpanData{
		Name: "server", SpanID: t.real.rootID, ParentID: t.real.parent,
		Attrs: map[string]string{"node": node, "endpoint": t.real.endpoint},
	}
	n := -1
	if limit > 0 {
		n = limit - 1
	}
	return t.appendSpans([]SpanData{root}, n)
}

// appendSpans sorts the records in place, as the struct store did, so
// the model also checks that sorting the stream's insertion order afresh
// on every read gives the same order.
func (t *refTrace) appendSpans(dst []SpanData, limit int) []SpanData {
	slices.SortStableFunc(t.spans, func(a, b refRec) int { return cmp.Compare(a.startUS, b.startUS) })
	recs := t.spans
	if limit >= 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	for i := range recs {
		r := &recs[i]
		if r.remote > 0 {
			dst = append(dst, t.remote[r.remote-1])
			continue
		}
		sd := SpanData{
			Name: r.name, SpanID: spanIDString(r.id), ParentID: t.real.rootID,
			StartUS: r.startUS, DurationUS: r.durUS, Error: r.err, Retries: int(r.retries),
		}
		if r.attrHi > r.attrLo {
			sd.Attrs = make(map[string]string, r.attrHi-r.attrLo)
			for j := r.attrLo; j < r.attrHi; j++ {
				sd.Attrs[t.attrs[j].key] = t.attrs[j].value()
			}
		}
		dst = append(dst, sd)
	}
	return dst
}

// fuzzOps reads a FuzzTraceRecords program: each value it draws takes
// the next input byte (0 once the input is spent).
type fuzzOps struct{ b []byte }

func (in *fuzzOps) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

// int draws an integer, edge values included.
func (in *fuzzOps) int() int64 {
	switch c := in.byte(); c % 12 {
	case 0:
		return 0
	case 1:
		return -1
	case 2:
		return math.MaxInt64
	case 3:
		return math.MinInt64
	case 4:
		return math.MaxInt32 + 1
	case 5:
		return math.MinInt32 - 1
	case 6:
		return -int64(in.byte()) << (in.byte() % 64)
	default:
		return int64(c) * int64(in.byte())
	}
}

// str draws a string: a stage name, an edge case, or raw input bytes
// (which may be invalid UTF-8).
func (in *fuzzOps) str() string {
	switch c := in.byte(); c % 8 {
	case 0:
		return ""
	case 1:
		return "solve"
	case 2:
		return "feature"
	case 3:
		return "\xff\xfe"
	case 4:
		return "a\x00\"<b> "
	default:
		n := int(c/8) % 12
		if n > len(in.b) {
			n = len(in.b)
		}
		s := string(in.b[:n])
		in.b = in.b[n:]
		return s
	}
}

// key draws an attribute key from a small set, so writes collide.
func (in *fuzzOps) key() string {
	return [...]string{"feature", "feature_index", "kind", "", "\xff", "hits"}[in.byte()%6]
}

func (in *fuzzOps) spanData() SpanData {
	sd := SpanData{
		Name: in.str(), SpanID: in.str(), ParentID: in.str(),
		StartUS: in.int(), DurationUS: in.int(), Error: in.str(), Retries: int(in.int()),
	}
	switch n := int(in.byte() % 5); n {
	case 0:
	case 1:
		sd.Attrs = map[string]string{}
	default:
		sd.Attrs = make(map[string]string)
		for i := 1; i < n; i++ {
			sd.Attrs[in.key()] = in.str()
		}
	}
	return sd
}

// FuzzTraceRecords drives random span programs — StartSpan, StartSpanAt,
// Set, SetInt, AddRetries, End, Stitch, SetAttr, Seal and reads in
// between — against the record stream and against refTrace, and
// requires Finish, data() and ExportSpans at every limit to render the
// same JSON. Clock readings are the one input the two cannot share: the
// model takes each local span's offsets from the record End appended,
// and checks the start of a span opened with StartSpanAt against the
// offset it was given.
func FuzzTraceRecords(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 3, 2, 5, 0, 0, 7, 1, 2, 8, 200, 1})
	f.Add([]byte{1, 7, 9, 1, 7, 9, 2, 0, 2, 3, 5, 1, 5, 0, 9, 3})
	f.Add([]byte{6, 3, 1, 1, 2, 3, 2, 3, 4, 5, 6, 7, 3, 9, 9, 10, 200, 9, 0})
	f.Add([]byte{10, 150, 0, 1, 6, 2, 8, 9, 7, 6, 5, 4, 3, 2, 1, 5, 0, 4})
	f.Add([]byte{1, 1, 3, 0, 4, 0, 2, 2, 5, 0, 6, 4, 0, 5, 0, 3, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		tr := NewTraceRemote("req-fuzz", "batch", "0123456789abcdef", "fedcba9876543210")
		ref := &refTrace{real: tr}
		type pair struct {
			s *Span
			r *refSpan
		}
		var open []pair
		pick := func(in *fuzzOps) int { return int(in.byte()) % len(open) }
		opened := func(s *Span, r *refSpan) pair {
			if (s == nil) != (r == nil) || (s != nil && tr.idBase+s.index != r.id) {
				t.Fatalf("span %+v opened against model span %+v", s, r)
			}
			return pair{s, r}
		}
		end := func(p pair, err error) {
			off := len(tr.recs)
			p.s.End(err)
			if len(tr.recs) == off {
				p.r.end(err, 0, 0) // nil or sealed: the model records nothing either
				return
			}
			r := recReader{b: tr.recs, off: off}
			_, startUS, durUS, _ := r.head()
			if p.r != nil && p.r.at && startUS != p.r.startNS/int64(time.Microsecond) {
				t.Fatalf("StartSpanAt(%d ns) recorded start %d us", p.r.startNS, startUS)
			}
			p.r.end(err, startUS, durUS)
		}
		check := func(limit int) {
			t.Helper()
			assertSameJSON(t, tr.data(), ref.data())
			got := tr.ExportSpans("n", limit)
			got[0].DurationUS = 0
			assertSameJSON(t, got, ref.exportSpans("n", limit))
		}

		in := &fuzzOps{b: prog}
		for len(in.b) > 0 {
			switch in.byte() % 11 {
			case 0:
				name := in.str()
				open = append(open, opened(tr.StartSpan(name), ref.startSpan(name, 0, false)))
			case 1:
				name, at := in.str(), in.int()
				open = append(open, opened(tr.StartSpanAt(name, at), ref.startSpan(name, at, true)))
			case 2:
				if len(open) > 0 {
					p, k, v := open[pick(in)], in.key(), in.str()
					p.s.Set(k, v)
					p.r.put(refAttr{key: k, str: v})
				}
			case 3:
				if len(open) > 0 {
					p, k, v := open[pick(in)], in.key(), int(in.int())
					p.s.SetInt(k, v)
					p.r.put(refAttr{key: k, num: int64(v), isInt: true})
				}
			case 4:
				if len(open) > 0 {
					p, n := open[pick(in)], int(in.int())
					p.s.AddRetries(n)
					if p.r != nil {
						p.r.retries += n
					}
				}
			case 5:
				if len(open) > 0 {
					i := pick(in)
					var err error
					if in.byte()%2 == 1 {
						err = errors.New(in.str())
					}
					end(open[i], err)
					open = slices.Delete(open, i, i+1)
				}
			case 6:
				spans := make([]SpanData, in.byte()%4)
				for i := range spans {
					spans[i] = in.spanData()
				}
				offset := in.int()
				tr.Stitch(spans, offset)
				ref.stitch(spans, offset)
			case 7:
				k, v := in.key(), in.str()
				tr.SetAttr(k, v)
				ref.setAttr(k, v)
			case 8:
				status, slow := int(in.byte())+100, in.byte()%2 == 1
				tr.Seal(status, slow)
				ref.seal(status, slow, tr.durUS)
			case 9:
				check(int(in.byte()) - 1)
			case 10:
				// A burst of spans carries the trace to and past its cap.
				for n := 4 * int(in.byte()); n > 0; n-- {
					name := in.str()
					end(opened(tr.StartSpan(name), ref.startSpan(name, 0, false)), nil)
				}
			}
		}

		got := tr.Finish(200)
		ref.seal(200, false, tr.durUS)
		assertSameJSON(t, got, ref.data())
		// Every limit: each export must equal a prefix of the model's
		// full export field for field (maps compared by content, as JSON
		// renders a nil and an empty map alike), which renders the same
		// JSON without marshalling every prefix.
		full := ref.exportSpans("n", -1)
		for limit := -1; limit <= len(full)+1; limit++ {
			exp := tr.ExportSpans("n", limit)
			exp[0].DurationUS = 0
			want := full
			if limit > 0 && limit < len(full) {
				want = full[:limit]
			}
			if len(exp) != len(want) {
				t.Fatalf("ExportSpans(%d): %d spans, want %d", limit, len(exp), len(want))
			}
			for i := range exp {
				a, b := exp[i], want[i]
				if !maps.Equal(a.Attrs, b.Attrs) {
					t.Fatalf("ExportSpans(%d)[%d] attrs %v, want %v", limit, i, a.Attrs, b.Attrs)
				}
				a.Attrs, b.Attrs = nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("ExportSpans(%d)[%d] = %+v, want %+v", limit, i, a, b)
				}
			}
		}
	})
}
