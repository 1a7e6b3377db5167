package obs

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's span list so a pathological request
// (a batch of hundreds of systems, a long watch session, a fault storm
// of retried features) cannot balloon the ring. The cap applies when a
// span is opened (StartSpan, StartSpanAt): a trace keeps its first
// maxSpansPerTrace spans and counts the rest in TraceData.SpansDropped.
const maxSpansPerTrace = 512

// NewID returns a 16-hex-char request ID. It never fails: if the system
// entropy source is unavailable it falls back to a process-local counter,
// which is still unique within the process.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := fallbackID.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Uint64

// randUint64 draws one random 64-bit value, with the same counter
// fallback as NewID when the entropy source is unavailable.
func randUint64() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fallbackID.Add(1)
	}
	return binary.BigEndian.Uint64(b[:])
}

// spanIDString renders a span ID as 16 lowercase hex chars — the same
// shape as a trace or request ID, so every ID in a trace document greps
// alike.
func spanIDString(v uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return hex.EncodeToString(b[:])
}

// ParseTraceHeader parses an X-Fepiad-Trace value of the form
// "<trace-id>-<parent-span-id>" (16 lowercase hex chars each, W3C
// traceparent style). Anything malformed — wrong length, missing
// separator, uppercase or non-hex bytes — returns ok=false so the
// caller starts a fresh trace instead of erroring.
func ParseTraceHeader(v string) (traceID, parentID string, ok bool) {
	if len(v) != 33 || v[16] != '-' {
		return "", "", false
	}
	traceID, parentID = v[:16], v[17:]
	if !isHex16(traceID) || !isHex16(parentID) {
		return "", "", false
	}
	return traceID, parentID, true
}

// FormatTraceHeader renders the X-Fepiad-Trace wire value for a forward:
// the trace ID plus the span that becomes the remote server span's
// parent (the ingress forward span).
func FormatTraceHeader(traceID, parentID string) string {
	return traceID + "-" + parentID
}

func isHex16(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SpanData is one finished pipeline-stage span as served on
// /debug/traces. Offsets are relative to the trace start so a span list
// reads as a timeline. SpanID/ParentID place the span in the cross-node
// tree: local spans hang off the trace's root span, a forwarded
// request's remote spans hang off the ingress forward span.
//
// SpanData is the wire form only. A trace records its spans compactly
// and builds SpanData when it is read (TraceRing.Snapshot, ExportSpans,
// Finish); it is also the input Stitch takes from a peer.
type SpanData struct {
	Name       string            `json:"name"`
	SpanID     string            `json:"span_id,omitempty"`
	ParentID   string            `json:"parent_id,omitempty"`
	StartUS    int64             `json:"start_us"`
	DurationUS int64             `json:"duration_us"`
	Error      string            `json:"error,omitempty"`
	Retries    int               `json:"retries,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceData is one finished request trace: the JSON document of
// /debug/traces. TraceID is the cross-node trace identity (propagated
// on forwards via X-Fepiad-Trace); SpanID is the trace's root span and
// ParentID, when set, is the remote parent span this trace was stitched
// under on the node that forwarded to us.
type TraceData struct {
	ID           string            `json:"id"`
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentID     string            `json:"parent_id,omitempty"`
	Endpoint     string            `json:"endpoint"`
	Start        time.Time         `json:"start"`
	DurationUS   int64             `json:"duration_us"`
	Status       int               `json:"status"`
	Slow         bool              `json:"slow,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Spans        []SpanData        `json:"spans"`
	SpansDropped int               `json:"spans_dropped,omitempty"`
}

// Trace accumulates the spans of one in-flight request. Create one with
// NewTrace, attach it to the request context with WithTrace, and close
// it with Seal (or Finish, which also renders it). All methods are safe
// for concurrent use — batch workers append spans to the same trace from
// many goroutines.
//
// Spans are stored as one append-only byte stream of self-describing
// records (the layout is documented at recLocal), with no map, no hex
// ID and no pointer until the trace is read, so a retained trace's
// spans are one block the garbage collector never scans. The span cap
// is enforced when a span is opened, so a span past it costs nothing.
type Trace struct {
	id       string
	endpoint string
	traceID  string
	rootID   string // root span ID; local spans parent here
	parent   string // remote parent span ID ("" when this node is the ingress)
	start    time.Time
	idBase   uint64
	// started counts the spans StartSpan opened and Stitch offered; the
	// ones past maxSpansPerTrace are refused and counted as dropped.
	started atomic.Int64

	mu     sync.Mutex
	recs   []byte  // finished spans as encoded records, in the order they ended
	tattrs []Label // trace-level attributes, one per key
	sealed bool
	// Set by Seal.
	status  int
	durUS   int64
	slow    bool
	dropped int
}

// Record kinds, the first byte of every record in Trace.recs. A record
// is its kind byte, then start_us, duration_us and retries as zigzag
// varints, then the kind's fields:
//
//	local:  uvarint span index (span ID = idBase + index), name, error, attributes
//	remote: span ID, parent ID, name, error, attributes
//
// Strings are a uvarint length and the bytes. Attributes are a uvarint
// byte length and that many bytes of entries: a key string, a value tag
// and the value (a string, or a zigzag varint for attrInt).
const (
	recLocal  byte = 1 // a span recorded on this node
	recRemote byte = 2 // a span stitched from a peer's export
)

// Attribute value tags, the byte after an attribute's key.
const (
	attrStr byte = 0 // length-prefixed string
	attrInt byte = 1 // zigzag varint, rendered in decimal when read
)

// appendHead encodes the fields every record starts with.
func appendHead(b []byte, kind byte, startUS, durUS, retries int64) []byte {
	b = append(b, kind)
	b = binary.AppendVarint(b, startUS)
	b = binary.AppendVarint(b, durUS)
	return binary.AppendVarint(b, retries)
}

// appendStr encodes one length-prefixed string.
func appendStr[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// recReader decodes the stream. The stream is written only by this
// file, so a malformed record is a bug, and the reader does not check.
type recReader struct {
	b   []byte
	off int
	// s, when set, holds b's bytes as a string; str then returns
	// substrings of it, so rendering a record allocates its strings once.
	s string
}

func (r *recReader) byte() byte {
	c := r.b[r.off]
	r.off++
	return c
}

func (r *recReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	r.off += n
	return v
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	r.off += n
	return v
}

func (r *recReader) bytes() []byte {
	n := int(r.uvarint())
	s := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return s
}

func (r *recReader) str() string {
	b := r.bytes()
	if r.s != "" {
		return r.s[r.off-len(b) : r.off]
	}
	return string(b)
}

// head decodes the fields every record starts with.
func (r *recReader) head() (kind byte, startUS, durUS, retries int64) {
	kind = r.byte()
	startUS, durUS, retries = r.varint(), r.varint(), r.varint()
	return kind, startUS, durUS, retries
}

// skipBody steps over the fields after the head of a kind's record.
func (r *recReader) skipBody(kind byte) {
	strs := 3 // name, error, attributes
	if kind == recLocal {
		r.uvarint()
	} else {
		strs += 2 // span ID, parent ID
	}
	for i := 0; i < strs; i++ {
		r.bytes()
	}
}

// attrs decodes an attributes field into a map, nil when it is empty.
func (r *recReader) attrs() map[string]string {
	n := int(r.uvarint())
	if n == 0 {
		return nil
	}
	m := make(map[string]string)
	for end := r.off + n; r.off < end; {
		k := r.str()
		if r.byte() == attrInt {
			m[k] = strconv.FormatInt(r.varint(), 10)
		} else {
			m[k] = r.str()
		}
	}
	return m
}

// NewTrace starts a trace for one request. id is the request ID
// (accepted from or emitted as X-Request-Id); endpoint names the route.
// The trace gets a fresh 16-hex trace ID and a random root span ID.
func NewTrace(id, endpoint string) *Trace {
	return NewTraceRemote(id, endpoint, "", "")
}

// NewTraceRemote starts a trace that continues a cross-node trace: the
// forwarded-to node adopts the ingress trace ID and parents its root
// span under parentID (the ingress forward span). Empty traceID starts
// a fresh trace, exactly like NewTrace.
func NewTraceRemote(id, endpoint, traceID, parentID string) *Trace {
	base := randUint64()
	if traceID == "" {
		traceID = NewID()
		parentID = ""
	}
	return &Trace{
		id:       id,
		endpoint: endpoint,
		traceID:  traceID,
		rootID:   spanIDString(base),
		parent:   parentID,
		start:    time.Now(),
		idBase:   base,
	}
}

// ID returns the trace's request ID.
func (t *Trace) ID() string { return t.id }

// TraceID returns the cross-node trace ID (16 hex chars).
func (t *Trace) TraceID() string { return t.traceID }

// RootSpanID returns the trace's root span ID — the parent of every
// local span and, on a forwarded-to node, the span exported as the
// remote "server" span.
func (t *Trace) RootSpanID() string { return t.rootID }

// Remote reports whether this trace continues a trace started on
// another node (it was built from a valid X-Fepiad-Trace header).
func (t *Trace) Remote() bool { return t.parent != "" }

// SetAttr records a trace-level attribute (outcome, degraded, breaker
// state, …); the access logger and /debug/traces both surface it. The
// last write of a key wins.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.tattrs {
		if t.tattrs[i].Name == key {
			t.tattrs[i].Value = value
			return
		}
	}
	t.tattrs = append(t.tattrs, Label{Name: key, Value: value})
}

// Attr returns one trace-level attribute, or "" when it is unset.
func (t *Trace) Attr(key string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.tattrs {
		if l.Name == key {
			return l.Value
		}
	}
	return ""
}

// Attrs returns a sorted copy of the trace-level attributes as key/value
// pairs, for structured access logging.
func (t *Trace) Attrs() []Label {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Label(nil), t.tattrs...)
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b Label) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Stitch merges spans exported by a remote node into this trace — the
// ingress side of cross-node tracing. offsetUS shifts the remote
// timeline onto this trace's clock (the forward span's start offset);
// remote parent IDs are preserved, so the exported server span stays
// hooked under the forward span that carried the X-Fepiad-Trace header.
// Stitching respects the span cap like any local span.
func (t *Trace) Stitch(spans []SpanData, offsetUS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	var attrs []byte
	for i := range spans {
		if t.started.Add(1) > maxSpansPerTrace {
			continue
		}
		sd := &spans[i]
		attrs = attrs[:0]
		for k, v := range sd.Attrs {
			attrs = appendStr(append(appendStr(attrs, k), attrStr), v)
		}
		b := appendHead(t.recs, recRemote, sd.StartUS+offsetUS, sd.DurationUS, int64(sd.Retries))
		b = appendStr(b, sd.SpanID)
		b = appendStr(b, sd.ParentID)
		b = appendStr(b, sd.Name)
		b = appendStr(b, sd.Error)
		t.recs = appendStr(b, attrs)
	}
}

// ExportSpans renders the spans recorded so far — the forwarded-to
// node's side of cross-node tracing — prepended with a synthetic
// "server" span (the trace's root, parented under the ingress forward
// span) so the ingress stitches a rooted subtree. The list is sorted by
// start offset and capped at limit (≤0 means no cap).
func (t *Trace) ExportSpans(node string, limit int) []SpanData {
	if t == nil {
		return nil
	}
	root := SpanData{
		Name:       "server",
		SpanID:     t.rootID,
		ParentID:   t.parent,
		DurationUS: time.Since(t.start).Microseconds(),
		Attrs:      map[string]string{"node": node, "endpoint": t.endpoint},
	}
	n := -1
	if limit > 0 {
		n = limit - 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendSpansLocked([]SpanData{root}, n)
}

// Seal closes the trace with the response status without rendering it:
// the record stream is cut to its exact length, so a retained trace
// carries no append slack, and stays encoded until a reader asks for the
// document. slow marks a slow-threshold capture (TraceData.Slow). Spans
// that end or are stitched after Seal are ignored, and the first Seal
// wins.
func (t *Trace) Seal(status int, slow bool) {
	d := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	t.sealed = true
	t.status, t.durUS, t.slow = status, d.Microseconds(), slow
	if over := t.started.Load() - maxSpansPerTrace; over > 0 {
		t.dropped = int(over)
	}
	if cap(t.recs) > len(t.recs) {
		t.recs = append([]byte(nil), t.recs...)
	}
}

// Finish seals the trace with the response status and returns the
// finished document. Spans are sorted by start offset so concurrent
// workers' spans read as a timeline.
func (t *Trace) Finish(status int) TraceData {
	t.Seal(status, false)
	return t.data()
}

// data renders the trace document from the record stream.
func (t *Trace) data() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	td := TraceData{
		ID:           t.id,
		TraceID:      t.traceID,
		SpanID:       t.rootID,
		ParentID:     t.parent,
		Endpoint:     t.endpoint,
		Start:        t.start,
		DurationUS:   t.durUS,
		Status:       t.status,
		Slow:         t.slow,
		Spans:        t.appendSpansLocked(nil, -1),
		SpansDropped: t.dropped,
	}
	if len(t.tattrs) > 0 {
		td.Attrs = make(map[string]string, len(t.tattrs))
		for _, l := range t.tattrs {
			td.Attrs[l.Name] = l.Value
		}
	}
	return td
}

// appendSpansLocked renders up to limit spans (<0: all) onto dst in
// start order; spans that start in the same microsecond keep the order
// they ended in. Call with t.mu held.
func (t *Trace) appendSpansLocked(dst []SpanData, limit int) []SpanData {
	type at struct {
		startUS  int64
		off, end int
	}
	var order []at
	for r := (recReader{b: t.recs}); r.off < len(r.b); {
		off := r.off
		kind, startUS, _, _ := r.head()
		r.skipBody(kind)
		order = append(order, at{startUS, off, r.off})
	}
	slices.SortStableFunc(order, func(a, b at) int { return cmp.Compare(a.startUS, b.startUS) })
	if limit >= 0 && len(order) > limit {
		order = order[:limit]
	}
	if len(order) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(order))
	for _, o := range order {
		dst = append(dst, t.render(t.recs[o.off:o.end]))
	}
	return dst
}

// render builds the SpanData of one record. Its strings share one
// allocation, a copy of the record.
func (t *Trace) render(rec []byte) SpanData {
	r := recReader{b: rec, s: string(rec)}
	kind, startUS, durUS, retries := r.head()
	sd := SpanData{StartUS: startUS, DurationUS: durUS, Retries: int(retries)}
	if kind == recLocal {
		sd.SpanID = spanIDString(t.idBase + r.uvarint())
		sd.ParentID = t.rootID
	} else {
		sd.SpanID = r.str()
		sd.ParentID = r.str()
	}
	sd.Name = r.str()
	sd.Error = r.str()
	sd.Attrs = r.attrs()
	return sd
}

// traceKey carries the context's trace.
type traceKey struct{}

// WithTrace attaches t to the context; a nil t returns ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil when the request is not
// traced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Span is an in-flight pipeline-stage span. A nil *Span (from an
// untraced context, or a trace already holding maxSpansPerTrace spans)
// is valid and every method is a no-op, so instrumentation sites never
// branch on whether tracing is active.
type Span struct {
	trace   *Trace
	name    string
	index   uint64 // place in start order; the span ID is trace.idBase + index
	startNS int64  // offset from the trace start, monotonic
	retries int
	attrs   []byte // encoded attribute entries, backed by inline until they outgrow it
	// inline fills the Span to its 176-byte size class: room for a solve
	// span's seven attributes.
	inline [104]byte
}

// StartSpan opens a span named after a pipeline stage (parse, breaker,
// admit, solve, kernel, encode, …) on the context's trace; it returns
// nil — a no-op span — when the context is untraced or the trace is
// full.
func StartSpan(ctx context.Context, name string) *Span {
	return TraceFrom(ctx).StartSpan(name)
}

// StartSpan opens a span on t. It returns nil — a no-op span — on a nil
// trace and once maxSpansPerTrace spans have started: the span is
// counted in spans_dropped and costs no allocation. So the spans a full
// trace keeps are the first ones started.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartSpanAt(name, t.Clock())
}

// Clock reads the trace's monotonic clock: nanoseconds since the trace
// started, or 0 on a nil trace. A reading taken before some work is the
// startNS of a span StartSpanAt records only once the work turns out to
// be worth a span.
func (t *Trace) Clock() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// StartSpanAt opens a span on t whose start is an earlier Clock reading,
// so a span decided on after the fact (a retried or failed feature)
// keeps its true start offset and duration. The span cap is counted
// here, when the span is committed, exactly as StartSpan counts it.
func (t *Trace) StartSpanAt(name string, startNS int64) *Span {
	if t == nil {
		return nil
	}
	n := t.started.Add(1)
	if n > maxSpansPerTrace {
		return nil
	}
	s := &Span{trace: t, name: name, index: uint64(n), startNS: startNS}
	s.attrs = s.inline[:0]
	return s
}

// ID returns the span's ID (16 hex chars), or "" on a nil span. The
// forward span's ID rides the X-Fepiad-Trace header so the remote
// server span parents under it.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return spanIDString(s.trace.idBase + s.index)
}

// StartOffsetUS returns the span's start offset on its trace's
// timeline, in microseconds — the stitch offset for spans a remote node
// recorded while this span (the forward) was in flight. 0 on a nil span.
func (s *Span) StartOffsetUS() int64 {
	if s == nil {
		return 0
	}
	return s.startNS / int64(time.Microsecond)
}

// Set records a span attribute and returns the span for chaining. The
// last write of a key wins.
func (s *Span) Set(key, value string) *Span {
	if s != nil {
		s.drop(key)
		s.attrs = appendStr(append(appendStr(s.attrs, key), attrStr), value)
	}
	return s
}

// SetInt records an integer span attribute, rendered in decimal when the
// trace is read, and returns the span for chaining. It shares Set's
// keys: the last write of a key wins whichever of the two made it.
func (s *Span) SetInt(key string, v int) *Span {
	if s != nil {
		s.drop(key)
		s.attrs = binary.AppendVarint(append(appendStr(s.attrs, key), attrInt), int64(v))
	}
	return s
}

// drop removes key's entry, if any, from the span's attributes.
func (s *Span) drop(key string) {
	for r := (recReader{b: s.attrs}); r.off < len(r.b); {
		off := r.off
		k := r.bytes()
		if r.byte() == attrInt {
			r.varint()
		} else {
			r.bytes()
		}
		if string(k) == key {
			s.attrs = append(s.attrs[:off], s.attrs[r.off:]...)
			return
		}
	}
}

// AddRetries adds n to the span's retry-attempt count (solve_feature
// spans carry the retries the policy spent on their feature).
func (s *Span) AddRetries(n int) {
	if s != nil {
		s.retries += n
	}
}

// End records the span onto its trace; err, when non-nil, is recorded
// on the span. A span ending after its trace is sealed is ignored.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	t := s.trace
	endNS := int64(time.Since(t.start))
	var msg string
	if err != nil {
		msg = err.Error()
	}
	t.mu.Lock()
	if !t.sealed {
		t.recs = s.appendLocal(t.recs, endNS, msg)
	}
	t.mu.Unlock()
}

// appendLocal encodes the span, ended at endNS with error msg, as a
// local record. Retries are recorded as an int32, which FuzzTraceRecords
// checks against the reference store.
func (s *Span) appendLocal(b []byte, endNS int64, msg string) []byte {
	const us = int64(time.Microsecond)
	b = appendHead(b, recLocal, s.startNS/us, (endNS-s.startNS)/us, int64(int32(s.retries)))
	b = binary.AppendUvarint(b, s.index)
	b = appendStr(b, s.name)
	b = appendStr(b, msg)
	return appendStr(b, s.attrs)
}

// TraceRing retains sealed traces two ways: a ring of the most recent
// N, and the slowest N seen since the process started — the requests a
// post-mortem actually wants. Both lists are bounded, so memory is fixed
// no matter the traffic. Traces are kept as their record streams and
// rendered only by Snapshot. Safe for concurrent use; Add takes one
// short lock per finished request, never on the request hot path.
//
// Retention-side sampling (SetSample) thins the recent ring under heavy
// traffic: 1-in-N traces are kept, except traces sealed as slow, which
// bypass sampling entirely (slow-request capture). The slowest-ever
// list ignores sampling but honors Add's skipSlowest, so shed 503s with
// near-zero durations never evict genuine outliers.
type TraceRing struct {
	mu      sync.Mutex
	recent  []*Trace // ring buffer
	next    int      // write position
	filled  bool
	slowest []*Trace // sorted by duration descending, ≤ slowCap
	slowCap int
	sample  int
	total   uint64
}

// NewTraceRing builds a ring retaining the given number of recent traces
// and, separately, the same number of slowest traces (capacity ≤ 0
// selects 64).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = 64
	}
	return &TraceRing{recent: make([]*Trace, capacity), slowCap: capacity, sample: 1}
}

// SetSample keeps 1-in-n traces in the recent ring (n ≤ 1 keeps all).
// Slow-marked traces are always kept. Call before serving traffic.
func (r *TraceRing) SetSample(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.sample = n
	r.mu.Unlock()
}

// Add records one sealed trace. skipSlowest keeps it out of the
// slowest-ever list.
func (r *TraceRing) Add(t *Trace, skipSlowest bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.sample <= 1 || t.slow || (r.total-1)%uint64(r.sample) == 0 {
		r.recent[r.next] = t
		r.next++
		if r.next == len(r.recent) {
			r.next, r.filled = 0, true
		}
	}
	if skipSlowest {
		return
	}
	// Insertion-sort into the slowest list (small, fixed capacity).
	i := sort.Search(len(r.slowest), func(i int) bool { return r.slowest[i].durUS < t.durUS })
	if i < r.slowCap {
		if len(r.slowest) < r.slowCap {
			r.slowest = append(r.slowest, nil)
		}
		copy(r.slowest[i+1:], r.slowest[i:])
		r.slowest[i] = t
	}
}

// RetainedBytes sums the record-stream lengths of the retained traces
// (fepiad_trace_retained_bytes). A trace held in both the recent ring and
// the slowest list counts once.
func (r *TraceRing) RetainedBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	slow := make(map[*Trace]bool, len(r.slowest))
	for _, t := range r.slowest {
		slow[t] = true
		n += t.streamLen()
	}
	for _, t := range r.recent {
		if t != nil && !slow[t] {
			n += t.streamLen()
		}
	}
	return n
}

func (t *Trace) streamLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// RingSnapshot is the /debug/traces document.
type RingSnapshot struct {
	// Capacity bounds both retention lists; Total counts every trace
	// ever added (sampled-out traces still count).
	Capacity int    `json:"capacity"`
	Total    uint64 `json:"total"`
	// Recent holds the last traces in most-recent-first order; Slowest
	// the slowest-ever, slowest first.
	Recent  []TraceData `json:"recent"`
	Slowest []TraceData `json:"slowest"`
}

// Snapshot renders both retention lists. The ring lock covers only the
// copy of the trace pointers; rendering happens outside it.
func (r *TraceRing) Snapshot() RingSnapshot {
	r.mu.Lock()
	n := r.next
	if r.filled {
		n = len(r.recent)
	}
	recent := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the last write so the list is newest-first.
		j := r.next - 1 - i
		if j < 0 {
			j += len(r.recent)
		}
		recent = append(recent, r.recent[j])
	}
	slowest := append([]*Trace(nil), r.slowest...)
	snap := RingSnapshot{Capacity: len(r.recent), Total: r.total}
	r.mu.Unlock()

	snap.Recent = make([]TraceData, len(recent))
	for i, t := range recent {
		snap.Recent[i] = t.data()
	}
	if len(slowest) > 0 {
		snap.Slowest = make([]TraceData, len(slowest))
		for i, t := range slowest {
			snap.Slowest[i] = t.data()
		}
	}
	return snap
}
