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
// Spans are stored compactly: one fixed-layout record per finished span
// and its attributes in a per-trace arena, with no map and no hex ID
// until the trace is read. The span cap is enforced when a span is
// opened, so a span past it costs nothing.
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
	spans  []spanRec  // finished spans, in the order they ended
	attrs  []spanAttr // span attribute arena; spanRec.attrLo/attrHi index it
	remote []SpanData // stitched peer spans, kept as received (start shifted)
	tattrs []Label    // trace-level attributes, one per key
	sealed bool
	// Set by Seal.
	status  int
	durUS   int64
	slow    bool
	dropped int
}

// spanRec is one finished span. A stitched peer span is only a start
// offset plus an index into Trace.remote.
type spanRec struct {
	name           string
	err            string
	id             uint64
	startUS        int64
	durUS          int64
	retries        int32
	attrLo, attrHi int32
	remote         int32 // 1 + index into Trace.remote; 0 for a local span
}

// spanAttr is one span attribute: a string, or an integer rendered only
// when the trace is read.
type spanAttr struct {
	key   string
	str   string
	num   int64
	isInt bool
}

func (a *spanAttr) value() string {
	if a.isInt {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
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
	for _, sd := range spans {
		if t.started.Add(1) > maxSpansPerTrace {
			continue
		}
		sd.StartUS += offsetUS
		t.remote = append(t.remote, sd)
		t.spans = append(t.spans, spanRec{startUS: sd.StartUS, remote: int32(len(t.remote))})
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
// the compact records stay as they are until a reader asks for the
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
}

// Finish seals the trace with the response status and returns the
// finished document. Spans are sorted by start offset so concurrent
// workers' spans read as a timeline.
func (t *Trace) Finish(status int) TraceData {
	t.Seal(status, false)
	return t.data()
}

// data renders the trace document from the compact records.
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
// they ended in. The records are sorted in place: a stable sort of an
// already sorted prefix plus later appends yields the same order as
// sorting the insertion order once. Call with t.mu held.
func (t *Trace) appendSpansLocked(dst []SpanData, limit int) []SpanData {
	slices.SortStableFunc(t.spans, func(a, b spanRec) int { return cmp.Compare(a.startUS, b.startUS) })
	recs := t.spans
	if limit >= 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	if len(recs) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.remote > 0 {
			dst = append(dst, t.remote[r.remote-1])
			continue
		}
		sd := SpanData{
			Name:       r.name,
			SpanID:     spanIDString(r.id),
			ParentID:   t.rootID,
			StartUS:    r.startUS,
			DurationUS: r.durUS,
			Error:      r.err,
			Retries:    int(r.retries),
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
	id      uint64
	startNS int64 // offset from the trace start, monotonic
	retries int
	attrs   []spanAttr // backed by inline until a third key
	inline  [2]spanAttr
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
	s := &Span{trace: t, name: name, id: t.idBase + uint64(n), startNS: startNS}
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
	return spanIDString(s.id)
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
		s.put(spanAttr{key: key, str: value})
	}
	return s
}

// SetInt records an integer span attribute, rendered in decimal when the
// trace is read, and returns the span for chaining. It shares Set's
// keys: the last write of a key wins whichever of the two made it.
func (s *Span) SetInt(key string, v int) *Span {
	if s != nil {
		s.put(spanAttr{key: key, num: int64(v), isInt: true})
	}
	return s
}

func (s *Span) put(a spanAttr) {
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
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
	r := spanRec{
		name:    s.name,
		id:      s.id,
		startUS: s.startNS / int64(time.Microsecond),
		durUS:   (endNS - s.startNS) / int64(time.Microsecond),
		retries: int32(s.retries),
	}
	if err != nil {
		r.err = err.Error()
	}
	t.mu.Lock()
	if !t.sealed {
		r.attrLo = int32(len(t.attrs))
		t.attrs = append(t.attrs, s.attrs...)
		r.attrHi = int32(len(t.attrs))
		t.spans = append(t.spans, r)
	}
	t.mu.Unlock()
}

// TraceRing retains sealed traces two ways: a ring of the most recent
// N, and the slowest N seen since the process started — the requests a
// post-mortem actually wants. Both lists are bounded, so memory is fixed
// no matter the traffic. Traces are kept in their compact form and
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
