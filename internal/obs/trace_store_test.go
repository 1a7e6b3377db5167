package obs

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTraceDocumentGolden pins the rendered trace document: a trace
// recorded through the record stream marshals to exactly the JSON
// of a hand-built TraceData. It covers Set overwrite, SetInt (and Set
// and SetInt sharing keys), an error, retries, stitched remote spans,
// trace-level attribute overwrite, and ties on equal start_us, which
// keep the order the spans ended in.
func TestTraceDocumentGolden(t *testing.T) {
	tr := NewTraceRemote("req-g", "analyze", "0123456789abcdef", "fedcba9876543210")
	tr.idBase = 0x1000
	tr.rootID = spanIDString(tr.idBase)
	ctx := WithTrace(context.Background(), tr)

	// Span IDs are idBase plus the span's place in start order.
	StartSpan(ctx, "parse").End(nil) // 0x1001
	solve := StartSpan(ctx, "solve") // 0x1002
	solve.Set("feature", "old").Set("feature", "f1").SetInt("feature_index", 3)
	solve.SetInt("kind", 9).Set("kind", "exact")
	solve.AddRetries(2)
	StartSpan(ctx, "cache_get").Set("hit", "true").End(nil) // 0x1003
	solve.End(errors.New("injected"))
	fwd := StartSpan(ctx, "forward").Set("peer", "b").SetInt("attempts", 2) // 0x1004
	fwd.End(nil)
	remote := []SpanData{
		{Name: "server", SpanID: "00000000000000aa", ParentID: fwd.ID(), StartUS: 0, DurationUS: 30,
			Attrs: map[string]string{"node": "b", "endpoint": "analyze"}},
		{Name: "solve", SpanID: "00000000000000ab", ParentID: "00000000000000aa", StartUS: 4, DurationUS: 20,
			Retries: 1, Error: "remote", Attrs: map[string]string{"feature": "f2", "feature_index": "-1"}},
	}
	tr.Stitch(remote, 40)                                 // 0x1005, 0x1006 keep their peer IDs
	StartSpan(ctx, "encode").SetInt("bytes", -7).End(nil) // 0x1007
	tr.SetAttr("outcome", "ok")
	tr.SetAttr("outcome", "error")
	tr.SetAttr("anytime", "partial")
	tr.Seal(500, true)

	// Pin the clock-derived fields: the start, the duration and each
	// local record's offsets. Records are in End order: parse, cache_get,
	// solve, forward, the two stitched spans, encode.
	tr.start = time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	tr.durUS = 100
	pinClock(tr, [][2]int64{{0, 5}, {10, 3}, {10, 20}, {35, 50}, {}, {}, {90, 8}})

	root := "0000000000001000"
	want := TraceData{
		ID: "req-g", TraceID: "0123456789abcdef", SpanID: root, ParentID: "fedcba9876543210",
		Endpoint: "analyze", Start: tr.start, DurationUS: 100, Status: 500, Slow: true,
		Attrs: map[string]string{"outcome": "error", "anytime": "partial"},
		Spans: []SpanData{
			{Name: "parse", SpanID: "0000000000001001", ParentID: root, StartUS: 0, DurationUS: 5},
			{Name: "cache_get", SpanID: "0000000000001003", ParentID: root, StartUS: 10, DurationUS: 3,
				Attrs: map[string]string{"hit": "true"}},
			{Name: "solve", SpanID: "0000000000001002", ParentID: root, StartUS: 10, DurationUS: 20,
				Error: "injected", Retries: 2,
				Attrs: map[string]string{"feature": "f1", "feature_index": "3", "kind": "exact"}},
			{Name: "forward", SpanID: "0000000000001004", ParentID: root, StartUS: 35, DurationUS: 50,
				Attrs: map[string]string{"peer": "b", "attempts": "2"}},
			{Name: "server", SpanID: "00000000000000aa", ParentID: "0000000000001004", StartUS: 40, DurationUS: 30,
				Attrs: map[string]string{"node": "b", "endpoint": "analyze"}},
			{Name: "solve", SpanID: "00000000000000ab", ParentID: "00000000000000aa", StartUS: 44, DurationUS: 20,
				Retries: 1, Error: "remote", Attrs: map[string]string{"feature": "f2", "feature_index": "-1"}},
			{Name: "encode", SpanID: "0000000000001007", ParentID: root, StartUS: 90, DurationUS: 8,
				Attrs: map[string]string{"bytes": "-7"}},
		},
	}
	assertSameJSON(t, tr.Finish(200), want) // the first Seal's status stands
	if remote[0].StartUS != 0 {
		t.Fatal("Stitch shifted the caller's span slice in place")
	}

	// The export renders the same records behind the synthetic server
	// span, capped.
	exp := tr.ExportSpans("a", 3)
	if len(exp) != 3 || exp[0].Name != "server" || exp[0].SpanID != root || exp[0].ParentID != "fedcba9876543210" {
		t.Fatalf("export head wrong: %+v", exp)
	}
	assertSameJSON(t, exp[1:], want.Spans[:2])
}

// pinClock rewrites the start and duration of each local record, in
// End order, with at[i]; stitched records keep theirs.
func pinClock(tr *Trace, at [][2]int64) {
	var out []byte
	r := recReader{b: tr.recs}
	for i := 0; r.off < len(r.b); i++ {
		kind, startUS, durUS, retries := r.head()
		if kind == recLocal {
			startUS, durUS = at[i][0], at[i][1]
		}
		body := r.off
		r.skipBody(kind)
		out = append(appendHead(out, kind, startUS, durUS, retries), r.b[body:r.off]...)
	}
	tr.recs = out
}

func assertSameJSON(t *testing.T, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("rendered document differs:\n got %s\nwant %s", g, w)
	}
}

// TestTraceSealFreezes: spans ending or stitched after Seal are ignored,
// so a rendered document never changes under a reader.
func TestTraceSealFreezes(t *testing.T) {
	tr := NewTrace("req-seal", "analyze")
	ctx := WithTrace(context.Background(), tr)
	late := StartSpan(ctx, "late")
	StartSpan(ctx, "parse").End(nil)
	tr.Seal(200, false)
	late.End(nil)
	tr.Stitch([]SpanData{{Name: "remote"}}, 0)
	StartSpan(ctx, "after").End(nil)
	before, _ := json.Marshal(tr.data())
	after, _ := json.Marshal(tr.Finish(503))
	if string(before) != string(after) || !strings.Contains(string(after), `"status":200`) {
		t.Fatalf("sealed trace changed:\n%s\n%s", before, after)
	}
	if td := tr.data(); len(td.Spans) != 1 || td.Spans[0].Name != "parse" || td.SpansDropped != 0 {
		t.Fatalf("sealed trace kept %+v", td)
	}
}

// TestSpanAllocs: a span past the cap costs no allocation at all, and
// Set, SetInt and End on a span within the cap allocate nothing once the
// trace's record stream has room — no per-span map.
// StartSpan itself allocates exactly the span.
func TestSpanAllocs(t *testing.T) {
	tr := NewTrace("req-allocs", "batch")
	ctx := WithTrace(context.Background(), tr)
	tr.recs = make([]byte, 0, 64*maxSpansPerTrace)

	const runs = 100
	spans := make([]*Span, runs+1) // AllocsPerRun adds one warm-up run
	for i := range spans {
		spans[i] = StartSpan(ctx, "solve")
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		sp := spans[next]
		next++
		sp.Set("feature", "f").SetInt("feature_index", next).Set("feature", "g")
		sp.AddRetries(1)
		sp.End(nil)
	}); a != 0 {
		t.Fatalf("Set/SetInt/End within the cap: %v allocs per span, want 0", a)
	}
	if a := testing.AllocsPerRun(runs, func() { StartSpan(ctx, "solve").End(nil) }); a != 1 {
		t.Fatalf("StartSpan+End within the cap: %v allocs per span, want 1 (the span)", a)
	}

	for tr.started.Load() < maxSpansPerTrace {
		StartSpan(ctx, "solve").End(nil)
	}
	errNever := errors.New("never rendered")
	if a := testing.AllocsPerRun(runs, func() {
		sp := StartSpan(ctx, "solve").Set("feature", "f").SetInt("feature_index", 1)
		sp.AddRetries(1)
		sp.End(errNever)
	}); a != 0 {
		t.Fatalf("span past the cap: %v allocs, want 0", a)
	}
	if td := tr.Finish(200); len(td.Spans) != maxSpansPerTrace || td.SpansDropped != runs+1 {
		t.Fatalf("spans %d dropped %d, want %d / %d", len(td.Spans), td.SpansDropped, maxSpansPerTrace, runs+1)
	}
}

// watchShapedTrace records what a 64-step /v1/watch session of 8 linear
// features leaves on its trace: parse, admit, and per step a watch_step
// span and a solve span with the stage's seven counts.
func watchShapedTrace() *Trace {
	tr := NewTrace("req-watch", "watch")
	ctx := WithTrace(context.Background(), tr)
	StartSpan(ctx, "parse").End(nil)
	StartSpan(ctx, "admit").End(nil)
	for i := 0; i < 64; i++ {
		step := StartSpan(ctx, "watch_step").SetInt("step", i+1)
		StartSpan(ctx, "solve").SetInt("features", 8).SetInt("hits", 0).SetInt("misses", 8).
			SetInt("coalesced", 0).SetInt("retries", 0).Set("slowest", "phi3").SetInt("slowest_us", 12).End(nil)
		step.SetInt("changed", 8).End(nil)
	}
	tr.SetAttr("watch_points", "64")
	tr.Seal(200, false)
	return tr
}

// TestTraceRetainedBudget pins what a sealed watch-shaped trace keeps:
// at most 10 KiB of record stream, with no append slack past the
// allocator's size class.
func TestTraceRetainedBudget(t *testing.T) {
	tr := watchShapedTrace()
	if got := cap(tr.recs); got > 10<<10 {
		t.Fatalf("sealed 64-step watch trace retains %d B, want ≤ %d", got, 10<<10)
	}
	t.Logf("sealed 64-step watch trace: %d B stream, %d B capacity", len(tr.recs), cap(tr.recs))
	td := tr.data()
	steps := 0
	for _, sd := range td.Spans {
		if sd.Name == "watch_step" && sd.Attrs["changed"] == "8" {
			steps++
		}
	}
	if len(td.Spans) != 130 || td.Spans[0].Name != "parse" || steps != 64 {
		t.Fatalf("watch trace renders %d spans, %d complete watch_step spans, first %+v", len(td.Spans), steps, td.Spans[0])
	}
}

// TestTraceRingRetainedBytes: the ring sums the stream lengths of the
// traces it holds, counts a trace in both lists once, and forgets a
// trace both lists have evicted.
func TestTraceRingRetainedBytes(t *testing.T) {
	r := NewTraceRing(2)
	if r.RetainedBytes() != 0 {
		t.Fatal("empty ring retains bytes")
	}
	mk := func(durUS int64) *Trace {
		tr := watchShapedTrace()
		tr.durUS = durUS
		return tr
	}
	a, b, c, d, e := mk(300), mk(200), mk(100), mk(50), mk(40)
	size := func(ts ...*Trace) (n int) {
		for _, tr := range ts {
			n += len(tr.recs)
		}
		return n
	}
	r.Add(a, false)
	r.Add(b, true) // recent only
	if got, want := r.RetainedBytes(), size(a, b); got != want {
		t.Fatalf("a in both lists and b in recent: %d B, want %d", got, want)
	}
	r.Add(c, false) // evicts a from recent; a stays slowest
	if got, want := r.RetainedBytes(), size(a, b, c); got != want {
		t.Fatalf("a slowest, b and c recent: %d B, want %d", got, want)
	}
	r.Add(d, true) // evicts b
	r.Add(e, true) // evicts c from recent; c stays slowest
	if got, want := r.RetainedBytes(), size(a, c, d, e); got != want {
		t.Fatalf("a and c slowest, d and e recent: %d B, want %d", got, want)
	}
}

// TestStartSpanAt: a span committed after the fact keeps the start
// offset read from Clock before the work, and the span cap counts it
// when it is committed, not when the clock was read.
func TestStartSpanAt(t *testing.T) {
	tr := NewTrace("req-at", "batch")
	if (*Trace)(nil).Clock() != 0 || (*Trace)(nil).StartSpanAt("solve_feature", 5) != nil {
		t.Fatal("nil trace: want a zero clock and a nil span")
	}
	start := tr.Clock()
	time.Sleep(2 * time.Millisecond)
	if tr.started.Load() != 0 {
		t.Fatal("reading the clock counted a span")
	}
	tr.StartSpanAt("solve_feature", start).SetInt("feature_index", 3).End(nil)
	for tr.started.Load() < maxSpansPerTrace {
		tr.StartSpan("solve").End(nil)
	}
	late := tr.Clock()
	if tr.StartSpanAt("solve_feature", late) != nil {
		t.Fatal("a span committed past the cap was kept")
	}
	td := tr.Finish(200)
	first := td.Spans[0]
	if first.Name != "solve_feature" || first.StartUS != start/int64(time.Microsecond) || first.DurationUS < 2000 {
		t.Fatalf("first span %+v, want solve_feature from %dus lasting ≥ 2000us", first, start/int64(time.Microsecond))
	}
	if len(td.Spans) != maxSpansPerTrace || td.SpansDropped != 1 {
		t.Fatalf("spans %d dropped %d, want %d / 1", len(td.Spans), td.SpansDropped, maxSpansPerTrace)
	}
}

// FuzzParseTraceHeader: every X-Fepiad-Trace value the parser accepts is
// 33 bytes of lowercase hex around one dash at byte 16, and renders back
// to itself through FormatTraceHeader.
func FuzzParseTraceHeader(f *testing.F) {
	for _, s := range []string{
		"0123456789abcdef-fedcba9876543210",
		"",
		"0123456789ABCDEF-fedcba9876543210",
		"0123456789abcdef_fedcba9876543210",
		"0123456789abcdef-fedcba987654321g",
		"x0123456789abcdef-fedcba987654321",
		"0123456789abcdef--edcba9876543210",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tid, pid, ok := ParseTraceHeader(v)
		if !ok {
			if tid != "" || pid != "" {
				t.Fatalf("rejected %q but returned %q / %q", v, tid, pid)
			}
			return
		}
		if len(v) != 33 {
			t.Fatalf("accepted %q of length %d", v, len(v))
		}
		for i := 0; i < len(v); i++ {
			c := v[i]
			hex := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
			if (i == 16) != (c == '-') || (i != 16 && !hex) {
				t.Fatalf("accepted %q with byte %q at %d", v, c, i)
			}
		}
		if got := FormatTraceHeader(tid, pid); got != v {
			t.Fatalf("round trip of %q gave %q", v, got)
		}
	})
}
