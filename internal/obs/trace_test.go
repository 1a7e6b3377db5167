package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestSpanNoopWithoutTrace: instrumentation on an untraced context must
// be safe and free of side effects.
func TestSpanNoopWithoutTrace(t *testing.T) {
	sp := StartSpan(context.Background(), "solve")
	if sp != nil {
		t.Fatal("StartSpan on an untraced context returned a live span")
	}
	sp.Set("k", "v") // nil-safe chain
	sp.AddRetries(2)
	sp.End(errors.New("x"))
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom on a bare context is not nil")
	}
}

// TestTraceSpansTimeline: spans land on the trace with attributes,
// retries, and errors, sorted by start offset at Finish.
func TestTraceSpansTimeline(t *testing.T) {
	tr := NewTrace("req-1", "analyze")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("TraceFrom did not return the attached trace")
	}

	parse := StartSpan(ctx, "parse")
	parse.End(nil)
	solve := StartSpan(ctx, "solve").Set("feature", "finish(m0)")
	solve.AddRetries(2)
	solve.End(errors.New("injected"))
	tr.SetAttr("outcome", "error")

	td := tr.Finish(500)
	if td.ID != "req-1" || td.Endpoint != "analyze" || td.Status != 500 {
		t.Fatalf("trace header wrong: %+v", td)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(td.Spans))
	}
	if td.Spans[0].Name != "parse" || td.Spans[1].Name != "solve" {
		t.Fatalf("span order wrong: %+v", td.Spans)
	}
	s := td.Spans[1]
	if s.Retries != 2 || s.Error != "injected" || s.Attrs["feature"] != "finish(m0)" {
		t.Fatalf("solve span lost annotations: %+v", s)
	}
	if td.Attrs["outcome"] != "error" {
		t.Fatalf("trace attrs lost: %+v", td.Attrs)
	}
}

// TestTraceConcurrentSpans: many workers annotate one trace while
// attrs are read — the batch fan-out pattern — under -race.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("req-2", "batch")
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := StartSpan(ctx, "solve").Set("worker", fmt.Sprint(w))
				sp.End(nil)
				tr.SetAttr("last_worker", fmt.Sprint(w))
				_ = tr.Attrs()
			}
		}(w)
	}
	wg.Wait()
	td := tr.Finish(200)
	if len(td.Spans) != 8*50 {
		t.Fatalf("%d spans, want %d", len(td.Spans), 8*50)
	}
}

// TestTraceSpanCap: overflow spans are dropped and counted, not
// accumulated without bound. The cap applies when a span starts: a full
// trace keeps the first maxSpansPerTrace spans started — not the first
// ended — refuses later ones as nil no-op spans, and counts every
// refused span, stitched ones included, in spans_dropped.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("req-3", "batch")
	ctx := WithTrace(context.Background(), tr)
	first := StartSpan(ctx, "first") // started first, ended last
	for i := 1; i < maxSpansPerTrace+10; i++ {
		StartSpan(ctx, "solve").End(nil)
	}
	if sp := StartSpan(ctx, "late"); sp != nil {
		t.Fatal("StartSpan on a full trace returned a live span")
	}
	tr.Stitch([]SpanData{{Name: "remote"}, {Name: "remote"}}, 0)
	first.End(nil)
	td := tr.Finish(200)
	// 10 solve spans, "late" and both remote spans found the trace full.
	if len(td.Spans) != maxSpansPerTrace || td.SpansDropped != 13 {
		t.Fatalf("spans %d dropped %d, want %d / 13", len(td.Spans), td.SpansDropped, maxSpansPerTrace)
	}
	names := map[string]int{}
	for _, sd := range td.Spans {
		names[sd.Name]++
	}
	if names["first"] != 1 || names["late"] != 0 || names["remote"] != 0 {
		t.Fatalf("wrong survivors: %v", names)
	}
}

// sealedTrace builds a sealed trace with a fixed duration, so the ring
// tests can order traces without sleeping.
func sealedTrace(id string, durUS int64, slow bool) *Trace {
	t := NewTrace(id, "test")
	t.Seal(200, slow)
	t.durUS = durUS
	return t
}

// TestTraceRingRetention: the recent list is newest-first and bounded;
// the slowest list keeps the slowest-ever in descending order.
func TestTraceRingRetention(t *testing.T) {
	r := NewTraceRing(4)
	for i := 1; i <= 10; i++ {
		r.Add(sealedTrace(fmt.Sprint(i), int64(i%7), false), false)
	}
	s := r.Snapshot()
	if s.Capacity != 4 || s.Total != 10 {
		t.Fatalf("capacity %d total %d, want 4 / 10", s.Capacity, s.Total)
	}
	if len(s.Recent) != 4 || s.Recent[0].ID != "10" || s.Recent[3].ID != "7" {
		t.Fatalf("recent list wrong: %+v", s.Recent)
	}
	if len(s.Slowest) != 4 {
		t.Fatalf("slowest list has %d entries, want 4", len(s.Slowest))
	}
	for i := 1; i < len(s.Slowest); i++ {
		if s.Slowest[i].DurationUS > s.Slowest[i-1].DurationUS {
			t.Fatalf("slowest list not descending: %+v", s.Slowest)
		}
	}
	// 6 and 5 (from i=6,5 and i=13? no: durations are i%7 → max 6) lead.
	if s.Slowest[0].DurationUS != 6 {
		t.Fatalf("slowest[0] duration %d, want 6", s.Slowest[0].DurationUS)
	}
}

// TestTraceRingConcurrent: parallel writers with snapshots mid-write,
// under -race.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(sealedTrace(fmt.Sprintf("%d-%d", w, i), int64(i), false), false)
				if i%20 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Total != 8*200 {
		t.Fatalf("total %d, want %d", s.Total, 8*200)
	}
	if len(s.Recent) != 32 || len(s.Slowest) != 32 {
		t.Fatalf("retention sizes %d/%d, want 32/32", len(s.Recent), len(s.Slowest))
	}
}

// TestNewID: IDs are 16 hex chars and unique enough in a quick sample.
func TestNewID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestParseLevel covers the -log-level surface.
func TestParseLevel(t *testing.T) {
	for s, want := range map[string]string{"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR", "": "INFO"} {
		lv, err := ParseLevel(s)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", s, err)
		}
		if lv.String() != want {
			t.Errorf("ParseLevel(%q) = %v, want %s", s, lv, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

// TestTraceSpanIDs: every trace carries a 16-hex trace ID and root span
// ID, every span gets a unique ID parented at the root, and the
// finished document exposes all three.
func TestTraceSpanIDs(t *testing.T) {
	tr := NewTrace("req-ids", "analyze")
	if len(tr.TraceID()) != 16 || len(tr.RootSpanID()) != 16 {
		t.Fatalf("trace/root IDs not 16 hex chars: %q / %q", tr.TraceID(), tr.RootSpanID())
	}
	if tr.Remote() {
		t.Fatal("fresh trace claims a remote parent")
	}
	ctx := WithTrace(context.Background(), tr)
	a := StartSpan(ctx, "parse")
	b := StartSpan(ctx, "solve")
	if a.ID() == "" || b.ID() == "" || a.ID() == b.ID() {
		t.Fatalf("span IDs not unique: %q vs %q", a.ID(), b.ID())
	}
	a.End(nil)
	b.End(nil)
	td := tr.Finish(200)
	if td.TraceID != tr.TraceID() || td.SpanID != tr.RootSpanID() || td.ParentID != "" {
		t.Fatalf("trace document IDs wrong: %+v", td)
	}
	for _, sd := range td.Spans {
		if sd.ParentID != tr.RootSpanID() {
			t.Fatalf("span %q parented at %q, want root %q", sd.Name, sd.ParentID, tr.RootSpanID())
		}
		if len(sd.SpanID) != 16 {
			t.Fatalf("span %q has malformed ID %q", sd.Name, sd.SpanID)
		}
	}
}

// TestParseTraceHeader: the strict wire grammar — 16 hex, dash, 16 hex —
// and every malformed shape rejected without error.
func TestParseTraceHeader(t *testing.T) {
	tid, pid, ok := ParseTraceHeader("0123456789abcdef-fedcba9876543210")
	if !ok || tid != "0123456789abcdef" || pid != "fedcba9876543210" {
		t.Fatalf("valid header rejected: %q %q %v", tid, pid, ok)
	}
	if FormatTraceHeader(tid, pid) != "0123456789abcdef-fedcba9876543210" {
		t.Fatal("FormatTraceHeader does not round-trip ParseTraceHeader")
	}
	for _, bad := range []string{
		"",
		"0123456789abcdef",                   // no parent
		"0123456789abcdef-fedcba987654321",   // short parent
		"0123456789abcdef-fedcba98765432100", // long parent
		"0123456789abcdef_fedcba9876543210",  // wrong separator
		"0123456789ABCDEF-fedcba9876543210",  // uppercase
		"0123456789abcdeg-fedcba9876543210",  // non-hex
		"0123456789abcdef-fedcba987654321g",  // non-hex parent
		"x0123456789abcdef-fedcba9876543210", // leading junk
	} {
		if _, _, ok := ParseTraceHeader(bad); ok {
			t.Fatalf("malformed header %q accepted", bad)
		}
	}
}

// TestTraceExportStitch: the cross-node handshake — the remote node
// adopts the ingress trace ID, exports its spans rooted in a synthetic
// server span parented under the forward span, and the ingress stitches
// them onto its own timeline.
func TestTraceExportStitch(t *testing.T) {
	ingress := NewTrace("req-x", "analyze")
	ictx := WithTrace(context.Background(), ingress)
	fwd := StartSpan(ictx, "forward").Set("peer", "b")

	// The wire: trace ID + forward span ID.
	tid, pid, ok := ParseTraceHeader(FormatTraceHeader(ingress.TraceID(), fwd.ID()))
	if !ok {
		t.Fatal("wire header did not parse")
	}

	remote := NewTraceRemote("req-x", "analyze", tid, pid)
	if remote.TraceID() != ingress.TraceID() {
		t.Fatalf("remote trace ID %q, want adopted %q", remote.TraceID(), ingress.TraceID())
	}
	if !remote.Remote() {
		t.Fatal("adopted trace does not report Remote")
	}
	rctx := WithTrace(context.Background(), remote)
	StartSpan(rctx, "parse").End(nil)
	StartSpan(rctx, "solve").End(nil)

	exported := remote.ExportSpans("b", 64)
	if len(exported) != 3 || exported[0].Name != "server" {
		t.Fatalf("export shape wrong: %+v", exported)
	}
	if exported[0].SpanID != remote.RootSpanID() || exported[0].ParentID != fwd.ID() {
		t.Fatalf("server span not parented under the forward span: %+v", exported[0])
	}
	if exported[0].Attrs["node"] != "b" {
		t.Fatalf("server span missing node attr: %+v", exported[0])
	}

	ingress.Stitch(exported, 250)
	fwd.End(nil)
	td := ingress.Finish(200)
	if len(td.Spans) != 4 {
		t.Fatalf("%d spans after stitch, want 4 (forward + server + parse + solve)", len(td.Spans))
	}
	names := map[string]SpanData{}
	for _, sd := range td.Spans {
		names[sd.Name] = sd
	}
	if names["server"].ParentID != names["forward"].SpanID {
		t.Fatalf("stitched server span parent %q, want forward span %q", names["server"].ParentID, names["forward"].SpanID)
	}
	if names["server"].StartUS != 250 {
		t.Fatalf("stitched span not offset: start %d, want 250", names["server"].StartUS)
	}
	if names["parse"].ParentID != names["server"].SpanID {
		t.Fatalf("remote parse span parent %q, want remote server span %q", names["parse"].ParentID, names["server"].SpanID)
	}
}

// TestTraceExportCap: export respects the limit, always keeping the
// synthetic server span as the first element.
func TestTraceExportCap(t *testing.T) {
	tr := NewTrace("req-cap", "batch")
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 20; i++ {
		StartSpan(ctx, "solve").End(nil)
	}
	exported := tr.ExportSpans("b", 8)
	if len(exported) != 8 || exported[0].Name != "server" {
		t.Fatalf("capped export has %d spans (first %q), want 8 with server first", len(exported), exported[0].Name)
	}
}

// TestTraceRingShedExclusion: a shed 503 with a near-zero duration must
// not occupy a slowest-ever slot (retention bias), while still counting
// and appearing in the recent ring.
func TestTraceRingShedExclusion(t *testing.T) {
	r := NewTraceRing(2)
	r.Add(sealedTrace("slow-1", 9000, false), false)
	r.Add(sealedTrace("slow-2", 8000, false), false)
	for i := 0; i < 10; i++ {
		r.Add(sealedTrace(fmt.Sprintf("shed-%d", i), 3, false), true)
	}
	s := r.Snapshot()
	if s.Total != 12 {
		t.Fatalf("total %d, want 12", s.Total)
	}
	if len(s.Slowest) != 2 || s.Slowest[0].ID != "slow-1" || s.Slowest[1].ID != "slow-2" {
		t.Fatalf("shed traces evicted the slowest list: %+v", s.Slowest)
	}
	if s.Recent[0].ID != "shed-9" {
		t.Fatalf("shed traces should still reach the recent ring: %+v", s.Recent)
	}
}

// TestTraceRingSampling: 1-in-N retention for the recent ring; slow
// traces bypass sampling; the slowest list ignores sampling entirely.
func TestTraceRingSampling(t *testing.T) {
	r := NewTraceRing(8)
	r.SetSample(4)
	for i := 1; i <= 16; i++ {
		r.Add(sealedTrace(fmt.Sprint(i), int64(i), false), false)
	}
	s := r.Snapshot()
	if s.Total != 16 {
		t.Fatalf("total %d, want 16 (sampled-out traces still count)", s.Total)
	}
	if len(s.Recent) != 4 {
		t.Fatalf("recent kept %d traces, want 4 (1-in-4 of 16)", len(s.Recent))
	}
	if s.Recent[0].ID != "13" || s.Recent[3].ID != "1" {
		t.Fatalf("sampled recent list wrong: %+v", s.Recent)
	}
	if len(s.Slowest) != 8 || s.Slowest[0].ID != "16" {
		t.Fatalf("slowest list must ignore sampling: %+v", s.Slowest)
	}
	r.Add(sealedTrace("slow", 99, true), false)
	if s := r.Snapshot(); s.Recent[0].ID != "slow" {
		t.Fatalf("slow trace did not bypass sampling: %+v", s.Recent[0])
	}
}
