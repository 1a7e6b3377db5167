// Package obs is the stdlib-only observability substrate of the serving
// stack: a metrics registry (counters, gauges, fixed-bucket histograms)
// with Prometheus text exposition, request-scoped traces with per-stage
// spans recorded into a bounded ring buffer, slog helpers for structured
// per-request logging, and runtime gauges. The paper's thesis — a single
// scalar hides *why* a mapping is fragile; the per-feature radius that
// binds must be exposed (Eq. 1–2) — applies to the serving stack itself:
// a degraded response or a breaker trip must be attributable to a stage,
// a feature, and a fault point. See docs/OBSERVABILITY.md for the metric
// catalog and trace schema.
//
// Cost discipline: every instrument is atomic (no locks on the hot
// path), and tracing is a no-op — one context lookup — unless a Trace
// was attached to the context, so production code is instrumented
// unconditionally and pays only when a collector is listening.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready
// to use; obtain registered counters from Registry.Counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that may go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricType tags a family for TYPE lines and registration checks.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labelled instrument inside a family.
type series struct {
	labels []Label
	sig    string // canonical label signature, the sort key

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups every series of one metric name.
type family struct {
	name, help string
	typ        metricType
	buckets    []float64 // histogram families only
	series     map[string]*series
}

// Registry is a set of named metric families. All methods are safe for
// concurrent use; registration of an already-known (name, labels) series
// returns the existing instrument, so call sites may re-register freely.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig builds the canonical signature of a sorted label set.
func labelSig(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// sortLabels returns labels sorted by name, copied so callers may reuse
// their slice.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// register finds or creates the (name, labels) series, enforcing type
// consistency within a family.
func (r *Registry) register(name, help string, typ metricType, buckets []float64, labels []Label) *series {
	labels = sortLabels(labels)
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.typ, typ))
	}
	s := fam.series[sig]
	if s == nil {
		s = &series{labels: labels, sig: sig}
		switch typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = NewHistogram(fam.buckets)
		}
		fam.series[sig] = s
	}
	return s
}

// Counter returns the registered counter for (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, typeCounter, nil, labels).counter
}

// Gauge returns the registered gauge for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, typeGauge, nil, labels).gauge
}

// GaugeFunc registers fn as the value source of the (name, labels)
// series, evaluated at exposition time. It replaces any previous function
// for the same series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, typeGauge, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns the registered histogram for (name, labels),
// creating it on first use with the given bucket upper bounds (the +Inf
// bucket is implicit). Every series of one family shares the family's
// first-registered buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.register(name, help, typeHistogram, buckets, labels).hist
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), deterministically: families sorted by name,
// series sorted by label signature. It renders through Snapshot, so the
// live registry and a wire snapshot produce the same document.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// writeHistogram emits the cumulative _bucket/_sum/_count triplet of one
// histogram series. Buckets with a recorded exemplar carry it
// OpenMetrics-style after the bucket value: `# {trace_id="…"} <v>`. A
// malformed snapshot (Counts not one per bucket plus +Inf) renders
// nothing.
func writeHistogram(b *strings.Builder, name string, labels []Label, snap HistogramSnapshot) {
	if !snap.wellFormed() {
		return
	}
	exemplar := make(map[int]Exemplar, len(snap.Exemplars))
	for _, ex := range snap.Exemplars {
		exemplar[ex.Bucket] = ex
	}
	writeBucket := func(i int, le string, cum uint64) {
		fmt.Fprintf(b, "%s_bucket%s %d", name, renderLabels(append(append([]Label(nil), labels...), L("le", le))), cum)
		if ex, ok := exemplar[i]; ok {
			fmt.Fprintf(b, " # {trace_id=\"%s\"} %s", escapeLabel(ex.TraceID), formatFloat(ex.Value))
		}
		b.WriteByte('\n')
	}
	cum := uint64(0)
	for i, ub := range snap.Bounds {
		cum += snap.Counts[i]
		writeBucket(i, formatFloat(ub), cum)
	}
	cum += snap.Counts[len(snap.Bounds)]
	writeBucket(len(snap.Bounds), "+Inf", cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatFloat(snap.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), snap.Count)
}

// renderLabels renders {a="x",b="y"}, or "" for an empty set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
