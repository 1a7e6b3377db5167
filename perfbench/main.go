// Command perfbench is fepiad's end-to-end benchmark; README.md in this
// directory describes its workloads and metrics. For one workload it
// boots a fresh fepiad on default flags, drives it from one closed-loop
// client over one connection, checks every answer against the
// benchmark's own oracle, cross-checks the server's /metrics, and
// replays the same bodies in process to split the cost by layer. The
// last line of standard output is the JSON result; the run exits 1 when
// an answer or a cross-check is wrong.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Int("seconds", 10, "nominal length of the timed window in seconds; fixes the op count")
		traced  = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of the traced replay")
		bin     = flag.String("fepiad", "", "fepiad binary under test")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span dumps and layer tables")
	)
	flag.Parse()
	gen, ok := workloads[*name]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("unknown -workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds < 1:
		err = errors.New("-seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		err = errors.New("-trace must be 0 or 1")
	case *bin == "":
		err = errors.New("-fepiad is required")
	default:
		w := gen(rand.New(rand.NewSource(*seed)), *seconds)
		w.fillSamples(*seed)
		err = run(*name, w, *seed, *traced == 1, *bin, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w *workload, seed int64, traced bool, bin, out string) error {
	numCPU := runtime.NumCPU()
	// The client holds one P while fepiad runs, so the server it
	// measures keeps the machine's cores.
	runtime.GOMAXPROCS(1)
	h, err := drive(bin, w)
	runtime.GOMAXPROCS(numCPU)
	if err != nil {
		return err
	}
	wrong, problems := h.checkAnswers(w)
	// The replay with spans off is the reference for the server's cache
	// counters and the baseline of the tracing overhead.
	off, err := replay(w, h.shards, false)
	if err != nil {
		return err
	}
	problems = append(problems, crossCheck(w, h, off)...)

	lat := append([]time.Duration(nil), h.latency...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p99rank := lat[nearestRank(len(lat), 0.5)-1], nearestRank(len(lat), 0.99)
	if beyond := len(lat) - p99rank; beyond < 10 {
		problems = append(problems, fmt.Sprintf("only %d samples beyond p99; need 10", beyond))
	}
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	meanMS := ms(total) / float64(len(lat))

	fmt.Printf("perfbench %s: seed %d, %d timed ops, closed loop, 1 caller, 1 connection\n", name, seed, len(w.timed))
	fmt.Printf("machine: NumCPU=%d GOMAXPROCS client=1 under load, %d in replay; fepiad=%d (default, env cleared) %s kernel %s\n",
		numCPU, numCPU, numCPU, runtime.Version(), osRelease())
	fmt.Printf("ops: attempted %d, succeeded %d, failed %d (%d non-200, %d wrong answers); %d analyses; %d distinct answers checked\n",
		len(w.timed), len(w.timed)-h.failed-wrong, h.failed+wrong, h.failed, wrong, h.analyses, distinctAnswers(h))
	fmt.Printf("latency: n=%d p50=%.4f ms p99=%.4f ms (%d samples beyond p99) mean=%.4f ms\n",
		len(lat), ms(p50), ms(lat[p99rank-1]), len(lat)-p99rank, meanMS)
	fmt.Printf("setup_s per boot %.4f; analyses/s per slice %.1f; server CPU us/analysis per slice %.2f\n",
		h.setupS, h.sliceRate, h.sliceCPU)
	fmt.Printf("/metrics deltas: analyses %v, watch steps %v, rejected %v, cache hits %v misses %v; replay cache hits %d misses %d\n",
		delta(h, "fepiad_analyses_total"), delta(h, "fepiad_watch_steps_total"), delta(h, "fepiad_rejected_total"),
		delta(h, "fepiad_cache_hits"), delta(h, "fepiad_cache_misses"), off.hits, off.misses)

	res := result{Attempted: len(w.timed), Failed: h.failed + wrong}
	if traced {
		on, err := replay(w, h.shards, true)
		if err != nil {
			return err
		}
		if on.hits != off.hits || on.misses != off.misses {
			problems = append(problems, "traced and untraced replays disagree on cache counts")
		}
		if res.Metrics, err = layerMetrics(name, w, h, off, on, meanMS*1e3, numCPU, out); err != nil {
			return err
		}
	} else {
		res.Metrics = map[string]metric{
			"analyses_per_s":             {median(h.sliceRate), "1/s"},
			"latency_p50_ms":             {ms(p50), "ms"},
			"latency_p99_ms":             {ms(lat[p99rank-1]), "ms"},
			"server_cpu_us_per_analysis": {median(h.sliceCPU), "us"},
			"rss_mb":                     {float64(h.rssKB) / 1024, "MB"},
			"setup_s":                    {median(h.setupS), "s"},
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("wrong answers or failed cross-checks")
	}
	return nil
}

// crossCheck holds the server's own instruments to what the client and
// the replay counted over the timed window.
func crossCheck(w *workload, h *httpRun, off *replayRun) []string {
	var problems []string
	want := func(series string, v float64) {
		if got := delta(h, series); got != v {
			problems = append(problems, fmt.Sprintf("/metrics %s moved by %v, want %v", series, got, v))
		}
	}
	want("fepiad_analyses_total", float64(h.analyses))
	if w.path == "/v1/watch" {
		want("fepiad_watch_steps_total", float64(h.analyses))
	}
	want("fepiad_rejected_total", 0)
	want("fepiad_cache_hits", float64(off.hits))
	want("fepiad_cache_misses", float64(off.misses))
	return problems
}

// layerMetrics derives the per-layer metrics, prints the layer table and
// writes it and the spans under out.
func layerMetrics(name string, w *workload, h *httpRun, off, on *replayRun, httpMeanUS float64, workers int, out string) (map[string]metric, error) {
	ls := splitLayers(on.spans, workers)
	linear, err := build(w.linear)
	if err != nil {
		return nil, err
	}
	convex, err := build(w.convex)
	if err != nil {
		return nil, err
	}
	coreNS, err := coreLinearNS(linear)
	if err != nil {
		return nil, err
	}
	kernNS, err := kernelNS(linear)
	if err != nil {
		return nil, err
	}
	convUS, err := convexUS(convex)
	if err != nil {
		return nil, err
	}
	analyze, ok := ls.meanUS(lAnalyze)
	if !ok {
		if analyze, err = analyzeUS(linear); err != nil {
			return nil, err
		}
	}
	step, ok := ls.meanUS(lStep)
	if !ok {
		if step, err = stepUS(w.watch); err != nil {
			return nil, err
		}
	}
	fanout := 1.0 // handlers without a ForEach run one system on one goroutine
	if ls.fanCap > 0 {
		fanout = ls.fanBusy / ls.fanCap
	}
	tracedUS := 0.0
	for l := uint8(0); l < nLayers; l++ {
		tracedUS += ls.perRequestUS(l)
	}
	residual := httpMeanUS - tracedUS
	lookups := float64(on.hits + on.misses)
	analyses := float64(on.analyses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(on.hits) / lookups
	}
	m := map[string]metric{
		"spec.decode_us":                 {ls.perRequestUS(lDecode), "us"},
		"spec.encode_us":                 {ls.perRequestUS(lEncode), "us"},
		"server.residual_us":             {residual, "us"},
		"batch.analyze_us":               {analyze, "us"},
		"core.radius_linear_ns":          {coreNS, "ns"},
		"kernel.radius_ns":               {kernNS, "ns"},
		"batch.fanout_eff":               {fanout, "ratio"},
		"cache.hit_ratio":                {hitRatio, "ratio"},
		"cache.misses_per_analysis":      {float64(on.misses) / analyses, "count"},
		"cache.contended_per_1k_lookups": {1000 * float64(on.contended) / lookups, "count"},
		"optimize.radius_convex_us":      {convUS, "us"},
		"batch.step_us":                  {step, "us"},
		"spec.bytes_out_per_analysis":    {float64(h.bytesOut) / float64(h.analyses), "B"},
		"runtime.gc_per_1k_analyses":     {1000 * delta(h, "go_gc_cycles_total") / float64(h.analyses), "count"},
		"runtime.alloc_kb_per_analysis":  {float64(off.allocBytes) / 1024 / analyses, "KB"},
		"trace.overhead_pct":             {100 * (on.wall.Seconds() - off.wall.Seconds()) / off.wall.Seconds(), "%"},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s: mean request split by layer, %d requests (traced replay; residual = untraced HTTP mean - traced)\n", name, ls.requests)
	fmt.Fprintf(&b, "%-22s %12s %8s\n", "layer", "us/request", "share")
	for l := uint8(0); l < nLayers; l++ {
		label := layerNames[l]
		if l == lRequest {
			label = "replay glue"
		}
		fmt.Fprintf(&b, "%-22s %12.3f %7.1f%%\n", label, ls.perRequestUS(l), 100*ls.perRequestUS(l)/httpMeanUS)
	}
	fmt.Fprintf(&b, "%-22s %12.3f %7.1f%%\n", "server.residual", residual, 100*residual/httpMeanUS)
	fmt.Fprintf(&b, "%-22s %12.3f %7.1f%%\n", "= untraced HTTP mean", httpMeanUS, 100.0)
	fmt.Fprintf(&b, "cache: %d hits, %d misses over %d analyses; trace overhead %.2f%% (%.3fs on, %.3fs off)\n",
		on.hits, on.misses, on.analyses, m["trace.overhead_pct"].Value, on.wall.Seconds(), off.wall.Seconds())
	fmt.Print(b.String())
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, name+".layers.txt"), []byte(b.String()), 0o644); err != nil {
		return nil, err
	}
	return m, writeSpans(filepath.Join(out, name+".spans.tsv"), on.spans)
}

// writeSpans dumps the traced replay's spans, one per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "request\tspan\tparent\tlayer\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func delta(h *httpRun, series string) float64 { return h.after[series] - h.before[series] }

// nearestRank is the 1-based rank of the q-quantile of n sorted samples.
func nearestRank(n int, q float64) int {
	r := int(float64(n)*q + 0.999999999)
	if r < 1 {
		r = 1
	}
	return r
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func distinctAnswers(h *httpRun) int {
	n := 0
	for _, a := range h.answers {
		n += len(a)
	}
	return n
}

func osRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
