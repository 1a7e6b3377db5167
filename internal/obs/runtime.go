package obs

import (
	"runtime"
	"sync"
	"time"
)

// runtimeSampler caches one runtime.MemStats read across the several
// gauge functions that feed from it, so one /metrics scrape triggers at
// most one stop-the-world stats collection (and repeated scrapes within
// maxAge reuse it).
type runtimeSampler struct {
	mu     sync.Mutex
	at     time.Time
	maxAge time.Duration
	ms     runtime.MemStats
}

func (s *runtimeSampler) sample() *runtime.MemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.at) > s.maxAge {
		runtime.ReadMemStats(&s.ms)
		s.at = time.Now()
	}
	return &s.ms
}

// RegisterRuntime adds the process runtime gauges — goroutines, heap,
// GC, cumulative allocation — to the registry, evaluated at scrape time (with a 1s cache so a
// burst of scrapes costs one MemStats read).
func RegisterRuntime(r *Registry) {
	s := &runtimeSampler{maxAge: time.Second}
	r.GaugeFunc("go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(s.sample().HeapAlloc) })
	r.GaugeFunc("go_heap_objects", "Number of allocated heap objects.",
		func() float64 { return float64(s.sample().HeapObjects) })
	r.GaugeFunc("go_gc_cycles_total", "Completed GC cycles.",
		func() float64 { return float64(s.sample().NumGC) })
	r.GaugeFunc("go_alloc_bytes_total", "Cumulative bytes allocated for heap objects.",
		func() float64 { return float64(s.sample().TotalAlloc) })
	r.GaugeFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(s.sample().PauseTotalNs) / 1e9 })
}
