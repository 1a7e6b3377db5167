package obs

import (
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRuntimeGaugeConcurrentScrapes forces the runtime gauges' cached
// memstats sample to expire constantly while several scrapers render the
// registry, so ReadMemStats refreshes interleave with field reads — a
// race-detector story. A closed channel broadcasts the deadline to every
// scraper (time.After delivers to only one receiver).
func TestRuntimeGaugeConcurrentScrapes(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	stop := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() { close(stop) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRuntimeAllocBytes reads go_alloc_bytes_total from the registry
// snapshot: present, positive, and never below what the process had
// allocated before the registry was made.
func TestRuntimeAllocBytes(t *testing.T) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRegistry()
	RegisterRuntime(r)
	got := r.Snapshot().Sum("go_alloc_bytes_total")
	if got < float64(before.TotalAlloc) || got == 0 {
		t.Fatalf("go_alloc_bytes_total = %v, process had allocated %d bytes before", got, before.TotalAlloc)
	}
}
