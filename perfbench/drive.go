package main

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"time"
)

const (
	// setups is the number of boots per run; setup_s is their median.
	setups = 3
	// nSlices splits the timed ops into equal runs; the rate metrics are
	// medians over them, so a burst of load from elsewhere on the
	// machine moves one slice rather than the result.
	nSlices = 5
)

// answer is one distinct response body to a request and how many timed
// ops received it. Identical bytes get identical verdicts, so the oracle
// checks each distinct body once, after the timed window.
type answer struct {
	body []byte
	ops  int
}

// httpRun is what the untraced run against the real server measured.
type httpRun struct {
	setupS    []float64
	latency   []time.Duration
	sliceRate []float64 // analyses per second
	sliceCPU  []float64 // server CPU µs per analysis
	rssKB     int64
	before    map[string]float64
	after     map[string]float64
	shards    int
	failed    int // non-200 answers
	analyses  int
	bytesOut  int
	answers   [][]answer // by request id
}

// drive boots fepiad setups times, timing boot plus warm-up each time,
// and runs the timed ops against the last boot.
func drive(bin string, w *workload) (*httpRun, error) {
	h := &httpRun{answers: make([][]answer, w.distinct)}
	for i := 0; i < setups; i++ {
		start := time.Now()
		s, err := boot(bin)
		if err != nil {
			return nil, err
		}
		if err := warm(s, w); err != nil {
			_ = s.stop()
			return nil, err
		}
		h.setupS = append(h.setupS, time.Since(start).Seconds())
		if i < setups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		err = h.measure(s, w)
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

func warm(s *fepiad, w *workload) error {
	for _, rq := range w.warmup {
		status, _, err := s.conn.do(rq.wire)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if status != 200 {
			return fmt.Errorf("warm-up request answered %d", status)
		}
	}
	return nil
}

// measure runs the timed ops closed-loop on the one connection, with
// /metrics scraped just before and just after.
func (h *httpRun) measure(s *fepiad, w *workload) error {
	var err error
	if h.before, err = s.scrape(); err != nil {
		return err
	}
	h.shards = int(h.before["fepiad_cache_shards"])
	n := len(w.timed)
	h.latency = make([]time.Duration, n)
	edges := make([]int, nSlices+1)
	for k := range edges {
		edges[k] = k * n / nSlices
	}
	// The loop allocates only first copies of distinct answers, so the
	// client's collector has nothing to do inside the window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cpu0, err := s.cpuTicks()
	if err != nil {
		return err
	}
	t0, a0, k := time.Now(), 0, 1
	for i, rq := range w.timed {
		start := time.Now()
		status, body, err := s.conn.do(rq.wire)
		h.latency[i] = time.Since(start)
		if err != nil {
			return fmt.Errorf("timed op %d: %w", i, err)
		}
		if status != 200 {
			h.failed++
		} else {
			h.analyses += rq.analyses
			h.bytesOut += len(body)
			h.record(rq, body)
		}
		if i+1 == edges[k] {
			now := time.Now()
			cpu, err := s.cpuTicks()
			if err != nil {
				return err
			}
			if da := float64(h.analyses - a0); da > 0 {
				h.sliceRate = append(h.sliceRate, da/now.Sub(t0).Seconds())
				h.sliceCPU = append(h.sliceCPU, float64(cpu-cpu0)*usPerTick/da)
			}
			t0, cpu0, a0, k = now, cpu, h.analyses, k+1
		}
	}
	if h.after, err = s.scrape(); err != nil {
		return err
	}
	h.rssKB, err = s.peakRSSKB()
	return err
}

func (h *httpRun) record(rq *request, body []byte) {
	seen := h.answers[rq.id]
	for j := range seen {
		if bytes.Equal(seen[j].body, body) {
			seen[j].ops++
			return
		}
	}
	h.answers[rq.id] = append(seen, answer{body: bytes.Clone(body), ops: 1})
}

// checkAnswers runs the oracle over every distinct answer and returns
// the number of timed ops that received a wrong one, with the first few
// reasons.
func (h *httpRun) checkAnswers(w *workload) (wrong int, reasons []string) {
	reqs := make([]*request, w.distinct)
	for _, rq := range w.timed {
		reqs[rq.id] = rq
	}
	for id, seen := range h.answers {
		for _, a := range seen {
			if err := reqs[id].check(a.body); err != nil {
				wrong += a.ops
				if len(reasons) < 5 {
					reasons = append(reasons, err.Error())
				}
			}
		}
	}
	return wrong, reasons
}
