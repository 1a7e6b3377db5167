package faults

import (
	"sync"
	"time"
)

// Breaker state and probe defaults applied by NewBreaker.
const (
	// defaultHalfOpenProbes is how many consecutive successful probes
	// close a half-open breaker.
	defaultHalfOpenProbes = 1
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String renders the state as named in a BreakerSnapshot.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes one Breaker. Window must be positive; the zero
// values of Probes and Now select one closing probe and the wall clock.
type BreakerConfig struct {
	// Window is the sliding outcome window; the breaker trips only once
	// the window is full.
	Window int
	// Threshold is the failure rate in [0, 1] that opens the breaker.
	Threshold float64
	// Cooldown is how long an open breaker rejects before probing.
	Cooldown time.Duration
	// Probes is how many consecutive half-open successes close it
	// (0 selects one).
	Probes int
	// Now is the clock, stubbed by tests; nil selects time.Now.
	Now func() time.Time
}

// Breaker is a circuit breaker over a sliding failure-rate window,
// guarding one downstream — an engine endpoint in the fepiad server, one
// cluster peer in internal/cluster. Outcomes are reported with Report;
// Allow gates each request. Closed: everything passes and outcomes fill
// the ring. Open: everything is rejected until Cooldown elapses.
// Half-open: one probe at a time reaches the downstream; a probe failure
// reopens, enough successes close and reset the window. Safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu            sync.Mutex
	state         breakerState
	ring          []bool // true = failure
	ringN         int    // outcomes recorded, ≤ len(ring)
	ringI         int    // next write position
	fails         int    // failures currently in the ring
	openedAt      time.Time
	probeOK       int  // consecutive successful probes while half-open
	probeInFlight bool // a half-open probe is at the downstream
	opens         uint64
}

// NewBreaker builds a breaker; cfg.Window must be positive.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Probes <= 0 {
		cfg.Probes = defaultHalfOpenProbes
	}
	return &Breaker{cfg: cfg, ring: make([]bool, cfg.Window)}
}

// Allow reports whether a request may reach the downstream. In the open
// state it flips to half-open once the cooldown has elapsed and admits a
// single probe; callers that are let through must call Report with the
// outcome (or CancelProbe when no verdict was produced).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probeOK = 0
		b.probeInFlight = true
		return true
	default: // half-open: one probe at a time
		if b.probeInFlight {
			return false
		}
		b.probeInFlight = true
		return true
	}
}

// Report records one downstream outcome. In the closed state it advances
// the sliding window and trips to open when the full window's failure
// rate reaches the threshold. In the half-open state it resolves the
// probe: failure reopens immediately, success counts toward closing.
// Reports landing while open (stragglers admitted before the trip) are
// dropped.
func (b *Breaker) Report(failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if b.ringN == len(b.ring) {
			if b.ring[b.ringI] {
				b.fails--
			}
		} else {
			b.ringN++
		}
		b.ring[b.ringI] = failure
		if failure {
			b.fails++
		}
		b.ringI = (b.ringI + 1) % len(b.ring)
		if b.ringN == len(b.ring) && float64(b.fails) >= b.cfg.Threshold*float64(len(b.ring)) {
			b.trip()
		}
	case breakerHalfOpen:
		b.probeInFlight = false
		if failure {
			b.trip()
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.Probes {
			b.state = breakerClosed
			b.reset()
		}
	}
}

// CancelProbe returns a half-open probe slot without counting an
// outcome: the request Allow admitted never produced a downstream
// verdict (it was shed at admission, or failed for a client-side
// reason). A no-op in every other state, so stragglers from a previous
// era cannot disturb a later probe.
func (b *Breaker) CancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probeInFlight = false
	}
}

// trip opens the breaker and clears the window for the next closed era.
func (b *Breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.cfg.Now()
	b.opens++
	b.probeInFlight = false
	b.reset()
}

// reset clears the sliding window (caller holds the lock).
func (b *Breaker) reset() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.ringN, b.ringI, b.fails = 0, 0, 0
}

// BreakerSnapshot is a point-in-time view of one breaker; the fepiad
// server exports its fields as the fepiad_breaker_* gauges.
type BreakerSnapshot struct {
	// State is "closed", "open", or "half_open".
	State string `json:"state"`
	// Failures and Samples describe the sliding window's current content;
	// Window is its capacity.
	Failures int `json:"failures"`
	// Samples is the number of outcomes currently recorded in the window.
	Samples int `json:"samples"`
	// Window is the sliding window capacity.
	Window int `json:"window"`
	// Opens counts trips over the breaker's lifetime.
	Opens uint64 `json:"opens"`
}

// Snapshot returns a consistent point-in-time view.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:    b.state.String(),
		Failures: b.fails,
		Samples:  b.ringN,
		Window:   len(b.ring),
		Opens:    b.opens,
	}
}
