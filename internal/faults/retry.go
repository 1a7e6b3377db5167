package faults

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"fepia/internal/core"
	"fepia/internal/spec"
)

// Retry policy defaults.
const (
	// DefaultRetryBase is the first backoff delay.
	DefaultRetryBase = 2 * time.Millisecond
	// DefaultRetryMax caps a single backoff delay.
	DefaultRetryMax = 50 * time.Millisecond
)

// temporary is the convention foreign transient errors may implement.
type temporary interface{ Temporary() bool }

// Retryable is the default transient-failure classifier of the retry
// policy. It is deliberately conservative: an error is retryable only
// when something in its chain positively marks it transient (an injected
// transient fault, or any error implementing Temporary() bool returning
// true). Permanent failures — context cancellation, deadline expiry,
// spec validation errors, and unsupported-norm requests — are never
// retryable, even deep inside %w wrapping or errors.Join trees, and they
// veto any transient marker joined alongside them.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// Permanent classes veto first, so a joined [Canceled, transient]
	// chain is never retried.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, spec.ErrInvalidSpec) {
		return false
	}
	var ve *spec.ValidationError
	if errors.As(err, &ve) {
		return false
	}
	if errors.Is(err, core.ErrNormUnsupported) {
		return false
	}
	var ie *InjectedError
	if errors.As(err, &ie) {
		return ie.Transient
	}
	var tmp temporary
	if errors.As(err, &tmp) {
		return tmp.Temporary()
	}
	return false
}

// Policy is a capped-attempt, context-aware retry policy with
// decorrelated-jitter backoff (delay_k ∈ [base, min(cap, 3·delay_{k−1})],
// uniformly drawn from a seeded PRNG). A nil *Policy, or MaxAttempts ≤ 1,
// runs the attempt exactly once. Policies are safe for concurrent use
// through a pointer; do not copy one after first use.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first call;
	// values ≤ 1 disable retrying.
	MaxAttempts int
	// BaseDelay is the first backoff (≤ 0 selects DefaultRetryBase).
	BaseDelay time.Duration
	// MaxDelay caps each backoff (≤ 0 selects DefaultRetryMax).
	MaxDelay time.Duration
	// Seed seeds the jitter PRNG so backoff sequences are reproducible
	// (0 selects a fixed default seed).
	Seed int64
	// Classify reports whether an error is worth retrying; nil selects
	// Retryable.
	Classify func(error) bool
	// Sleep waits between attempts; nil selects a context-aware real
	// sleep. Tests stub it to run backoff without wall-clock delay.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when non-nil, observes each re-attempt (the fepiad server
	// counts them on fepiad_retries_total).
	OnRetry func(attempt int, delay time.Duration, err error)

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// Do runs f under the policy: transient failures (per Classify) are
// re-attempted up to MaxAttempts with decorrelated-jitter backoff, and
// ctx cancellation during backoff aborts immediately. The returned error
// is the last attempt's error verbatim — typed errors stay matchable with
// errors.Is/As — except when the backoff sleep itself is cancelled, in
// which case the context error is joined in front of it.
func (p *Policy) Do(ctx context.Context, f func() error) error {
	if p == nil || p.MaxAttempts <= 1 {
		return f()
	}
	base, ceil := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = DefaultRetryBase
	}
	if ceil < base {
		ceil = DefaultRetryMax
		if ceil < base {
			ceil = base
		}
	}
	classify := p.Classify
	if classify == nil {
		classify = Retryable
	}
	prev := base
	for attempt := 1; ; attempt++ {
		err := f()
		if err == nil || attempt >= p.MaxAttempts || !classify(err) {
			return err
		}
		// Decorrelated jitter: widen the window from the previous delay,
		// never below base, never above cap.
		hi := 3 * prev
		if hi > ceil {
			hi = ceil
		}
		d := base
		if hi > base {
			d = base + time.Duration(p.rand63n(int64(hi-base)))
		}
		prev = d
		if p.OnRetry != nil {
			p.OnRetry(attempt, d, err)
		}
		if serr := p.sleep(ctx, d); serr != nil {
			return errors.Join(serr, err)
		}
	}
}

// sleep waits d or until ctx is done.
func (p *Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// rand63n draws from the policy's seeded jitter PRNG.
func (p *Policy) rand63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	p.once.Do(func() {
		seed := p.Seed
		if seed == 0 {
			seed = 42
		}
		p.rng = rand.New(rand.NewSource(seed))
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Int63n(n)
}
