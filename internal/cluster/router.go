package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fepia/internal/faults"
)

// Defaults applied by New for zero-valued Config fields.
const (
	// DefaultForwardTimeout bounds one forward attempt to a peer.
	DefaultForwardTimeout = 5 * time.Second
	// DefaultForwardRetries is the total attempt budget per forward.
	DefaultForwardRetries = 3
	// DefaultPeerBreakerWindow is the per-peer breaker's sliding outcome
	// window — smaller than the engine breakers' so a dead peer is
	// detected within a handful of forwards.
	DefaultPeerBreakerWindow = 8
	// DefaultPeerBreakerThreshold is the failure rate that opens a peer
	// breaker.
	DefaultPeerBreakerThreshold = 0.5
	// DefaultPeerBreakerCooldown is how long an open peer breaker rejects
	// before probing, short so a restarted peer rejoins quickly.
	DefaultPeerBreakerCooldown = 2 * time.Second
)

// Wire headers of the cluster protocol. Forwarded requests carry
// ForwardedFromHeader so the owner knows not to re-forward (forwarding
// is single-hop by construction — the ring gives every key exactly one
// owner, so a loop would indicate divergent ring views and must not
// cascade). Responses carry NodeHeader and ForwardedHeader so clients
// and the load generator can attribute answers without parsing bodies.
const (
	// ForwardedFromHeader names the node that relayed the request; its
	// presence on a request disables further forwarding.
	ForwardedFromHeader = "X-Fepiad-Forwarded-From"
	// NodeHeader is the response header naming the node that produced
	// the answer.
	NodeHeader = "X-Fepiad-Node"
	// ForwardedHeader is the response header ("true") on answers that
	// crossed the ring.
	ForwardedHeader = "X-Fepiad-Forwarded"
	// TraceHeader carries distributed trace context on forwards, W3C
	// traceparent style: "<trace-id>-<parent-span-id>", 16 lowercase hex
	// chars each. The parent is the ingress node's forward span, so the
	// owner's span tree hooks under it when stitched.
	TraceHeader = "X-Fepiad-Trace"
	// SpansHeader is the response header on which a forwarded-to owner
	// returns its span tree (compact JSON, see obs.SpanData) so the
	// ingress can stitch one cross-node trace.
	SpansHeader = "X-Fepiad-Spans"
	// TraceIDHeader is the response header echoing the trace ID on every
	// /v1 answer, so clients (cmd/loadgen -report-traces) can link their
	// slowest requests into /debug/traces without parsing bodies.
	TraceIDHeader = "X-Fepiad-Trace-Id"
)

// ErrPeerOpen reports a forward rejected locally because the peer's
// circuit breaker is open; it is matched through *PeerError with
// errors.Is.
var ErrPeerOpen = errors.New("cluster: peer circuit open")

// Peer identifies one fepiad node of the ring.
type Peer struct {
	// ID is the node's stable identity on the ring (-node-id).
	ID string `json:"id"`
	// URL is the node's base URL, e.g. "http://10.0.0.7:8080". Empty for
	// the local node in membership listings.
	URL string `json:"url,omitempty"`
}

// Config tunes a Router. Zero values select the defaults above.
type Config struct {
	// Self is the local node's ID; it must appear in Peers.
	Self string
	// Peers is the full ring membership, the local node included. Every
	// remote peer needs a URL.
	Peers []Peer
	// Replicas is the virtual-node count per peer (0 selects
	// DefaultReplicas). All nodes must agree on it.
	Replicas int
	// ForwardTimeout bounds each forward attempt (0 selects
	// DefaultForwardTimeout).
	ForwardTimeout time.Duration
	// RetryMax is the total attempt budget per forward (0 selects
	// DefaultForwardRetries, < 0 or 1 disables retrying).
	RetryMax int
	// BreakerWindow / BreakerThreshold / BreakerCooldown tune the
	// per-peer circuit breakers (0 selects the defaults; BreakerWindow
	// < 0 disables the peer breakers).
	BreakerWindow    int
	BreakerThreshold float64
	BreakerCooldown  time.Duration
	// Transport overrides the HTTP transport (tests inject
	// httptest-backed transports); nil selects http.DefaultTransport.
	Transport http.RoundTripper
	// Now is the breaker clock, stubbed by tests; nil selects time.Now.
	Now func() time.Time
}

// withDefaults fills zero-valued fields.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = DefaultForwardTimeout
	}
	if c.RetryMax == 0 {
		c.RetryMax = DefaultForwardRetries
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = DefaultPeerBreakerWindow
	}
	if c.BreakerThreshold <= 0 || c.BreakerThreshold > 1 {
		c.BreakerThreshold = DefaultPeerBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultPeerBreakerCooldown
	}
	return c
}

// peerState is the per-peer resilience and accounting bundle.
type peerState struct {
	peer    Peer
	breaker *faults.Breaker // nil when BreakerWindow < 0
	retry   *faults.Policy  // nil when RetryMax ≤ 1

	forwards atomic.Uint64 // forwards attempted to this peer
	hits     atomic.Uint64 // forwards answered 2xx
	failures atomic.Uint64 // forwards that failed (breaker open, retries exhausted)

	fetches       atomic.Uint64 // federation GETs attempted to this peer
	fetchFailures atomic.Uint64 // federation GETs that failed
}

// Router owns a node's view of the ring: key→owner lookup plus resilient
// request forwarding to remote peers. Safe for concurrent use.
type Router struct {
	cfg    Config
	ring   *Ring
	peers  map[string]*peerState // remote peers only, by ID
	ids    []string              // sorted remote peer IDs
	client *http.Client
}

// New builds a Router from cfg. It validates the membership — Self must
// be listed, IDs must be unique and non-empty, every remote peer needs a
// well-formed http(s) URL — and precomputes the ring.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: node ID (Self) required")
	}
	ids := make([]string, 0, len(cfg.Peers))
	selfListed := false
	for _, p := range cfg.Peers {
		ids = append(ids, p.ID)
		if p.ID == cfg.Self {
			selfListed = true
		}
	}
	if !selfListed {
		return nil, fmt.Errorf("cluster: self %q not in peer list", cfg.Self)
	}
	ring, err := NewRing(ids, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		peers:  make(map[string]*peerState, len(cfg.Peers)),
		client: &http.Client{Transport: cfg.Transport},
	}
	for _, p := range cfg.Peers {
		if p.ID == cfg.Self {
			continue
		}
		u, err := url.Parse(p.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q needs an http(s) URL, got %q", p.ID, p.URL)
		}
		ps := &peerState{peer: Peer{ID: p.ID, URL: strings.TrimRight(p.URL, "/")}}
		if cfg.BreakerWindow > 0 {
			ps.breaker = faults.NewBreaker(faults.BreakerConfig{
				Window:    cfg.BreakerWindow,
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
				Now:       cfg.Now,
			})
		}
		if cfg.RetryMax > 1 {
			ps.retry = &faults.Policy{MaxAttempts: cfg.RetryMax}
		}
		rt.peers[p.ID] = ps
		rt.ids = append(rt.ids, p.ID)
	}
	sort.Strings(rt.ids)
	return rt, nil
}

// Self returns the local node's ID.
func (rt *Router) Self() string { return rt.cfg.Self }

// Ring returns the router's (immutable) ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Owner returns the node owning key.
func (rt *Router) Owner(key uint64) string { return rt.ring.Owner(key) }

// PeerIDs returns the remote peers' IDs, sorted.
func (rt *Router) PeerIDs() []string { return append([]string(nil), rt.ids...) }

// Members returns the full ring membership, self included with an empty
// URL, sorted by ID — the GET /v1/ring document.
func (rt *Router) Members() []Peer {
	out := make([]Peer, 0, len(rt.peers)+1)
	out = append(out, Peer{ID: rt.cfg.Self})
	for _, ps := range rt.peers {
		out = append(out, ps.peer)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PeerStats is one peer's forwarding counters and breaker view, read by
// the metrics layer.
type PeerStats struct {
	// Forwards counts forwards attempted; ForwardHits the ones answered
	// 2xx; Failures the ones that failed (breaker open, retries
	// exhausted, cancelled mid-forward).
	Forwards, ForwardHits, Failures uint64
	// Fetches counts federation GETs (cluster status / metrics fan-out);
	// FetchFailures the ones that failed.
	Fetches, FetchFailures uint64
	// Breaker is the peer breaker's snapshot; State "disabled" when the
	// peer breakers are off.
	Breaker faults.BreakerSnapshot
}

// PeerStats returns the counters of one remote peer (zero value for an
// unknown ID).
func (rt *Router) PeerStats(id string) PeerStats {
	ps, ok := rt.peers[id]
	if !ok {
		return PeerStats{Breaker: faults.BreakerSnapshot{State: "disabled"}}
	}
	st := PeerStats{
		Forwards:      ps.forwards.Load(),
		ForwardHits:   ps.hits.Load(),
		Failures:      ps.failures.Load(),
		Fetches:       ps.fetches.Load(),
		FetchFailures: ps.fetchFailures.Load(),
		Breaker:       faults.BreakerSnapshot{State: "disabled"},
	}
	if ps.breaker != nil {
		st.Breaker = ps.breaker.Snapshot()
	}
	return st
}

// PeerError reports a failed forward: the peer, how many attempts were
// spent, and the last HTTP status seen (0 when no attempt got a
// response). The server maps it onto 502/503 through its errors.As
// chain; errors.Is(err, ErrPeerOpen) distinguishes a local breaker
// rejection from an exhausted peer.
type PeerError struct {
	// Peer is the target node's ID.
	Peer string
	// Attempts is how many forward attempts were made (0 when the
	// breaker rejected locally).
	Attempts int
	// LastStatus is the last HTTP status received from the peer, 0 when
	// every attempt failed in transport.
	LastStatus int
	// Err is the underlying cause (ErrPeerOpen, the last transport or
	// status error).
	Err error
}

// Error formats the failure for the ErrorJSON envelope.
func (e *PeerError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: peer %q unavailable", e.Peer)
	if e.Attempts > 0 {
		fmt.Fprintf(&b, " after %d attempt(s)", e.Attempts)
	}
	if e.LastStatus != 0 {
		fmt.Fprintf(&b, " (last status %d)", e.LastStatus)
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	return b.String()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PeerError) Unwrap() error { return e.Err }

// transportError marks a forward attempt that died in transport as
// transient for the retry classifier. It deliberately does NOT unwrap:
// a per-attempt timeout carries context.DeadlineExceeded, which would
// otherwise veto the retry (the REQUEST's deadline is checked separately
// in Forward).
type transportError struct{ err error }

func (e *transportError) Error() string   { return "forwarding: " + e.err.Error() }
func (e *transportError) Temporary() bool { return true }

// statusError marks a peer 5xx as transient: the peer is alive but
// failing, and the next attempt (or the breaker) decides.
type statusError struct{ status int }

func (e *statusError) Error() string   { return fmt.Sprintf("peer answered %d", e.status) }
func (e *statusError) Temporary() bool { return true }

// Response is a relayed peer answer: status, selected headers, and the
// verbatim body bytes (byte-identity across the ring is part of the API
// contract, so the body is never re-encoded). Attempts counts the HTTP
// attempts spent obtaining it, so the forward span can carry the retry
// story of a success too.
type Response struct {
	Status   int
	Header   http.Header
	Body     []byte
	Attempts int
}

// Forward relays body to the peer's path (e.g. "/v1/analyze") under the
// per-peer breaker and retry policy. hdr supplies the Content-Type and
// X-Request-Id to propagate; the forwarded request carries
// ForwardedFromHeader so the peer never re-forwards. Peer responses
// below 500 — including 4xx — are relayed verbatim as a *Response; a 5xx
// or a transport failure is retried and, once the budget is exhausted,
// reported as a *PeerError and counted against the peer's breaker. A
// cancelled or expired request context returns the context error
// directly (the peer is not at fault; any half-open probe slot is
// returned unused).
func (rt *Router) Forward(ctx context.Context, peerID, path string, body []byte, hdr http.Header) (*Response, error) {
	return rt.do(ctx, peerID, http.MethodPost, path, body, hdr, false)
}

// Fetch GETs path from the peer under the same per-peer breaker and
// retry machinery as Forward — the federation fan-out behind
// GET /v1/cluster/status and GET /metrics?federate=1, which reads each
// peer's GET /v1/cluster/metrics snapshot. Responses below
// 500 are returned verbatim; a 5xx or transport failure is retried,
// then reported as a *PeerError. Fetches count on their own PeerStats
// counters but share the breaker: a dead peer discovered by a status
// poll also stops taking forwards.
func (rt *Router) Fetch(ctx context.Context, peerID, path string) (*Response, error) {
	return rt.do(ctx, peerID, http.MethodGet, path, nil, nil, true)
}

// do runs one resilient exchange with a peer: breaker gate, retry loop,
// verdict accounting.
func (rt *Router) do(ctx context.Context, peerID, method, path string, body []byte, hdr http.Header, fetch bool) (*Response, error) {
	ps, ok := rt.peers[peerID]
	if !ok {
		return nil, &PeerError{Peer: peerID, Err: fmt.Errorf("unknown peer")}
	}
	sent, failed := &ps.forwards, &ps.failures
	if fetch {
		sent, failed = &ps.fetches, &ps.fetchFailures
	}
	sent.Add(1)
	if ps.breaker != nil && !ps.breaker.Allow() {
		failed.Add(1)
		return nil, &PeerError{Peer: peerID, Err: ErrPeerOpen}
	}
	var (
		resp       *Response
		attempts   int
		lastStatus int
	)
	attempt := func() error {
		attempts++
		r, status, err := rt.attempt(ctx, ps.peer, method, path, body, hdr)
		if status != 0 {
			lastStatus = status
		}
		if err != nil {
			return err
		}
		resp = r
		return nil
	}
	// A nil policy runs the attempt exactly once (retrying disabled).
	err := ps.retry.Do(ctx, attempt)
	if err != nil {
		if ctx.Err() != nil {
			// The client went away or the request deadline fired mid-forward:
			// no verdict on the peer.
			if ps.breaker != nil {
				ps.breaker.CancelProbe()
			}
			failed.Add(1)
			return nil, ctx.Err()
		}
		if ps.breaker != nil {
			ps.breaker.Report(true)
		}
		failed.Add(1)
		return nil, &PeerError{Peer: peerID, Attempts: attempts, LastStatus: lastStatus, Err: err}
	}
	if ps.breaker != nil {
		ps.breaker.Report(false)
	}
	resp.Attempts = attempts
	if !fetch && resp.Status < 300 {
		ps.hits.Add(1)
	}
	return resp, nil
}

// attempt runs one exchange attempt under the per-attempt timeout.
func (rt *Router) attempt(ctx context.Context, peer Peer, method, path string, body []byte, hdr http.Header) (*Response, int, error) {
	actx := ctx
	if rt.cfg.ForwardTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rt.cfg.ForwardTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, peer.URL+path, rd)
	if err != nil {
		return nil, 0, &transportError{err: err}
	}
	if method == http.MethodPost {
		ct := hdr.Get("Content-Type")
		if ct == "" {
			ct = "application/json"
		}
		req.Header.Set("Content-Type", ct)
	}
	if hdr != nil {
		if rid := hdr.Get("X-Request-Id"); rid != "" {
			req.Header.Set("X-Request-Id", rid)
		}
		if tc := hdr.Get(TraceHeader); tc != "" {
			req.Header.Set(TraceHeader, tc)
		}
	}
	req.Header.Set(ForwardedFromHeader, rt.cfg.Self)
	res, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		return nil, 0, &transportError{err: err}
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, res.StatusCode, ctx.Err()
		}
		return nil, res.StatusCode, &transportError{err: err}
	}
	if res.StatusCode >= 500 {
		return nil, res.StatusCode, &statusError{status: res.StatusCode}
	}
	return &Response{Status: res.StatusCode, Header: res.Header.Clone(), Body: b}, res.StatusCode, nil
}

// ParsePeers parses the -peers flag format: comma-separated id=url
// pairs, e.g. "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080". The local
// node lists itself too (its URL is accepted and ignored for routing).
func ParsePeers(s string) ([]Peer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]Peer, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		id, u = strings.TrimSpace(id), strings.TrimSpace(u)
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("cluster: malformed peer %q (want id=url)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer ID %q", id)
		}
		seen[id] = true
		out = append(out, Peer{ID: id, URL: u})
	}
	return out, nil
}
