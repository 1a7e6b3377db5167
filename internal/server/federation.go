// Federated observability: one node answers for the fleet. Both GET
// /v1/cluster/status and GET /metrics?federate=1 fan out to every ring
// peer through the Router's breaker/retry machinery with one protocol:
// each peer's registry snapshot from GET /v1/cluster/metrics. The status
// document derives one entry per node from its snapshot; the federated
// exposition merges the snapshots (obs.RegistrySnapshot merge). Both
// degrade per peer — a dead node becomes an unhealthy entry with its
// error, never a 500 — and neither recurses: /v1/cluster/metrics answers
// for the receiving node only. See docs/OBSERVABILITY.md, "Federation".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"fepia/internal/cluster"
	"fepia/internal/obs"
)

// NodeStatus is one node's entry in the /v1/cluster/status document.
// Unreachable peers carry Healthy=false and Error; every other field is
// read off the node's registry snapshot (nodeStatus).
type NodeStatus struct {
	Node    string `json:"node"`
	Healthy bool   `json:"healthy"`
	Self    bool   `json:"self,omitempty"`
	Error   string `json:"error,omitempty"`

	UptimeSeconds int64   `json:"uptime_seconds,omitempty"`
	InFlight      int64   `json:"in_flight"`
	Requests      uint64  `json:"requests"`
	Analyses      uint64  `json:"analyses"`
	Errors        uint64  `json:"errors"`
	Rejected      uint64  `json:"rejected"`
	SlowRequests  uint64  `json:"slow_requests"`
	RingShare     float64 `json:"ring_share"`

	Cache *CacheStatus `json:"cache,omitempty"`
	// SnapshotAgeSeconds is the age of the last successful cache
	// snapshot write; -1 when persistence is off or nothing has been
	// written yet.
	SnapshotAgeSeconds int64 `json:"snapshot_age_seconds"`
	// Breakers maps each endpoint breaker to its state string (closed /
	// half_open / open / disabled).
	Breakers map[string]string `json:"breakers,omitempty"`
}

// CacheStatus is the radius-cache slice of a node status.
type CacheStatus struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
	HitRate  float64 `json:"hit_rate"`
}

// ClusterStatus is the merged /v1/cluster/status document: every ring
// member's status (self first, then peers sorted by node ID) plus the
// healthy count, so "is the fleet ok" is one field, not a loop.
type ClusterStatus struct {
	Self         string       `json:"self,omitempty"`
	Nodes        []NodeStatus `json:"nodes"`
	NodesTotal   int          `json:"nodes_total"`
	NodesHealthy int          `json:"nodes_healthy"`
}

// nodeStatus derives one node's status entry from its registry
// snapshot: the local one for the node itself, a peer's
// /v1/cluster/metrics document for a peer. Sums run over every series
// of a family (all endpoints); now dates the snapshot age.
func nodeStatus(node string, snap obs.RegistrySnapshot, now time.Time) NodeStatus {
	sum := func(name string) uint64 { return uint64(snap.Sum(name)) }
	st := NodeStatus{
		Node:          node,
		Healthy:       true,
		UptimeSeconds: int64(snap.Sum("fepiad_uptime_seconds")),
		InFlight:      int64(snap.Sum("fepiad_in_flight")),
		Requests:      sum("fepiad_requests_total"),
		Analyses:      sum("fepiad_analyses_total"),
		Errors:        sum("fepiad_errors_total"),
		Rejected:      sum("fepiad_rejected_total"),
		SlowRequests:  sum("fepiad_slow_requests_total"),
		RingShare:     1,
		Cache: &CacheStatus{
			Hits:     sum("fepiad_cache_hits"),
			Misses:   sum("fepiad_cache_misses"),
			Size:     int(snap.Sum("fepiad_cache_entries")),
			Capacity: int(snap.Sum("fepiad_cache_capacity")),
		},
		SnapshotAgeSeconds: -1,
		Breakers:           make(map[string]string, 2),
	}
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(lookups)
	}
	if snap.Family("fepiad_cluster_ring_share") != nil {
		st.RingShare = snap.Sum("fepiad_cluster_ring_share", obs.L("node", node))
	}
	if last := int64(snap.Sum("fepiad_snapshot_last_write_timestamp_seconds")); last > 0 {
		st.SnapshotAgeSeconds = now.Unix() - last
	}
	for _, ep := range []string{epAnalyze, epBatch} {
		st.Breakers[ep] = breakerStateName(snap.Sum("fepiad_breaker_state", obs.L("endpoint", ep)))
	}
	return st
}

// handleClusterStatus serves GET /v1/cluster/status. A solo node, a
// ?local=1 request, or a request already forwarded by a peer answers
// with its own status only; otherwise every ring peer's snapshot is
// fetched concurrently and derived into its entry: self first, then the
// peers sorted by node ID. Peer failures degrade per entry — the
// document is always 200 with every ring member present.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	self := nodeStatus(s.cfg.NodeID, s.metrics.reg.Snapshot(), now)
	self.Self = true
	doc := ClusterStatus{Self: s.cfg.NodeID, Nodes: []NodeStatus{self}}
	if s.router != nil && r.URL.Query().Get("local") != "1" && r.Header.Get(cluster.ForwardedFromHeader) == "" {
		for _, p := range s.peerSnapshots(r.Context()) {
			st := NodeStatus{Node: p.id, SnapshotAgeSeconds: -1}
			if p.err == nil {
				st = nodeStatus(p.id, p.snap, now)
			} else {
				st.Error = p.err.Error()
			}
			doc.Nodes = append(doc.Nodes, st)
		}
	}
	doc.NodesTotal = len(doc.Nodes)
	for _, n := range doc.Nodes {
		if n.Healthy {
			doc.NodesHealthy++
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleClusterMetrics serves GET /v1/cluster/metrics: this node's
// registry snapshot as JSON — the federation wire a peer merges into
// its own registry for /metrics?federate=1.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.reg.Snapshot())
}

// peerSnapshot is one ring peer's registry snapshot, or the error that
// kept it from being read.
type peerSnapshot struct {
	id   string
	snap obs.RegistrySnapshot
	err  error
}

// peerSnapshots fetches every ring peer's GET /v1/cluster/metrics
// document concurrently, sorted by peer ID — the one peer-fetch
// protocol behind both /v1/cluster/status and /metrics?federate=1. Each
// fetch runs under the peer's breaker and retry policy; a failure of any
// shape — breaker open, retries exhausted, a non-200 answer, an
// undecodable document — is kept as the peer's error.
func (s *Server) peerSnapshots(ctx context.Context) []peerSnapshot {
	ids := s.router.PeerIDs()
	sort.Strings(ids)
	out := make([]peerSnapshot, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(p *peerSnapshot) {
			defer wg.Done()
			p.id = id
			resp, err := s.router.Fetch(ctx, id, "/v1/cluster/metrics")
			switch {
			case err != nil:
				p.err = err
			case resp.Status != http.StatusOK:
				p.err = errors.New("peer answered status " + http.StatusText(resp.Status))
			case json.Unmarshal(resp.Body, &p.snap) != nil:
				p.err = errors.New("undecodable metrics snapshot")
			}
		}(&out[i])
	}
	wg.Wait()
	return out
}

// federatedSnapshot merges every reachable peer's registry snapshot
// into this node's — counters and gauges sum to fleet totals,
// histograms merge bucket-wise — and stamps a
// fepiad_federation_peer_up gauge per peer so the fleet document shows
// who it covers. Peer failures degrade per series source: the local
// document always renders.
func (s *Server) federatedSnapshot(ctx context.Context) obs.RegistrySnapshot {
	snap := s.metrics.reg.Snapshot()
	peers := s.peerSnapshots(ctx)

	up := obs.FamilySnapshot{
		Name: "fepiad_federation_peer_up",
		Help: "Peers whose registry snapshot merged into this federated document (1 merged, 0 unreachable).",
		Type: "gauge",
	}
	for _, p := range peers {
		v := 0.0
		if p.err == nil {
			v = 1
		}
		up.Series = append(up.Series, obs.SeriesSnapshot{
			Labels: []obs.Label{obs.L("peer", p.id)}, Gauge: &v,
		})
	}
	snap.Merge(obs.RegistrySnapshot{Families: []obs.FamilySnapshot{up}})
	for _, p := range peers {
		if p.err == nil {
			snap.Merge(p.snap)
		}
	}
	return snap
}
