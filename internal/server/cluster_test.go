package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fepia/internal/cluster"
	"fepia/internal/spec"
)

// clusterNode is one in-process fepiad of a test ring: its Server, its
// httptest listener, and a swappable handler so tests can make a live
// node misbehave (or heal) without rebinding its port.
type clusterNode struct {
	id      string
	url     string
	srv     *Server
	ts      *httptest.Server
	handler atomic.Value // http.Handler
}

// startCluster boots n fepiad nodes ("n0".."n{n-1}") that know each
// other through real HTTP listeners. Listeners start first (their URLs
// seed every node's peer list), then each Server is built and bound.
func startCluster(t *testing.T, n int, tweak func(i int, c *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		node := &clusterNode{id: fmt.Sprintf("n%d", i)}
		node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.handler.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(node.ts.Close)
		node.url = node.ts.URL
		nodes[i] = node
	}
	peers := make([]cluster.Peer, n)
	for i, node := range nodes {
		peers[i] = cluster.Peer{ID: node.id, URL: node.url}
	}
	for i, node := range nodes {
		cfg := quietConfig(Config{NodeID: node.id, Peers: peers, Degraded: true})
		if tweak != nil {
			tweak(i, &cfg)
		}
		node.srv = New(cfg)
		node.handler.Store(http.HandlerFunc(node.srv.Handler().ServeHTTP))
	}
	return nodes
}

// ownedDoc finds a linearSpec document whose ring owner is the given
// node, plus the doc's route key.
func ownedDoc(t *testing.T, nodes []*clusterNode, owner string) string {
	t.Helper()
	for k := 0; k < 200; k++ {
		doc := linearSpec(k)
		sys, err := spec.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if nodes[0].srv.router.Owner(sys.RouteKey()) == owner {
			return doc
		}
	}
	t.Fatalf("no linearSpec document owned by %s in 200 tries", owner)
	return ""
}

// stripMeta clears the meta block of a result document for modulo-meta
// byte comparison.
func stripMeta(t *testing.T, body []byte) []byte {
	t.Helper()
	var res spec.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("not a ResultJSON: %v: %s", err, body)
	}
	res.Meta = nil
	b, _ := json.Marshal(res)
	return b
}

// TestClusterForwardingDeterministicAndByteIdentical: every node derives
// the same ring, a non-owned request is forwarded to its owner, and the
// relayed response is byte-identical (modulo meta) to asking the owner
// directly.
func TestClusterForwardingDeterministicAndByteIdentical(t *testing.T) {
	nodes := startCluster(t, 3, nil)

	// Every node must agree on every owner (the ring is deterministic and
	// order-insensitive in the peer list).
	for k := 0; k < 50; k++ {
		sys, err := spec.Parse([]byte(linearSpec(k)))
		if err != nil {
			t.Fatal(err)
		}
		want := nodes[0].srv.router.Owner(sys.RouteKey())
		for _, node := range nodes[1:] {
			if got := node.srv.router.Owner(sys.RouteKey()); got != want {
				t.Fatalf("doc %d: node %s says owner %q, node n0 says %q", k, node.id, got, want)
			}
		}
	}

	doc := ownedDoc(t, nodes, "n2")

	// Ask the owner directly: served locally, no forwarding markers.
	resp, direct := postJSON(t, nodes[2].url+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct: status %d: %s", resp.StatusCode, direct)
	}
	if resp.Header.Get(cluster.ForwardedHeader) != "" {
		t.Fatal("direct request to the owner was marked forwarded")
	}
	if got := resp.Header.Get(cluster.NodeHeader); got != "n2" {
		t.Fatalf("direct %s = %q, want n2", cluster.NodeHeader, got)
	}

	// Ask a non-owner: relayed to n2, marked forwarded, same bytes.
	resp, relayed := postJSON(t, nodes[0].url+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded: status %d: %s", resp.StatusCode, relayed)
	}
	if resp.Header.Get(cluster.ForwardedHeader) != "true" {
		t.Fatal("relayed response missing forwarded header")
	}
	if got := resp.Header.Get(cluster.NodeHeader); got != "n2" {
		t.Fatalf("relayed %s = %q, want the owner n2", cluster.NodeHeader, got)
	}
	var meta spec.ResultJSON
	if err := json.Unmarshal(relayed, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Meta == nil || meta.Meta.Node != "n2" || !meta.Meta.Forwarded {
		t.Fatalf("relayed meta = %+v, want node n2 forwarded", meta.Meta)
	}
	if !bytes.Equal(stripMeta(t, relayed), stripMeta(t, direct)) {
		t.Fatalf("forwarded response differs from direct (modulo meta):\n got %s\nwant %s", relayed, direct)
	}
	if st := nodes[0].srv.router.PeerStats("n2"); st.Forwards != 1 || st.ForwardHits != 1 {
		t.Fatalf("n0→n2 stats %+v, want 1 forward, 1 hit", st)
	}
}

// TestClusterBatchPartitioning: a batch posted to one node is split by
// ring owner, sub-batches resolve on their owning peers, and results
// come back in request order with per-result metas naming the node that
// actually solved each system.
func TestClusterBatchPartitioning(t *testing.T) {
	nodes := startCluster(t, 3, nil)

	const n = 12
	docs := make([]string, n)
	for k := range docs {
		docs[k] = linearSpec(k)
	}
	body := `{"systems": [` + strings.Join(docs, ",") + `]}`
	resp, data := postJSON(t, nodes[0].url+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br spec.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n {
		t.Fatalf("%d results, want %d", len(br.Results), n)
	}
	remoteSolved := 0
	for i, res := range br.Results {
		sys, err := spec.Parse([]byte(docs[i]))
		if err != nil {
			t.Fatal(err)
		}
		owner := nodes[0].srv.router.Owner(sys.RouteKey())
		if res.Name != sys.Name {
			t.Fatalf("results[%d] = %q, want %q (request order violated)", i, res.Name, sys.Name)
		}
		if res.Meta == nil {
			t.Fatalf("results[%d] missing meta", i)
		}
		if res.Meta.Node != owner {
			t.Fatalf("results[%d] solved on %q, ring owner is %q", i, res.Meta.Node, owner)
		}
		if res.Meta.Forwarded != (owner != "n0") {
			t.Fatalf("results[%d] forwarded=%v on node %q", i, res.Meta.Forwarded, owner)
		}
		if owner != "n0" {
			remoteSolved++
		}
		want, _ := json.Marshal(libraryResult(t, docs[i]))
		res.Meta = nil
		got, _ := json.Marshal(res)
		if !bytes.Equal(got, want) {
			t.Fatalf("results[%d] differs from library path:\n got %s\nwant %s", i, got, want)
		}
	}
	if remoteSolved == 0 {
		t.Fatal("no system resolved on a peer: batch was not partitioned")
	}
	if br.Meta == nil || !br.Meta.Forwarded || br.Meta.Node != "n0" {
		t.Fatalf("batch top-level meta = %+v, want forwarded on n0", br.Meta)
	}
}

// TestClusterKilledNodeDegradesZeroDrop: killing a node mid-run drops
// zero requests — specs it owned are served locally by whoever received
// them, marked degraded, with the Warning header, and the survivor's
// per-peer breaker opens and is visible in metrics.
func TestClusterKilledNodeDegradesZeroDrop(t *testing.T) {
	nodes := startCluster(t, 3, func(i int, c *Config) {
		c.RetryMax = -1 // one attempt per forward: deterministic failure counting
		c.BreakerWindow = 2
		c.BreakerCooldown = time.Hour
	})
	doc := ownedDoc(t, nodes, "n2")

	// Healthy forward first: n0 relays to n2.
	resp, healthy := postJSON(t, nodes[0].url+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy forward: status %d: %s", resp.StatusCode, healthy)
	}

	nodes[2].ts.Close() // kill the owner mid-run

	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, nodes[0].url+"/v1/analyze", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after owner death: status %d: %s (dropped request)", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Warning") == "" {
			t.Fatalf("request %d: degraded response missing Warning header", i)
		}
		var res spec.ResultJSON
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Meta == nil || !res.Meta.Degraded || res.Meta.Node != "n0" {
			t.Fatalf("request %d meta = %+v, want degraded on n0", i, res.Meta)
		}
		// The answer itself is the full fresh solve, identical to the
		// healthy forwarded one modulo meta.
		if !bytes.Equal(stripMeta(t, body), stripMeta(t, healthy)) {
			t.Fatalf("degraded local solve differs from healthy answer:\n got %s\nwant %s", body, healthy)
		}
	}

	st := nodes[0].srv.router.PeerStats("n2")
	if st.Failures < 2 {
		t.Fatalf("n0→n2 failures = %d, want ≥ 2", st.Failures)
	}
	if st.Breaker.State != "open" {
		t.Fatalf("n0→n2 breaker %+v after repeated forward failures, want open", st.Breaker)
	}
	if v := nodes[0].srv.metrics.clusterDegraded.Value(); v != 5 {
		t.Fatalf("fepiad_cluster_degraded_total = %d, want 5", v)
	}

	// A batch containing the dead node's systems also drops nothing.
	body := `{"systems": [` + doc + `,` + ownedDoc(t, nodes, "n0") + `]}`
	resp, data := postJSON(t, nodes[0].url+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after owner death: status %d: %s", resp.StatusCode, data)
	}
	var br spec.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Meta == nil || !br.Meta.Degraded {
		t.Fatalf("batch meta = %+v, want degraded", br.Meta)
	}
}

// TestClusterPeerBreakerRecovers: a peer that starts failing trips the
// per-peer breaker (requests keep flowing, served degraded locally);
// once the peer heals and the cooldown passes, the half-open probe
// closes the breaker and forwarding resumes.
func TestClusterPeerBreakerRecovers(t *testing.T) {
	nodes := startCluster(t, 2, func(i int, c *Config) {
		c.RetryMax = -1
		c.BreakerWindow = 2
		c.BreakerCooldown = 50 * time.Millisecond
	})
	doc := ownedDoc(t, nodes, "n1")

	// n1 misbehaves: every request 500s without touching its Server.
	var failing atomic.Bool
	failing.Store(true)
	real := nodes[1].srv.Handler()
	nodes[1].handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))

	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, nodes[0].url+"/v1/analyze", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d against failing peer: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if st := nodes[0].srv.router.PeerStats("n1"); st.Breaker.State != "open" {
		t.Fatalf("n0→n1 breaker %+v, want open", st.Breaker)
	}

	failing.Store(false)
	time.Sleep(80 * time.Millisecond)

	// The next forward is the half-open probe; it succeeds, closes the
	// breaker, and the response comes from n1 again.
	resp, body := postJSON(t, nodes[0].url+"/v1/analyze", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe forward: status %d: %s", resp.StatusCode, body)
	}
	var res spec.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Meta == nil || res.Meta.Node != "n1" || !res.Meta.Forwarded || res.Meta.Degraded {
		t.Fatalf("post-recovery meta = %+v, want forwarded to n1, not degraded", res.Meta)
	}
	if st := nodes[0].srv.router.PeerStats("n1"); st.Breaker.State != "closed" {
		t.Fatalf("n0→n1 breaker %+v after successful probe, want closed", st.Breaker)
	}
}

// TestClusterRingEndpoint: GET /v1/ring reports the membership with
// shares summing to 1 and marks the answering node.
func TestClusterRingEndpoint(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	resp, body := getBody(t, nodes[1].url+"/v1/ring")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Self     string `json:"self"`
		Replicas int    `json:"replicas"`
		Members  []struct {
			ID    string  `json:"id"`
			URL   string  `json:"url"`
			Self  bool    `json:"self"`
			Share float64 `json:"share"`
		} `json:"members"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Self != "n1" || doc.Replicas != cluster.DefaultReplicas || len(doc.Members) != 3 {
		t.Fatalf("ring doc %+v", doc)
	}
	var sum float64
	for _, m := range doc.Members {
		if m.Self != (m.ID == "n1") {
			t.Fatalf("member %s self marker wrong", m.ID)
		}
		sum += m.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g, want 1", sum)
	}
}

// getBody GETs a URL and returns response + body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
