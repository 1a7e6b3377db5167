#!/bin/sh
# smoke.sh — boot a real fepiad binary, drive one analysis through it,
# and verify the observability surfaces answer: /healthz, /metrics
# (Prometheus text exposition, including the radius cache's footprint
# gauges and the cumulative allocation series), /debug/vars (the registry snapshot), and
# /debug/traces with the request's spans — then stream a short /v1/watch
# session and verify the incremental frames, the fepiad_watch_*
# counters and the fepiad_trace_retained_bytes gauge on both metric
# surfaces. Then boot a 2-node consistent-hash ring and verify
# cluster serving: /v1/ring membership, owner forwarding with the
# X-Fepiad-Forwarded / X-Fepiad-Node headers, the response meta block
# (docs/CLUSTER.md), cross-node trace stitching on the ingress
# /debug/traces, the federated /v1/cluster/status and
# /metrics?federate=1 views, and the SLO burn-rate gauges
# (docs/OBSERVABILITY.md). Exits non-zero on the first failed check.
set -eu

PORT="${FEPIAD_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
SERVER_PID=""
RING_A_PID=""
RING_B_PID=""
trap 'kill "${SERVER_PID:-}" "${RING_A_PID:-}" "${RING_B_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "smoke: building fepiad"
go build -o "$TMP/fepiad" ./cmd/fepiad

echo "smoke: starting fepiad on :$PORT"
"$TMP/fepiad" -addr "127.0.0.1:$PORT" -log-format text >"$TMP/fepiad.log" 2>&1 &
SERVER_PID=$!

ok=0
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
if [ "$ok" != 1 ]; then
    echo "smoke: fepiad never became healthy" >&2
    cat "$TMP/fepiad.log" >&2
    exit 1
fi

echo "smoke: POST /v1/analyze"
cat >"$TMP/spec.json" <<'EOF'
{
  "name": "smoke",
  "perturbation": {"name": "λ", "orig": [300, 200], "units": "req/s"},
  "features": [
    {"name": "load(edge)", "max": 1100,
     "impact": {"type": "linear", "coeffs": [1, 1], "offset": 0}}
  ]
}
EOF
curl -fsS -X POST -H "Content-Type: application/json" -H "X-Request-Id: smoke-1" \
    --data-binary @"$TMP/spec.json" "$BASE/v1/analyze" >"$TMP/result.json"
grep -q '"robustness"' "$TMP/result.json" || {
    echo "smoke: analysis result missing robustness radius" >&2
    cat "$TMP/result.json" >&2
    exit 1
}

echo "smoke: GET /metrics"
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
for series in \
    '# TYPE fepiad_requests_total counter' \
    'fepiad_requests_total{endpoint="analyze"} 1' \
    'fepiad_request_duration_ms_count{endpoint="analyze"} 1' \
    'fepiad_analyses_total 1' \
    'fepiad_cache_shards' \
    'fepiad_cache_dup_suppressed' \
    'fepiad_cache_shard_entries{shard="0"}' \
    'fepiad_slo_burn_rate{endpoint="analyze",slo="availability",window="5m"} 0' \
    'fepiad_slo_burn_rate{endpoint="analyze",slo="latency",window="1h"} 0' \
    'fepiad_slo_error_budget_remaining{endpoint="analyze",slo="availability"} 1' \
    'fepiad_slo_objective{endpoint="analyze",slo="latency"} 500' \
    '# {trace_id="' \
    'fepiad_breaker_window_failures{endpoint="analyze"} 0' \
    'fepiad_breaker_window_samples{endpoint="analyze"}' \
    'fepiad_breaker_window_size{endpoint="batch"}' \
    'fepiad_uptime_seconds ' \
    'fepiad_snapshot_last_write_timestamp_seconds 0' \
    'go_goroutines' \
    'go_alloc_bytes_total'; do
    grep -qF "$series" "$TMP/metrics.txt" || {
        echo "smoke: /metrics missing: $series" >&2
        cat "$TMP/metrics.txt" >&2
        exit 1
    }
done
# The analysis cached its radii: the entries hold key and boundary bytes.
grep -qE '^fepiad_cache_retained_bytes [1-9]' "$TMP/metrics.txt" || {
    echo "smoke: /metrics fepiad_cache_retained_bytes missing or zero after an analysis" >&2
    grep -F 'fepiad_cache_' "$TMP/metrics.txt" >&2 || true
    exit 1
}

# /debug/vars is the expvar globals plus "fepiad": the registry snapshot
# /v1/cluster/metrics serves, so the /metrics families are named in it.
echo "smoke: GET /debug/vars"
curl -fsS "$BASE/debug/vars" >"$TMP/vars.json"
for key in '"memstats":' '"fepiad": {"families":' '"name":"fepiad_requests_total"' \
    '"name":"fepiad_request_duration_ms"' '"name":"fepiad_cache_dup_suppressed"' \
    '"name":"fepiad_cache_shards"' '"name":"fepiad_cache_retained_bytes"' \
    '"name":"fepiad_breaker_window_samples"' '"name":"fepiad_uptime_seconds"' \
    '"name":"go_alloc_bytes_total"'; do
    grep -qF "$key" "$TMP/vars.json" || {
        echo "smoke: /debug/vars missing: $key" >&2
        cat "$TMP/vars.json" >&2
        exit 1
    }
done

echo "smoke: GET /debug/traces"
curl -fsS "$BASE/debug/traces" >"$TMP/traces.json"
# The fault-free trace is per stage: one solve span carrying the
# system's feature count (one feature here), and no cache span.
for field in '"id": "smoke-1"' '"name": "parse"' '"name": "solve"' '"features": "1"' '"slowest": "load(edge)"' '"name": "encode"'; do
    grep -qF "$field" "$TMP/traces.json" || {
        echo "smoke: /debug/traces missing: $field" >&2
        cat "$TMP/traces.json" >&2
        exit 1
    }
done
if grep -qF '"name": "cache_get"' "$TMP/traces.json"; then
    echo "smoke: fault-free trace records a cache_get span" >&2
    cat "$TMP/traces.json" >&2
    exit 1
fi

# A 3-step watch session over the smoke system: one ndjson frame per
# step plus a clean summary. The first frame reports every radius, the
# later single-coordinate steps only what moved, and the session shows
# up as fepiad_watch_* on /metrics and in the /debug/vars snapshot.
echo "smoke: POST /v1/watch"
cat >"$TMP/watch.json" <<'EOF'
{
  "system": {
    "name": "smoke-watch",
    "perturbation": {"name": "λ", "orig": [300, 200], "units": "req/s"},
    "features": [
      {"name": "load(edge)", "max": 1100,
       "impact": {"type": "linear", "coeffs": [1, 1], "offset": 0}}
    ]
  },
  "points": [[300, 200], [300, 210], [280, 210]]
}
EOF
curl -fsS -X POST -H "Content-Type: application/json" \
    --data-binary @"$TMP/watch.json" "$BASE/v1/watch" >"$TMP/watch-stream.ndjson"
frames=$(grep -c '"changed_count"' "$TMP/watch-stream.ndjson" || true)
if [ "$frames" -lt 2 ]; then
    echo "smoke: watch session streamed $frames frames, want >= 2" >&2
    cat "$TMP/watch-stream.ndjson" >&2
    exit 1
fi
grep -qF '"done":true' "$TMP/watch-stream.ndjson" || {
    echo "smoke: watch stream ended without a clean summary" >&2
    cat "$TMP/watch-stream.ndjson" >&2
    exit 1
}
grep -qF '"changed":[{' "$TMP/watch-stream.ndjson" || {
    echo "smoke: no watch frame carried changed radii" >&2
    cat "$TMP/watch-stream.ndjson" >&2
    exit 1
}
curl -fsS "$BASE/metrics" >"$TMP/metrics-watch.txt"
for series in \
    'fepiad_watch_sessions_total 1' \
    'fepiad_watch_steps_total 3' \
    'fepiad_watch_changed_radii_total'; do
    grep -qF "$series" "$TMP/metrics-watch.txt" || {
        echo "smoke: /metrics missing after watch session: $series" >&2
        cat "$TMP/metrics-watch.txt" >&2
        exit 1
    }
done
# The retained traces (the analysis and the watch session) hold a
# non-empty record stream, gauged on both surfaces.
grep -qE '^fepiad_trace_retained_bytes [1-9]' "$TMP/metrics-watch.txt" || {
    echo "smoke: /metrics fepiad_trace_retained_bytes missing or zero after two traced requests" >&2
    grep -F 'fepiad_trace_retained_bytes' "$TMP/metrics-watch.txt" >&2 || true
    exit 1
}
curl -fsS "$BASE/debug/vars" >"$TMP/vars-watch.json"
for key in '"name":"fepiad_watch_steps_total"' '"name":"fepiad_trace_retained_bytes"'; do
    grep -qF "$key" "$TMP/vars-watch.json" || {
        echo "smoke: /debug/vars missing $key after watch session" >&2
        exit 1
    }
done

echo "smoke: graceful shutdown"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || {
    echo "smoke: fepiad exited non-zero on SIGTERM" >&2
    cat "$TMP/fepiad.log" >&2
    exit 1
}
grep -q 'final metrics' "$TMP/fepiad.log" || {
    echo "smoke: no final metrics flush line in shutdown log" >&2
    cat "$TMP/fepiad.log" >&2
    exit 1
}

echo "smoke: 2-node ring"
PORT_A=$((PORT + 1))
PORT_B=$((PORT + 2))
BASE_A="http://127.0.0.1:$PORT_A"
BASE_B="http://127.0.0.1:$PORT_B"
PEERS="a=$BASE_A,b=$BASE_B"
"$TMP/fepiad" -addr "127.0.0.1:$PORT_A" -node-id a -peers "$PEERS" -log-format text >"$TMP/ring-a.log" 2>&1 &
RING_A_PID=$!
"$TMP/fepiad" -addr "127.0.0.1:$PORT_B" -node-id b -peers "$PEERS" -log-format text >"$TMP/ring-b.log" 2>&1 &
RING_B_PID=$!
for node in "$BASE_A" "$BASE_B"; do
    ok=0
    for _ in $(seq 1 50); do
        if curl -fsS "$node/healthz" >/dev/null 2>&1; then ok=1; break; fi
        sleep 0.1
    done
    if [ "$ok" != 1 ]; then
        echo "smoke: ring node $node never became healthy" >&2
        cat "$TMP/ring-a.log" "$TMP/ring-b.log" >&2
        exit 1
    fi
done

echo "smoke: GET /v1/ring"
curl -fsS "$BASE_A/v1/ring" >"$TMP/ring.json"
for field in '"self": "a"' '"id": "a"' '"id": "b"' '"share"'; do
    grep -qF "$field" "$TMP/ring.json" || {
        echo "smoke: /v1/ring missing: $field" >&2
        cat "$TMP/ring.json" >&2
        exit 1
    }
done

# The same document posted to both nodes: whichever node does not own
# its route key must relay it to the owner and mark the relay with
# X-Fepiad-Forwarded — exactly one of the two responses carries it.
echo "smoke: owner forwarding + response meta"
curl -fsS -D "$TMP/head-a.txt" -X POST -H "Content-Type: application/json" \
    --data-binary @"$TMP/spec.json" "$BASE_A/v1/analyze" >"$TMP/res-a.json"
curl -fsS -D "$TMP/head-b.txt" -X POST -H "Content-Type: application/json" \
    --data-binary @"$TMP/spec.json" "$BASE_B/v1/analyze" >"$TMP/res-b.json"
for res in "$TMP/res-a.json" "$TMP/res-b.json"; do
    for field in '"robustness"' '"meta"' '"node"' '"cache"'; do
        grep -qF "$field" "$res" || {
            echo "smoke: ring analysis missing $field in $res" >&2
            cat "$res" >&2
            exit 1
        }
    done
done
forwarded=$(cat "$TMP/head-a.txt" "$TMP/head-b.txt" | grep -ci '^X-Fepiad-Forwarded: true' || true)
if [ "$forwarded" != 1 ]; then
    echo "smoke: expected exactly one forwarded response, saw $forwarded" >&2
    cat "$TMP/head-a.txt" "$TMP/head-b.txt" >&2
    exit 1
fi
grep -qi '^X-Fepiad-Node:' "$TMP/head-a.txt" || {
    echo "smoke: response missing X-Fepiad-Node header" >&2
    cat "$TMP/head-a.txt" >&2
    exit 1
}
grep -qF '"forwarded": true' "$TMP/res-a.json" "$TMP/res-b.json" || {
    echo "smoke: neither ring response carries meta.forwarded" >&2
    cat "$TMP/res-a.json" "$TMP/res-b.json" >&2
    exit 1
}

# The forwarded request's ingress holds ONE stitched trace: its own
# forward span plus the owning node's server/pipeline spans, annotated
# with the remote node ID (docs/OBSERVABILITY.md, "Cross-node traces").
echo "smoke: cross-node trace stitching"
if grep -qi '^X-Fepiad-Forwarded: true' "$TMP/head-a.txt"; then
    INGRESS="$BASE_A"; REMOTE="b"
else
    INGRESS="$BASE_B"; REMOTE="a"
fi
curl -fsS "$INGRESS/debug/traces" >"$TMP/ring-traces.json"
for field in '"name": "forward"' '"name": "server"' "\"node\": \"$REMOTE\"" '"peer"'; do
    grep -qF "$field" "$TMP/ring-traces.json" || {
        echo "smoke: ingress /debug/traces missing remote span marker: $field" >&2
        cat "$TMP/ring-traces.json" >&2
        exit 1
    }
done

echo "smoke: GET /v1/cluster/status"
curl -fsS "$INGRESS/v1/cluster/status" >"$TMP/cluster.json"
for field in '"nodes_total": 2' '"nodes_healthy": 2' '"node": "a"' '"node": "b"' '"ring_share"'; do
    grep -qF "$field" "$TMP/cluster.json" || {
        echo "smoke: /v1/cluster/status missing: $field" >&2
        cat "$TMP/cluster.json" >&2
        exit 1
    }
done

echo "smoke: GET /metrics?federate=1"
curl -fsS "$INGRESS/metrics?federate=1" >"$TMP/federated.txt"
# Three analyze requests fleet-wide: one per POST on its ingress, plus
# the forwarded copy the owner served.
for series in \
    "fepiad_federation_peer_up{peer=\"$REMOTE\"} 1" \
    'fepiad_requests_total{endpoint="analyze"} 3'; do
    grep -qF "$series" "$TMP/federated.txt" || {
        echo "smoke: federated /metrics missing: $series" >&2
        cat "$TMP/federated.txt" >&2
        exit 1
    }
done

kill -TERM "$RING_A_PID" "$RING_B_PID"
wait "$RING_A_PID" "$RING_B_PID" || {
    echo "smoke: ring node exited non-zero on SIGTERM" >&2
    cat "$TMP/ring-a.log" "$TMP/ring-b.log" >&2
    exit 1
}

# Restart persistence: boot with -snapshot-path, warm the cache with one
# analysis (a miss), SIGTERM (the drain writes the snapshot), reboot on
# the same path — the very first request of the new process must be
# served warm: meta reports "cache": "hit", and the snapshot counters
# show on both observability surfaces (docs/SERVICE.md, "Persistence &
# anytime responses").
echo "smoke: snapshot restart"
PORT_R=$((PORT + 3))
BASE_R="http://127.0.0.1:$PORT_R"
SNAP="$TMP/cache.snap"
"$TMP/fepiad" -addr "127.0.0.1:$PORT_R" -snapshot-path "$SNAP" -log-format text >"$TMP/restart-1.log" 2>&1 &
SERVER_PID=$!
ok=0
for _ in $(seq 1 50); do
    if curl -fsS "$BASE_R/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
[ "$ok" = 1 ] || { echo "smoke: snapshot node never became healthy" >&2; cat "$TMP/restart-1.log" >&2; exit 1; }
curl -fsS -X POST -H "Content-Type: application/json" \
    --data-binary @"$TMP/spec.json" "$BASE_R/v1/analyze" >"$TMP/warm.json"
grep -qF '"cache": "miss"' "$TMP/warm.json" || {
    echo "smoke: first-life request should be a cold miss" >&2
    cat "$TMP/warm.json" >&2
    exit 1
}
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "smoke: snapshot node exited non-zero on SIGTERM" >&2; cat "$TMP/restart-1.log" >&2; exit 1; }
[ -s "$SNAP" ] || { echo "smoke: drain wrote no snapshot at $SNAP" >&2; cat "$TMP/restart-1.log" >&2; exit 1; }
grep -q 'cache snapshot written' "$TMP/restart-1.log" || {
    echo "smoke: no snapshot-written log line on drain" >&2
    cat "$TMP/restart-1.log" >&2
    exit 1
}

"$TMP/fepiad" -addr "127.0.0.1:$PORT_R" -snapshot-path "$SNAP" -log-format text >"$TMP/restart-2.log" 2>&1 &
SERVER_PID=$!
ok=0
for _ in $(seq 1 50); do
    if curl -fsS "$BASE_R/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
[ "$ok" = 1 ] || { echo "smoke: restarted node never became healthy" >&2; cat "$TMP/restart-2.log" >&2; exit 1; }
curl -fsS -X POST -H "Content-Type: application/json" \
    --data-binary @"$TMP/spec.json" "$BASE_R/v1/analyze" >"$TMP/rewarm.json"
grep -qF '"cache": "hit"' "$TMP/rewarm.json" || {
    echo "smoke: first post-restart request was not served from the snapshot" >&2
    cat "$TMP/rewarm.json" "$TMP/restart-2.log" >&2
    exit 1
}
curl -fsS "$BASE_R/metrics" | grep -q '^fepiad_snapshot_loads_total 1' || {
    echo "smoke: /metrics missing fepiad_snapshot_loads_total 1 after warm boot" >&2
    exit 1
}
curl -fsS "$BASE_R/debug/vars" >"$TMP/vars-restart.json"
grep -qF '"name":"fepiad_snapshot_loads_total"' "$TMP/vars-restart.json" || {
    echo "smoke: /debug/vars missing fepiad_snapshot_loads_total" >&2
    exit 1
}
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "smoke: restarted node exited non-zero on SIGTERM" >&2; cat "$TMP/restart-2.log" >&2; exit 1; }
SERVER_PID=""

echo "smoke: OK"
