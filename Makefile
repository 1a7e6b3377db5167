GO ?= go

.PHONY: all build test race vet lint fmtcheck lintdoc checklinks bench microbench report reportcheck tier1 tier2 serve loadtest fuzz chaos poison smoke perfcheck

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint: go vet, the gofmt check and the exported-identifier doc-comment
# audit always; staticcheck when installed (CI installs it, local runs
# skip it gracefully rather than demand a tool download).
lint: vet fmtcheck lintdoc
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go vet ran)"; \
	fi

# fmtcheck: fail when gofmt would rewrite any Go file in the repository,
# listing the files.
fmtcheck:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "fmtcheck: gofmt -l lists files that are not gofmt-clean:"; \
		echo "$$out"; \
		exit 1; \
	fi

# lintdoc: fail when an exported identifier in the audited packages
# (internal/vecmath, internal/batch, internal/kernel, internal/core,
# internal/optimize, internal/convexfn, internal/spec) has no doc comment.
lintdoc:
	./scripts/lintdoc.sh

# checklinks: verify intra-repo markdown links in README.md and docs/
# resolve to existing files (CI docs job).
checklinks:
	./scripts/checklinks.sh

# Race-detector run over the whole module, with an explicit pass over the
# concurrent batch engine (worker pool + shared radius cache).
race:
	$(GO) test -race ./internal/batch/...
	$(GO) test -race ./...

# bench: the reproducible benchmark harness — pinned seeds, frozen
# single-mutex baseline vs the live sharded cache, SoA kernel vs the
# per-feature analytic loop, the loadgen-driven multi-node cluster
# series (warm-hit scaling at 3 in-process nodes, kill-a-node chaos
# story), the restart series (warm boot from a cache snapshot vs
# cold restart), and the incremental series (delta re-analysis session
# vs full recomputes along a trajectory). BENCH_10.json artifact with
# >=2x contended, >=4x kernel, >=3x incremental, >=2.2x cluster-scaling,
# and >=1.5x warm-boot-p99 gates plus byte-identity, zero-dropped, and
# first-request-hit checks (see cmd/bench, cmd/loadgen, and
# docs/PERFORMANCE.md).
bench:
	./scripts/bench.sh

# microbench: one pass over the go-test micro benchmarks.
microbench:
	$(GO) test -bench=. -benchtime=1x ./...

report:
	$(GO) run ./cmd/report

# reportcheck: the reproduction gate. Regenerate the full report and
# require it to equal the committed RESULTS.txt byte for byte (~5 s).
# A difference is a finding about the solver or the Go toolchain, not a
# cue to regenerate the file.
reportcheck:
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/report > "$$out" || exit 1; \
	diff -u RESULTS.txt "$$out" || { echo "reportcheck: go run ./cmd/report differs from RESULTS.txt"; exit 1; }

# serve: run the fepiad HTTP robustness-analysis service on :8080
# (see docs/SERVICE.md for the endpoint reference).
serve:
	$(GO) run ./cmd/fepiad

# loadtest: hammer a fepiad with generated report-style specs. By default
# it spins up its own in-process server; set LOADTEST_URL to target a
# running instance (e.g. one started with `make serve`).
LOADTEST_URL ?=
loadtest:
ifeq ($(LOADTEST_URL),)
	$(GO) run ./cmd/loadgen -self -n 2000 -c 32 -batch 8
else
	$(GO) run ./cmd/loadgen -url $(LOADTEST_URL) -n 2000 -c 32 -batch 8
endif

# fuzz: a bounded fuzzing smoke (CI runs this) over the request decoders
# (FuzzParse, FuzzParseBatch, FuzzWatchRequest: the fast path must agree
# with encoding/json on verdict, value and error bytes), the response
# encoder (FuzzAppendResult: byte-identical to json.Encoder), the
# retryable-error classifier, the cache-snapshot decoder, the radius
# cache against a reference model of its shard (FuzzCacheModel: counts,
# lookups, LRU order and retained bytes must agree after every
# operation, and an unfingerprinted impact is never cached), the peer
# trace decoders (FuzzParseTraceHeader for X-Fepiad-Trace,
# FuzzStitchSpans for the X-Fepiad-Spans export stitched into a trace),
# the trace record stream against a reference model of per-span structs
# (FuzzTraceRecords: every rendering must be the same JSON), and the
# federated metrics merge (FuzzRegistrySnapshotMerge: a peer's
# /v1/cluster/metrics document merged and rendered must never panic).
fuzz:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/spec
	$(GO) test -fuzz='^FuzzParseBatch$$' -fuzztime=30s ./internal/spec
	$(GO) test -fuzz='^FuzzWatchRequest$$' -fuzztime=30s ./internal/spec
	$(GO) test -fuzz='^FuzzAppendResult$$' -fuzztime=30s ./internal/spec
	$(GO) test -fuzz=FuzzRetryable -fuzztime=30s ./internal/faults
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=30s ./internal/batch
	$(GO) test -fuzz='^FuzzCacheModel$$' -fuzztime=30s ./internal/batch
	$(GO) test -fuzz='^FuzzParseTraceHeader$$' -fuzztime=30s ./internal/obs
	$(GO) test -fuzz='^FuzzTraceRecords$$' -fuzztime=30s ./internal/obs
	$(GO) test -fuzz='^FuzzRegistrySnapshotMerge$$' -fuzztime=30s ./internal/obs
	$(GO) test -fuzz='^FuzzStitchSpans$$' -fuzztime=30s ./internal/server

# chaos: the seeded fault-injection suite under the race detector —
# injected errors/panics/latency/cancels through the batch engine, the
# radius cache under concurrent eviction, breaker transitions, degraded
# serving, and the cluster kill-a-node story (a peer dies mid-run and
# every request still answers). Set FEPIA_CHAOS_SEED=<n> to pin the
# seeded schedule when reproducing a failure.
chaos:
	$(GO) test -race -run 'Chaos|Breaker|Degraded|Fault|Retry|Cluster' ./internal/faults ./internal/batch ./internal/server ./internal/cluster

# poison: the request-workspace lifetime check. Built with the
# fepia_poison tag, a released workspace (internal/spec.Workspace, the
# pooled memory of one /v1/analyze or /v1/batch request) is overwritten
# with NaN and junk, and every new slab array starts as junk. The whole
# server suite must still answer byte for byte, and the decoders must
# still agree with encoding/json through fresh and reused workspaces: a
# value kept past its request, or a slot read before it is written,
# shows up as a failure.
poison:
	$(GO) test -tags fepia_poison ./internal/server ./internal/spec
	$(GO) test -tags fepia_poison -run '^$$' -fuzz='^FuzzParse$$' -fuzztime=15s ./internal/spec
	$(GO) test -tags fepia_poison -run '^$$' -fuzz='^FuzzParseBatch$$' -fuzztime=15s ./internal/spec
	$(GO) test -tags fepia_poison -run '^$$' -fuzz='^FuzzWorkspaceReuse$$' -fuzztime=15s ./internal/spec

# smoke: boot a real fepiad, drive one analysis, and curl the
# observability endpoints (/metrics, /debug/vars, /debug/traces).
smoke:
	./scripts/smoke.sh

# perfcheck: vet the perfbench module and run each of its workloads for
# one second, once with tracing off and once with it on. Only the exit
# code counts: every answer passes the Eq. 6 oracle and the /metrics
# cross-checks hold; the traced run also replays with spans on, adds the
# side passes over core, kernel, optimize and Watcher.Step, and checks
# that the traced and untraced replays agree on cache counts. No timing
# is gated. perfbench is its own module, so `go build ./...` never
# builds it; this is what notices a change that breaks it.
PERF_WORKLOADS = analyze_warm batch_cold_linear convex_zipf watch_linear
perfcheck:
	cd perfbench && $(GO) vet .
	for w in $(PERF_WORKLOADS); do \
		for t in 0 1; do \
			bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace $$t || exit 1; \
		done; \
	done

# tier1: the gate every change must keep green.
tier1: build test

# tier2: static analysis plus the race detector across the module.
tier2: vet race
