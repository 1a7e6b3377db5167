#!/usr/bin/env bash
# Builds fepiad and the benchmark program from the checkout this script
# lives in, then runs one workload:
#
#   bash perfbench/run.sh --workload analyze_warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout, the Go build cache included. Build output goes to
# stderr; the last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$out/bin/fepiad" ./cmd/fepiad) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -fepiad "$out/bin/fepiad" -out "$out/perfbench" "$@"
