#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it, keeping
# every build product under .bench_build/ at the checkout root.
#
#   bash smpssperf/run.sh --workload cholesky --seed 1 --seconds 20 --trace 0
#
# Flags are passed through to the benchmark; see smpssperf/METRICS.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/smpssperf" && go build -o "$build/smpssperf" .)
exec "$build/smpssperf" "$@"
