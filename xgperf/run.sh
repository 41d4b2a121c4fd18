#!/usr/bin/env bash
# Builds and runs the xgperf benchmark from the root of a checkout:
#
#   bash xgperf/run.sh --workload schema-churn --seed 1 --seconds 40 --trace 0
#
# The Go build cache, temporary build files and span dumps stay under
# .bench_build/ in the checkout. Outside a checkout (no module at ..) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local
exec go -C "$root/xgperf" run . --spans "$out/spans" "$@"
