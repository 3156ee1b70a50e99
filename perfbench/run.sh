#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.  Run it
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload rr --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the trace files of --trace 1 runs
# all go under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
