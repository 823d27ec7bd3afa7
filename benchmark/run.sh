#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark and the daemon it
# drives from this checkout's sources, then run one workload.
#
#   bash benchmark/run.sh --workload dense-static --seed 1 --seconds 20 --trace 0
#
# Build cache, binaries and scratch files all stay under .bench_build in
# the checkout; nothing is written anywhere else.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOWORK=off
go build -C benchmark -o "$build/bin/benchmark" .
go build -o "$build/bin/tvqd" ./cmd/tvqd
exec "$build/bin/benchmark" -tvqd "$build/bin/tvqd" -tmp "$build/tmp" "$@"
