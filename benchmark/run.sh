#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload scale-matmul --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. The build and everything the run writes
# stay under .bench_build/ in the current directory: the Go build cache, the
# binary, the results files and the traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export CGO_ENABLED=0

go -C benchmark build -o "$build/cashmere-benchmark" .
exec "$build/cashmere-benchmark" "$@"
