#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from the sources of this
# checkout and run it. Everything the build writes (Go build cache, binary)
# stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/paredbench" ./bench
exec "$build/paredbench" "$@"
