#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# Go toolchain writes (build cache, binary) stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/benchmark" && go build -o "$build/gxbenchmark" .)
cd "$root"
exec "$build/gxbenchmark" -spec "$root/BENCHMARK.json" -workdir "$root/benchmark/out" "$@"
