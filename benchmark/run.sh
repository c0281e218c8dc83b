#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, temp files) and every
# socket the benchmark opens stays under ./.bench_build, so a run reads
# and writes nothing outside its checkout.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: run from the root of a checkout (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
