#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark (a module of its own, see go.mod beside this file)
# from the checkout it lives in and runs it from the checkout's root. The Go
# build cache, the toolchain's temporary files, the built binaries and every
# daemon's state all go under <checkout>/.bench_build, so nothing is read or
# written outside the checkout. Developers can equally run
# `go run -C benchmark . <flags>` and use their own build cache.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C "$root/benchmark" -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
