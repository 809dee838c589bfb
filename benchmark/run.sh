#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build the benchmark from source
# inside the checkout, then run it with the caller's arguments
# (--workload NAME --seed N --seconds S --trace 0|1). Everything the Go
# toolchain writes (build cache, scratch, config) is pointed under
# .bench_build, so a run touches nothing outside the checkout.
#
# No process outlives this script: in a directory without the
# repository's go.mod it fails before the toolchain is started at all,
# and the toolchain's telemetry is switched off in the private config
# directory first (with a fresh config directory `go` would otherwise
# detach an upload sidecar that is still running when the build ends).
# The benchmark itself replaces this shell (exec) and waits for every
# child it starts.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program to measure is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
