#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload object-rw --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporaries,
# the binary, WAL journals) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/run" "$@"
