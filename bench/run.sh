#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload shift-bursty --seed 42 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# at the root, so the run reads and writes nothing outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

# Build under a private name and rename, so a binary another run is
# executing is never overwritten in place.
go -C bench build -o "$build/bench.$$" .
mv -f "$build/bench.$$" "$build/bench"
exec "$build/bench" "$@"
