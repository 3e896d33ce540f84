#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing all
# arguments through (see bench/README.md). Build outputs, the Go build
# cache and temporary files all live under .bench_build/ in the checkout,
# so a run writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
