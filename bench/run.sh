#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache and
# temporary files included, so nothing is written outside the checkout) and
# runs it from the root of the checkout with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/bench" -o "$build/bench" .
# The results record the commit when the checkout is a git repository.
BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
cd "$root"
exec "$build/bench" "$@"
