#!/usr/bin/env bash
# loc.sh — Go line counts of the program, the size figure a change quotes
# before and after: non-test and test lines of every .go file outside bench/
# (the benchmark module) and testdata/ directories (fixtures and corpora).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# count FIND-NAME-TEST... prints the line total of the matching .go files.
count() {
    find . \( -path ./bench -o -path ./.git -o -path ./.bench_build -o -name testdata \) -prune \
        -o -name '*.go' "$@" -print0 | xargs -0 cat | wc -l | tr -d ' '
}

echo "non-test $(count ! -name '*_test.go')"
echo "test     $(count -name '*_test.go')"
