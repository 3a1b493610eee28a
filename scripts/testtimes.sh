#!/usr/bin/env bash
# testtimes.sh — where the test suite's time goes: one uncached `go test`
# run of the packages (default ./...), then its wall time, each package's
# wall time and the 15 slowest top-level tests. Uses only the go tool, sort
# and awk. Exits with go test's status.
#
# Usage: scripts/testtimes.sh [go test flags...] [packages...]
#
# Arguments go to go test unchanged, so flags may precede the packages; name
# the packages whenever a flag is given (./... is only the default of an
# empty argument list). The race suite of make check and CI (which also
# shuffles the test order):
#
#   scripts/testtimes.sh -race ./...
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- ./...

log=$(mktemp)
trap 'rm -f "$log"' EXIT
start=$EPOCHREALTIME
status=0
go test -count=1 -json "$@" >"$log" || status=$?
end=$EPOCHREALTIME

# times KIND prints "seconds result name" for every finished package (P) or
# top-level test (T) of the run, slowest first.
times() {
	awk -v kind="$1" '/"Action":"(pass|fail)"/ {
		pkg = $0; sub(/.*"Package":"/, "", pkg); sub(/".*/, "", pkg)
		secs = $0; sub(/.*"Elapsed":/, "", secs); sub(/[,}].*/, "", secs)
		res = /"Action":"fail"/ ? "FAIL" : "ok"
		if (!/"Test":/) {
			if (kind == "P") printf "%8.2f  %-4s  %s\n", secs, res, pkg
			next
		}
		test = $0; sub(/.*"Test":"/, "", test); sub(/".*/, "", test)
		if (kind == "T" && test !~ /\//) printf "%8.2f  %-4s  %s %s\n", secs, res, pkg, test
	}' "$log" | sort -rn
}

awk -v start="$start" -v end="$end" 'BEGIN { printf "wall %.2f s\n", end - start }'
echo "packages (s):"
times P
echo "slowest tests (s):"
times T | awk 'NR <= 15'
exit "$status"
