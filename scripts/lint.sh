#!/usr/bin/env bash
# lint.sh — the repo's lint gate: staticcheck (pinned) plus vetvideoapp, the
# project-specific invariant suite in internal/analysis, and with it the
# grep that keeps `// Deprecated:` markers out of the tree and the check that
# every package holding a *_amd64.s is on the Makefile's purego line.
#
# Usage: lint.sh [staticcheck|vetvideoapp|all]   (default: all)
#
# staticcheck resolution order:
#   1. a staticcheck binary on PATH (any provenance — used as-is),
#   2. the pinned module version via `go run` (needs the module proxy),
#   3. offline (no binary, no proxy): warn and skip, so air-gapped dev
#      machines still pass `make check`; CI has network and enforces.
#
# vetvideoapp has no such ladder: it is part of this module, needs nothing
# beyond the go tool, and always runs — offline machines get the full
# invariant gate even when staticcheck is skipped.
set -uo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
MODE=${1:-all}

# The one place the staticcheck version is pinned.
STATICCHECK_VERSION=2025.1

run_staticcheck() {
    if command -v staticcheck >/dev/null 2>&1; then
        echo "== staticcheck ($(command -v staticcheck))"
        staticcheck ./...
        return $?
    fi
    echo "== staticcheck (go run honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION)"
    local out status
    out=$($GO run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./... 2>&1)
    status=$?
    if [ $status -eq 0 ]; then
        [ -n "$out" ] && echo "$out"
        return 0
    fi
    # Distinguish analyzer findings from an unreachable module proxy:
    # findings must fail the build, a missing network must not.
    if echo "$out" | grep -qiE 'dial tcp|no such host|connection refused|i/o timeout|proxy.*(unreachable|refused|timeout)|cannot query module|missing go.sum entry|GOPROXY=off'; then
        echo "warning: staticcheck not installed and module proxy unreachable; skipping staticcheck" >&2
        return 0
    fi
    echo "$out"
    return $status
}

run_vetvideoapp() {
    local status=0
    # Reuse a prebuilt driver when present (go build -o bin/vetvideoapp
    # ./cmd/vetvideoapp); otherwise `go run` builds it from the module.
    if [ -x bin/vetvideoapp ]; then
        echo "== vetvideoapp (bin/vetvideoapp)"
        ./bin/vetvideoapp ./... || status=1
    else
        echo "== vetvideoapp (go run ./cmd/vetvideoapp)"
        $GO run ./cmd/vetvideoapp ./... || status=1
    fi
    # Every assembly kernel has a tested portable twin: a package holding a
    # *_amd64.s must be on the `make purego` line, which runs its suite
    # without the assembly.
    local purego asmdir
    purego=" $(grep -E '^[[:space:]]+\$\(GO\) test -tags purego' Makefile | grep -oE '\./[^ ]+' | tr '\n' ' ')"
    for asmdir in $(find . -name '*_amd64.s' -not -path './bench/*' -exec dirname {} \; | sort -u); do
        case "$purego" in
        *" $asmdir "*) ;;
        *)
            echo "error: $asmdir holds assembly but is missing from the Makefile's purego target" >&2
            status=1
            ;;
        esac
    done
    # Zero deprecated names: superseded API is deleted, never parked behind
    # a marker. A literal comment line, so a grep is the whole check.
    if grep -rnE --include='*.go' '^[[:space:]]*(//|/\*)[[:space:]]*Deprecated:' .; then
        echo "error: Deprecated: marker(s) above; this module guarantees zero deprecated names — remove the shim or redesign the migration" >&2
        status=1
    fi
    return $status
}

fail=0
case "$MODE" in
staticcheck)
    run_staticcheck || fail=1
    ;;
vetvideoapp)
    run_vetvideoapp || fail=1
    ;;
all)
    run_staticcheck || fail=1
    run_vetvideoapp || fail=1
    ;;
*)
    echo "usage: lint.sh [staticcheck|vetvideoapp|all]" >&2
    exit 2
    ;;
esac
exit $fail
