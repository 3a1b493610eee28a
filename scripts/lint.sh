#!/usr/bin/env bash
# lint.sh — the repo's lint gate: staticcheck plus vetvideoapp (the ctxfirst
# check in internal/analysis) and the greps beside it: every obs call site
# names a registered Stage*/Ctr*/Gauge* constant, no `// Deprecated:`
# markers, every package holding a *_amd64.s is on the Makefile's purego
# line, every test name the documents cite exists, no code outside bench/
# names the cache's shims, and every exported facade name has a non-test
# caller or an entry in scripts/facade_allow.txt.
#
# Usage: lint.sh [staticcheck|vetvideoapp|all]   (default: all)
#
# staticcheck runs when a binary is on PATH and is skipped with one notice
# otherwise, so the gate needs no network. CI installs the pinned version
# (.github/workflows/ci.yml) before `make check`. vetvideoapp and the greps
# need nothing beyond the go tool and always run.
set -uo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
MODE=${1:-all}

run_staticcheck() {
    if ! command -v staticcheck >/dev/null 2>&1; then
        echo "notice: no staticcheck on PATH; skipping it (CI installs the pinned version)" >&2
        return 0
    fi
    echo "== staticcheck ($(command -v staticcheck))"
    staticcheck ./...
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
    # One name per time series: outside internal/obs every stage, counter
    # and gauge name passed to an obs API is an obs.Stage*/Ctr*/Gauge*
    # constant, so a typo cannot split a series. Test files may name ad-hoc
    # metrics.
    if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=testdata --exclude-dir=obs \
        '\.(Counter|Gauge|FrameDone|StageStart|StageEnd)\(|obs\.StartSpan\(' . |
        grep -vE '\.(Counter|Gauge|FrameDone|StageStart|StageEnd)\(obs\.(Stage|Ctr|Gauge)[A-Za-z]+,|obs\.StartSpan\([^,()]+(\([^()]*\))?, obs\.Stage[A-Za-z]+\)'; then
        echo "error: obs call(s) above name a stage/counter/gauge by something other than an obs.Stage*/Ctr*/Gauge* constant; declare the constant in internal/obs and use it" >&2
        status=1
    fi
    # Every test the documents cite exists: a Test…, Benchmark…, Fuzz… or
    # Example… name in README.md, DESIGN.md or EXPERIMENTS.md is declared by
    # a _test.go file (not one under the ledger's build and output trees,
    # which may hold a copy of another commit). A trailing `*` names a family
    # and is not checked.
    local declared cited
    declared=$(grep -rhoE --include='*_test.go' --exclude-dir=.bench_build --exclude-dir=out '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)
    cited=$(grep -noE '\b(Test|Benchmark|Fuzz|Example)[A-Z_][A-Za-z0-9_]*\*?' README.md DESIGN.md EXPERIMENTS.md | grep -v '\*$' || true)
    while IFS=: read -r file line name; do
        if [ -n "$name" ] && ! grep -qx "$name" <<<"$declared"; then
            echo "error: $file:$line cites $name, which no _test.go file declares" >&2
            status=1
        fi
    done <<<"$cited"
    # The cache's shims keep their one caller: NewShardedHash, DefaultShards
    # and KeyedHash stay only for the ledger module (bench/), and no other
    # code may start naming them before ROADMAP 1(f) deletes them.
    if grep -rnwE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build 'NewShardedHash|DefaultShards|KeyedHash' . |
        grep -vE '^\./internal/cache/(cache|space)\.go:'; then
        echo "error: the line(s) above name a cache shim (NewShardedHash, DefaultShards, KeyedHash) outside bench/; build caches with cache.New — the shims go with ROADMAP 1(f)" >&2
        status=1
    fi
    # Every exported facade name has a non-test caller or a written reason.
    ./scripts/facade_callers.sh --check || status=1
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
