#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end smoke test of the fault-tolerant read path:
# build the CLI, archive a synthetic video, corrupt one stream payload byte,
# then serve the damaged archive under a seeded deterministic fault profile
# (transient read errors on top of the corruption). Every chunk must still
# serve with HTTP 200 — zero 5xx responses — with the damaged chunk flagged
# via the X-Videoapp-Degraded header and the serve_chunk_degraded counter.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

fetch_code() { # fetch_code URL HEADERS BODY — prints the HTTP status code
    if command -v curl >/dev/null 2>&1; then
        curl -sS -D "$2" -o "$3" -w '%{http_code}' "$1"
    else
        wget -q -S -O "$3" "$1" 2>"$2" || true
        sed -n 's/^ *HTTP\/[0-9.]* \([0-9][0-9][0-9]\).*/\1/p' "$2" | tail -n 1
    fi
}

echo "== build"
$GO build -o "$tmp/videoapp" ./cmd/videoapp

echo "== archive"
"$tmp/videoapp" -frames 16 -gop 4 -w 96 -h 64 -chunk-gops 1 -o "$tmp/t.vacs" archive

echo "== corrupt one stream payload byte"
size=$(wc -c <"$tmp/t.vacs")
off=$((size - 1)) # last byte = tail of the last chunk's final approximate stream
b=$(od -An -tu1 -j "$off" -N 1 "$tmp/t.vacs" | tr -d ' ')
printf "$(printf '\\%03o' $((b ^ 255)))" \
    | dd of="$tmp/t.vacs" bs=1 seek="$off" conv=notrunc 2>/dev/null

echo "== serve under seeded faults"
"$tmp/videoapp" -archive "$tmp/t.vacs" -addr 127.0.0.1:0 \
    -fault-profile "seed=7,transient=0.01" -read-retries 6 \
    serve >"$tmp/serve.log" 2>&1 &
pid=$!

url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's#^serving .* on \(http://[^ ]*\)$#\1#p' "$tmp/serve.log" | head -n 1)
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "server died:"; cat "$tmp/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo "server never reported its address:"; cat "$tmp/serve.log"; exit 1; }
echo "   up at $url"

echo "== fetch every chunk twice (cold + cached)"
errors=0
degraded=0
for pass in 1 2; do
    for i in 0 1 2 3; do
        code=$(fetch_code "$url/v1/archives/t/chunks/$i" "$tmp/h.txt" "$tmp/b.y4m")
        case "$code" in
        2??) ;;
        5??)
            echo "chunk $i pass $pass: HTTP $code"
            errors=$((errors + 1))
            ;;
        *)
            echo "chunk $i pass $pass: unexpected HTTP $code"
            errors=$((errors + 1))
            ;;
        esac
        if grep -qi '^x-videoapp-degraded:' "$tmp/h.txt"; then
            degraded=$((degraded + 1))
        fi
    done
done
[ "$errors" -eq 0 ] || { echo "$errors non-2xx chunk responses"; cat "$tmp/serve.log"; exit 1; }
[ "$degraded" -ge 1 ] || { echo "no degraded responses despite corruption"; exit 1; }
echo "   0 errors, $degraded degraded responses"

echo "== metrics"
code=$(fetch_code "$url/metrics" "$tmp/h.txt" "$tmp/metrics.txt")
[ "$code" = 200 ] || { echo "/metrics HTTP $code"; exit 1; }
grep -q 'serve_chunk_degraded' "$tmp/metrics.txt" \
    || { echo "metrics missing serve_chunk_degraded:"; cat "$tmp/metrics.txt"; exit 1; }

echo "== shutdown"
kill -INT "$pid"
if ! wait "$pid"; then
    echo "server exited non-zero:"; cat "$tmp/serve.log"; exit 1
fi
pid=""

echo "== catalog under the same faults"
mkdir "$tmp/archives"
cp "$tmp/t.vacs" "$tmp/archives/a.vacs"
cp "$tmp/t.vacs" "$tmp/archives/b.vacs"
"$tmp/videoapp" -archive-dir "$tmp/archives" -addr 127.0.0.1:0 \
    -fault-profile "seed=7,transient=0.01" -read-retries 6 \
    serve >"$tmp/catalog.log" 2>&1 &
pid=$!

url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's#^serving .* on \(http://[^ ]*\).*$#\1#p' "$tmp/catalog.log" | head -n 1)
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "catalog server died:"; cat "$tmp/catalog.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo "catalog server never reported its address:"; cat "$tmp/catalog.log"; exit 1; }
echo "   up at $url"

errors=0
degraded=0
for name in a b; do
    for i in 0 1 2 3; do
        code=$(fetch_code "$url/v1/archives/$name/chunks/$i" "$tmp/h.txt" "$tmp/b.y4m")
        case "$code" in
        2??) ;;
        *)
            echo "archive $name chunk $i: HTTP $code"
            errors=$((errors + 1))
            ;;
        esac
        if grep -qi '^x-videoapp-degraded:' "$tmp/h.txt"; then
            degraded=$((degraded + 1))
        fi
    done
done
[ "$errors" -eq 0 ] || { echo "$errors non-2xx catalog responses"; cat "$tmp/catalog.log"; exit 1; }
[ "$degraded" -ge 1 ] || { echo "no degraded catalog responses despite corruption"; exit 1; }
echo "   0 errors, $degraded degraded responses across 2 archives"

code=$(fetch_code "$url/metrics" "$tmp/h.txt" "$tmp/metrics.txt")
[ "$code" = 200 ] || { echo "/metrics HTTP $code"; exit 1; }
grep -q 'serve_catalog_open_archives' "$tmp/metrics.txt" \
    || { echo "metrics missing open-archives gauge:"; cat "$tmp/metrics.txt"; exit 1; }

echo "== catalog shutdown"
kill -INT "$pid"
if ! wait "$pid"; then
    echo "catalog server exited non-zero:"; cat "$tmp/catalog.log"; exit 1
fi
pid=""
echo "chaos smoke OK"
