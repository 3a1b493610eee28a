#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the chunk server: build the CLI,
# archive a synthetic video, start `videoapp serve` on an ephemeral port,
# fetch the index and one decoded chunk (asserting HTTP 200 and sane
# bodies), read on sequentially and require that readahead warmed the
# reader (serve_prefetch_useful), then SIGINT the server and require a clean
# drained exit. `serve -archive FILE` serves the file under its basename,
# exactly as `serve -archive-dir DIR` does: a second pass serves a directory
# holding the same file, requires that two non-sequential reads of the fresh
# server trigger no readahead at all, requires byte-identical chunk bodies
# from both forms, and has a SIGHUP rescan pick up a new archive live.
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

fetch() { # fetch URL OUT — fails on non-2xx
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -o "$2" "$1"
    else
        wget -q -O "$2" "$1"
    fi
}

counter() { # counter NAME — sum of the named counter over its labels in $tmp/metrics.txt
    awk -v n="$1" '$1 == "counter" && $2 == n { s += $NF } END { print s + 0 }' "$tmp/metrics.txt"
}

echo "== build"
$GO build -o "$tmp/videoapp" ./cmd/videoapp

echo "== archive"
"$tmp/videoapp" -frames 16 -gop 4 -w 96 -h 64 -chunk-gops 1 -o "$tmp/t.vacs" archive

echo "== serve"
"$tmp/videoapp" -archive "$tmp/t.vacs" -addr 127.0.0.1:0 serve >"$tmp/serve.log" 2>&1 &
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

echo "== index"
fetch "$url/v1/archives/t" "$tmp/index.json"
grep -q '"chunks":4' "$tmp/index.json" || { echo "unexpected index:"; cat "$tmp/index.json"; exit 1; }

echo "== chunk 0"
fetch "$url/v1/archives/t/chunks/0" "$tmp/chunk0.y4m"
head -c 9 "$tmp/chunk0.y4m" | grep -q 'YUV4MPEG' || { echo "chunk 0 is not y4m"; exit 1; }
[ "$(wc -c <"$tmp/chunk0.y4m")" -gt 1000 ] || { echo "chunk 0 implausibly small"; exit 1; }

echo "== readahead warms a sequential reader"
for i in 1 2; do
    # Chunk $i is being warmed behind the response to chunk $((i - 1)); a
    # reader that overtook the load would decode it itself.
    for _ in $(seq 1 100); do
        fetch "$url/metrics" "$tmp/metrics.txt"
        [ "$(counter serve_prefetch_issued)" -ge "$i" ] && break
        sleep 0.1
    done
    fetch "$url/v1/archives/t/chunks/$i" "$tmp/chunk$i.y4m"
done
fetch "$url/metrics" "$tmp/metrics.txt"
[ "$(counter serve_prefetch_useful)" -ge 1 ] \
    || { echo "chunks 0, 1, 2 read in order and no readahead was useful:"; cat "$tmp/metrics.txt"; exit 1; }

echo "== the removed single-archive routes are gone"
for path in /v1/archive /v1/chunks/0 /v1/chunks/0/meta; do
    if fetch "$url$path" "$tmp/legacy.out" 2>/dev/null; then
        echo "$path still answers 2xx"; exit 1
    fi
done

echo "== metrics"
fetch "$url/metrics" "$tmp/metrics.txt"
grep -q 'serve_chunk_decodes' "$tmp/metrics.txt" || { echo "metrics missing decode counter"; exit 1; }

echo "== shutdown"
kill -INT "$pid"
if ! wait "$pid"; then
    echo "server exited non-zero:"; cat "$tmp/serve.log"; exit 1
fi
grep -q 'server drained' "$tmp/serve.log" || { echo "no drained message:"; cat "$tmp/serve.log"; exit 1; }
pid=""

echo "== catalog: serve -archive-dir"
mkdir "$tmp/archives"
cp "$tmp/t.vacs" "$tmp/archives/t.vacs"
cp "$tmp/t.vacs" "$tmp/archives/beta.vacs"
"$tmp/videoapp" -archive-dir "$tmp/archives" -addr 127.0.0.1:0 serve >"$tmp/catalog.log" 2>&1 &
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

echo "== catalog listing"
fetch "$url/v1/archives" "$tmp/archives.json"
grep -q '"name":"t"' "$tmp/archives.json" || { echo "listing missing t:"; cat "$tmp/archives.json"; exit 1; }
grep -q '"name":"beta"' "$tmp/archives.json" || { echo "listing missing beta:"; cat "$tmp/archives.json"; exit 1; }

echo "== non-sequential reads trigger no readahead"
fetch "$url/v1/archives/t/chunks/3" "$tmp/dir3.y4m"
fetch "$url/v1/archives/t/chunks/1" "$tmp/dir1.y4m"
sleep 0.5 # a wrongly queued load of this size lands in milliseconds
fetch "$url/metrics" "$tmp/metrics.txt"
[ "$(counter serve_prefetch_issued)" -eq 0 ] \
    || { echo "chunk 3 then chunk 1 of a fresh server issued readahead:"; cat "$tmp/metrics.txt"; exit 1; }

echo "== named chunk route"
fetch "$url/v1/archives/beta/chunks/0" "$tmp/beta0.y4m"
head -c 9 "$tmp/beta0.y4m" | grep -q 'YUV4MPEG' || { echo "beta chunk 0 is not y4m"; exit 1; }

echo "== -archive and -archive-dir serve the same file the same"
fetch "$url/v1/archives/t/chunks/0" "$tmp/dir0.y4m"
cmp -s "$tmp/chunk0.y4m" "$tmp/dir0.y4m" \
    || { echo "/v1/archives/t/chunks/0 differs between serve -archive and serve -archive-dir"; exit 1; }

echo "== SIGHUP rescan picks up a new archive"
cp "$tmp/t.vacs" "$tmp/archives/gamma.vacs"
kill -HUP "$pid"
found=""
for _ in $(seq 1 100); do
    fetch "$url/v1/archives" "$tmp/archives.json" || true
    if grep -q '"name":"gamma"' "$tmp/archives.json"; then found=1; break; fi
    sleep 0.1
done
[ -n "$found" ] || { echo "rescan never picked up gamma:"; cat "$tmp/archives.json"; exit 1; }
fetch "$url/v1/archives/gamma/chunks/0" "$tmp/gamma0.y4m"
head -c 9 "$tmp/gamma0.y4m" | grep -q 'YUV4MPEG' || { echo "gamma chunk 0 is not y4m"; exit 1; }

echo "== catalog metrics"
fetch "$url/metrics" "$tmp/metrics.txt"
grep -q 'serve_catalog_open_archives' "$tmp/metrics.txt" \
    || { echo "metrics missing open-archives gauge:"; cat "$tmp/metrics.txt"; exit 1; }

echo "== catalog shutdown"
kill -INT "$pid"
if ! wait "$pid"; then
    echo "catalog server exited non-zero:"; cat "$tmp/catalog.log"; exit 1
fi
grep -q 'server drained' "$tmp/catalog.log" || { echo "no drained message:"; cat "$tmp/catalog.log"; exit 1; }
pid=""
echo "serve smoke OK"
