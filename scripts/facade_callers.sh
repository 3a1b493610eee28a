#!/usr/bin/env bash
# facade_callers.sh — lists the exported names of the public facade
# (videoapp.go, stream.go) that no code outside the tests uses: no non-test
# file of the root package names them (their declaration aside), and none
# under cmd/ or bench/ selects them (`videoapp.Name`, or `.Name` for a
# method). A name only a test or an example uses has no caller yet.
#
# Usage: facade_callers.sh [--check]
#
# --check compares the list with scripts/facade_allow.txt ("Name reason",
# one a line) and exits 1 when a listed name is not allowed or an allowed
# name has a caller again, so a name without a caller is either given one,
# deleted, or kept with its reason written down.
set -euo pipefail
cd "$(dirname "$0")/.."

facade=(videoapp.go stream.go)

# names prints every exported name the facade declares, each with the
# pattern a caller outside the root package selects it by: a method by
# `.Name(`; a function and the members of the type, var and const
# declarations by `videoapp.Name`.
names() {
    sed -nE 's/^func \([^)]*\) ([A-Z][A-Za-z0-9_]*)\(.*/\1 \\.\1\\(/p' "${facade[@]}"
    {
        sed -nE 's/^func ([A-Z][A-Za-z0-9_]*)\(.*/\1/p' "${facade[@]}"
        sed -nE 's/^(type|var|const) ([A-Z][A-Za-z0-9_]*) .*/\2/p' "${facade[@]}"
        awk '/^(type|var|const) \($/ { g = 1; next } /^\)/ { g = 0 } g && /^\t[A-Z]/ { print $1 }' "${facade[@]}"
    } | sed -E 's/.*/& \\bvideoapp\\.&\\b/'
}

# code prints the non-comment lines of the non-test .go files matching the
# find arguments.
code() {
    find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
        xargs -0 cat | grep -vE '^[[:space:]]*//' || true
}

root=$(code . -maxdepth 1)
outside=$(code cmd bench)

uncalled=()
while read -r name selector; do
    decl="^(func (\([^)]*\) )?$name\(|(type|var|const) $name |	$name +=)"
    if grep -E "(^|[^.[:alnum:]_])$name([^[:alnum:]_]|$)" <<<"$root" | grep -qvE "$decl"; then
        continue
    fi
    if grep -qE "$selector" <<<"$outside"; then
        continue
    fi
    uncalled+=("$name")
done < <(names | sort -u)

if [ "${1:-}" != --check ]; then
    printf '%s\n' "${uncalled[@]}"
    exit 0
fi

status=0
allowed=$(grep -vE '^[[:space:]]*(#|$)' scripts/facade_allow.txt | awk '{ print $1 }')
for name in "${uncalled[@]}"; do
    if ! grep -qx "$name" <<<"$allowed"; then
        echo "error: facade name $name has no non-test caller; use it, delete it, or allow it with a reason in scripts/facade_allow.txt" >&2
        status=1
    fi
done
for name in $allowed; do
    if ! printf '%s\n' "${uncalled[@]}" | grep -qx "$name"; then
        echo "error: scripts/facade_allow.txt allows $name, which has a caller now (or is gone); drop the entry" >&2
        status=1
    fi
done
exit $status
