#!/usr/bin/env bash
# ledger_pairs.sh PARENT_REF WORKLOAD [PAIRS] — interleaved parent/change
# runs of one workload of the performance ledger, then the ledger's own
# comparison: what a change that claims a gain has to show.
#
#	scripts/ledger_pairs.sh HEAD~1 montecarlo        # 10 pairs
#	scripts/ledger_pairs.sh 166d1d6 serve_cold 12
#
# The change is the working tree this script sits in; the parent is
# `git archive PARENT_REF` unpacked beside the results (a plain copy: nothing
# is registered in .git, nothing to prune afterwards). Each side builds its
# own benchmark from its own bench/ through its own bench/run.sh, untraced,
# at the run length BENCHMARK.json fixes. Pair i runs seed i on both sides
# and alternates which side goes first; the last pair runs the hold-out seed
# 20260929, which no change was tuned on. Results land in
# $LEDGER_OUT (default bench/out/pairs-WORKLOAD)/{parent,change}; every run
# made is in the final table. Then the change runs every workload of
# BENCHMARK.json once traced (--trace 1), as the ledger itself does: only a
# traced run executes the layer probes, and the untraced pairs never reach
# them. The exit status is 1 when any end-to-end metric regressed, a run
# was incorrect, or a traced run failed (logs in $LEDGER_OUT/traced).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
holdout=20260929

root=$(cd "$(dirname "$0")/.." && pwd)
out=${LEDGER_OUT:-$root/bench/out/pairs-$workload}
rm -rf "$out"
mkdir -p "$out/parent-src" "$out/parent" "$out/change" "$out/traced"
git -C "$root" archive "$ref" | tar -x -C "$out/parent-src"

run() { # side seed
	local src=$root
	[ "$1" = parent ] && src=$out/parent-src
	bash "$src/bench/run.sh" --workload "$workload" --seed "$2" --trace 0 --out "$out/$1" >"$out/$1/log-s$2.txt" 2>&1 ||
		echo "$1 seed $2: run failed, see $out/$1/log-s$2.txt" >&2
}

for i in $(seq 1 "$pairs"); do
	seed=$i
	[ "$i" -eq "$pairs" ] && seed=$holdout
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$seed"
		run change "$seed"
	else
		run change "$seed"
		run parent "$seed"
	fi
	echo "pair $i/$pairs (seed $seed) done" >&2
done

status=0
bash "$root/bench/run.sh" compare "$out/parent" "$out/change" || status=1

# The workload names of BENCHMARK.json: its "workloads" array, up to the
# array's closing bracket.
workloads=$(awk '/"workloads"/ { w = 1 } w && /"name"/ { gsub(/[",]/, "", $2); print $2 } w && /^  \]/ { w = 0 }' "$root/BENCHMARK.json")
for w in $workloads; do
	if bash "$root/bench/run.sh" --workload "$w" --seed 1 --trace 1 --out "$out/traced" >"$out/traced/log-$w.txt" 2>&1; then
		echo "change $w --trace 1: ok" >&2
	else
		echo "change $w --trace 1: run failed, see $out/traced/log-$w.txt" >&2
		status=1
	fi
done
exit $status
