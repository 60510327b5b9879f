#!/usr/bin/env bash
# Same-host A/B comparison of two commits:
#
#   bash cwbench/ab.sh PARENT CHANGE [PAIRS] [SECONDS] [TRACE]
#
# Exports both commits with git archive under .bench_build/ab/, puts
# this checkout's cwbench/ into both trees so the two sides run
# identical benchmark code, then runs PAIRS pairs (default 10) of every
# workload for SECONDS each (default: run_seconds of BENCHMARK.json, the
# length the bounds were set on). The two runs of a pair share a seed,
# and the side that runs first alternates from pair to pair. With
# TRACE=1 the traced runs are compared instead (per-layer metrics); the
# traced run is the same whatever the workload, so it runs once per
# side and pair, under the cold-start name.
# Prints the comparator's table; exits 1 when a metric got worse.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
parent="$1"
change="$2"
pairs="${3:-10}"
secs="${4:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}"
trace="${5:-0}"
workloads="cold-start serve-hot"
[ "$trace" = 1 ] && workloads="cold-start"
ab="$root/.bench_build/ab"
rm -rf "$ab"
for side in parent change; do
  rev="$parent"
  [ "$side" = change ] && rev="$change"
  mkdir -p "$ab/$side/tree" "$ab/runs/$side"
  git -C "$root" archive "$rev" | tar -x -C "$ab/$side/tree"
  rm -rf "$ab/$side/tree/cwbench"
  cp -R "$root/cwbench" "$ab/$side/tree/cwbench"
done
runone() { # side workload seed
  bash "$ab/$1/tree/cwbench/bench.sh" --workload "$2" --seed "$3" --seconds "$secs" --trace "$trace" \
    >"$ab/runs/$1/$2-$3.txt" 2>>"$ab/runs/$1.log" || echo "run $1 $2 seed $3 failed" >&2
}
for wl in $workloads; do
  for i in $(seq 1 "$pairs"); do
    seed=$((1000 + i))
    if [ $((i % 2)) -eq 1 ]; then
      runone parent "$wl" "$seed"
      runone change "$wl" "$seed"
    else
      runone change "$wl" "$seed"
      runone parent "$wl" "$seed"
    fi
  done
done
"$ab/change/tree/.bench_build/cwbench" compare -bench "$root/BENCHMARK.json" \
  -parent "$ab/runs/parent" -change "$ab/runs/change"
