#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments
# from the root of the repository, e.g.
#
#   bash cwbench/bench.sh --workload cold-start --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/cwbench" && go build -o "$out/cwbench" .)
cd "$root"
exec "$out/cwbench" "$@"
