#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload sim-spatial --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and daemon stores stay under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/work"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/dspatch-benchmark" .)
exec "$out/dspatch-benchmark" --workdir "$out/work" --src "$root" "$@"
