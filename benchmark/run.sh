#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json):
#
#   bash benchmark/run.sh --workload q13_indexed --seed 7 --seconds 5 --trace 0
#
# It keeps everything the go toolchain writes — build cache, temporary
# files, the benchmark and gsqld binaries — under .bench_build/ in the
# checkout, compiles the benchmark package and runs it from the
# repository root with the arguments given, so relative paths such as
# -out results.json mean the same from wherever this script is called.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
go build -C benchmark -o "$root/.bench_build/benchmark" .
exec .bench_build/benchmark "$@"
