#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the repository root: bash bench/run.sh --workload batch_sparse
# --seed 1 --seconds 10 --trace 0. Everything the build and the run write
# stays under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
# The go command would otherwise write its build cache, its telemetry
# counters and its environment file under $HOME.
export GOCACHE="$out/go-cache" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
XDG_CONFIG_HOME="$out/config" go build -o "$out/isasgd-bench" ./bench
exec "$out/isasgd-bench" "$@"
