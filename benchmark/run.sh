#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh [flags]
#
# Everything the go command writes (build cache, module cache, its own
# configuration) and everything the benchmark writes (profiles, traces)
# stays under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build, relative to the repository root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME=$out/home XDG_CONFIG_HOME=$out/home GOPATH=$out/home/go \
	GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS= \
	BENCH_BUILD_DIR=$out

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
