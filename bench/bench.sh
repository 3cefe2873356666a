#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds ./bench from source and runs it
# with the arguments given. Everything the build writes (build cache,
# temporary files, the binary) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
# One CPU, the last one (the first also serves the interrupts): work spread
# over two vCPUs of a shared host stalls whenever either is taken, and the
# reference kernel the timings are scaled by (calibrate.go) can only stand
# for the CPU it runs on. The slices a run forks inherit the pinning.
cpu=$(($(nproc) - 1))
if command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
	exec taskset -c "$cpu" "$build/bench" "$@"
fi
exec "$build/bench" "$@"
