#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run from the repository root:
#
#   bash bench/run.sh --workload cpuid --seed 1 --seconds 20 --trace 0
#
# The build and the go tool's caches live under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory, so the run reads and
# writes nothing outside the checkout except the Go toolchain itself.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off CGO_ENABLED=0

go -C bench build -o "$out/svtsim-bench" .
exec "$out/svtsim-bench" "$@"
