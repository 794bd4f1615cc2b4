#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set): the Go build cache and temporary files,
# the go command's configuration (which it keeps under $XDG_CONFIG_HOME,
# with telemetry turned off), the binary, and the per-run archive
# stores. Nothing is downloaded: the benchmark has no dependencies
# outside this repository.
#
#   bash bench/run.sh --workload suite-exact --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-tmp" "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/powerfits-bench" .
exec "$out/powerfits-bench" -work "$out/work" "$@"
