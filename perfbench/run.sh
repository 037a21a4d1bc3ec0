#!/usr/bin/env bash
# Builds the benchmark and the antdensity binary from the checkout it is
# run in, then runs the benchmark. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload density-torus --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build in the checkout (or $CARGO_TARGET_DIR when it is set).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" . >&2
go build -C perfbench -o "$out/antdensity" antdensity/cmd/antdensity >&2
exec "$out/perfbench" --bin "$out/antdensity" --work "$out/work" "$@"
