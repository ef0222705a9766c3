#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it with the given flags. Run it from the repository root:
#
#   bash ballbench/run.sh --workload cold-run --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch files) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	CARGO_TARGET_DIR="$out"
go -C ballbench build -o "$out/ballbench" .
exec "$out/ballbench" "$@"
