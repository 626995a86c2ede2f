#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given
# arguments. Run from the repository root, e.g.
#
#   bash fleetbench/run.sh --workload ycsb-drift --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
	GOTELEMETRY=off GOENV=off

(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
