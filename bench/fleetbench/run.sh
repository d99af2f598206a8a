#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash bench/fleetbench/run.sh --workload steady-1k --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's own state all stay
# under .bench_build/ in the repository root.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd bench/fleetbench && go build -o "$out/fleetbench" .) >&2
exec "$out/fleetbench" "$@"
