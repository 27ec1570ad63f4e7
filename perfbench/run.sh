#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload place-sweep --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the artifacts of traced runs all live
# under .bench_build/ in the repository root, so a run writes nothing
# outside the checkout. The first run compiles the toolchain's packages
# into that cache; later runs reuse it. Build output goes to stderr, so
# the last line of stdout is always the benchmark's result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$bench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
