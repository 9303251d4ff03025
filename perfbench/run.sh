#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository root;
# every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
