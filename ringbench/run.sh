#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments, e.g.
#
#   bash ringbench/run.sh --workload cold-embed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Everything the build and the run write
# stays under .bench_build/ in that root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C ringbench build -o "$out/ringbench" . >&2
exec "$out/ringbench" "$@"
