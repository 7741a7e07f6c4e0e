#!/usr/bin/env bash
# Builds swapbench from the checkout's source and runs it with the given
# arguments, from the root of the checkout:
#
#   bash swapbench/run.sh --workload qsort --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build in
# the checkout, so the run writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C swapbench build -o "$out/swapbench" .
exec "$out/swapbench" "$@"
