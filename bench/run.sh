#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload capture --seed 7 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache and the binary stay
# under .bench_build/ in the current directory; nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/saiyan-bench" .)
exec "$build/saiyan-bench" "$@"
