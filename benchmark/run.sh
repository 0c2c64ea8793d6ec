#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays under .bench_build/ in the checkout this script sits
# in: the Go build cache, the binary, generated data, spill files, sockets
# and trace files.
#
#   bash benchmark/run.sh --workload explore --seed 1 --seconds 12 --trace 0
#   bash benchmark/run.sh --suite --repeat 10 --check
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/recache-bench"
mkdir -p "$build/tmp" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/gotmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
