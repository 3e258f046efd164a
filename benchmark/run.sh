#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument passes through (see README.md). Everything the build and the run
# write — Go's build cache, temporary files, the durable workload's journal —
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local TMPDIR="$build/tmp"
(cd "$root" && go build -o "$build/benchmark" ./benchmark)

exec "$build/benchmark" --tmp "$build/tmp" "$@"
