#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# flags (see README.md). Everything the build writes, the go build cache
# included, stays under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/earl-bench" .
exec "$build/earl-bench" "$@"
