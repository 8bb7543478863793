#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# build and the run write stays under .bench_build/ and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/hcbench" .
cd "$root"
exec "$build/hcbench" "$@"
