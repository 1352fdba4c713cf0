#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# (the Go build cache too, so nothing is written outside the checkout) and
# runs it from there. Arguments go to the binary; see README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOTELEMETRY=off
go build -C "$here" -o "$build/uniconn-benchmark" .

cd "$root"
exec "$build/uniconn-benchmark" "$@"
