#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from there with the arguments given. Go's build cache
# and temporary files live in the same directory, so nothing is written
# outside the checkout; the first build of a checkout compiles the
# standard library too (about a minute), later ones take a fraction of a
# second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$here" -o "$build/rgmlbench" .
cd "$root"
exec "$build/rgmlbench" "$@"
