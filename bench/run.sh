#!/usr/bin/env bash
# Entry point the benchmark driver runs from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness (a Go module of its own in this directory that
# imports the repository's packages) and runs it with the arguments it
# was given. The Go build cache and the binary live in .bench_build at
# the root of the checkout, so nothing is read or written outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$here" -o "$build/crayfish-bench" .
cd "$here"
exec "$build/crayfish-bench" "$@"
