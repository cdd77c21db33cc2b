#!/usr/bin/env bash
# Builds the bench binary from source into .bench_build/ (build cache and
# temporaries included, so nothing is written outside the checkout) and runs
# it from the repository root with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/gagebench" . >&2
cd "$root"
exec "$build/gagebench" "$@"
