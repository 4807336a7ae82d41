#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it sits in,
# then runs it with the given arguments, e.g. from the repository root:
#
#   bash servebench/run.sh --workload hub-solve --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, temp files, span dumps) go under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0
export SERVEBENCH_OUT="$out"

bin="$out/servebench"
go -C servebench build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
