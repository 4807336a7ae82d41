#!/usr/bin/env bash
# A/B perf gate: run BenchmarkLargeGraph from two internal/solver test
# binaries (the parent's and the change's, built with `go test -c`) in 10
# alternating pairs on this host, then gate the change with wasobench's
# compare mode.
#
#   bash cmd/wasobench/ab.sh BASE.test NEW.test OUTDIR
#
# OUTDIR receives base.txt and new.txt (the raw go test output, one run
# per pair appended in order) and compare.txt (the gate's table). Exits
# non-zero when a row regressed or coverage shrank.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE.test NEW.test OUTDIR" >&2
  exit 2
fi
base=$(realpath "$1")
new=$(realpath "$2")
out=$3
root=$(cd "$(dirname "$0")/../.." && pwd)

mkdir -p "$out"
: > "$out/base.txt"
: > "$out/new.txt"

bench() {
  "$1" -test.run '^$' -test.bench BenchmarkLargeGraph -test.benchtime 20x \
    -test.benchmem -test.timeout 10m >> "$2"
}

for pair in $(seq 1 10); do
  if [ $((pair % 2)) -eq 1 ]; then
    bench "$base" "$out/base.txt"
    bench "$new" "$out/new.txt"
  else
    bench "$new" "$out/new.txt"
    bench "$base" "$out/base.txt"
  fi
  echo "ab: pair $pair of 10 done" >&2
done

go -C "$root" run ./cmd/wasobench -compare-base "$(realpath "$out/base.txt")" \
  -compare-new "$(realpath "$out/new.txt")" 2>&1 | tee "$out/compare.txt"
