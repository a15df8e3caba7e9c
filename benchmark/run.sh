#!/usr/bin/env bash
# gridbench's entry point, for the driver, CI and humans alike. Run it from
# anywhere; it works inside the checkout it sits in and nowhere else: the
# go build cache, the built binaries and the generated inputs all go to
# .bench_build/ at the repository root, reports to benchmark/out/.
#
#   benchmark/run.sh --workload seq-mix --seed 1 --seconds 25 --trace 0
#   benchmark/run.sh --seed 1            every workload, untraced then traced
#   benchmark/run.sh --repeat 10         ten seeds per workload + spreads,
#                                        written to benchmark/out/results.json
#
# Exits non-zero when anything fails to build, a verdict check fails, or
# (with --repeat) any operation failed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$root/.bench_build/bin/gridbench" ./gridbench
exec .bench_build/bin/gridbench -root "$root" "$@"
