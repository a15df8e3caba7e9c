#!/usr/bin/env bash
# Rebuilds the pinned benchtab outputs under docs/ from cmd/benchtab, so
# `git diff --exit-code docs/` afterwards says whether a change moved a
# table. Runs are deterministic; a diff is a behaviour change.
#
#   scripts/benchtab-docs.sh                      all seven files
#   scripts/benchtab-docs.sh ablations bhonly split hybrid sched
#                                                 just these (a few seconds,
#                                                 ~25 s, ~2 s, ~10 s and
#                                                 under 1 s on two cores)
#   scripts/benchtab-docs.sh table1 table2        the paper's tables (minutes)
set -euo pipefail
cd "$(dirname "$0")/.."

docs=("$@")
[ ${#docs[@]} -gt 0 ] || docs=(ablations bhonly split hybrid sched table1 table2)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/benchtab" ./cmd/benchtab
bt() { "$tmp/benchtab" -q "$@"; }

for doc in "${docs[@]}"; do
  case "$doc" in
    ablations)
      # The five single-threaded ablations on homer12, then the engine
      # preset again with in-host portfolios, tagged on its title line.
      for a in sharelen splittimeout pruning ranking engine; do
        bt -ablation "$a"
      done >"$tmp/out"
      for n in 2 4; do
        bt -ablation engine -threads "$n" | sed "1s/\$/   [-threads $n]/"
      done >>"$tmp/out"
      ;;
    bhonly) bt -bhonly >"$tmp/out" ;;
    # The split-strategy ablation: each strategy's lineage tree (leaves,
    # fan-out, balance, kill depth), read off its flight log.
    split) bt -ablation split >"$tmp/out" ;;
    # Split-only vs portfolio-only vs hybrid over the four HybridRows.
    hybrid) bt -ablation hybrid >"$tmp/out" ;;
    # The default 8-job Poisson workload on the 4-client cluster.
    sched) bt -ablation sched >"$tmp/out" ;;
    table1) bt -table 1 >"$tmp/out" ;;
    table2) bt -table 2 >"$tmp/out" ;;
    *)
      echo "benchtab-docs: unknown doc $doc (want ablations, bhonly, split, hybrid, sched, table1 or table2)" >&2
      exit 2
      ;;
  esac
  mv "$tmp/out" "docs/benchtab-$doc.txt"
done
