#!/usr/bin/env bash
# Compare two committed ledger files (BENCH_<pr>.json, oldest first).
#
#   scripts/benchdiff.sh BENCH_22.json BENCH_23.json
#
# Advisory: the end-to-end medians of both files side by side — wall-clock
# on a shared box, so a reader judges them against the spreads in the files.
# Hard: the exact per-layer counts of the seed-1 traced pass do not depend
# on the machine, so in a file that claims no gain (`claim` null) its
# `parent` and `change` sides must agree on them. Exits 1 when they do not.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 OLD.json NEW.json" >&2; exit 2; }
old=$1 new=$2

echo "end-to-end medians (advisory): $old -> $new"
printf '%-16s %-8s %10s %10s   %10s %10s\n' workload metric old.parent old.change new.parent new.change
jq -r --slurpfile new "$new" '
  .end_to_end[] | . as $o
  | ($new[0].end_to_end[] | select(.workload == $o.workload and .metric == $o.metric)) as $n
  | [$o.workload, $o.metric, $o.parent.median, $o.change.median, $n.parent.median, $n.change.median]
  | @tsv' "$old" |
  while IFS=$'\t' read -r w m op oc np nc; do
    printf '%-16s %-8s %10.3f %10.3f   %10.3f %10.3f\n' "$w" "$m" "$op" "$oc" "$np" "$nc"
  done

exact='["core.des_vsec","core.des_splits","core.des_msgs","core.des_bytes","comm.base_bytes"]'
moved=$(for f in "$old" "$new"; do
  jq -r --arg f "$f" --argjson exact "$exact" '
    select(.claim == null) | .per_layer_seed1 | to_entries[] | .key as $w
    | .value | to_entries[] | select(.key as $k | $exact | index($k))
    | select(.value.parent != .value.change)
    | "\($f): \($w) \(.key) parent \(.value.parent) change \(.value.change)"' "$f"
done)
if [ -n "$moved" ]; then
  echo "exact counts moved in a file that claims no gain:" >&2
  echo "$moved" >&2
  exit 1
fi
echo "exact per-layer counts: parent == change in every file that claims no gain"
