#!/usr/bin/env bash
# Go lines per package outside benchmark/ (its own module): first the
# non-test lines and their total, the number ROADMAP's "Recent" section
# tracks per PR; then the test lines and theirs. Plain `wc -l` over *.go
# minus *_test.go, then over *_test.go, so comments and blanks count — the
# same measure at every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

# count NAME-TEST TOTAL-LABEL: lines per directory of the files find
# selects, then their sum under TOTAL-LABEL.
count() {
  find . -name '*.go' "$1" -name '*_test.go' -not -path './benchmark/*' -print0 |
    xargs -0 wc -l |
    awk -v label="$2" '$2 != "total" {
           dir = $2; sub(/\/[^\/]*$/, "", dir); lines[dir] += $1; total += $1
         }
         END {
           for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
           close("sort -k2")
           printf "%7d  %s\n", total, label
         }'
}

count -not total
echo
count -and 'test total'
