#!/usr/bin/env bash
# Non-test Go lines per package outside benchmark/ (its own module), and
# the total: the number ROADMAP's "Recent" section tracks per PR. Plain
# `wc -l` over *.go minus *_test.go, so comments and blanks count — the
# same measure at every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         dir = $2; sub(/\/[^\/]*$/, "", dir); lines[dir] += $1; total += $1
       }
       END {
         for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
         close("sort -k2")
         printf "%7d  total\n", total
       }'
