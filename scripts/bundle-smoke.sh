#!/usr/bin/env bash
# End-to-end smoke test of the observability surface: boots `gridsat
# serve` with -bundle-dir and one client, checks /healthz and /alerts
# respond, that /history serves the sampler's ring (two or more samples,
# oldest first) and that `gridsat top -once` draws its trend line from it,
# asserts a malformed DIMACS submit returns a structured 400 with the parse
# line, then captures a bundle via POST /debug/bundle and another by
# cancelling a long job mid-run — and asserts every bundle carries all five
# sections (flight log, pprof, metrics+history, state, config) plus its
# manifest counting its samples, and that state.json is one ClusterState
# with the client and the job in it. Artifacts land in
# $SMOKE_DIR (default /tmp/gridsat-bundle-smoke) for CI upload.
set -euo pipefail

SMOKE_DIR="${SMOKE_DIR:-/tmp/gridsat-bundle-smoke}"
API="127.0.0.1:18084"
LISTEN="127.0.0.1:17074"
BUNDLES="$SMOKE_DIR/bundles"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"

go build -o "$SMOKE_DIR/gridsat" ./cmd/gridsat
# PHP(13,12) runs for minutes even distributed, so both captures land
# provably mid-run.
go run ./cmd/satgen -family pigeonhole -n 12 -o "$SMOKE_DIR/php12.cnf"

# -trace keeps the flight recorder on so bundles carry a non-empty
# control-plane event tail.
"$SMOKE_DIR/gridsat" serve -listen "$LISTEN" -api-addr "$API" \
  -bundle-dir "$BUNDLES" -log info -trace "$SMOKE_DIR/flight.jsonl" \
  >"$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
cleanup() {
  kill "$SERVE_PID" ${CLIENT_PID:-} 2>/dev/null || true
}
trap cleanup EXIT

# Wait for the API to come up; /healthz needs no event-loop round-trip,
# so it is the liveness probe.
for _ in $(seq 50); do
  curl -sf "http://$API/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$API/healthz" | grep -q '"status"' \
  || { echo "FAIL: /healthz has no status"; exit 1; }

"$SMOKE_DIR/gridsat" client -master "$LISTEN" -threads 1 \
  >"$SMOKE_DIR/client.log" 2>&1 &
CLIENT_PID=$!
sleep 1

# Structured parse errors: a malformed body must 400 with the line.
ERR=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary 'p cnf zero 3' "http://$API/jobs?name=broken")
[ "$ERR" = "400" ] || { echo "FAIL: malformed submit returned HTTP $ERR, want 400"; exit 1; }
curl -s -X POST --data-binary 'p cnf zero 3' "http://$API/jobs?name=broken" \
  | grep -q '"line": *1' || { echo "FAIL: parse error lacks line position"; exit 1; }
# Unknown jobs must 404 with a JSON error.
NF=$(curl -s -o /dev/null -w '%{http_code}' "http://$API/jobs/999")
[ "$NF" = "404" ] || { echo "FAIL: unknown job returned HTTP $NF, want 404"; exit 1; }

JOB_ID=$(curl -sf -X POST --data-binary @"$SMOKE_DIR/php12.cnf" \
  "http://$API/jobs?name=php12" | sed -n 's/.*"id": *\([0-9]*\).*/\1/p')
echo "submitted long job $JOB_ID"
sleep 2

# The sampler ticks once a second and has ticked since serve came up:
# /history serves its ring, oldest first, /alerts the (empty, healthy)
# watchdog feed.
# (each buffered to a file: grep -q's early exit would SIGPIPE curl under
# pipefail on a page of tens of kilobytes — /history failed one run in five)
curl -sf "http://$API/history" >"$SMOKE_DIR/history.json"
grep -o '"t_sec": *[0-9.e+-]*' "$SMOKE_DIR/history.json" \
  | awk -F': *' 'NR > 1 && $2 <= prev { bad = 1 } { prev = $2; n++ }
                 END { exit !(n >= 2 && !bad) }' \
  || { echo "FAIL: /history lacks two samples with advancing t_sec"; exit 1; }
curl -sf "http://$API/alerts" >"$SMOKE_DIR/alerts.json"
grep -q '"alerts"' "$SMOKE_DIR/alerts.json" \
  || { echo "FAIL: /alerts has no feed"; exit 1; }
curl -sf "http://$API/metrics" >"$SMOKE_DIR/metrics.txt"
grep -q 'gridsat_build_info' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: /metrics lacks gridsat_build_info"; exit 1; }
grep -q 'gridsat_http_request_seconds' "$SMOKE_DIR/metrics.txt" \
  || { echo "FAIL: /metrics lacks endpoint latency histograms"; exit 1; }
# The dashboard reads /status and /history: its trend line is drawn from
# the ring's samples.
"$SMOKE_DIR/gridsat" top -once -addr "$API" >"$SMOKE_DIR/top.txt"
grep -q '^trend  cov \[.*\]  conf/s \[' "$SMOKE_DIR/top.txt" \
  || { echo "FAIL: gridsat top drew no trend line"; cat "$SMOKE_DIR/top.txt"; exit 1; }

# Capture 1: operator-requested bundle.
MANUAL=$(curl -sf -X POST "http://$API/debug/bundle?reason=smoke" \
  | sed -n 's/.*"bundle": *"\([^"]*\)".*/\1/p')
[ -n "$MANUAL" ] || { echo "FAIL: POST /debug/bundle returned no path"; exit 1; }
echo "manual bundle: $MANUAL"

# Capture 2: cancelling the job mid-run triggers the failure path.
curl -sf -X POST "http://$API/jobs/$JOB_ID/cancel" >/dev/null
echo "cancelled job $JOB_ID"

# Bundles are written off the event loop, MANIFEST.json last; wait for
# the cancel bundle to finish.
for _ in $(seq 50); do
  ls "$BUNDLES"/*cancelled*/MANIFEST.json >/dev/null 2>&1 && break
  sleep 0.2
done

check_bundle() { # dir
  local dir="$1"
  for f in flight.jsonl pprof/heap.pprof metrics.json history.json \
    state.json config.json MANIFEST.json; do
    [ -s "$dir/$f" ] || { echo "FAIL: bundle $dir missing section $f"; exit 1; }
  done
  grep -q '"sections"' "$dir/MANIFEST.json" \
    || { echo "FAIL: bundle $dir manifest lists no sections"; exit 1; }
  grep -q '"samples": *[1-9]' "$dir/MANIFEST.json" \
    || { echo "FAIL: bundle $dir manifest counts no samples"; exit 1; }
  # state.json holds one ClusterState (not a status/progress pair) with
  # the client and the job in it: indented JSON opens a non-empty array
  # with a bare "[" at the end of the line.
  if grep -q '"status":\|"progress":' "$dir/state.json"; then
    echo "FAIL: bundle $dir state.json still nests status/progress views"; exit 1
  fi
  for list in clients jobs; do
    grep -q "\"$list\": \[\$" "$dir/state.json" \
      || { echo "FAIL: bundle $dir state.json has no $list"; exit 1; }
  done
}

FOUND=0
for dir in "$BUNDLES"/*/; do
  check_bundle "${dir%/}"
  FOUND=$((FOUND + 1))
done
[ "$FOUND" -ge 2 ] || { echo "FAIL: expected manual + cancel bundles, found $FOUND"; exit 1; }

kill -INT "$SERVE_PID"
for _ in $(seq 50); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAIL: serve did not exit after SIGINT"
  exit 1
fi

echo "bundle smoke OK: $FOUND bundles, all sections present"
