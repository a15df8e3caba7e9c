#!/usr/bin/env bash
# End-to-end smoke test of the multi-job scheduling service: boots
# `gridsat serve` with three TCP clients, drives the HTTP job API
# (submit a SAT and an UNSAT instance, cancel a long one mid-run),
# asserts every verdict, checks /metrics against /status, and shuts the
# service down cleanly with SIGINT. The clients split with the dilemma
# strategy, which serve is never told: each states its own fan-out when it
# registers, and the flight log must show a split shared among two or more
# idle peers. Artifacts (job list JSON, flight log, server log) land in
# $SMOKE_DIR (default /tmp/gridsat-serve-smoke) for CI upload.
set -euo pipefail

SMOKE_DIR="${SMOKE_DIR:-/tmp/gridsat-serve-smoke}"
API="127.0.0.1:18082"
LISTEN="127.0.0.1:17072"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"

go build -o "$SMOKE_DIR/gridsat" ./cmd/gridsat
go run ./cmd/satgen -family random3sat -n 20 -m 70 -seed 11 -o "$SMOKE_DIR/sat.cnf"
go run ./cmd/satgen -family pigeonhole -n 7 -o "$SMOKE_DIR/php7.cnf"
# PHP(13,12) runs for minutes even distributed — the cancel a second
# after submit provably lands mid-run, never after a verdict.
go run ./cmd/satgen -family pigeonhole -n 12 -o "$SMOKE_DIR/php12.cnf"

"$SMOKE_DIR/gridsat" serve -listen "$LISTEN" -api-addr "$API" \
  -log info -trace "$SMOKE_DIR/flight.jsonl" \
  >"$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
cleanup() {
  kill "$SERVE_PID" ${CLIENT_PIDS:-} 2>/dev/null || true
}
trap cleanup EXIT

# Wait for the API to come up.
for _ in $(seq 50); do
  curl -sf "http://$API/jobs" >/dev/null 2>&1 && break
  sleep 0.2
done

CLIENT_PIDS=""
for i in 1 2 3; do
  "$SMOKE_DIR/gridsat" client -master "$LISTEN" -threads 1 -split-strategy dilemma \
    >"$SMOKE_DIR/client$i.log" 2>&1 &
  CLIENT_PIDS="$CLIENT_PIDS $!"
done
sleep 1

submit() { # file name extra-query -> job id
  curl -sf -X POST --data-binary @"$SMOKE_DIR/$1" \
    "http://$API/jobs?name=$2$3" | sed -n 's/.*"id": *\([0-9]*\).*/\1/p'
}
SAT_ID=$(submit sat.cnf sat "&priority=2")
UNSAT_ID=$(submit php7.cnf php7 "")
LONG_ID=$(submit php12.cnf php12 "")
echo "submitted: sat=$SAT_ID unsat=$UNSAT_ID long=$LONG_ID"

verdict() { # id -> verdict string ("" while running)
  curl -sf "http://$API/jobs/$1" | sed -n 's/.*"verdict": *"\([A-Z]*\)".*/\1/p'
}

# Give the long job a moment to absorb clients, then cancel it mid-run.
sleep 1
curl -sf -X POST "http://$API/jobs/$LONG_ID/cancel" >/dev/null
echo "cancelled job $LONG_ID"

# Poll until the short jobs report their verdicts.
for _ in $(seq 120); do
  [ "$(verdict "$SAT_ID")" = "SAT" ] && [ "$(verdict "$UNSAT_ID")" = "UNSAT" ] && break
  sleep 1
done

curl -sf "http://$API/jobs" >"$SMOKE_DIR/jobs.json"
cat "$SMOKE_DIR/jobs.json"

[ "$(verdict "$SAT_ID")" = "SAT" ] || { echo "FAIL: job $SAT_ID verdict $(verdict "$SAT_ID"), want SAT"; exit 1; }
[ "$(verdict "$UNSAT_ID")" = "UNSAT" ] || { echo "FAIL: job $UNSAT_ID verdict $(verdict "$UNSAT_ID"), want UNSAT"; exit 1; }
[ "$(verdict "$LONG_ID")" = "CANCELLED" ] || { echo "FAIL: job $LONG_ID verdict $(verdict "$LONG_ID"), want CANCELLED"; exit 1; }

# A SAT result must ship a model that round-trips through /result.
curl -sf "http://$API/jobs/$SAT_ID/result" | grep -q '"model"' \
  || { echo "FAIL: SAT result has no model"; exit 1; }

# /metrics is published from the state the sampler builds once a second:
# one tick after the jobs, its pool gauge reads /status's count and every
# client has its own series.
sleep 1.5
curl -sf "http://$API/metrics" >"$SMOKE_DIR/metrics.txt"
REGISTERED=$(curl -sf "http://$API/status" | sed -n 's/^  "registered": *\([0-9]*\).*/\1/p')
GAUGE=$(sed -n 's/^gridsat_master_registered_clients \([0-9]*\)$/\1/p' "$SMOKE_DIR/metrics.txt")
[ "$REGISTERED" = 3 ] && [ "$GAUGE" = "$REGISTERED" ] \
  || { echo "FAIL: /metrics registered_clients $GAUGE, /status registered $REGISTERED, want 3"; exit 1; }
SERIES=$(grep -c '^gridsat_client_decisions_total{client="[0-9]*"} ' "$SMOKE_DIR/metrics.txt" || true)
[ "$SERIES" = 3 ] \
  || { echo "FAIL: $SERIES gridsat_client_decisions_total series, want one per client (3)"; exit 1; }

# Clean shutdown: SIGINT must stop the server (and its clients) promptly.
kill -INT "$SERVE_PID"
for _ in $(seq 50); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAIL: serve did not exit after SIGINT"
  exit 1
fi

# The flight log is complete once serve has exited: some split must have
# reserved a recipient per cofactor a dilemma donor hands out (up to
# three), not the one a first-decision split uses.
grep '"kind":"split-issue"' "$SMOKE_DIR/flight.jsonl" | grep -q '"n":[2-9]' \
  || { echo "FAIL: no split-issue with n >= 2: the dilemma clients' fan-out was not used"; exit 1; }

echo "serve smoke OK: SAT=$SAT_ID UNSAT=$UNSAT_ID CANCELLED=$LONG_ID, clean shutdown"
