#!/bin/sh
# trace-smoke: end-to-end check of the observability stack (make trace-smoke).
#
# 1. A seeded simulator run exports a virtual-clock Chrome trace.
# 2. A seeded three-rank live run with an injected straggler exports
#    per-rank JSONL traces, serves the telemetry endpoint, dumps the live
#    scoreboard, and arms the watchdog (blame-spike SLO) with the flight
#    recorder: /metrics and pprof are scraped mid-run, and /healthz is
#    polled until it flips to 503 naming blame-spike.
# 3. Exactly one postmortem bundle directory must land in the recorder
#    directory, with no temporary directory left behind.
# 4. preduce-analyze -validate reads every artifact in one run: the
#    simulator's Chrome trace, the live traces as one merged timeline
#    (clock offsets, monotonicity, span integrity), and the bundle (every
#    part against the manifest's sizes and CRCs, rendered with the blame
#    report of its trace ring);
#    the merged Chrome trace it exports is schema-checked too.
#
# Everything is stdlib + curl; the run takes a few seconds.
set -eu

GO=${GO:-go}
PORT=${TRACE_SMOKE_PORT:-19471}
BASE=${TRACE_SMOKE_BASE:-19461}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/trace-smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

echo "trace-smoke: building binaries"
$GO build -o "$DIR/preduce-bench" ./cmd/preduce-bench
$GO build -o "$DIR/preduce-live" ./cmd/preduce-live
$GO build -o "$DIR/preduce-analyze" ./cmd/preduce-analyze

echo "trace-smoke: simulator trace"
"$DIR/preduce-bench" -trace "$DIR/sim.json" -trace-buf 32768 -quick -seed 1 > "$DIR/sim.out"
cat "$DIR/sim.out"

echo "trace-smoke: live run with telemetry and watchdog on 127.0.0.1:$PORT"
ADDRS="127.0.0.1:$BASE,127.0.0.1:$((BASE+1)),127.0.0.1:$((BASE+2))"
"$DIR/preduce-live" -rank 1 -addrs "$ADDRS" -iters 8000 -seed 1 \
    -trace "$DIR/live.jsonl" -straggle 2:200us 2> "$DIR/r1.log" &
R1=$!
"$DIR/preduce-live" -rank 2 -addrs "$ADDRS" -iters 8000 -seed 1 \
    -trace "$DIR/live.jsonl" -straggle 2:200us 2> "$DIR/r2.log" &
R2=$!
"$DIR/preduce-live" -rank 0 -addrs "$ADDRS" -iters 8000 -seed 1 \
    -trace "$DIR/live.jsonl" -straggle 2:200us -scoreboard 2s \
    -slo-blame-recent 0.0001 -watchdog-every 100ms \
    -postmortem-dir "$DIR/postmortems" \
    -telemetry-addr "127.0.0.1:$PORT" 2> "$DIR/r0.log" &
R0=$!

# Scrape /metrics while the run is in flight (retry while the mesh forms).
METRICS="$DIR/metrics.txt"
ok=0
for i in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$PORT/metrics" > "$METRICS" 2>/dev/null \
       && grep -q "preduce_groups_formed_total" "$METRICS"; then
        ok=1
        break
    fi
    sleep 0.1
done
curl -sf -o /dev/null "http://127.0.0.1:$PORT/debug/pprof/" || pprof_down=1

# Poll /healthz until the blame-spike rule fires (503 + rule in body).
HEALTH="$DIR/healthz.json"
fired=0
for i in $(seq 1 100); do
    code=$(curl -s -o "$HEALTH" -w '%{http_code}' "http://127.0.0.1:$PORT/healthz" 2>/dev/null || echo 000)
    if [ "$code" = 503 ] && grep -q "blame-spike" "$HEALTH"; then
        fired=1
        break
    fi
    sleep 0.1
done
curl -sf -o "$DIR/watchdog_metrics.txt" "http://127.0.0.1:$PORT/metrics" || metrics_down=1

wait $R0 $R1 $R2
cat "$DIR/r0.log"

[ "$ok" = 1 ] || { echo "trace-smoke: FAILED to scrape /metrics mid-run"; exit 1; }
[ "${pprof_down:-0}" = 0 ] || { echo "trace-smoke: FAILED: /debug/pprof/ unreachable"; exit 1; }
[ "$fired" = 1 ] || { echo "trace-smoke: FAILED: /healthz never reported blame-spike firing"; cat "$HEALTH" 2>/dev/null || true; exit 1; }
[ "${metrics_down:-0}" = 0 ] || { echo "trace-smoke: FAILED: /metrics unreachable while firing"; exit 1; }

echo "trace-smoke: /metrics instruments"
for metric in preduce_staleness_count preduce_queue_depth \
              preduce_barrier_wait_seconds_total preduce_sync_components \
              preduce_comm_ops_total preduce_worker_wait_seconds_total \
              preduce_worker_blame_seconds_total preduce_worker_blame_recent; do
    grep -q "$metric" "$METRICS" || { echo "trace-smoke: FAILED: $metric missing from /metrics"; exit 1; }
    grep -m1 "^$metric" "$METRICS" || true
done
grep -q 'preduce_watchdog_firing{rule="blame-spike"} 1' "$DIR/watchdog_metrics.txt" \
    || { echo "trace-smoke: FAILED: watchdog series missing from /metrics"; exit 1; }

echo "trace-smoke: scoreboard dump"
grep -q "straggler scoreboard" "$DIR/r0.log" \
    || { echo "trace-smoke: FAILED: no scoreboard dump on rank 0 stderr"; exit 1; }

echo "trace-smoke: checking bundle count"
count=$(find "$DIR/postmortems" -mindepth 1 -maxdepth 1 -type d -name 'postmortem-*' | wc -l)
[ "$count" -eq 1 ] || { echo "trace-smoke: FAILED: $count bundles, want exactly 1"; ls -a "$DIR/postmortems"; exit 1; }
litter=$(find "$DIR/postmortems" -mindepth 1 -maxdepth 1 -name '.tmp-postmortem-*' | wc -l)
[ "$litter" -eq 0 ] || { echo "trace-smoke: FAILED: $litter temporary bundle directories left behind"; ls -a "$DIR/postmortems"; exit 1; }

echo "trace-smoke: reading every artifact (sim Chrome, merged live JSONL, bundle)"
"$DIR/preduce-analyze" -validate -top 3 -chrome "$DIR/merged.json" "$DIR/sim.json" \
    "$DIR/live.r0.jsonl" "$DIR/live.r1.jsonl" "$DIR/live.r2.jsonl" \
    "$DIR/postmortems" > "$DIR/report.txt"
for want in "sim.json: ok" "Blame ledger" "watchdog state" "straggler scoreboard"; do
    grep -q "$want" "$DIR/report.txt" \
        || { echo "trace-smoke: FAILED: report missing '$want'"; cat "$DIR/report.txt"; exit 1; }
done
[ "$(grep -c "Blame ledger" "$DIR/report.txt")" -eq 2 ] \
    || { echo "trace-smoke: FAILED: want a blame ledger for the merged traces and for the bundle"; exit 1; }
head -30 "$DIR/report.txt"
"$DIR/preduce-analyze" -validate "$DIR/merged.json"

echo "trace-smoke: OK"
