#!/usr/bin/env bash
# Observability smoke for the flight recorder and Q-error observatory.
#
# Run a single-client replay with `--flight-dir` and `--qerror`, let
# the process exit (crash-equivalent for the write-through log), then
# reconstruct the decisions with a separate `sdp-service inspect
# --flight` process and assert:
#
# 1. The canonical record listing carries fresh and cache-hit
#    decisions with their plan digests (flight records carry no wall
#    clock in canonical form; arrival seq is deterministic under one
#    client): exactly 24 records, multiset digest 235fa0227b6f4b86,
#    the same in the replay's ring and in the post-exit listing.
# 2. The Q-error aggregates (`qerror` family in the metrics JSON) hold
#    exactly 44 node observations across 22 series, per node kind and
#    per predicate, and the report carries schema version 5.
# 3. A torn tail (garbage appended to flight.log) is truncated on
#    recovery without losing any intact record, and a second run over
#    the same directory recovers the first run's 24 records.
#
# One client makes every count a function of the workload alone; a
# change that moves one of them moves decisions, and updates this
# script in the same commit.

set -euo pipefail

BIN=target/release/sdp-service
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== build =="
cargo build --release -p sdp-service

REPLAY="$BIN replay --clients 1 --requests 12 --distinct 4 --relations 6 --seed 42"
FLIGHT_DIR="$WORK/flight"
RECORDS=24
FLIGHT_DIGEST=235fa0227b6f4b86

# Fail unless the file holds a line matching the (anchored) pattern.
expect() {
  grep -q "$2" "$1" || {
    echo "error: no line matching '$2' in $1:" >&2
    cat "$1" >&2
    exit 1
  }
}

echo "== replay with flight recorder =="
$REPLAY --flight-dir "$FLIGHT_DIR" \
  --qerror --metrics-json "$WORK/metrics.json" \
  | tee "$WORK/run.out"
expect "$WORK/run.out" '^flight: 0 prior records recovered'
expect "$WORK/run.out" \
  "^flight: $RECORDS records in ring (0 evicted to log only, 0 write errors), digest $FLIGHT_DIGEST\$"
expect "$WORK/run.out" '^qerror: 44 node observations across 22 series$'
echo "== post-exit reconstruction =="
$BIN inspect --flight "$FLIGHT_DIR" > "$WORK/inspect.txt"
# Drop the recovery banner (it names the per-run directory); keep the
# canonical records and the digest line.
tail -n +2 "$WORK/inspect.txt" > "$WORK/records.txt"
cat "$WORK/records.txt"
grep -q '^request .*outcome=fresh' "$WORK/records.txt" || {
  echo "error: no fresh-optimization decision in the flight log" >&2
  exit 1
}
grep -q '^request .*outcome=hit' "$WORK/records.txt" || {
  echo "error: no cache-hit decision in the flight log" >&2
  exit 1
}
grep -q 'digest=[0-9a-f]\{16\}' "$WORK/records.txt" || {
  echo "error: records do not carry plan structural digests" >&2
  exit 1
}
expect "$WORK/records.txt" "^flight digest: $FLIGHT_DIGEST over $RECORDS records\$"
python3 - "$WORK/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["schema"] == 5, f"expected schema 5, got {m['schema']}"
assert len(m["qerror"]) == 22, f"expected 22 qerror series, got {len(m['qerror'])}"
assert any(k.startswith("node:") for k in m["qerror"]), "no per-kind series"
assert any(k.startswith("pred:") for k in m["qerror"]), "no per-predicate series"
print(f"qerror ok: {len(m['qerror'])} series")
EOF

echo "== torn-tail recovery =="
records=$(sed -n 's/^flight digest: [0-9a-f]* over \([0-9]*\) records$/\1/p' \
  "$WORK/inspect.txt")
printf 'torn-frame-garbage-bytes' >> "$FLIGHT_DIR/flight.log"
$BIN inspect --flight "$FLIGHT_DIR" > "$WORK/inspect-torn.txt"
grep -q "^flight: $records records recovered from .*(torn tail truncated)$" \
  "$WORK/inspect-torn.txt" || {
  echo "error: torn tail not truncated or intact records lost" >&2
  head -1 "$WORK/inspect-torn.txt" >&2
  exit 1
}
tail -n +2 "$WORK/inspect-torn.txt" > "$WORK/records-torn.txt"
diff -u "$WORK/records.txt" "$WORK/records-torn.txt" || {
  echo "error: recovered records changed after torn-tail truncation" >&2
  exit 1
}
echo "torn tail ok: $records records survive, garbage frame dropped"

echo "== flight log re-opens =="
# Re-opening the directory reports the prior records before appending.
$REPLAY --flight-dir "$WORK/flight-reopen" > "$WORK/reopen-1.out"
$REPLAY --flight-dir "$WORK/flight-reopen" > "$WORK/reopen-2.out"
grep -q '^flight: 0 prior records recovered' "$WORK/reopen-1.out"
reopened=$(sed -n 's/^flight: \([0-9]*\) prior records recovered.*/\1/p' "$WORK/reopen-2.out")
[ "$reopened" = "$RECORDS" ] || {
  echo "error: second run over the same flight dir recovered '$reopened' records, not $RECORDS" >&2
  exit 1
}
echo "re-open ok: $reopened flight records re-recovered"

echo "obs smoke ok"
