#!/usr/bin/env bash
# Crash-restart smoke for the durable plan store and dead-letter queue.
#
# 1. Start a replay against a fresh --store-dir and kill the process
#    mid-workload via the testkit crash point (abort at the Nth store
#    write) — the segment log is left exactly as a crash would leave
#    it, possibly with a torn tail.
# 2. Restart on the same directory: recovery must truncate any torn
#    tail, warm-fill the cache (store.warm_fills > 0), serve warm hits
#    (store.warm_hits > 0), and finish the workload.
# 3. Restart once more: the plan digest — a fold over every served
#    plan's structural digest — must be bit-identical to step 2's.
# 4. Induce ladder exhaustion with a zero memory budget (expected
#    non-zero exit), then `replay --dlq` must re-optimize every dead
#    letter and drain the queue to zero (second drain sees 0 records).
#
# Run under both SDP_THREADS=1 and SDP_THREADS=4 in CI.

set -euo pipefail

BIN=target/release/sdp-service
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
STORE="$WORK/store"
DLQ="$WORK/dlq-store"

echo "== build (testkit) =="
cargo build --release -p sdp-service --features testkit

REPLAY="$BIN replay --requests 64 --distinct 6 --relations 7"

echo "== 1. crash mid-workload (abort at 3rd store write) =="
if $REPLAY --store-dir "$STORE" --crash-after-store-writes 3 \
    >"$WORK/crash.out" 2>&1; then
  echo "error: replay survived its crash point" >&2
  exit 1
fi
echo "crashed as planned; store dir holds $(ls "$STORE" | tr '\n' ' ')"

echo "== 2. restart: recover, warm-fill, finish the workload =="
$REPLAY --store-dir "$STORE" --metrics-json "$WORK/warm1.json" \
  | tee "$WORK/warm1.out"
python3 - "$WORK/warm1.json" <<'EOF'
import json, sys
store = json.load(open(sys.argv[1]))["store"]
assert store["warm_fills"] > 0, f"no warm fills after restart: {store}"
assert store["warm_hits"] > 0, f"no warm hits after restart: {store}"
assert store["write_errors"] == 0, store
# The epoch counters are table rows like any other: present in the
# document, and nothing straddled an epoch bump here.
assert "epoch_adoptions" in store, store
assert store["stale_rejected"] == 0, store
print(f"restart ok: {store['warm_fills']} warm fills, "
      f"{store['warm_hits']} warm hits, "
      f"{store['torn_truncations']} torn tails truncated")
EOF

echo "== 3. second restart: plans must be bit-identical =="
$REPLAY --store-dir "$STORE" --metrics-json "$WORK/warm2.json" \
  | tee "$WORK/warm2.out"
d1=$(grep -o 'plan digest: [0-9a-f]*' "$WORK/warm1.out")
d2=$(grep -o 'plan digest: [0-9a-f]*' "$WORK/warm2.out")
[ -n "$d1" ] && [ "$d1" = "$d2" ] || {
  echo "error: plan digests diverged across restart: '$d1' vs '$d2'" >&2
  exit 1
}
echo "digests match across restart: $d1"

echo "== 4. dead-letter queue: exhaust the ladder, then drain =="
if $BIN replay --requests 8 --distinct 2 --relations 7 --clients 1 \
    --store-dir "$DLQ" --memory-mb 0 >"$WORK/dlq.out" 2>&1; then
  echo "error: zero memory budget should fail the workload" >&2
  exit 1
fi
grep -q 'dlq: 8 enqueued' "$WORK/dlq.out" || {
  cat "$WORK/dlq.out" >&2
  echo "error: expected 8 dead letters" >&2
  exit 1
}
$BIN replay --relations 7 --dlq "$DLQ" | tee "$WORK/drain.out"
grep -q 'drained 8, 0 remain' "$WORK/drain.out" || {
  echo "error: DLQ did not drain to zero" >&2
  exit 1
}
$BIN replay --relations 7 --dlq "$DLQ" | grep -q '0 records recovered' || {
  echo "error: drained DLQ should be empty on reopen" >&2
  exit 1
}
echo "== 5. ordered workload: warm restart must reproduce ordered plans =="
OSTORE="$WORK/ordered-store"
ORDERED="$BIN replay --requests 32 --distinct 4 --relations 7 --ordered"
$ORDERED --store-dir "$OSTORE" | tee "$WORK/ord1.out"
$ORDERED --store-dir "$OSTORE" --metrics-json "$WORK/ord2.json" \
  | tee "$WORK/ord2.out"
python3 - "$WORK/ord2.json" <<'EOF'
import json, sys
store = json.load(open(sys.argv[1]))["store"]
assert store["warm_fills"] > 0, f"no warm fills after ordered restart: {store}"
assert store["warm_hits"] > 0, f"no warm hits after ordered restart: {store}"
assert store["write_errors"] == 0, store
print(f"ordered restart ok: {store['warm_fills']} warm fills, "
      f"{store['warm_hits']} warm hits")
EOF
o1=$(grep -o 'plan digest: [0-9a-f]*' "$WORK/ord1.out")
o2=$(grep -o 'plan digest: [0-9a-f]*' "$WORK/ord2.out")
[ -n "$o1" ] && [ "$o1" = "$o2" ] || {
  echo "error: ordered plan digests diverged across restart: '$o1' vs '$o2'" >&2
  exit 1
}
echo "ordered digests match across restart: $o1"

echo "store smoke ok (SDP_THREADS=${SDP_THREADS:-default})"
