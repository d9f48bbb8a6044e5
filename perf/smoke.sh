#!/usr/bin/env bash
# Build sdp-perf, run every workload at 1 % of its requests untraced and
# traced, and check the shape of what comes out: every metric
# BENCHMARK.json lists is printed for every workload, and each
# spans.json parses and carries every per-layer metric.
#
# Not wired into .github/workflows/ci.yml yet (that file is outside the
# benchmark's directory; a later change can add the step).
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"
}

out=target/sdp-perf/smoke
mkdir -p "$out"
run --quick --seconds 0 > "$out/end_to_end.txt"
run --quick --traced > "$out/per_layer.txt"

python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]

def printed(path):
    names = {}
    for line in open(path):
        if line.startswith("#"):
            continue
        key, value, unit = line.split()
        float(value)
        workload, name = key.split("/")
        names.setdefault(workload, []).append(name)
    return names

for path, key in (("end_to_end.txt", "end_to_end"), ("per_layer.txt", "per_layer")):
    want = [m["name"] for m in bench[key]]
    got = printed(f"{out}/{path}")
    assert sorted(got) == sorted(workloads), (path, sorted(got))
    for workload in workloads:
        assert got[workload] == want, (path, workload, set(got[workload]) ^ set(want))

for workload in workloads:
    trace = json.load(open(f"target/sdp-perf/{workload}.spans.json"))
    assert trace["workload"] == workload
    assert all(len(row) == len(trace["columns"]) for row in trace["spans"])
    assert all(row[0] < len(trace["names"]) and row[1] <= row[2] for row in trace["spans"])
    missing = {m["name"] for m in bench["per_layer"]} - set(trace["metrics"])
    assert not missing, (workload, missing)
    print(f"{workload}: {len(trace['spans'])} spans, {len(trace['metrics'])} per-layer metrics")
print("smoke ok")
PY
