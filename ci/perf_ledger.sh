#!/usr/bin/env bash
# The deterministic ledger as a gate (ROADMAP item 1c).
#
# `sdp-perf --quick --seed 7` serves 1 % of every workload's requests.
# Its `# <workload>: every pass:` lines carry only counts the program
# makes itself — hits, misses, evictions, plans costed, store appends —
# and the fold of the served plans' structural digests, so they repeat
# exactly on any host and at any speed. They must equal the checked-in
# ci/perf_ledger.expected byte for byte: a change that claims
# bit-identical plans and counters leaves the file alone, and a change
# that means to move them updates it in the same commit, where the
# diff shows in review.
#
# A change to the governor's ladder that claims "same rungs, same
# plans" (a rung skipped, reordered or handed over differently) may
# move exactly one field: `plans costed` of the `governed_churn` line.
# Its digest, its hit/miss/eviction/append counts and the other three
# lines stay byte-identical — the feasibility oracle (PR 17) moved
# 387793 → 156337 there, by no longer costing DP rungs that cannot fit
# 2 MiB, and nothing else.
#
# Incumbent-bounded DP moved one field the same way: `plans costed` of
# the `cold_dp` line, 665698 → 177535. Its exhaustive DP now drops every
# JCR costing more than a greedy plan (that greedy's ~190 plans per
# request are counted), and serves the same plans: the digest, the
# other counts and the other three lines are unchanged. Its
# `allocs_per_req` ceiling fell with it (533 → 524 calls, 710 → 236 kB).
#
# The same bound applied to plan pairs moved that field once more,
# 177535 → 82525: each DP level now leaves uncosted every plan pair
# whose two inputs plus the output's emission already cost more than
# the greedy plan (`JoinTerms::floor`). Such alternatives could never
# be part of, or evict, a plan at or under the bound, so the digest,
# the other counts, the other three lines and both allocation ceilings
# are unchanged.
#
# A falling bound moved it a third time, 82525 → 80925: after a level
# that kept more than twice as many JCRs as a greedy completion from it
# takes merges, DP greedy-completes the level's cheapest survivor and
# lowers the bound to that complete plan's cost when it is cheaper.
# The completions' plans are counted. These four Star-12 statements
# gain little (−1.9 %); the full `cold_dp` run costs 22 % fewer plans
# per optimization. Any complete plan's cost bounds the served plan as
# GOO's does, so the digest, the other counts and the other three lines
# are unchanged; both allocation ceilings hold (527 → 538 calls per
# request).
#
# Lazy costing for SDP moved two lines. `cold_sdp` moved only its
# `plans costed`, 235450 → 132354: a level SDP prunes now stages its
# JCRs uncosted and costs one only where a skyline needs its exact
# cost, or where it survives. The keep-masks, the plans and the digest
# are those of the all-costed run. `governed_churn` moved its `plans
# costed` (156337 → 106105) and its digest (c6e9433aa227151d →
# c89803d83f2a1b39). Its first barrier of an SDP level now samples only
# the costed JCRs' records, so SDP rungs that used to trip the 2 MiB
# budget there now complete, and some statements are served SDP's plan
# instead of a lower rung's. `cold_sdp`'s allocator calls stay under
# their ceiling; its bytes ceiling rose 158920 → 162980 (2 % over the
# 159784 measured): the deferred-pair list (12 bytes a pair) and the
# sort buffer of the settlement sweeps (16 bytes a partition member)
# grow with the widest level, once per request.
#
# The tight floor moved two fields, `plans costed` of `cold_sdp`
# (132354 → 77821) and of `governed_churn` (106105 → 82540). A JCR its
# inputs floor leaves undominated is tested again on the cheapest join
# method its pairs allow over their inputs' cheapest plans, and costed
# only if it is still undominated. That floor is at most the cheapest
# plan, bit for bit, so keep-masks, plans and both digests are those of
# the all-costed run, and every other line is unchanged. The floor kept
# while staging sits in the stage record's free half-word: no
# allocation ceiling moved.
#
# The pair gate moved three fields, `plans costed` of `cold_dp`
# (80925 → 50259), `cold_sdp` (77821 → 49549) and `governed_churn`
# (82540 → 64108). A pair whose floor — its inputs' cheapest plans plus
# the output's emission — is above the level's bound, or at which the
# JCR's plans already dominate every plan the pair could offer, costs
# only its index nested loops: the others could not be retained, so
# they are counted as ruled out or dominated instead of costed. Every
# group ends with the same records, so the digests, the other counts,
# `warm_hit`'s line and every ceiling are unchanged.
#
# Run-scoped optimizer memory moved no line and lowered every ceiling
# but `warm_hit`'s: an optimization now allocates its nodes and a
# logarithmic number of buffer growths, not buffers per level, group or
# join class (DESIGN.md, "What an optimization allocates"). Calls
# 523.5 → 408.5 (`cold_dp`), 949.8 → 705 (`cold_sdp`), 461.6 → 419.7
# (`governed_churn`); the ceilings were re-set from those values by the
# rule below.
#
# The same run's `<workload>/allocs_per_req` and
# `<workload>/alloc_bytes_per_req` lines are counts too — the counting
# allocator's calls and bytes per request, the same on any host — and
# each must stay at or under its ceiling in ci/alloc_ceilings.expected.
# Calls: the value when the ceiling was last set, plus 10 % (`warm_hit`
# exactly, since nothing a cache hit executes may drift unnoticed).
# Bytes: the value when the ceiling was last set, plus 2 % (PR 25) — a
# memo group that grows by a word, which allocates no more often, fails
# here. An allocation regression fails without a timing in sight; a
# change that means to allocate more raises the ceiling in the same
# commit.
#
# Its `<workload>/peak_heap_mb` lines are held the same way. The quick
# run always serves 64 passes, and its peak live heap repeated to the
# byte over ten runs, `governed_churn`'s write-behind thread included.
# Each ceiling is the value when it was set plus 2 %: set when the
# service stopped copying its catalog and stopped preallocating (and
# holding freed plans in) its cache's slots — 0.8232 / 0.4555 / 0.3969
# / 0.3618 MiB for `warm_hit` / `cold_dp` / `cold_sdp` /
# `governed_churn`, against 1.2410 / 0.8740 / 0.8140 / 0.9336 before.
# Bytes the service holds for nothing now fail here too.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --quick --seed 7)
grep '^# [a-z_]*: every pass:' <<<"$out" | diff ci/perf_ledger.expected -
echo "perf ledger ok"

while read -r metric ceiling; do
    value=$(awk -v m="$metric" '$1 == m { print $2 }' <<<"$out")
    if ! awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v != "" && v + 0 <= c + 0) }'; then
        echo "$metric: ${value:-missing} is over its ceiling of $ceiling" >&2
        exit 1
    fi
done <ci/alloc_ceilings.expected
echo "allocation and peak-heap ceilings ok"
