//! Order-aware optimization must stay deterministic.
//!
//! Interesting-order machinery adds three new sources of potential
//! nondeterminism: sort-ahead enforcer offers, the skyline's
//! interesting-order rescue partitions, and the Pareto memo keeping
//! more than one plan per group. All of them are pinned to the
//! coordinating thread in deterministic set order, so an order-aware
//! run must produce the bit-identical plan, per-level counters
//! (`order_rescued`, `sort_enforcers`) and canonical trace at 1 worker
//! thread and at 4.

use sdp::prelude::*;
use sdp::trace::{canonical_dump, MemorySink, Tracer};
use std::sync::Arc;

/// One traced, governed order-aware run; returns everything that must
/// be invariant: the canonical trace, the analyzed profile (per-level
/// counters), the plan digest and the cost bits.
fn traced_ordered_run(
    catalog: &Catalog,
    query: &Query,
    threads: usize,
) -> (String, String, u64, u64) {
    let sink = Arc::new(MemorySink::unbounded());
    let governed = Optimizer::new(catalog)
        .with_tracer(Tracer::new(Arc::clone(&sink) as _))
        .with_parallelism(threads)
        .optimize_governed(query, Algorithm::Sdp(SdpConfig::paper()), &Governor::new())
        .expect("ungoverned-budget run must complete");
    (
        canonical_dump(&sink.snapshot()),
        explain_analyze(&governed),
        governed.plan.root.structural_digest(),
        governed.plan.cost.to_bits(),
    )
}

#[test]
fn ordered_traces_and_counters_are_parallelism_invariant() {
    // Star-13 crosses the enumerator's parallel-pair threshold, so the
    // 4-thread run really shards levels; ORDER BY and GROUP BY
    // requests exercise both interesting-order entry points.
    let catalog = Catalog::paper();
    for (topology, seed) in [
        (Topology::Star(13), 7u64),
        (Topology::Chain(10), 3),
        (Topology::star_chain(12), 5),
    ] {
        let generator = QueryGenerator::new(&catalog, topology, seed);
        for query in [generator.ordered_instance(0), generator.grouped_instance(1)] {
            let (seq_trace, seq_profile, seq_digest, seq_cost) =
                traced_ordered_run(&catalog, &query, 1);
            let (par_trace, par_profile, par_digest, par_cost) =
                traced_ordered_run(&catalog, &query, 4);
            assert_eq!(
                seq_trace, par_trace,
                "{topology}: canonical trace diverged between 1 and 4 threads"
            );
            assert_eq!(
                seq_profile, par_profile,
                "{topology}: analyzed profile diverged between 1 and 4 threads"
            );
            assert_eq!((seq_digest, seq_cost), (par_digest, par_cost));

            // The order machinery really ran and is visible in both
            // the trace and the per-level counters. Pure chains form
            // no hub partitions (nothing is pruned, so nothing needs
            // rescuing); wherever the skyline pruned, the rescue
            // partitions must appear alongside it.
            if seq_trace.contains("skyline_partition level=") {
                assert!(
                    seq_trace.contains("order_partition"),
                    "{topology}: skyline pruned but no interesting-order rescue \
                     partitions in the trace"
                );
            }
            assert!(seq_profile.contains("order_rescued="));
            assert!(seq_profile.contains("sort_enforcers="));
        }
    }
}

#[test]
fn repeated_ordered_runs_are_pure() {
    // Same ordered query, same thread count, two separate runs: trace,
    // profile, digest and cost are a pure function of the inputs.
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(12), 9).ordered_instance(0);
    let a = traced_ordered_run(&catalog, &query, 4);
    let b = traced_ordered_run(&catalog, &query, 4);
    assert_eq!(a, b);
}
