//! Governor escalation must be deterministic across parallelism.
//!
//! The governor polls budgets at DP level barriers, and the barrier
//! counter ticks only on the coordinating thread — twice per level —
//! so an injected budget schedule keyed on barrier numbers trips at
//! the *same logical point* whether the level ran sequentially or
//! sharded across workers. Combined with the enumerator's
//! determinism-by-rollback (a failed level's partial memo additions
//! are pruned before the descent), a governed run with the same fault
//! schedule must land on the same rung, take the same descent
//! sequence, and return the bit-identical plan at 1 thread and at 4.

use proptest::prelude::*;
use sdp::prelude::*;
use sdp_testkit::FaultPlan;
use std::time::Duration;

/// One governed run at a fixed parallelism. Returns everything a
/// caller could observe: rung, descent events, plan digest, cost bits.
#[allow(clippy::type_complexity)]
fn governed_run(
    catalog: &Catalog,
    query: &Query,
    threads: usize,
    schedule: &[(u64, u64)],
) -> (Option<Rung>, Vec<(Rung, Rung, DegradeReason)>, u64, u64) {
    let mut faults = FaultPlan::new();
    for &(barrier, bytes) in schedule {
        faults = faults.shrink_memory_at(barrier, bytes);
    }
    let governor = Governor::new().with_fault_plan(faults);
    let governed = Optimizer::new(catalog)
        .with_parallelism(threads)
        .optimize_governed(query, Algorithm::Dp, &governor)
        .expect("governed run must land on a feasible rung");
    (
        governed.rung,
        governed
            .degradations
            .iter()
            .map(|d| (d.from, d.to, d.reason))
            .collect(),
        governed.plan.root.structural_digest(),
        governed.plan.cost.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same injected budget schedule → same rung, same descent
    /// sequence, bit-identical plan — independent of parallelism.
    /// Star-12+ crosses the enumerator's parallel-pair threshold, so
    /// the 4-thread run really exercises the sharded level path.
    #[test]
    fn escalation_is_parallelism_invariant(
        relations in 12usize..14,
        seed in 0u64..100,
        // Which barrier the shrink hits decides how deep the descent
        // goes; 0 disables injection (no degradation either way).
        trip_barrier in 0u64..4,
    ) {
        let catalog = Catalog::paper();
        let query = QueryGenerator::new(&catalog, Topology::Star(relations), seed).instance(0);
        let schedule: Vec<(u64, u64)> = if trip_barrier == 0 {
            vec![]
        } else {
            // Starve every rung's first barriers so the descent is
            // forced deterministically regardless of actual usage.
            (1..=trip_barrier).map(|b| (b, 0)).collect()
        };
        let sequential = governed_run(&catalog, &query, 1, &schedule);
        let parallel = governed_run(&catalog, &query, 4, &schedule);
        prop_assert_eq!(&sequential, &parallel, "1-thread vs 4-thread governed runs diverged");
        if trip_barrier == 0 {
            prop_assert_eq!(sequential.0, Some(Rung::Dp));
            prop_assert!(sequential.1.is_empty());
        } else {
            prop_assert!(!sequential.1.is_empty(), "injected starvation must degrade");
        }
    }
}

#[test]
fn full_descent_is_parallelism_invariant() {
    // Starve DP, SDP and IDP at their first barriers: the run must
    // walk the whole ladder to GOO (which polls no barriers and runs
    // against the restored full budget) identically at 1 and 4
    // threads.
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(13), 5).instance(0);
    let schedule = [(1u64, 0u64), (2, 0), (3, 0)];
    let sequential = governed_run(&catalog, &query, 1, &schedule);
    let parallel = governed_run(&catalog, &query, 4, &schedule);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.0, Some(Rung::Goo));
    assert_eq!(
        sequential.1,
        vec![
            (Rung::Dp, Rung::Sdp, DegradeReason::Memory),
            (Rung::Sdp, Rung::Idp, DegradeReason::Memory),
            (Rung::Idp, Rung::Goo, DegradeReason::Memory),
        ]
    );
}

#[test]
fn cancellation_descent_is_parallelism_invariant() {
    // A cancel flag raised before the run starts is observed at the
    // first poll on every path: both parallelism levels jump straight
    // to GOO with a single Cancelled descent.
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(12), 3).instance(0);
    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        let governor = Governor::new().with_deadline(Duration::from_secs(300));
        governor.cancel_handle().cancel();
        let governed = Optimizer::new(&catalog)
            .with_parallelism(threads)
            .optimize_governed(&query, Algorithm::Dp, &governor)
            .unwrap();
        assert_eq!(governed.rung, Some(Rung::Goo));
        assert_eq!(governed.reason(), Some(DegradeReason::Cancelled));
        outcomes.push((
            governed.plan.root.structural_digest(),
            governed.plan.cost.to_bits(),
        ));
    }
    assert_eq!(outcomes[0], outcomes[1]);
}

#[test]
fn a_predicted_descent_serves_the_from_scratch_plan() {
    // Star-Chain-14 ORDER BY under 2 MiB: room for 227 one-plan groups
    // where DP needs thousands, so the oracle descends past DP without
    // running it. There is no switch to turn it off and compare, and
    // none is needed: what is served must be what the serving rung
    // finds when asked directly, under the same budget.
    let catalog = Catalog::paper();
    let budget: u64 = 2 << 20;
    let generator = QueryGenerator::new(&catalog, Topology::star_chain(14), 7);
    let mut served = std::collections::BTreeSet::new();
    for threads in [1usize, 4] {
        let optimizer = Optimizer::new(&catalog).with_parallelism(threads);
        for instance in 0..24 {
            let query = generator.ordered_instance(instance);
            let governed = optimizer
                .optimize_governed(
                    &query,
                    Algorithm::Dp,
                    &Governor::new().with_memory_budget(budget),
                )
                .unwrap();
            let first = governed.degradations[0];
            assert_eq!((first.from, first.to), (Rung::Dp, Rung::Sdp));
            assert_eq!(first.reason, DegradeReason::Memory);
            assert!(first.predicted.is_some_and(|bound| bound > budget));
            assert!(
                governed.degradations[1..]
                    .iter()
                    .all(|d| d.predicted.is_none()),
                "SDP, IDP(4) and GOO are run, not predicted"
            );
            assert!(
                governed.plan.profile.iter().all(|row| row.phase != "DP"),
                "a predicted rung runs no level"
            );

            let rung = governed.rung.unwrap();
            served.insert(rung);
            let direct = optimizer
                .clone()
                .with_budget(Budget::with_memory(budget))
                .optimize(&query, rung.algorithm())
                .unwrap();
            assert_eq!(governed.plan.cost.to_bits(), direct.cost.to_bits());
            assert_eq!(
                governed.plan.root.structural_digest(),
                direct.root.structural_digest()
            );
            if rung == Rung::Sdp {
                // Nothing of DP's is counted: it never ran.
                assert_eq!(governed.plan.stats.plans_costed, direct.stats.plans_costed);
                assert_eq!(governed.degradations.len(), 1);
            }
        }
    }
    assert!(served.contains(&Rung::Sdp), "served by {served:?}");
}

#[test]
fn cancellation_wins_over_a_predicted_descent() {
    // Star-13 under 1 MB is provably doomed for DP, but a run cancelled
    // before it starts still reports one `Cancelled` descent straight
    // to GOO — not a predicted memory descent on the way.
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(13), 5).instance(0);
    let governor = Governor::new().with_memory_budget(1 << 20);
    governor.cancel_handle().cancel();
    let governed = Optimizer::new(&catalog)
        .optimize_governed(&query, Algorithm::Dp, &governor)
        .unwrap();
    assert_eq!(governed.rung, Some(Rung::Goo));
    assert_eq!(governed.degradations.len(), 1);
    let only = governed.degradations[0];
    assert_eq!(
        (only.from, only.to, only.reason, only.predicted),
        (Rung::Dp, Rung::Goo, DegradeReason::Cancelled, None)
    );
}
