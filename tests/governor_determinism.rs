//! Governor escalation is deterministic.
//!
//! The governor polls budgets at DP level barriers, and the barrier
//! counter ticks twice per level, so an injected budget schedule keyed
//! on barrier numbers trips at the *same logical point* on every run.
//! Combined with the enumerator's determinism-by-rollback (a failed
//! level's partial memo additions are pruned before the descent), a
//! governed run with a given fault schedule lands on a fixed rung,
//! takes a fixed descent sequence and returns a fixed plan. The
//! `*_is_parallelism_invariant` tests date from when enumeration could
//! fan out over threads; their names are kept, and they pin the rung
//! and the descents of each scenario.

use proptest::prelude::*;
use sdp::prelude::*;
use sdp_testkit::FaultPlan;
use std::time::Duration;

/// One governed run. Returns everything a caller could observe: rung,
/// descent events, plan digest, cost bits.
#[allow(clippy::type_complexity)]
fn governed_run(
    catalog: &Catalog,
    query: &Query,
    schedule: &[(u64, u64)],
) -> (Option<Rung>, Vec<(Rung, Rung, DegradeReason)>, u64, u64) {
    let mut faults = FaultPlan::new();
    for &(barrier, bytes) in schedule {
        faults = faults.shrink_memory_at(barrier, bytes);
    }
    let governor = Governor::new().with_fault_plan(faults);
    let governed = Optimizer::new(catalog)
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

    /// An injected budget schedule decides whether the run degrades:
    /// none serves DP undegraded, any starvation descends.
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
        let (rung, descents, _, _) = governed_run(&catalog, &query, &schedule);
        if trip_barrier == 0 {
            prop_assert_eq!(rung, Some(Rung::Dp));
            prop_assert!(descents.is_empty());
        } else {
            prop_assert!(!descents.is_empty(), "injected starvation must degrade");
        }
    }
}

#[test]
fn full_descent_is_parallelism_invariant() {
    // Starve DP, SDP and IDP at their first barriers: the run must
    // walk the whole ladder to GOO (which polls no barriers and runs
    // against the restored full budget).
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(13), 5).instance(0);
    let (rung, descents, _, _) = governed_run(&catalog, &query, &[(1, 0), (2, 0), (3, 0)]);
    assert_eq!(rung, Some(Rung::Goo));
    assert_eq!(
        descents,
        vec![
            (Rung::Dp, Rung::Sdp, DegradeReason::Memory),
            (Rung::Sdp, Rung::Idp, DegradeReason::Memory),
            (Rung::Idp, Rung::Goo, DegradeReason::Memory),
        ]
    );
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
    let optimizer = Optimizer::new(&catalog);
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
    assert!(served.contains(&Rung::Sdp), "served by {served:?}");
}

#[test]
fn a_spent_deadline_wins_over_a_predicted_descent() {
    // Star-13 under 1 MiB is provably doomed for DP, but the oracle
    // predicts only for a rung that could still start: with the
    // deadline already spent, DP is run and reports its own `Deadline`
    // trip at its first check — not a predicted memory descent.
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(13), 5).instance(0);
    let governor = Governor::new()
        .with_memory_budget(1 << 20)
        .with_deadline(Duration::ZERO);
    let failure = Optimizer::new(&catalog)
        .optimize_governed_full(&query, Algorithm::Dp, &governor)
        .unwrap_err();
    assert!(matches!(failure.error, OptError::TimedOut { .. }));
    let first = failure.degradations[0];
    assert_eq!(
        (first.from, first.to, first.reason, first.predicted),
        (Rung::Dp, Rung::Sdp, DegradeReason::Deadline, None)
    );
}
