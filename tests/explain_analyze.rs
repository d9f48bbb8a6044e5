//! `EXPLAIN ANALYZE` provenance on governed plans.
//!
//! The report must show where a plan actually came from: the rung that
//! produced it after any governor descents, the per-level enumeration
//! profile with its pruning counters, and skyline-survivor counts when
//! the producing rung was SDP.

use sdp::core::explain::explain_analyze;
use sdp::prelude::*;

#[test]
fn governed_star_chain_report_carries_full_provenance() {
    // Star-chain under a ~1 MB model budget: DP blows the budget and
    // the governor descends to SDP, whose hub partitions exercise the
    // skyline counters.
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::star_chain(13), 4).instance(0);
    let governor = Governor::new().with_memory_budget(1 << 20);
    let governed = Optimizer::new(&catalog)
        .optimize_governed(&query, Algorithm::Dp, &governor)
        .unwrap();
    assert_eq!(governed.rung, Some(Rung::Sdp), "budget must force SDP");

    let text = explain_analyze(&governed);
    // Header: requested vs producing strategy, plus the descent taken.
    assert!(text.contains("requested=DP"), "{text}");
    assert!(text.contains("produced=SDP"), "{text}");
    assert!(text.contains("(degraded)"), "{text}");
    assert!(text.contains("degraded DP -> SDP  reason=Memory"), "{text}");

    // Every plan node is tagged with the producing rung and carries a
    // self-cost breakdown.
    assert_eq!(
        text.matches("[rung=SDP]").count(),
        governed.plan.root.node_count(),
        "{text}"
    );
    assert!(text.contains("self="), "{text}");

    // Per-level profile: pruning counters and skyline survivors from
    // the SDP levels that produced the plan.
    assert!(text.contains("levels:"), "{text}");
    assert!(text.contains("[SDP] level"), "{text}");
    assert!(text.contains("pruned="), "{text}");
    let has_skyline_survivors = text.lines().any(|line| {
        line.contains("[SDP]")
            && line
                .split("skyline_survivors=")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse::<u64>().ok())
                .is_some_and(|v| v > 0)
    });
    assert!(
        has_skyline_survivors,
        "SDP levels must report nonzero skyline survivors\n{text}"
    );
}

#[test]
fn undegraded_report_shows_requested_rung() {
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Chain(6), 2).instance(0);
    let governed = Optimizer::new(&catalog)
        .optimize_governed(&query, Algorithm::Dp, &Governor::new())
        .unwrap();
    let text = explain_analyze(&governed);
    assert!(text.contains("requested=DP"), "{text}");
    assert!(text.contains("produced=DP"), "{text}");
    assert!(!text.contains("(degraded)"), "{text}");
    assert!(text.contains("[DP] level"), "{text}");
    // DP prunes against its incumbent, not with a skyline.
    assert!(text.contains("incumbent bound="), "{text}");
    assert!(text.contains("skyline_partitions=0"), "{text}");
}
