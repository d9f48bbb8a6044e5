//! The feasibility oracle: a provable lower bound on the peak memory
//! of an *exhaustive* rung, computed from the join graph alone.
//!
//! The paper's `*` cells (DP from Star-17 up, IDP(7) at Star-23, chains
//! never) depend only on topology and size, and the memory model that
//! reproduces them is exact arithmetic ([`GROUP_MODEL_BYTES`] per live
//! group, [`NODE_MODEL_BYTES`] per live plan node). Exhaustive level
//! enumeration without a pruner creates one group for every connected
//! subgraph (csg) of the sizes it builds, keeps each until the run
//! ends, and every live group holds at least one live node — so at the
//! post-enumeration barrier of its last level the run uses at least
//! [`CSG_MODEL_BYTES`] × #csg, whatever the costs are. Counting
//! connected subgraphs needs no costs either, which is what lets the
//! governor descend past a doomed rung without running it
//! (`Optimizer::optimize_governed_full`).
//!
//! Bounded work: nothing is enumerated when even *every* subset of the
//! sizes in question would fit (`subsets_up_to`, O(n) arithmetic —
//! every request below 17 relations at the default 1 GB budget), and
//! the count stops one past the number of csgs the budget has room
//! for.

use sdp_query::JoinGraph;

use crate::budget::{GROUP_MODEL_BYTES, NODE_MODEL_BYTES};
use crate::enumerate::CsgWalk;
use crate::idp::balanced_block_size;
use crate::optimizer::Algorithm;

/// Model bytes an exhaustive rung holds per connected subgraph it has
/// enumerated: the group and its cheapest plan.
pub const CSG_MODEL_BYTES: u64 = GROUP_MODEL_BYTES + NODE_MODEL_BYTES;

/// Number of non-empty subsets of at most `max_size` out of `n`
/// elements (saturating) — an upper bound on any csg count.
fn subsets_up_to(n: usize, max_size: usize) -> u64 {
    if max_size >= n {
        // All of them, 2^n − 1: the O(1) exit of every unpruned DP.
        return if n >= 64 { u64::MAX } else { (1 << n) - 1 };
    }
    let mut total = 0u64;
    let mut choose = 1u128; // C(n, 0)
    for j in 1..=max_size {
        choose = choose * (n - j + 1) as u128 / j as u128;
        total = total.saturating_add(u64::try_from(choose).unwrap_or(u64::MAX));
    }
    total
}

/// Count the connected subgraphs of `graph` with at most `max_size`
/// relations, giving up at `limit`: the result is exact below `limit`
/// and `limit` otherwise. Work is O(result × n).
pub fn count_connected_subgraphs(graph: &JoinGraph, max_size: usize, limit: u64) -> u64 {
    if graph.is_empty() || max_size == 0 || limit == 0 {
        return 0;
    }
    let mut count = 0u64;
    CsgWalk::over(graph).each_csg(max_size, &mut |_| {
        count += 1;
        count < limit
    });
    count
}

/// The largest JCR size (in relations) the first level run of
/// `algorithm` enumerates exhaustively over singleton atoms, or `None`
/// when the strategy keeps a cost-dependent subset (SDP) or enumerates
/// no levels (GOO).
fn exhaustive_levels(algorithm: Algorithm, n: usize) -> Option<usize> {
    match algorithm {
        Algorithm::Dp => Some(n),
        Algorithm::Idp { k } => Some(balanced_block_size(n, k)),
        Algorithm::Sdp(_) | Algorithm::Goo => None,
    }
}

/// A lower bound on the peak model bytes of running `algorithm` over
/// `graph` (the rewritten join graph, as the rung would see it), when
/// that bound already exceeds `max_model_bytes` — the rung is doomed:
/// some budget check of it returns
/// [`OptError::MemoryExhausted`](crate::OptError::MemoryExhausted).
/// `None` means "not provably doomed", never "fits".
///
/// For DP the bound is that of the *unbounded* enumeration
/// (`dp::optimize_complete`), which keeps every
/// connected subgraph. `Algorithm::Dp` runs bounded by a greedy
/// incumbent (`dp::optimize_dp`) and drops the JCRs that cost more, so
/// it can fit a budget this oracle calls doomed. The oracle stays
/// conservative on purpose: which JCRs the bound drops depends on
/// costs, which it does not read, and keeping the verdict a function
/// of the graph alone keeps every governed rung choice where it was.
///
/// The bound returned is the smallest multiple of [`CSG_MODEL_BYTES`]
/// above the budget (the count stops there), not the rung's true peak.
pub fn doomed_bound(graph: &JoinGraph, algorithm: Algorithm, max_model_bytes: u64) -> Option<u64> {
    let n = graph.len();
    let max_size = exhaustive_levels(algorithm, n)?;
    let room = max_model_bytes / CSG_MODEL_BYTES;
    if subsets_up_to(n, max_size) <= room {
        return None;
    }
    // An empty or disconnected query fails its rung with an error no
    // descent recovers from; that is the rung's to report.
    if !graph.is_connected(graph.all_nodes()) {
        return None;
    }
    let doomed = room.saturating_add(1);
    (count_connected_subgraphs(graph, max_size, doomed) == doomed)
        .then(|| doomed.saturating_mul(CSG_MODEL_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, OptError};
    use crate::context::EnumContext;
    use crate::enumerate::tests::random_connected_query;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    fn graph_of(topology: Topology) -> JoinGraph {
        let catalog = Catalog::paper();
        QueryGenerator::new(&catalog, topology, 1).instance(0).graph
    }

    /// The graph a rung sees: after the closure rewrite.
    fn rewritten(topology: Topology) -> JoinGraph {
        let mut graph = graph_of(topology);
        sdp_query::infer_transitive_edges(&mut graph);
        graph
    }

    fn binomial(n: usize, k: usize) -> u64 {
        (1..=k).fold(1u64, |c, j| c * (n - j + 1) as u64 / j as u64)
    }

    #[test]
    fn counts_match_the_closed_forms() {
        for n in 2..=12usize {
            let all = |topology| count_connected_subgraphs(&graph_of(topology), n, u64::MAX);
            assert_eq!(
                all(Topology::Chain(n)),
                (n * (n + 1) / 2) as u64,
                "chain {n}"
            );
            assert_eq!(
                all(Topology::Star(n)),
                (1u64 << (n - 1)) + n as u64 - 1,
                "star {n}"
            );
            assert_eq!(all(Topology::Clique(n)), (1u64 << n) - 1, "clique {n}");
            if n >= 3 {
                assert_eq!(
                    all(Topology::Cycle(n)),
                    (n * (n - 1) + 1) as u64,
                    "cycle {n}"
                );
            }
        }
    }

    #[test]
    fn size_capped_counts_match_the_closed_forms() {
        for n in 3..=12usize {
            for cap in 1..n {
                let capped =
                    |topology| count_connected_subgraphs(&graph_of(topology), cap, u64::MAX);
                // Chain: n − s + 1 paths of s relations.
                let chain: usize = (1..=cap).map(|s| n - s + 1).sum();
                assert_eq!(capped(Topology::Chain(n)), chain as u64, "chain {n}/{cap}");
                // Star: the spokes alone, plus the hub with any s − 1.
                let star: u64 = (n as u64 - 1) + (0..cap).map(|s| binomial(n - 1, s)).sum::<u64>();
                assert_eq!(capped(Topology::Star(n)), star, "star {n}/{cap}");
                // Cycle: n arcs of every length below n.
                assert_eq!(
                    capped(Topology::Cycle(n)),
                    (n * cap) as u64,
                    "cycle {n}/{cap}"
                );
                let clique: u64 = (1..=cap).map(|s| binomial(n, s)).sum();
                assert_eq!(capped(Topology::Clique(n)), clique, "clique {n}/{cap}");
                assert_eq!(subsets_up_to(n, cap), clique, "subsets {n}/{cap}");
            }
        }
        assert_eq!(subsets_up_to(64, 64), u64::MAX, "2^64 − 1, not overflow");
        assert_eq!(subsets_up_to(12, 12), (1 << 12) - 1);
    }

    #[test]
    fn the_count_stops_at_its_limit() {
        // Star-20 has 524 307 connected subgraphs; asked whether there
        // are more than 100, the walk visits 101 of them.
        let graph = graph_of(Topology::Star(20));
        let mut visits = 0u64;
        CsgWalk::over(&graph).each_csg(20, &mut |_| {
            visits += 1;
            visits < 101
        });
        assert_eq!(visits, 101);
        assert_eq!(count_connected_subgraphs(&graph, 20, 101), 101);
        // The size cap prunes the walk, it does not filter it: sets of
        // ≤ 3 relations out of a 19-spoke frontier are C(19, ≤ 2) + 19.
        assert_eq!(
            count_connected_subgraphs(&graph, 3, u64::MAX),
            19 + 1 + 19 + 171
        );
    }

    #[test]
    fn small_queries_are_never_enumerated() {
        // 2^16 − 1 groups fit the default budget: exit before counting.
        let room = Budget::default().max_model_bytes / CSG_MODEL_BYTES;
        assert!(subsets_up_to(16, 16) <= room);
        assert!(subsets_up_to(17, 17) > room);
        for topology in [Topology::Star(12), Topology::Clique(12), Topology::Star(16)] {
            assert_eq!(
                doomed_bound(
                    &graph_of(topology),
                    Algorithm::Dp,
                    Budget::default().max_model_bytes
                ),
                None
            );
        }
    }

    #[test]
    fn the_paper_frontier_is_predicted() {
        let gib = Budget::default().max_model_bytes;
        let verdict = |topology, algorithm| doomed_bound(&rewritten(topology), algorithm, gib);
        // DP: `*` at Star-20 and Star-Chain-23, never on chains.
        assert!(verdict(Topology::Star(20), Algorithm::Dp).is_some());
        assert!(verdict(Topology::star_chain(23), Algorithm::Dp).is_some());
        assert_eq!(verdict(Topology::Chain(25), Algorithm::Dp), None);
        assert_eq!(verdict(Topology::Star(16), Algorithm::Dp), None);
        // IDP(7): feasible at Star-20. Its `*` at Star-23 is beyond a
        // one-plan-per-group lower bound (110 078 sets of ≤ 7, room for
        // 116 508): the oracle may stay silent where a rung is doomed,
        // never the reverse. One relation more and it speaks.
        assert_eq!(verdict(Topology::Star(20), Algorithm::Idp { k: 7 }), None);
        assert_eq!(verdict(Topology::Star(23), Algorithm::Idp { k: 7 }), None);
        assert!(verdict(Topology::Star(24), Algorithm::Idp { k: 7 }).is_some());
        // Cost-dependent or level-free strategies are never predicted.
        for algorithm in [Algorithm::Sdp(Default::default()), Algorithm::Goo] {
            assert_eq!(verdict(Topology::Star(23), algorithm), None);
        }
    }

    #[test]
    fn the_bound_is_the_first_multiple_above_the_budget() {
        let graph = rewritten(Topology::star_chain(14));
        let bound = doomed_bound(&graph, Algorithm::Dp, 2 << 20);
        assert_eq!(bound, Some(228 * CSG_MODEL_BYTES));
        const { assert!(228 * CSG_MODEL_BYTES > 2 << 20 && 227 * CSG_MODEL_BYTES <= 2 << 20) };
    }

    #[test]
    fn disconnected_and_empty_graphs_are_left_to_the_rung() {
        use sdp_catalog::RelId;
        let relations = (0..20).map(RelId).collect();
        let graph = JoinGraph::new(relations, vec![]);
        assert_eq!(doomed_bound(&graph, Algorithm::Dp, 0), None);
        let empty = JoinGraph::new(vec![], vec![]);
        assert_eq!(doomed_bound(&empty, Algorithm::Dp, 0), None);
    }

    mod soundness {
        use super::*;
        use proptest::prelude::*;

        /// Run `algorithm` from scratch under `budget` on the graph the
        /// oracle counts, DP as the unbounded enumeration:
        /// `Algorithm::Dp`'s incumbent bound can fit where the oracle
        /// says doomed.
        fn run(
            query: &sdp_query::Query,
            algorithm: Algorithm,
            budget: Budget,
        ) -> Result<crate::RunStats, OptError> {
            let catalog = Catalog::paper();
            let model = CostModel::with_defaults(&catalog);
            let mut ctx = EnumContext::new(query, &model, budget);
            match algorithm {
                Algorithm::Dp => crate::dp::optimize_complete(&mut ctx),
                Algorithm::Idp { k } => crate::idp::optimize_idp(&mut ctx, k),
                _ => unreachable!("the oracle predicts only exhaustive rungs"),
            }
            .map(|_| ctx.stats())
        }

        /// `permille` sets the budget relative to what the rung's
        /// connected subgraphs alone need, so that about two cases in
        /// three are doomed and the rest sit just above the frontier.
        fn check(
            n: usize,
            parents: &[u64],
            extras: &[(u64, u64)],
            algorithm: Algorithm,
            permille: u64,
        ) {
            let (query, _) = random_connected_query(n, parents, extras);
            let max_size = exhaustive_levels(algorithm, n).unwrap();
            let needed =
                count_connected_subgraphs(&query.graph, max_size, u64::MAX) * CSG_MODEL_BYTES;
            // Not only multiples of the per-csg charge.
            let max_model_bytes = needed * permille / 1000 + permille % 7 * 1000;
            let verdict = doomed_bound(&query.graph, algorithm, max_model_bytes);
            assert_eq!(
                verdict.is_some(),
                needed > max_model_bytes,
                "exact in its count"
            );
            let Some(bound) = verdict else { return };
            assert!(bound > max_model_bytes && bound <= needed);
            // Sound: never above what the rung really needs …
            let unbudgeted = run(&query, algorithm, Budget::unlimited()).expect("unlimited budget");
            assert!(bound <= unbudgeted.peak_model_bytes);
            // … so the rung, run anyway, does not fit.
            let budgeted = run(&query, algorithm, Budget::with_memory(max_model_bytes));
            assert!(
                matches!(budgeted, Err(OptError::MemoryExhausted { .. })),
                "skipped a rung that fits: {budgeted:?}"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn a_doomed_dp_rung_never_fits(
                n in 2usize..=10,
                parents in prop::collection::vec(any::<u64>(), 9usize),
                extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=12),
                permille in 0u64..1500,
            ) {
                check(n, &parents, &extras, Algorithm::Dp, permille);
            }

            #[test]
            fn a_doomed_idp_rung_never_fits(
                n in 2usize..=10,
                parents in prop::collection::vec(any::<u64>(), 9usize),
                extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=12),
                permille in 0u64..1500,
                k in 2usize..=5,
            ) {
                check(n, &parents, &extras, Algorithm::Idp { k }, permille);
            }
        }
    }

    #[test]
    fn the_bound_is_reached_exactly_on_a_chain() {
        // Chain-6 under DP: 21 connected subgraphs; with exactly room
        // for 20 the oracle says doomed and the run agrees, with room
        // for all of them plus DP's real plans it stays silent.
        let catalog = Catalog::paper();
        let model = CostModel::with_defaults(&catalog);
        let query = QueryGenerator::new(&catalog, Topology::Chain(6), 3).instance(0);
        let tight = 20 * CSG_MODEL_BYTES;
        assert_eq!(
            doomed_bound(&query.graph, Algorithm::Dp, tight),
            Some(21 * CSG_MODEL_BYTES)
        );
        let mut ctx = EnumContext::new(&query, &model, Budget::with_memory(tight));
        assert!(matches!(
            crate::dp::optimize_complete(&mut ctx),
            Err(OptError::MemoryExhausted { .. })
        ));
        assert_eq!(
            doomed_bound(&query.graph, Algorithm::Dp, 21 * CSG_MODEL_BYTES),
            None
        );
    }
}
