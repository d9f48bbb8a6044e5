//! Iterative Dynamic Programming — the paper's main competitor.
//!
//! The paper benchmarks against "the best overall performer in
//! [Kossmann & Stocker]" — the **IDP1-balanced-bestRow** variant "with
//! a hybrid plan evaluation function that selects 5% of the subplans
//! based on Minimum Intermediate Result (MinRows) … for ballooning to
//! complete plans, and during ballooning again uses the Minimum
//! Intermediate Result plan evaluation function". `k` sets the number
//! of DP levels per iteration; the paper uses `k = 4` and `k = 7`.
//!
//! One iteration:
//!
//! 1. run exhaustive DP over the current atoms up to the (balanced)
//!    block size;
//! 2. pick the top 5 % of the block-size JCRs by MinRows;
//! 3. *balloon* each pick to a complete plan by greedily appending the
//!    MinRows-adjacent atom at every step;
//! 4. commit the pick whose ballooned completion is cheapest, contract
//!    it into a compound atom — its plans extracted into trees first,
//!    since the records they are kept as refer to the groups below —
//!    discard every other memo entry, and restart.
//!
//! "Balanced" means the block size is evened out so the final
//! iteration is not a stub: with `r` atoms remaining, the iteration
//! count is fixed at `⌈(r−1)/(k−1)⌉` and the per-iteration block size
//! re-derived from it.

use std::sync::Arc;

use sdp_query::RelSet;

use crate::budget::OptError;
use crate::context::EnumContext;
use crate::dp::{prepare, run_levels};
use crate::fx::FxHashSet;
use crate::plan::PlanNode;

/// Fraction of the block-size subplans selected for ballooning
/// (paper: 5 %).
const SELECTION_FRACTION: f64 = 0.05;

/// Balanced block size for `r` remaining atoms under parameter `k`.
///
/// Iterations = `⌈(r−1)/(k−1)⌉` (each iteration contracts `bk` atoms
/// into one, reducing the count by `bk − 1`); the balanced block size
/// spreads the reduction evenly.
pub fn balanced_block_size(r: usize, k: usize) -> usize {
    debug_assert!(k >= 2);
    if r <= k {
        return r;
    }
    let iterations = (r - 1).div_ceil(k - 1);
    (1 + (r - 1).div_ceil(iterations)).min(r)
}

/// Optimize with IDP1-balanced-bestRow, `k` DP levels per iteration
/// (the paper's `k`: 4 or 7 in the evaluation).
///
/// # Panics
/// Panics if `k < 2`: a block of one atom contracts nothing.
pub fn optimize_idp(ctx: &mut EnumContext<'_>, k: usize) -> Result<Arc<PlanNode>, OptError> {
    assert!(k >= 2, "IDP needs k >= 2");
    let all = prepare(ctx)?;
    let mut atoms: Vec<RelSet> = all.iter().map(RelSet::single).collect();
    loop {
        let r = atoms.len();
        let bk = balanced_block_size(r, k);
        let table = run_levels(ctx, &atoms, bk)?;
        if bk == r {
            return ctx.finalize(all);
        }

        // --- candidate selection: top 5 % by MinRows -------------------
        let mut candidates: Vec<RelSet> = table.sets_at(bk).collect();
        debug_assert!(!candidates.is_empty(), "connected graph has full blocks");
        candidates.sort_by(|&a, &b| {
            let ra = ctx.memo.get(a).expect("live").rows;
            let rb = ctx.memo.get(b).expect("live").rows;
            ra.partial_cmp(&rb).expect("finite rows")
        });
        let take = ((candidates.len() as f64 * SELECTION_FRACTION).ceil() as usize)
            .clamp(1, candidates.len());
        candidates.truncate(take);

        // --- balloon each candidate, commit the best completion --------
        let mut winner: Option<(RelSet, f64)> = None;
        for &cand in &candidates {
            let mir = balloon_mir(ctx, cand, &atoms, all)?;
            if winner.is_none_or(|(_, m)| mir < m) {
                winner = Some((cand, mir));
            }
        }
        let (winner_set, _) = winner.expect("at least one candidate");

        atoms = contract(ctx, &atoms, winner_set);
        ctx.memory.check(ctx.memo.live_nodes())?;
    }
}

/// Contract `winner` into a compound atom: drop every memo group that
/// is neither it nor one of the atoms it leaves, and return the next
/// iteration's atoms, the winner first. The winner's plans are records
/// referring into the groups about to go, so they are built first;
/// from here on the block's plans are nodes, like an access path's.
pub(crate) fn contract(ctx: &mut EnumContext<'_>, atoms: &[RelSet], winner: RelSet) -> Vec<RelSet> {
    ctx.extract_all(winner);
    let remaining = atoms.iter().copied().filter(|a| a.is_disjoint(winner));
    let atoms: Vec<RelSet> = std::iter::once(winner).chain(remaining).collect();
    let keep: FxHashSet<RelSet> = atoms.iter().copied().collect();
    let to_drop: Vec<RelSet> = ctx.memo.sets().filter(|s| !keep.contains(s)).collect();
    for s in to_drop {
        ctx.prune_group(s);
    }
    atoms
}

/// Greedily complete `start` to `all` by repeatedly appending the
/// MinRows-best adjacent atom, and return the completion's **Minimum
/// Intermediate Result** score: the sum of the intermediate result
/// cardinalities along the way.
///
/// This is deliberately cost-blind, as the paper specifies — both the
/// ballooning steps and the evaluation of the ballooned plan use "the
/// Minimum Intermediate Result plan evaluation function", i.e. pure
/// cardinalities. No plans are constructed or costed: ballooning only
/// *selects* the block to commit; the committed block's plans come
/// from the preceding exhaustive DP.
///
/// Rows are the estimator's, bit for bit and unclamped
/// (`EnumContext::estimate`).
fn balloon_mir(
    ctx: &EnumContext<'_>,
    start: RelSet,
    atoms: &[RelSet],
    all: RelSet,
) -> Result<f64, OptError> {
    let graph = ctx.graph();
    let mut cur = start;
    let mut mir = 0.0;
    while cur != all {
        let mut best: Option<(f64, RelSet)> = None;
        for &a in atoms {
            if !a.is_disjoint(cur) || !graph.sets_connected(cur, a) {
                continue;
            }
            let (rows, _) = ctx.estimate(cur | a);
            if best.is_none_or(|(r, _)| rows < r) {
                best = Some((rows, a));
            }
        }
        let (rows, next) = best.ok_or(OptError::DisconnectedJoinGraph)?;
        mir += rows;
        cur = cur | next;
    }
    Ok(mir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::dp::optimize_complete;
    use crate::enumerate::tests::wide_query;
    use proptest::prelude::*;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn balanced_block_sizes_match_hand_computation() {
        // r = 15, k = 7: 3 iterations, blocks of 6.
        assert_eq!(balanced_block_size(15, 7), 6);
        // Small remainder folds into one final full DP.
        assert_eq!(balanced_block_size(5, 7), 5);
        assert_eq!(balanced_block_size(7, 7), 7);
        // r = 10, k = 4: ceil(9/3) = 3 iterations, blocks of 4.
        assert_eq!(balanced_block_size(10, 4), 4);
        // Never exceeds r.
        for r in 2..30 {
            for k in 2..10 {
                let b = balanced_block_size(r, k);
                assert!(b >= 2 && b <= r, "r={r} k={k} b={b}");
            }
        }
    }

    fn costs(topo: Topology, seed: u64, k: usize) -> (f64, f64) {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, topo, seed).instance(0);
        let mut idp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let idp = optimize_idp(&mut idp_ctx, k).unwrap();
        let mut dp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let dp = optimize_complete(&mut dp_ctx).unwrap();
        (idp.cost, dp.cost)
    }

    #[test]
    fn idp_equals_dp_when_query_fits_one_block() {
        let (idp, dp) = costs(Topology::star_chain(6), 3, 7);
        assert!((idp - dp).abs() / dp < 1e-9, "idp {idp} dp {dp}");
    }

    #[test]
    fn idp_plans_are_valid_and_complete() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        for topo in [
            Topology::Star(10),
            Topology::star_chain(10),
            Topology::Chain(10),
        ] {
            let q = QueryGenerator::new(&cat, topo, 5).instance(0);
            let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
            let plan = optimize_idp(&mut ctx, 4).unwrap();
            assert_eq!(plan.set, q.graph.all_nodes(), "{topo}");
            plan.check_invariants().unwrap();
            assert_eq!(plan.join_count(), 9);
        }
    }

    #[test]
    fn idp_never_beats_dp() {
        for seed in 0..4 {
            let (idp, dp) = costs(Topology::Star(9), seed, 4);
            assert!(idp >= dp * (1.0 - 1e-9), "seed {seed}: idp {idp} dp {dp}");
        }
    }

    #[test]
    fn idp_costs_fewer_plans_than_dp_on_stars() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(11), 2).instance(0);
        let mut idp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        optimize_idp(&mut idp_ctx, 4).unwrap();
        let mut dp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        optimize_complete(&mut dp_ctx).unwrap();
        assert!(idp_ctx.stats().plans_costed < dp_ctx.stats().plans_costed);
    }

    #[test]
    fn idp_ordered_query_roots_are_ordered() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(8), 6).ordered_instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_idp(&mut ctx, 4).unwrap();
        assert_eq!(plan.ordering, ctx.order_target());
    }

    /// Ballooning as the estimator scores it: [`balloon_mir`]'s oracle.
    fn balloon_mir_by_estimator(
        ctx: &EnumContext<'_>,
        start: RelSet,
        atoms: &[RelSet],
        all: RelSet,
    ) -> Result<f64, OptError> {
        let graph = ctx.graph();
        let est = ctx.model().estimator();
        let mut cur = start;
        let mut mir = 0.0;
        while cur != all {
            let mut best: Option<(f64, RelSet)> = None;
            for &a in atoms {
                if !a.is_disjoint(cur) || !graph.sets_connected(cur, a) {
                    continue;
                }
                let rows = est.rows_for_set(graph, cur | a);
                if best.is_none_or(|(r, _)| rows < r) {
                    best = Some((rows, a));
                }
            }
            let (rows, next) = best.ok_or(OptError::DisconnectedJoinGraph)?;
            mir += rows;
            cur = cur | next;
        }
        Ok(mir)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Ballooning from the run tables against the estimator's: every
        /// block of every iteration, and every atom, scores the same MIR
        /// bits, so IDP commits the same block — over compound atoms (a
        /// random block contracted each iteration) and graphs of more
        /// than 64 edges and filters.
        #[test]
        fn ballooning_scores_blocks_as_the_estimator_does(
            n in 3usize..=14,
            parents in prop::collection::vec(any::<u64>(), 13usize),
            extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=12),
            cliques in prop::collection::vec(any::<u64>(), 0usize..=5),
            filters in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u64>()), 0usize..=100),
            k in 2usize..=5,
            contracted in any::<usize>(),
        ) {
            let (query, _) = wide_query(n, &parents, &extras, &cliques, &filters);
            let cat = Catalog::paper();
            let model = CostModel::with_defaults(&cat);
            let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
            (0..n).for_each(|i| ctx.ensure_base_group(i));
            let all = query.graph.all_nodes();
            let mut atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
            loop {
                let bk = balanced_block_size(atoms.len(), k);
                let table = run_levels(&mut ctx, &atoms, bk).unwrap();
                if bk == atoms.len() {
                    break;
                }
                let blocks: Vec<RelSet> = table.sets_at(bk).collect();
                for &block in blocks.iter().chain(&atoms) {
                    let mir = balloon_mir(&ctx, block, &atoms, all).unwrap();
                    let oracle = balloon_mir_by_estimator(&ctx, block, &atoms, all).unwrap();
                    prop_assert_eq!(mir.to_bits(), oracle.to_bits(), "{:?}", block);
                }
                atoms = contract(&mut ctx, &atoms, blocks[contracted % blocks.len()]);
            }
        }
    }

    #[test]
    fn idp_memory_is_reclaimed_between_iterations() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(12), 7).instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        optimize_idp(&mut ctx, 4).unwrap();
        // After the run, the memo holds far fewer groups than were
        // ever created — contraction dropped the rest.
        assert!(ctx.memo.len() as u64 * 4 < ctx.memo.jcrs_created());
    }
}
