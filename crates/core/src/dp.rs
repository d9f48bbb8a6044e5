//! The level-wise bushy dynamic-programming engine.
//!
//! System-R style: level `s` enumerates every connected,
//! cartesian-product-free JCR of `s` atoms by combining surviving
//! JCRs of `i` and `s − i` atoms for all splits — "the input to the
//! DP algorithm in each level is composed of not just the survivor
//! JCRs of the immediately preceding level, but also the survivor
//! JCRs of all prior levels, thereby supporting the identification of
//! bushy joins."
//!
//! The engine is generalized over *atoms* (disjoint relation sets
//! with pre-populated memo groups):
//!
//! * DP and SDP run it over singleton atoms for the full query;
//! * IDP runs it repeatedly over a shrinking atom list, up to its
//!   block size, contracting the winning block into a compound atom
//!   between iterations.
//!
//! Candidate-pair discovery is delegated to a
//! [`crate::enumerate::PairEnumerator`] strategy
//! (level-table scan, DPccp-style csg–cmp generation, or the DPconv
//! surrogate prototype — see [`crate::enumerate`]); the engine only
//! consumes the strategy's deterministic pair stream.
//!
//! A [`LevelPruner`] hook fires after each level is fully enumerated;
//! SDP plugs its hub-partitioned skyline pruning in here, exhaustive
//! DP passes `None`.
//!
//! # Parallel levels
//!
//! Candidate pairs within one level are independent reads of earlier
//! levels, so each level fans out across worker threads when the
//! context's parallelism allows ([`EnumContext::parallelism`]) and the
//! level is large enough to amortize thread startup. Workers cost
//! their contiguous chunk of the level's pair list into private
//! shards; the level barrier merges the shards back in chunk order,
//! which reproduces the sequential memo bit-for-bit (see the
//! "Threading model" section in DESIGN.md for the argument). Levels
//! below `PARALLEL_PAIR_THRESHOLD` pairs run on the coordinating
//! thread unchanged.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use sdp_query::RelSet;

use crate::budget::OptError;
use crate::context::{EnumContext, LevelStats};
use crate::enumerate::PairEnumerator;
use crate::fx::FxHashSet;
use crate::plan::PlanNode;

/// Budget-check cadence, in candidate pair visits (sequential path).
const CHECK_INTERVAL: u64 = 1 << 16;

/// Minimum number of joinable pairs in a level before it is worth
/// fanning out to worker threads; below this the per-level thread
/// startup dwarfs the costing work.
const PARALLEL_PAIR_THRESHOLD: usize = 128;

/// Pruning hook invoked after each DP level is complete.
pub trait LevelPruner {
    /// Inspect the fully-enumerated `level` (number of atoms joined;
    /// `level_sets` lists its JCRs) and return the JCRs to prune.
    fn prune(&mut self, ctx: &EnumContext<'_>, level: usize, level_sets: &[RelSet]) -> Vec<RelSet>;

    /// Skyline accounting for the most recent [`LevelPruner::prune`]
    /// call, folded into the level's profile row. Pruners without
    /// skyline structure keep the default zeros.
    fn last_prune_stats(&self) -> PruneStats {
        PruneStats::default()
    }
}

/// Per-level skyline accounting reported by a [`LevelPruner`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Hub (or global) partitions the skyline examined.
    pub partitions: u64,
    /// Skyline survivors summed over partitions.
    pub survivors: u64,
    /// JCRs kept only by interesting-order retention.
    pub order_rescued: u64,
}

/// Per-level survivor table produced by [`run_levels`]: entry `s - 1`
/// holds the surviving JCRs of `s` atoms, paired with their cached
/// join-graph neighbourhoods.
#[derive(Debug, Default)]
pub struct LevelTable {
    /// `levels[s - 1]` = surviving `(set, neighbors)` of `s` atoms.
    pub levels: Vec<Vec<(RelSet, RelSet)>>,
}

impl LevelTable {
    /// Surviving JCR sets at the given atom count, in survivor order.
    /// Borrows the table — collect if you need to outlive it.
    pub fn sets_at(&self, atom_count: usize) -> impl Iterator<Item = RelSet> + '_ {
        self.levels
            .get(atom_count - 1)
            .map(|v| v.as_slice())
            .unwrap_or_default()
            .iter()
            .map(|&(s, _)| s)
    }
}

/// Enumerate one level's pairs across worker threads and merge the
/// shards deterministically. `pairs` must be in the sequential visit
/// order; chunks partition it contiguously and are merged left to
/// right.
fn run_level_parallel(
    ctx: &mut EnumContext<'_>,
    pairs: &[(RelSet, RelSet)],
    threads: usize,
    new_sets: &mut Vec<RelSet>,
    created: &mut Vec<RelSet>,
    recorded: &mut FxHashSet<RelSet>,
) -> Result<(), OptError> {
    let chunk = pairs.len().div_ceil(threads);
    let probe = ctx.memory.probe();
    let abort = AtomicBool::new(false);
    let shards = {
        let shared: &EnumContext<'_> = ctx;
        let (probe, abort) = (&probe, &abort);
        std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|c| scope.spawn(move || shared.level_worker(c, probe, abort)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("level worker panicked"))
                .collect::<Vec<_>>()
        })
    };
    // A budget trip anywhere aborts the level; partial results are
    // dropped before anything is merged, so an aborted parallel level
    // leaves the memo exactly at the previous level barrier.
    if let Some(e) = shards.iter().find_map(|s| s.error.clone()) {
        return Err(e);
    }
    for shard in shards {
        ctx.merge_shard(shard, new_sets, created, recorded);
    }
    Ok(())
}

/// Enumerate and prune one DP level. `new_sets` receives the level's
/// surviving JCRs (including groups retained from an earlier governed
/// rung, recorded on first visit so higher levels can build on them);
/// `created` lists only the groups this level actually inserted, which
/// is what the caller rolls back on error; `recorded` deduplicates the
/// two. Barrier budget checks run after enumeration and after the
/// pruner — the two deterministic per-level poll points of the
/// governor.
#[allow(clippy::too_many_arguments)]
fn run_one_level<'p>(
    ctx: &mut EnumContext<'_>,
    pairs: &[(RelSet, RelSet)],
    threads: usize,
    level: usize,
    visits: &mut u64,
    new_sets: &mut Vec<RelSet>,
    created: &mut Vec<RelSet>,
    recorded: &mut FxHashSet<RelSet>,
    mut pruner: Option<&mut (dyn LevelPruner + 'p)>,
) -> Result<(), OptError> {
    let pair_count = pairs.len() as u64;
    let plans_before = ctx.plans_costed;
    let pruned_before = ctx.jcrs_pruned;
    let enforcers_before = ctx.sort_enforcers;
    if threads > 1 && pairs.len() >= PARALLEL_PAIR_THRESHOLD {
        run_level_parallel(ctx, pairs, threads, new_sets, created, recorded)?;
    } else {
        // Stage creation events and emit them only once the whole
        // level has enumerated: a mid-level budget trip then leaves no
        // trace of the rolled-back level, exactly like the parallel
        // path's whole-level discard — traces stay deterministic.
        #[cfg(feature = "trace")]
        let mut staged: Vec<sdp_trace::Event> = Vec::new();
        #[cfg(feature = "trace")]
        let tracing = ctx.tracer().enabled();
        for &(a, b) in pairs {
            *visits += 1;
            if visits.is_multiple_of(CHECK_INTERVAL) {
                ctx.memory.check()?;
            }
            let union = a | b;
            if ctx.join_pair(a, b) {
                created.push(union);
                recorded.insert(union);
                new_sets.push(union);
                #[cfg(feature = "trace")]
                if tracing {
                    let mut event = EnumContext::jcr_event(union);
                    event.wall_micros = ctx.tracer().wall_micros();
                    staged.push(event);
                }
            } else if recorded.insert(union) {
                // The group pre-existed this level — retained from an
                // earlier rung of a governed descent. Record it in the
                // level row so higher levels can still reach it.
                new_sets.push(union);
            }
        }
        #[cfg(feature = "trace")]
        for event in staged {
            ctx.tracer().emit(event);
        }
    }
    ctx.memory.barrier_check()?;

    let mut prune_stats = PruneStats::default();
    if let Some(p) = pruner.as_mut() {
        let victims = p.prune(ctx, level, new_sets);
        prune_stats = p.last_prune_stats();
        if !victims.is_empty() {
            let victim_set: FxHashSet<RelSet> = victims.iter().copied().collect();
            for v in victims {
                ctx.prune_group(v);
            }
            new_sets.retain(|s| !victim_set.contains(s));
        }
    }
    ctx.memory.barrier_check()?;

    // Sort-ahead placement (post-barrier, coordinating thread only):
    // offer each surviving JCR of the level an explicit Sort enforcer
    // producing the order target, so order-preserving joins at higher
    // levels can carry the order up instead of paying a root sort over
    // the full result. `new_sets` is in deterministic creation order,
    // so the offers — and hence plans, counters and traces — are
    // bit-identical at any parallelism.
    for &set in new_sets.iter() {
        ctx.offer_sort_enforcer(set);
    }

    let stats = LevelStats {
        level,
        phase: ctx.phase(),
        enumerator: ctx.enumerator().label(),
        pairs: pair_count,
        plans_costed: ctx.plans_costed - plans_before,
        jcrs_created: created.len() as u64,
        jcrs_pruned: ctx.jcrs_pruned - pruned_before,
        jcrs_retained: new_sets.len() as u64,
        skyline_partitions: prune_stats.partitions,
        skyline_survivors: prune_stats.survivors,
        order_rescued: prune_stats.order_rescued,
        sort_enforcers: ctx.sort_enforcers - enforcers_before,
        memo_groups: ctx.memo.len() as u64,
        model_bytes: ctx.memory.used_bytes(),
        contractions: ctx.contractions(),
    };
    ctx.record_level(stats);
    #[cfg(feature = "trace")]
    ctx.tracer().emit_with(|| level_event(&stats));
    Ok(())
}

/// The per-level span summarizing one completed level barrier. Every
/// field is deterministic across thread counts.
#[cfg(feature = "trace")]
fn level_event(stats: &LevelStats) -> sdp_trace::Event {
    sdp_trace::Event::new("level")
        .with("level", stats.level)
        .with("phase", stats.phase)
        .with("enumerator", stats.enumerator)
        .with("pairs", stats.pairs)
        .with("costed", stats.plans_costed)
        .with("created", stats.jcrs_created)
        .with("pruned", stats.jcrs_pruned)
        .with("retained", stats.jcrs_retained)
        .with("skyline_partitions", stats.skyline_partitions)
        .with("skyline_survivors", stats.skyline_survivors)
        .with("order_rescued", stats.order_rescued)
        .with("sort_enforcers", stats.sort_enforcers)
        .with("memo", stats.memo_groups)
        .with("model_bytes", stats.model_bytes)
        .with("contractions", stats.contractions)
}

/// Run bottom-up DP over `atoms` (each must already have a memo
/// group), building levels `2 ..= up_to` (in atom count), applying
/// `pruner` after each level when provided. Candidate pairs come from
/// the context's configured enumeration strategy
/// ([`EnumContext::enumerator`]); a fresh instance is built per
/// invocation so IDP iterations re-prepare over their shrinking atom
/// lists.
pub fn run_levels(
    ctx: &mut EnumContext<'_>,
    atoms: &[RelSet],
    up_to: usize,
    pruner: Option<&mut dyn LevelPruner>,
) -> Result<LevelTable, OptError> {
    let mut enumerator = ctx.enumerator().build();
    run_levels_with(ctx, atoms, up_to, pruner, enumerator.as_mut())
}

/// [`run_levels`] with an explicit [`PairEnumerator`] instance —
/// the seam tests and benchmarks use to drive a specific strategy.
pub fn run_levels_with(
    ctx: &mut EnumContext<'_>,
    atoms: &[RelSet],
    up_to: usize,
    mut pruner: Option<&mut dyn LevelPruner>,
    enumerator: &mut dyn PairEnumerator,
) -> Result<LevelTable, OptError> {
    debug_assert!(up_to >= 1 && up_to <= atoms.len());
    enumerator.prepare(ctx, atoms, up_to);
    // Compound atoms are contracted subtrees the enumerator treats as
    // single vertices (IDP re-runs over already-joined blocks); the
    // count is part of the level profile so `explain_analyze` shows
    // how much of the graph each pass saw pre-contracted.
    ctx.set_contractions(atoms.iter().filter(|a| a.len() > 1).count() as u64);
    let mut table = LevelTable::default();
    table.levels.push(
        atoms
            .iter()
            .map(|&a| {
                debug_assert!(ctx.memo.get(a).is_some(), "atom {a:?} lacks a memo group");
                (a, ctx.graph().neighbors(a))
            })
            .collect(),
    );

    let mut visits: u64 = 0;
    for s in 2..=up_to {
        let pairs = enumerator.level_pairs(ctx, &table, s);
        let mut new_sets: Vec<RelSet> = Vec::new();
        let mut created: Vec<RelSet> = Vec::new();
        let mut recorded: FxHashSet<RelSet> = FxHashSet::default();
        let threads = ctx.parallelism().min(pairs.len().max(1));

        if let Err(e) = run_one_level(
            ctx,
            &pairs,
            threads,
            s,
            &mut visits,
            &mut new_sets,
            &mut created,
            &mut recorded,
            pruner.as_deref_mut(),
        ) {
            // Determinism-by-rollback: drop every group this level
            // created, so the memo a governed descent inherits equals
            // the last *completed* level — the same state the parallel
            // path's whole-level discard leaves — regardless of where
            // inside the level the budget tripped.
            // The rollback span carries only the level: how far into
            // the level the trip was detected (and hence how many
            // groups roll back) legitimately differs between the
            // sequential and parallel detection points, so it must not
            // appear in canonical fields.
            #[cfg(feature = "trace")]
            ctx.tracer()
                .emit_with(|| sdp_trace::Event::new("level_rollback").with("level", s));
            for set in created {
                ctx.prune_group(set);
            }
            return Err(e);
        }

        let graph = ctx.graph();
        table
            .levels
            .push(new_sets.iter().map(|&s| (s, graph.neighbors(s))).collect());
    }
    Ok(table)
}

/// Run the engine from singleton atoms all the way to the complete
/// query, with an optional pruner, and finish the plan (greedy
/// completion safety-net included).
pub fn optimize_complete(
    ctx: &mut EnumContext<'_>,
    pruner: Option<&mut dyn LevelPruner>,
) -> Result<Arc<PlanNode>, OptError> {
    let n = ctx.graph().len();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let all = ctx.graph().all_nodes();
    if !ctx.graph().is_connected(all) {
        return Err(OptError::DisconnectedJoinGraph);
    }
    let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
    for i in 0..n {
        ctx.ensure_base_group(i);
    }
    ctx.memory.check()?;
    run_levels(ctx, &atoms, n, pruner)?;
    if ctx.memo.get(all).is_none() {
        greedy_complete(ctx, all)?;
        ctx.completed_greedily = true;
    }
    ctx.finalize(all)
}

/// Safety net for aggressive pruning configurations: when no complete
/// JCR survived the level DP, finish the plan by greedily extending
/// the largest surviving JCR one base relation at a time (MinRows
/// selection). Exhaustive DP never needs this; the paper's SDP
/// configurations virtually never do either, but a pruner is
/// user-pluggable and completeness must not depend on its good
/// behaviour.
fn greedy_complete(ctx: &mut EnumContext<'_>, all: RelSet) -> Result<(), OptError> {
    // Start from the largest surviving group (ties: cheapest), so the
    // work DP already did is reused.
    let mut current = {
        let mut best: Option<(RelSet, usize, f64)> = None;
        let sets: Vec<RelSet> = ctx.memo.sets().collect();
        for s in sets {
            let cost = ctx.memo.get(s).expect("live set").best_cost();
            let better = match best {
                None => true,
                Some((_, len, c)) => s.len() > len || (s.len() == len && cost < c),
            };
            if better {
                best = Some((s, s.len(), cost));
            }
        }
        best.map(|(s, _, _)| s)
            .ok_or(OptError::DisconnectedJoinGraph)?
    };

    while current != all {
        let graph = ctx.graph();
        let frontier = graph.neighbors(current) & all;
        if frontier.is_empty() {
            return Err(OptError::DisconnectedJoinGraph);
        }
        // MinRows greedy step over adjacent base relations.
        let est = ctx.model().estimator();
        let mut best: Option<(f64, usize)> = None;
        for node in frontier.iter() {
            let a = RelSet::single(node);
            let cur_rows = ctx.memo.get(current).expect("current exists").rows;
            let a_rows = est.rows_for_set(graph, a);
            let rows = cur_rows * a_rows * est.crossing_selectivity(graph, current, a);
            if best.is_none_or(|(r, _)| rows < r) {
                best = Some((rows, node));
            }
        }
        let (_, node) = best.expect("frontier non-empty");
        ctx.ensure_base_group(node);
        ctx.join_pair(current, RelSet::single(node));
        current = current.insert(node);
        ctx.memory.check()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::enumerate::EnumeratorKind;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{Query, QueryGenerator, Topology};

    fn optimize(q: &Query, cat: &Catalog) -> Arc<PlanNode> {
        let model = CostModel::with_defaults(cat);
        let mut ctx = EnumContext::new(
            q,
            &model,
            Budget::unlimited(),
            1,
            EnumeratorKind::from_env(),
        );
        optimize_complete(&mut ctx, None).expect("optimization succeeds")
    }

    #[test]
    fn dp_covers_all_relations() {
        let cat = Catalog::paper();
        for topo in [
            Topology::Chain(6),
            Topology::Star(6),
            Topology::Cycle(6),
            Topology::star_chain(7),
        ] {
            let q = QueryGenerator::new(&cat, topo, 3).instance(0);
            let plan = optimize(&q, &cat);
            assert_eq!(plan.set, q.graph.all_nodes(), "{topo}");
            assert_eq!(
                plan.join_count(),
                q.num_relations() - 1,
                "{topo}: n-1 joins"
            );
            plan.check_invariants().unwrap();
        }
    }

    #[test]
    fn dp_is_optimal_versus_exhaustive_recursion() {
        // Brute-force reference: recursively enumerate every
        // cartesian-free bushy partition and take the cheapest cost
        // reachable with the same operator set. DP must match it.
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Chain(5), 17).instance(0);
        let model = CostModel::with_defaults(&cat);

        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let dp_plan = optimize_complete(&mut ctx, None).unwrap();

        // The brute force reuses the same EnumContext machinery but
        // enumerates sets recursively; since join_pair is exactly the
        // costing DP uses, equality of best cost demonstrates DP
        // explored every split.
        fn enumerate_all(ctx: &mut EnumContext<'_>, set: RelSet) {
            if set.len() == 1 {
                ctx.ensure_base_group(set.min_index().unwrap());
                return;
            }
            // All proper subset splits (connected, disjoint by
            // construction).
            let members: Vec<usize> = set.iter().collect();
            let m = members.len();
            for mask in 1..(1u64 << m) - 1 {
                let a = RelSet::from_indices(
                    (0..m).filter(|&i| mask & (1 << i) != 0).map(|i| members[i]),
                );
                let b = set - a;
                if a.min_index() > b.min_index() {
                    continue; // each split once
                }
                if !ctx.graph().is_connected(a) || !ctx.graph().is_connected(b) {
                    continue;
                }
                if !ctx.graph().sets_connected(a, b) {
                    continue;
                }
                enumerate_all(ctx, a);
                enumerate_all(ctx, b);
                ctx.join_pair(a, b);
            }
        }
        let mut brute = EnumContext::from_env(&q, &model, Budget::unlimited());
        enumerate_all(&mut brute, q.graph.all_nodes());
        let brute_best = brute.finalize(q.graph.all_nodes()).unwrap();

        let rel = (dp_plan.cost - brute_best.cost).abs() / brute_best.cost;
        assert!(
            rel < 1e-9,
            "DP {} vs brute {}",
            dp_plan.cost,
            brute_best.cost
        );
    }

    #[test]
    fn star_dp_prefers_index_nested_loops() {
        // The classic star strategy: probe the big hub… actually
        // probing the *spokes'* indexed join columns; the chosen plan
        // should use at least one index nested-loop.
        let cat = Catalog::paper();
        // Seed picked for the vendored-rand instance stream: this
        // draw's spoke sizes make index probing the winning strategy.
        let q = QueryGenerator::new(&cat, Topology::Star(6), 13).instance(0);
        let plan = optimize(&q, &cat);
        fn has_inl(p: &PlanNode) -> bool {
            matches!(
                p.op,
                crate::plan::PlanOp::Join {
                    method: sdp_cost::JoinMethod::IndexNestedLoop
                }
            ) || p.children.iter().any(|c| has_inl(c))
        }
        assert!(has_inl(&plan), "star plan without any index NLJ");
    }

    #[test]
    fn level_table_records_survivors() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Chain(4), 1).instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        for i in 0..4 {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..4).map(RelSet::single).collect();
        let table = run_levels(&mut ctx, &atoms, 4, None).unwrap();
        // Chain-4 has 3 pairs, 2 triples, 1 quad of connected sets.
        assert_eq!(table.sets_at(1).count(), 4);
        assert_eq!(table.sets_at(2).count(), 3);
        assert_eq!(table.sets_at(3).count(), 2);
        assert_eq!(table.sets_at(4).count(), 1);
    }

    #[test]
    fn parallel_levels_match_sequential_bit_for_bit() {
        // The tentpole guarantee: the memo after a parallel run is
        // indistinguishable from the sequential one — same groups in
        // the same insertion order, same Pareto entries in the same
        // order, same counters. Star-12 mid levels exceed the
        // parallel threshold, so the threaded path really runs.
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(12), 7).instance(0);
        let model = CostModel::with_defaults(&cat);

        let run = |threads: usize| {
            let mut ctx = EnumContext::new(
                &q,
                &model,
                Budget::unlimited(),
                threads,
                EnumeratorKind::from_env(),
            );
            let plan = optimize_complete(&mut ctx, None).unwrap();
            let sets: Vec<RelSet> = ctx.memo.sets().collect();
            let frontiers: Vec<Vec<(u64, Option<sdp_query::ClassId>)>> = sets
                .iter()
                .map(|&s| {
                    ctx.memo
                        .get(s)
                        .unwrap()
                        .entries()
                        .iter()
                        .map(|e| (e.cost.to_bits(), e.ordering))
                        .collect()
                })
                .collect();
            (
                plan,
                ctx.plans_costed,
                ctx.memo.jcrs_created(),
                sets,
                frontiers,
            )
        };

        let (p1, costed1, jcrs1, sets1, frontiers1) = run(1);
        for threads in [2, 4] {
            let (pn, costedn, jcrsn, setsn, frontiersn) = run(threads);
            assert_eq!(p1.cost.to_bits(), pn.cost.to_bits(), "{threads} threads");
            assert_eq!(costed1, costedn, "plans costed, {threads} threads");
            assert_eq!(jcrs1, jcrsn, "jcrs created, {threads} threads");
            assert_eq!(sets1, setsn, "memo iteration order, {threads} threads");
            assert_eq!(frontiers1, frontiersn, "group entries, {threads} threads");
        }
    }

    #[test]
    fn budget_infeasibility_surfaces() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(12), 2).instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::from_env(
            &q,
            &model,
            Budget::with_memory(64 * crate::budget::GROUP_MODEL_BYTES),
        );
        match optimize_complete(&mut ctx, None) {
            Err(OptError::MemoryExhausted { .. }) => {}
            other => panic!("expected memory exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn budget_infeasibility_surfaces_in_parallel() {
        // Worker probes must trip the same error the sequential path
        // reports when the model memory exceeds the budget mid-level.
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(12), 2).instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::new(
            &q,
            &model,
            Budget::with_memory(64 * crate::budget::GROUP_MODEL_BYTES),
            4,
            EnumeratorKind::from_env(),
        );
        match optimize_complete(&mut ctx, None) {
            Err(OptError::MemoryExhausted { .. }) => {}
            other => panic!("expected memory exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_graph_rejected() {
        use sdp_catalog::RelId;
        let g = sdp_query::JoinGraph::new(vec![RelId(0), RelId(1)], vec![]);
        let q = Query::new(g);
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        assert!(matches!(
            optimize_complete(&mut ctx, None),
            Err(OptError::DisconnectedJoinGraph)
        ));
    }

    #[test]
    fn single_relation_query() {
        let cat = Catalog::paper();
        use sdp_catalog::RelId;
        let g = sdp_query::JoinGraph::new(vec![RelId(5)], vec![]);
        let q = Query::new(g);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let plan = optimize_complete(&mut ctx, None).unwrap();
        assert_eq!(plan.set, RelSet::single(0));
        assert_eq!(plan.join_count(), 0);
    }

    #[test]
    fn a_hostile_pruner_cannot_break_completeness() {
        // Prune EVERYTHING at every level; greedy completion must
        // still deliver a valid full plan.
        struct PruneAll;
        impl LevelPruner for PruneAll {
            fn prune(
                &mut self,
                _ctx: &EnumContext<'_>,
                _level: usize,
                sets: &[RelSet],
            ) -> Vec<RelSet> {
                sets.to_vec()
            }
        }
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::star_chain(8), 4).instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let mut pruner = PruneAll;
        let plan = optimize_complete(&mut ctx, Some(&mut pruner)).unwrap();
        assert_eq!(plan.set, q.graph.all_nodes());
        plan.check_invariants().unwrap();
        assert!(ctx.completed_greedily);
    }

    #[test]
    fn ordered_query_root_is_ordered() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(5), 8).ordered_instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let plan = optimize_complete(&mut ctx, None).unwrap();
        assert_eq!(plan.ordering, ctx.order_target());
        assert!(plan.ordering.is_some());
    }
}
