//! Skyline Dynamic Programming — the paper's contribution.
//!
//! SDP augments exhaustive DP with a localized pruning filter
//! (Section 2.1):
//!
//! 1. **Where to prune.** Only levels `2 ..= N − 2`, and only when at
//!    least one *hub* is present (the worked example of Figure 2.2:
//!    a 9-relation query prunes levels 2–7 and runs plain DP at
//!    levels 1, 8 and 9). JCRs that contain no hub form the
//!    *FreeGroup* and are never pruned — "there is no pruning at all
//!    for a chain or cycle query".
//! 2. **How to partition.** The *PruneGroup* (hub-bearing JCRs) is
//!    partitioned per hub: Root-Hub partitioning keys on the hubs of
//!    the original join graph (the variant the paper evaluates, found
//!    to match Parent-Hub quality "with much lesser overheads");
//!    Parent-Hub keys on the hub-parents of the previous level. A JCR
//!    containing several hubs joins *all* the corresponding
//!    partitions and "such JCRs are pruned since they are not
//!    universally considered, by all parent-hubs, to be … worth
//!    pursuing further" unless they survive in every one. The
//!    Global variant (Table 3.6's ablation) throws every JCR of the
//!    level into a single partition.
//! 3. **What to keep.** Within a partition, survivors are the
//!    disjunctive union of the pairwise skylines (RC ∪ CS ∪ RS) of
//!    the `[Rows, Cost, Selectivity]` feature vectors — "Option 2".
//!    Option 1 (one full-vector skyline) and the k-dominant "strong
//!    skyline" of the paper's future work are available for the
//!    ablation experiments.
//! 4. **Interesting orders.** For a user `ORDER BY` on a join column,
//!    an extra partition per relation owning that column collects all
//!    JCRs *not* containing the relation; their skyline survivors are
//!    added to the output so that order-producing combinations remain
//!    reachable (Section 2.1.4).

use sdp_query::{hubs, RelSet};
use sdp_skyline::{k_dominant_skyline, pairwise_union_skyline_threaded, skyline_sfs};

use crate::context::EnumContext;
use crate::dp::{LevelPruner, PruneStats};
use crate::fx::FxHashMap;

/// Minimum level size (in JCRs) before the per-partition skylines are
/// fanned out to worker threads; below this the scans are too cheap
/// to amortize thread startup.
const PARALLEL_PARTITION_THRESHOLD: usize = 64;

/// How the PruneGroup is partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partitioning {
    /// Partition by the hubs of the original join graph — the
    /// variant the paper evaluates.
    #[default]
    RootHub,
    /// Partition by the hub-parents of the immediately previous
    /// level (composite hubs recomputed each iteration).
    ParentHub,
    /// One partition holding the whole level — the "global pruning"
    /// ablation of Table 3.6. Applied at every prunable level
    /// regardless of hubs, with no FreeGroup exemption.
    Global,
}

/// Which skyline function prunes within a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SkylineOption {
    /// Option 2: union of the pairwise RC, CS, RS skylines — strong
    /// pruning at full plan quality (the paper's choice).
    #[default]
    PairwiseUnion,
    /// Option 1: a single skyline over the full `[R, C, S]` vector —
    /// "high-quality plans but … very little pruning".
    FullVector,
    /// The k-dominant "strong skyline" (future work, the paper’s reference \[12\]); `k` is the
    /// number of dimensions a dominator must win on (2 or 3 for the
    /// 3-attribute vector). An empty k-dominant skyline (cyclic
    /// dominance) falls back to the full-vector skyline so a level is
    /// never wiped out.
    KDominant(usize),
}

/// SDP configuration: partitioning × skyline function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SdpConfig {
    /// PruneGroup partitioning variant.
    pub partitioning: Partitioning,
    /// Skyline pruning function.
    pub skyline: SkylineOption,
}

impl SdpConfig {
    /// The paper's evaluated configuration: Root-Hub partitioning
    /// with the pairwise-union skyline.
    pub fn paper() -> Self {
        SdpConfig::default()
    }
}

/// The SDP pruning hook plugged into the DP level loop.
#[derive(Debug)]
pub struct SdpPruner {
    config: SdpConfig,
    /// Hubs of the original join graph (computed once).
    root_hubs: Vec<usize>,
    /// Hub-parents: surviving JCRs of the previous level that act as
    /// hubs in the contracted graph (Parent-Hub mode only).
    hub_parents: Vec<RelSet>,
    /// Relations owning a column of the `ORDER BY` class, each of
    /// which sponsors an extra "interesting order" partition.
    order_relations: Vec<usize>,
    /// Skyline accounting for the most recent `prune_level` call.
    last: PruneStats,
}

impl SdpPruner {
    /// Build the pruner for the query in `ctx`.
    pub fn new(ctx: &EnumContext<'_>, config: SdpConfig) -> Self {
        let graph = ctx.graph();
        let root_hubs: Vec<usize> = hubs::root_hubs(graph).iter().collect();
        // Level-1 hub-parents are exactly the root hubs.
        let hub_parents: Vec<RelSet> = root_hubs.iter().map(|&h| RelSet::single(h)).collect();
        let order_relations: Vec<usize> = match ctx.order_target() {
            None => Vec::new(),
            Some(class) => {
                let mut nodes: Vec<usize> = ctx
                    .classes()
                    .members(class)
                    .iter()
                    .map(|c| c.node)
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            }
        };
        SdpPruner {
            config,
            root_hubs,
            hub_parents,
            order_relations,
            last: PruneStats::default(),
        }
    }

    /// Apply the configured skyline function within one partition,
    /// returning the indices of the surviving members. `threads > 1`
    /// lets the pairwise-union option compute its RC/CS/RS projection
    /// skylines concurrently (the result is identical either way).
    fn skyline(&self, features: &[Vec<f64>], threads: usize) -> Vec<usize> {
        match self.config.skyline {
            SkylineOption::PairwiseUnion => pairwise_union_skyline_threaded(features, threads),
            SkylineOption::FullVector => skyline_sfs(features),
            SkylineOption::KDominant(k) => {
                let s = k_dominant_skyline(features, k.clamp(1, 3));
                if s.is_empty() && !features.is_empty() {
                    // Cyclic k-dominance wiped the partition; fall
                    // back to the ordinary skyline (never empty).
                    skyline_sfs(features)
                } else {
                    s
                }
            }
        }
    }

    fn prune_level(
        &mut self,
        ctx: &EnumContext<'_>,
        level: usize,
        level_sets: &[RelSet],
    ) -> Vec<RelSet> {
        let n = ctx.graph().len();
        self.last = PruneStats::default();
        // Plain DP at level 1 and the last two levels (Figure 2.2).
        let prunable = (2..=n.saturating_sub(2)).contains(&level);
        if !prunable || level_sets.is_empty() {
            self.refresh_hub_parents(ctx, level_sets);
            return Vec::new();
        }

        let features: Vec<Vec<f64>> = level_sets
            .iter()
            .map(|&s| {
                ctx.memo
                    .get(s)
                    .expect("level set is live")
                    .feature_vector()
                    .to_vec()
            })
            .collect();

        // partition key → member indices into level_sets.
        let mut partitions: FxHashMap<RelSet, Vec<usize>> = FxHashMap::default();
        // Per JCR: number of hub partitions it belongs to.
        let mut membership = vec![0u32; level_sets.len()];

        match self.config.partitioning {
            Partitioning::Global => {
                partitions.insert(RelSet::EMPTY, (0..level_sets.len()).collect());
                membership.fill(1);
            }
            Partitioning::RootHub => {
                for (i, &s) in level_sets.iter().enumerate() {
                    for &h in &self.root_hubs {
                        if s.contains(h) {
                            partitions.entry(RelSet::single(h)).or_default().push(i);
                            membership[i] += 1;
                        }
                    }
                }
            }
            Partitioning::ParentHub => {
                for (i, &s) in level_sets.iter().enumerate() {
                    for &hp in &self.hub_parents {
                        if s.is_superset(hp) {
                            partitions.entry(hp).or_default().push(i);
                            membership[i] += 1;
                        }
                    }
                }
            }
        }

        // No hub partition formed (e.g. chain region only): nothing
        // to prune at this level.
        if partitions.is_empty() {
            self.refresh_hub_parents(ctx, level_sets);
            return Vec::new();
        }

        // Survival in every containing partition is required.
        let mut survived_in = vec![0u32; level_sets.len()];
        let mut keys: Vec<RelSet> = partitions.keys().copied().collect();
        keys.sort_unstable(); // deterministic partition order

        // Per-partition skylines are independent reads, so large
        // levels fan them out across worker threads; the survivor
        // marks are merged in sorted key order either way, so the
        // outcome never depends on the thread count. When partitions
        // run sequentially, the pairwise-union projections themselves
        // run threaded instead (no nested oversubscription).
        let threads = ctx.parallelism();
        let this: &SdpPruner = self;
        let winner_lists: Vec<Vec<usize>> =
            if threads > 1 && keys.len() > 1 && level_sets.len() >= PARALLEL_PARTITION_THRESHOLD {
                let workers = threads.min(keys.len());
                let chunk = keys.len().div_ceil(workers);
                let (partitions, features) = (&partitions, &features);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = keys
                        .chunks(chunk)
                        .map(|chunk_keys| {
                            scope.spawn(move || {
                                chunk_keys
                                    .iter()
                                    .map(|key| {
                                        let members = &partitions[key];
                                        let part_features: Vec<Vec<f64>> =
                                            members.iter().map(|&i| features[i].clone()).collect();
                                        this.skyline(&part_features, 1)
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("partition skyline panicked"))
                        .collect()
                })
            } else {
                keys.iter()
                    .map(|key| {
                        let members = &partitions[key];
                        let part_features: Vec<Vec<f64>> =
                            members.iter().map(|&i| features[i].clone()).collect();
                        this.skyline(&part_features, threads)
                    })
                    .collect()
            };
        let mut total_survivors = 0u64;
        for (key, mut winners) in keys.iter().zip(winner_lists) {
            let members = &partitions[key];
            if winners.is_empty() && !members.is_empty() {
                // Completeness safeguard: never let a partition lose
                // everything (cannot happen with the built-in skyline
                // options, but a defensive guarantee regardless).
                winners.push(0);
            }
            total_survivors += winners.len() as u64;
            // Partition spans emit in sorted-key order on the
            // coordinating thread, so the sequence is deterministic.
            #[cfg(feature = "trace")]
            ctx.tracer().emit_with(|| {
                sdp_trace::Event::new("skyline_partition")
                    .with("level", level)
                    .with("hub", key.0)
                    .with("members", members.len())
                    .with("survivors", winners.len())
            });
            for w in winners {
                survived_in[members[w]] += 1;
            }
        }

        // FreeGroup (membership == 0) always survives; PruneGroup
        // members must have survived in all their partitions.
        let mut keep: Vec<bool> = (0..level_sets.len())
            .map(|i| membership[i] == 0 || survived_in[i] == membership[i])
            .collect();

        // Interesting-order partitions rescue JCRs that keep an
        // order-producing combination reachable.
        let mut order_rescued = 0u64;
        for &t in &self.order_relations {
            let members =
                sdp_skyline::exclusion_partition(level_sets.len(), |i| level_sets[i].contains(t));
            if members.is_empty() {
                continue;
            }
            let rescued_here =
                sdp_skyline::rescue_order_partition(&features, &members, &mut keep, |part| {
                    self.skyline(part, threads)
                });
            order_rescued += rescued_here;
            #[cfg(feature = "trace")]
            ctx.tracer().emit_with(|| {
                sdp_trace::Event::new("order_partition")
                    .with("level", level)
                    .with("relation", t)
                    .with("members", members.len())
                    .with("rescued", rescued_here)
            });
        }

        // Per-hub completeness safeguard: if pruning eliminated every
        // JCR of some hub partition, resurrect that partition's
        // cheapest member so the hub region can still grow. Iterated
        // in sorted key order so the (rare) resurrection spans emit
        // deterministically.
        for key in &keys {
            let members = &partitions[key];
            if members.iter().any(|&i| keep[i]) {
                continue;
            }
            let best = members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    features[a][1]
                        .partial_cmp(&features[b][1])
                        .expect("finite costs")
                })
                .expect("partition non-empty");
            keep[best] = true;
            #[cfg(feature = "trace")]
            ctx.tracer().emit_with(|| {
                sdp_trace::Event::new("partition_resurrect")
                    .with("level", level)
                    .with("hub", key.0)
                    .with("set", level_sets[best].0)
            });
        }

        self.last = PruneStats {
            partitions: keys.len() as u64,
            survivors: total_survivors,
            order_rescued,
        };

        let victims: Vec<RelSet> = (0..level_sets.len())
            .filter(|&i| !keep[i])
            .map(|i| level_sets[i])
            .collect();

        // Track hub-parents among the survivors for the next level.
        let survivors: Vec<RelSet> = (0..level_sets.len())
            .filter(|&i| keep[i])
            .map(|i| level_sets[i])
            .collect();
        self.refresh_hub_parents(ctx, &survivors);

        victims
    }

    /// Recompute the hub-parents from the survivors of the level just
    /// finished ("the identification of hub relations … is computed
    /// afresh in each iteration of SDP with the current version of
    /// the join graph").
    fn refresh_hub_parents(&mut self, ctx: &EnumContext<'_>, survivors: &[RelSet]) {
        if self.config.partitioning == Partitioning::ParentHub {
            self.hub_parents = hubs::hub_parents(ctx.graph(), survivors.iter());
        }
    }
}

impl LevelPruner for SdpPruner {
    fn prune(&mut self, ctx: &EnumContext<'_>, level: usize, level_sets: &[RelSet]) -> Vec<RelSet> {
        self.prune_level(ctx, level, level_sets)
    }

    fn last_prune_stats(&self) -> PruneStats {
        self.last
    }
}

/// Convenience: run SDP end-to-end within an existing context.
pub fn optimize_sdp(
    ctx: &mut EnumContext<'_>,
    config: SdpConfig,
) -> Result<std::sync::Arc<crate::plan::PlanNode>, crate::budget::OptError> {
    let mut pruner = SdpPruner::new(ctx, config);
    crate::dp::optimize_complete(ctx, Some(&mut pruner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::context::default_parallelism;
    use crate::dp::optimize_complete;
    use crate::enumerate::EnumeratorKind;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    fn run(
        topo: Topology,
        seed: u64,
        config: SdpConfig,
        ordered: bool,
    ) -> (f64, crate::context::RunStats, f64) {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let gen = QueryGenerator::new(&cat, topo, seed);
        let q = if ordered {
            gen.ordered_instance(0)
        } else {
            gen.instance(0)
        };

        let mut sdp_ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let sdp_plan = optimize_sdp(&mut sdp_ctx, config).unwrap();
        let sdp_stats = sdp_ctx.stats();

        let mut dp_ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let dp_plan = optimize_complete(&mut dp_ctx, None).unwrap();

        (sdp_plan.cost, sdp_stats, dp_plan.cost)
    }

    #[test]
    fn sdp_never_prunes_chain_queries() {
        let (sdp_cost, stats, dp_cost) = run(Topology::Chain(8), 3, SdpConfig::paper(), false);
        assert_eq!(stats.jcrs_pruned, 0, "no hubs → no pruning");
        assert!((sdp_cost - dp_cost).abs() / dp_cost < 1e-9);
    }

    #[test]
    fn sdp_never_prunes_cycle_queries() {
        let (sdp_cost, stats, dp_cost) = run(Topology::Cycle(8), 4, SdpConfig::paper(), false);
        assert_eq!(stats.jcrs_pruned, 0);
        assert!((sdp_cost - dp_cost).abs() / dp_cost < 1e-9);
    }

    #[test]
    fn sdp_prunes_star_queries_strongly() {
        let (_, stats, _) = run(Topology::Star(9), 5, SdpConfig::paper(), false);
        assert!(stats.jcrs_pruned > 0, "stars must trigger pruning");
        assert!(!stats.completed_greedily);
    }

    #[test]
    fn sdp_star_quality_is_good() {
        // Over several instances: SDP cost within 2x of DP optimal
        // (the paper's "good plan" bound; usually it is ideal).
        for seed in 0..5 {
            let (sdp_cost, _, dp_cost) = run(Topology::Star(8), seed, SdpConfig::paper(), false);
            let ratio = sdp_cost / dp_cost;
            assert!((0.999..=2.0).contains(&ratio), "seed {seed}: ratio {ratio}");
        }
    }

    #[test]
    fn sdp_costs_fewer_plans_than_dp() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(10), 6).instance(0);
        let mut sdp_ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        optimize_sdp(&mut sdp_ctx, SdpConfig::paper()).unwrap();
        let mut dp_ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        optimize_complete(&mut dp_ctx, None).unwrap();
        assert!(
            sdp_ctx.stats().plans_costed * 2 < dp_ctx.stats().plans_costed,
            "SDP {} vs DP {}",
            sdp_ctx.stats().plans_costed,
            dp_ctx.stats().plans_costed
        );
    }

    #[test]
    fn option1_keeps_more_jcrs_than_option2() {
        // Aggregated over instances (single instances can tie): the
        // pairwise-union skyline (Option 2) processes fewer JCRs than
        // the full-vector skyline (Option 1) — paper Table 2.3.
        let cfg1 = SdpConfig {
            skyline: SkylineOption::FullVector,
            ..SdpConfig::paper()
        };
        let (mut p1, mut p2) = (0u64, 0u64);
        for seed in 0..5 {
            let (_, s1, _) = run(Topology::star_chain(11), seed, cfg1, false);
            let (_, s2, _) = run(Topology::star_chain(11), seed, SdpConfig::paper(), false);
            p1 += s1.jcrs_processed;
            p2 += s2.jcrs_processed;
        }
        assert!(
            p2 < p1,
            "Option 2 processed {p2} JCRs, Option 1 {p1}; expected Option 2 to prune harder"
        );
    }

    #[test]
    fn parent_hub_variant_works() {
        let cfg = SdpConfig {
            partitioning: Partitioning::ParentHub,
            ..SdpConfig::paper()
        };
        for seed in 0..3 {
            let (sdp_cost, stats, dp_cost) = run(Topology::star_chain(9), seed, cfg, false);
            assert!(stats.jcrs_pruned > 0);
            assert!(sdp_cost / dp_cost < 2.0, "seed {seed}");
        }
    }

    #[test]
    fn global_variant_prunes_chains_too() {
        let cfg = SdpConfig {
            partitioning: Partitioning::Global,
            ..SdpConfig::paper()
        };
        let (_, stats, _) = run(Topology::Chain(9), 2, cfg, false);
        assert!(stats.jcrs_pruned > 0, "global pruning ignores hubs");
    }

    #[test]
    fn k_dominant_variant_completes() {
        let cfg = SdpConfig {
            skyline: SkylineOption::KDominant(2),
            ..SdpConfig::paper()
        };
        let (sdp_cost, _, dp_cost) = run(Topology::Star(8), 9, cfg, false);
        assert!(sdp_cost / dp_cost < 10.0);
    }

    #[test]
    fn ordered_star_sdp_close_to_dp() {
        for seed in 0..3 {
            let (sdp_cost, _, dp_cost) = run(Topology::Star(7), seed, SdpConfig::paper(), true);
            assert!(sdp_cost / dp_cost < 2.0, "seed {seed}");
        }
    }

    #[test]
    fn sdp_parallel_matches_sequential() {
        // Parallel level enumeration + parallel partition skylines
        // must leave every observable counter and the chosen plan
        // bit-identical to the sequential run.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::star_chain(13), 3).instance(0);
        let run_threads = |threads: usize| {
            let mut ctx = EnumContext::new(
                &q,
                &model,
                Budget::unlimited(),
                threads,
                EnumeratorKind::from_env(),
            );
            let plan = optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
            let s = ctx.stats();
            (
                plan.cost.to_bits(),
                s.plans_costed,
                s.jcrs_processed,
                s.jcrs_pruned,
            )
        };
        let sequential = run_threads(1);
        assert_eq!(sequential, run_threads(2));
        assert_eq!(sequential, run_threads(4));
    }

    #[test]
    fn sdp_is_enumerator_invariant() {
        // Candidate-pair generation strategy must not change what SDP
        // retains: DPccp emits the same joinable pairs as the level
        // scan (in a different order), and the memo's cost frontier is
        // insertion-order-insensitive, so plan cost and every counter
        // must match bit-for-bit.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        for topo in [
            Topology::star_chain(12),
            Topology::Star(9),
            Topology::Cycle(9),
        ] {
            let q = QueryGenerator::new(&cat, topo, 7).instance(0);
            let run_kind = |kind: EnumeratorKind| {
                let mut ctx =
                    EnumContext::new(&q, &model, Budget::unlimited(), default_parallelism(), kind);
                let plan = optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
                let s = ctx.stats();
                (
                    plan.cost.to_bits(),
                    s.plans_costed,
                    s.jcrs_processed,
                    s.jcrs_pruned,
                )
            };
            let scan = run_kind(EnumeratorKind::LevelScan);
            assert_eq!(scan, run_kind(EnumeratorKind::Dpccp), "{topo:?}");
        }
    }

    #[test]
    fn star_chain_sdp_matches_paper_quality_band() {
        // The headline claim: Star-Chain SDP is ideal (ratio ≤ 1.01)
        // for the substantial majority of instances and never worse
        // than 2x. Checked over a handful here; the harness checks
        // 100.
        let mut ideal = 0;
        let total = 6;
        for seed in 0..total {
            let (sdp_cost, _, dp_cost) =
                run(Topology::star_chain(10), seed, SdpConfig::paper(), false);
            let ratio = sdp_cost / dp_cost;
            assert!(ratio < 2.0, "seed {seed}: ratio {ratio}");
            if ratio <= 1.01 {
                ideal += 1;
            }
        }
        assert!(ideal * 2 >= total, "only {ideal}/{total} ideal");
    }
}
