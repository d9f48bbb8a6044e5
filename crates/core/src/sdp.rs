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
//! 5. **What to cost.** Rows and Selectivity are known once a JCR is
//!    staged; Cost only once its pairs are costed. A level SDP prunes is
//!    staged uncosted, each JCR with a cost floor, and `settle` costs
//!    only the JCRs whose exact Cost some skyline's verdict needs ("Lazy
//!    costing" in DESIGN.md): the keep-mask is the all-costed level's.

use sdp_query::{hubs, RelSet};
use sdp_skyline::{dominates, k_dominant_skyline_of, pairwise_union_skyline_of, skyline_sfs_of};

use crate::context::EnumContext;
use crate::dp::{LevelJcrs, LevelPruner, PruneStats};

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
pub(crate) struct SdpPruner {
    config: SdpConfig,
    /// Hubs of the original join graph (computed once), ascending.
    root_hubs: Vec<usize>,
    /// Hub-parents: surviving JCRs of the previous level that act as
    /// hubs in the contracted graph (Parent-Hub mode only), ascending.
    hub_parents: Vec<RelSet>,
    /// Relations owning a column of the `ORDER BY` class, each of
    /// which sponsors an extra "interesting order" partition.
    order_relations: Vec<usize>,
    /// Relations in the query: levels `2 ..= relations − 2` are pruned.
    relations: usize,
    scratch: Scratch,
}

/// The buffers a level's pruning works in, kept from level to level so
/// that a level allocates only where it outgrows every earlier one.
#[derive(Debug, Default)]
struct Scratch {
    /// Per JCR: number of hub partitions it belongs to.
    membership: Vec<u32>,
    /// Per JCR: number of those it is on the skyline of.
    survived_in: Vec<u32>,
    /// The non-empty hub partitions in ascending key order: each one's
    /// key and the end of its run in `members` (which starts where the
    /// previous one's ends).
    partitions: Vec<(RelSet, usize)>,
    /// The partitions' members — indices into the level, ascending
    /// within a partition — back to back.
    members: Vec<usize>,
    /// Members of the interesting-order partition being judged.
    order_members: Vec<usize>,
    /// Skyline of the partition being judged.
    winners: Vec<usize>,
    /// A partition's members in the order [`settle`] sweeps them, each
    /// beside its sort key.
    sweep: Vec<(u64, u32)>,
    /// The costed members swept so far that no other one dominates.
    window: Vec<u32>,
}

impl Scratch {
    /// Append the partition of the level's JCRs that `belongs` selects,
    /// unless it is empty.
    fn push_partition(
        &mut self,
        level_sets: &[RelSet],
        key: RelSet,
        belongs: impl Fn(RelSet) -> bool,
    ) {
        let start = self.members.len();
        for (i, &set) in level_sets.iter().enumerate() {
            if belongs(set) {
                self.members.push(i);
                self.membership[i] += 1;
            }
        }
        if self.members.len() > start {
            self.partitions.push((key, self.members.len()));
        }
    }
}

/// Apply a skyline function within one partition — `members` indexes
/// the level's `features` — overwriting `winners` with the surviving
/// members.
fn skyline(
    option: SkylineOption,
    features: &[[f64; 3]],
    members: &[usize],
    winners: &mut Vec<usize>,
) {
    let members = members.iter().copied();
    match option {
        SkylineOption::PairwiseUnion => pairwise_union_skyline_of(features, members, winners),
        SkylineOption::FullVector => skyline_sfs_of(features, members, winners),
        SkylineOption::KDominant(k) => {
            k_dominant_skyline_of(features, members.clone(), k.clamp(1, 3), winners);
            if winners.is_empty() {
                // Cyclic k-dominance wiped the partition; fall back to
                // the ordinary skyline (never empty).
                skyline_sfs_of(features, members, winners);
            }
        }
    }
}

/// The coordinate of the feature vector that costing reveals.
const COST: usize = 1;

/// Cost the JCRs whose exact Cost a partition's skylines need; leave the
/// rest on their floors. Afterwards, in each of the `partitions` and for
/// each skyline projection that reads Cost, every uncosted member is
/// dominated, with its floor for its Cost, by a costed member. Such a
/// member is off that projection's skyline with any Cost at or above the
/// floor, and — dominance being transitive — whatever it dominates on
/// its floor a costed member dominates as well: the projection's skyline
/// over the floors is the one over the exact costs. The k-dominant
/// skyline is not transitive, so it asks for every cost.
fn settle<'m>(
    option: SkylineOption,
    partitions: impl Iterator<Item = &'m [usize]>,
    jcrs: &mut LevelJcrs<'_>,
    sweep: &mut Vec<(u64, u32)>,
    window: &mut Vec<u32>,
) {
    for members in partitions {
        match option {
            // RC and CS: Rows and Selectivity are the cost-free sides.
            SkylineOption::PairwiseUnion => {
                settle_pair(members, 0, jcrs, sweep);
                settle_pair(members, 2, jcrs, sweep);
            }
            SkylineOption::FullVector => settle_full(members, jcrs, sweep, window),
            SkylineOption::KDominant(_) => return (0..jcrs.len()).for_each(|i| _ = jcrs.cost(i)),
        }
    }
}

/// `x`'s place in the order of `f64::total_cmp`, as a `u64`.
fn total_order(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Overwrite `sweep` with `members`, each beside its `key`, in ascending
/// order of key and then of index.
fn sort_members(members: &[usize], sweep: &mut Vec<(u64, u32)>, key: impl Fn(usize) -> u64) {
    sweep.clear();
    sweep.reserve_exact(members.len());
    sweep.extend(members.iter().map(|&i| (key(i), i as u32)));
    sweep.sort_unstable();
}

/// [`settle`] one partition on the projection of Cost and the cost-free
/// coordinate `free`. The members are swept in ascending order of `free`.
/// Only a member swept before can
/// dominate one: from a smaller `free` at a Cost no higher, or from an
/// equal `free` at a lower Cost. So the least Cost of the costed members
/// swept before the current run of equal `free`, and the least within
/// it, decide; a member they leave undominated on its floor is costed.
fn settle_pair(
    members: &[usize],
    free: usize,
    jcrs: &mut LevelJcrs<'_>,
    sweep: &mut Vec<(u64, u32)>,
) {
    let features = jcrs.features();
    sort_members(members, sweep, |i| total_order(features[i][free]));
    let (mut before, mut run, mut run_free) = (f64::INFINITY, f64::INFINITY, f64::NAN);
    for x in sweep.iter().map(|&(_, x)| x as usize) {
        let row = jcrs.features()[x];
        if row[free] != run_free {
            (before, run, run_free) = (before.min(run), f64::INFINITY, row[free]);
        }
        let cost = if jcrs.is_costed(x) {
            row[COST]
        } else if before <= row[COST] || run < row[COST] {
            continue;
        } else {
            jcrs.cost(x)
        };
        run = run.min(cost);
    }
}

/// [`settle`] one partition on the full vector: the members swept in
/// ascending order of Rows, each costed unless a costed member swept
/// before dominates it on its floor (Cost a floor where uncosted). `window` keeps the costed members swept so far that
/// none of them dominates — by transitivity, all a dominance test needs.
fn settle_full(
    members: &[usize],
    jcrs: &mut LevelJcrs<'_>,
    sweep: &mut Vec<(u64, u32)>,
    window: &mut Vec<u32>,
) {
    let features = jcrs.features();
    sort_members(members, sweep, |i| total_order(features[i][0]));
    window.clear();
    for x in sweep.iter().map(|&(_, x)| x as usize) {
        let dominated = |jcrs: &LevelJcrs<'_>| {
            let features = jcrs.features();
            (window.iter()).any(|&w| dominates(&features[w as usize], &features[x]))
        };
        if dominated(jcrs) {
            continue;
        }
        if !jcrs.is_costed(x) {
            jcrs.cost(x);
            if dominated(jcrs) {
                continue;
            }
        }
        let features = jcrs.features();
        window.retain(|&w| !dominates(&features[x], &features[w as usize]));
        window.push(x as u32);
    }
}

impl SdpPruner {
    /// Build the pruner for the query in `ctx`.
    pub(crate) fn new(ctx: &EnumContext<'_>, config: SdpConfig) -> Self {
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
            relations: graph.len(),
            scratch: Scratch::default(),
        }
    }

    /// Whether `level` is one SDP prunes (Figure 2.2).
    fn prunes(&self, level: usize) -> bool {
        (2..=self.relations.saturating_sub(2)).contains(&level)
    }

    /// Partition a prunable level and clear the `keep` flag of every
    /// JCR its partitions' skylines leave out; returns the skyline
    /// accounting. The skylines run on the level's features once
    /// [`settle`] has costed what they need.
    // Without tracing, what only the spans report goes unread.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    fn prune_partitions(
        &mut self,
        ctx: &EnumContext<'_>,
        level: usize,
        jcrs: &mut LevelJcrs<'_>,
        keep: &mut [bool],
    ) -> PruneStats {
        let option = self.config.skyline;
        let level_sets = jcrs.sets();
        let sc = &mut self.scratch;
        sc.partitions.clear();
        sc.members.clear();
        sc.membership.clear();
        sc.membership.resize(level_sets.len(), 0);
        match self.config.partitioning {
            Partitioning::Global => sc.push_partition(level_sets, RelSet::EMPTY, |_| true),
            Partitioning::RootHub => {
                for &h in &self.root_hubs {
                    sc.push_partition(level_sets, RelSet::single(h), |s| s.contains(h));
                }
            }
            Partitioning::ParentHub => {
                for &hp in &self.hub_parents {
                    sc.push_partition(level_sets, hp, |s| s.is_superset(hp));
                }
            }
        }
        // No hub partition formed (e.g. chain region only, or an empty
        // level): nothing to prune at this level.
        if sc.partitions.is_empty() {
            return PruneStats::default();
        }

        if (0..jcrs.len()).any(|i| !jcrs.is_costed(i)) {
            // The FreeGroup survives whole: costed first, it may settle
            // members of the interesting-order partitions.
            for (i, _) in sc.membership.iter().enumerate().filter(|(_, &m)| m == 0) {
                jcrs.cost(i);
            }
            let hub_partitions = sc.partitions.iter().scan(0, |start, &(_, end)| {
                let members = &sc.members[*start..end];
                *start = end;
                Some(members)
            });
            settle(option, hub_partitions, jcrs, &mut sc.sweep, &mut sc.window);
            for &t in &self.order_relations {
                sdp_skyline::exclusion_partition(
                    level_sets.len(),
                    |i| level_sets[i].contains(t),
                    &mut sc.order_members,
                );
                let order_partition = std::iter::once(&sc.order_members[..]);
                settle(option, order_partition, jcrs, &mut sc.sweep, &mut sc.window);
            }
        }
        let features = jcrs.features();

        // Survival in every containing partition is required. The
        // partitions are judged — and their spans emitted — in
        // ascending key order.
        sc.survived_in.clear();
        sc.survived_in.resize(level_sets.len(), 0);
        let mut total_survivors = 0u64;
        let mut start = 0;
        for &(key, end) in &sc.partitions {
            let members = &sc.members[start..end];
            start = end;
            skyline(option, features, members, &mut sc.winners);
            if sc.winners.is_empty() {
                // Completeness safeguard: never let a partition lose
                // everything (cannot happen with the built-in skyline
                // options, but a defensive guarantee regardless).
                sc.winners.push(members[0]);
            }
            total_survivors += sc.winners.len() as u64;
            #[cfg(feature = "trace")]
            ctx.tracer().emit_with(|| {
                sdp_trace::Event::new("skyline_partition")
                    .with("level", level)
                    .with("hub", key.0)
                    .with("members", members.len())
                    .with("survivors", sc.winners.len())
            });
            for &w in &sc.winners {
                sc.survived_in[w] += 1;
            }
        }

        // FreeGroup (membership == 0) always survives; PruneGroup
        // members must have survived in all their partitions.
        for (i, keep) in keep.iter_mut().enumerate() {
            *keep = sc.membership[i] == 0 || sc.survived_in[i] == sc.membership[i];
        }

        // Interesting-order partitions rescue JCRs that keep an
        // order-producing combination reachable.
        let mut order_rescued = 0u64;
        for &t in &self.order_relations {
            sdp_skyline::exclusion_partition(
                level_sets.len(),
                |i| level_sets[i].contains(t),
                &mut sc.order_members,
            );
            if sc.order_members.is_empty() {
                continue;
            }
            let rescued_here = sdp_skyline::rescue_order_partition(
                &sc.order_members,
                keep,
                &mut sc.winners,
                |part, winners| skyline(option, features, part, winners),
            );
            order_rescued += rescued_here;
            #[cfg(feature = "trace")]
            ctx.tracer().emit_with(|| {
                sdp_trace::Event::new("order_partition")
                    .with("level", level)
                    .with("relation", t)
                    .with("members", sc.order_members.len())
                    .with("rescued", rescued_here)
            });
        }

        // Per-hub completeness safeguard: if pruning eliminated every
        // JCR of some hub partition, resurrect that partition's
        // cheapest member so the hub region can still grow. Iterated
        // in key order so the (rare) resurrection spans emit
        // deterministically.
        let mut start = 0;
        for &(key, end) in &sc.partitions {
            let members = &sc.members[start..end];
            start = end;
            if members.iter().any(|&i| keep[i]) {
                continue;
            }
            // The cheapest by exact cost.
            members.iter().for_each(|&i| {
                jcrs.cost(i);
            });
            let features = jcrs.features();
            let best = members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    features[a][COST]
                        .partial_cmp(&features[b][COST])
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

        PruneStats {
            partitions: sc.partitions.len() as u64,
            survivors: total_survivors,
            order_rescued,
        }
    }
}

impl LevelPruner for SdpPruner {
    fn prune(
        &mut self,
        ctx: &EnumContext<'_>,
        level: usize,
        jcrs: &mut LevelJcrs<'_>,
        keep: &mut [bool],
    ) -> PruneStats {
        // Plain DP at level 1 and the last two levels (Figure 2.2).
        let stats = if self.prunes(level) {
            self.prune_partitions(ctx, level, jcrs, keep)
        } else {
            PruneStats::default()
        };

        // Recompute the hub-parents from the survivors of the level
        // just finished ("the identification of hub relations … is
        // computed afresh in each iteration of SDP with the current
        // version of the join graph").
        if self.config.partitioning == Partitioning::ParentHub {
            let survivors = jcrs.sets().iter().zip(&*keep).filter(|(_, &k)| k);
            self.hub_parents = hubs::hub_parents(ctx.graph(), survivors.map(|(s, _)| s));
            self.hub_parents.sort_unstable(); // partitions go in key order
        }
        stats
    }

    /// A level SDP prunes stages uncosted when a hub partition can form
    /// and its skyline is transitive (not k-dominant).
    fn defers_costing(&self, level: usize) -> bool {
        let partitions = match self.config.partitioning {
            Partitioning::Global => true,
            Partitioning::RootHub => !self.root_hubs.is_empty(),
            Partitioning::ParentHub => !self.hub_parents.is_empty(),
        };
        partitions
            && self.prunes(level)
            && !matches!(self.config.skyline, SkylineOption::KDominant(_))
    }
}

/// Convenience: run SDP end-to-end within an existing context.
pub fn optimize_sdp(
    ctx: &mut EnumContext<'_>,
    config: SdpConfig,
) -> Result<std::sync::Arc<crate::plan::PlanNode>, crate::budget::OptError> {
    let mut pruner = SdpPruner::new(ctx, config);
    let all = crate::dp::prepare(ctx)?;
    crate::dp::complete(ctx, all, Some(&mut pruner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::dp::optimize_complete;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn only_base_groups_and_survivors_pay_for_a_sort_cost() {
        // The sort cost is asked of memo groups only, so a JCR its
        // level barrier prunes never computes one.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::star_chain(16), 3).ordered_instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
        let stats = ctx.stats();
        let survivors: u64 = ctx.profile().iter().map(|l| l.jcrs_retained).sum();
        assert_eq!(ctx.sort_costs, 16 + survivors);
        assert_eq!(ctx.sort_costs, stats.jcrs_processed - stats.jcrs_pruned);
        assert!(
            stats.jcrs_pruned > survivors,
            "most of the {} JCRs are pruned",
            stats.jcrs_processed
        );
    }

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

        let mut sdp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let sdp_plan = optimize_sdp(&mut sdp_ctx, config).unwrap();
        let sdp_stats = sdp_ctx.stats();

        let mut dp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let dp_plan = optimize_complete(&mut dp_ctx).unwrap();

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
        let mut sdp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        optimize_sdp(&mut sdp_ctx, SdpConfig::paper()).unwrap();
        let mut dp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        optimize_complete(&mut dp_ctx).unwrap();
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

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::budget::Budget;
    use crate::dp::LevelJcrs;
    use crate::enumerate::tests::random_connected_query;
    use proptest::prelude::*;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_skyline::kdominant::k_dominates;
    use sdp_skyline::skyline_naive;

    /// A partition's skyline the slow way: the partition's rows are
    /// *copied out* and judged by the quadratic definitions. Returns
    /// positions within `rows`.
    fn naive_skyline(option: SkylineOption, rows: &[[f64; 3]]) -> Vec<usize> {
        match option {
            SkylineOption::FullVector => skyline_naive(rows),
            SkylineOption::PairwiseUnion => {
                let mut union: Vec<usize> = [[0, 1], [0, 2], [1, 2]]
                    .iter()
                    .flat_map(|&[a, b]| {
                        let projected: Vec<[f64; 2]> = rows.iter().map(|r| [r[a], r[b]]).collect();
                        skyline_naive(&projected)
                    })
                    .collect();
                union.sort_unstable();
                union.dedup();
                union
            }
            SkylineOption::KDominant(k) => {
                let strong: Vec<usize> = (0..rows.len())
                    .filter(|&i| {
                        !(0..rows.len()).any(|j| j != i && k_dominates(&rows[j], &rows[i], k))
                    })
                    .collect();
                if strong.is_empty() {
                    skyline_naive(rows)
                } else {
                    strong
                }
            }
        }
    }

    /// The verdict of `SdpPruner::prune_partitions`, from the
    /// description in this module's header: hub partitions (given in
    /// ascending key order), then order rescue, then resurrection.
    fn naive_keep(
        option: SkylineOption,
        features: &[[f64; 3]],
        partitions: &[Vec<usize>],
        order_partitions: &[Vec<usize>],
    ) -> Vec<bool> {
        let winners = |members: &[usize]| -> Vec<usize> {
            let rows: Vec<[f64; 3]> = members.iter().map(|&i| features[i]).collect();
            let winners = naive_skyline(option, &rows);
            winners.into_iter().map(|w| members[w]).collect()
        };
        if partitions.is_empty() {
            return vec![true; features.len()];
        }
        let mut membership = vec![0; features.len()];
        let mut survived_in = vec![0; features.len()];
        for members in partitions {
            members.iter().for_each(|&i| membership[i] += 1);
            winners(members).iter().for_each(|&i| survived_in[i] += 1);
        }
        let mut keep: Vec<bool> = (0..features.len())
            .map(|i| survived_in[i] == membership[i])
            .collect();
        for members in order_partitions {
            winners(members).iter().for_each(|&i| keep[i] = true);
        }
        for members in partitions {
            if !members.iter().any(|&i| keep[i]) {
                let cheapest = |&&a: &&usize, &&b: &&usize| {
                    features[a][1].partial_cmp(&features[b][1]).unwrap()
                };
                keep[*members.iter().min_by(cheapest).unwrap()] = true;
            }
        }
        keep
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat pruner — index-slice partitions over shared rows,
        /// buffers reused from level to level — returns the keep-mask
        /// of the copying oracle, for every partitioning × skyline
        /// function, with and without an order target, over two
        /// consecutive levels (so Parent-Hub's refreshed hub-parents
        /// and the reused scratch are exercised). So does a second
        /// pruner handed every Cost as a floor — the exact cost less a
        /// random slack, zero included — and costing on request: the
        /// same mask and skyline counts, and no JCR costed twice.
        #[test]
        fn flat_pruner_keeps_what_the_copying_oracle_keeps(
            n in 6usize..=10,
            parents in prop::collection::vec(any::<u64>(), 9usize),
            extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=6),
            ordered in any::<bool>(),
            levels in prop::collection::vec(
                prop::collection::vec(
                    ((any::<u64>(), 0.0f64..6.0), 0.0f64..6.0, 0.0f64..6.0, 0.0f64..6.0),
                    1..40,
                ),
                2usize,
            ),
        ) {
            // Low-numbered parents make hubs likely.
            let parents: Vec<u64> = parents.iter().map(|p| p % 3).collect();
            let (mut query, _) = random_connected_query(n, &parents, &extras);
            if ordered {
                let column = query.graph.edges()[0].left;
                query = query.with_order_by(column);
            }
            let cat = Catalog::paper();
            let model = CostModel::with_defaults(&cat);
            let ctx = EnumContext::new(&query, &model, Budget::unlimited());
            prop_assert_eq!(ctx.order_target().is_some(), ordered);
            let graph = ctx.graph();
            let order_relations = SdpPruner::new(&ctx, SdpConfig::paper()).order_relations;
            prop_assert_eq!(order_relations.is_empty(), !ordered);

            for partitioning in [Partitioning::RootHub, Partitioning::ParentHub, Partitioning::Global] {
                for skyline in [
                    SkylineOption::PairwiseUnion,
                    SkylineOption::FullVector,
                    SkylineOption::KDominant(2),
                ] {
                    let config = SdpConfig { partitioning, skyline };
                    let mut pruner = SdpPruner::new(&ctx, config);
                    let mut lazy = SdpPruner::new(&ctx, config);
                    let mut hub_parents: Vec<RelSet> =
                        hubs::root_hubs(graph).iter().map(RelSet::single).collect();
                    for (level, rows) in (2..).zip(&levels) {
                        // Distinct non-empty sets; coarse features, so
                        // that ties occur.
                        let mut sets: Vec<RelSet> = Vec::new();
                        let mut features: Vec<[f64; 3]> = Vec::new();
                        let mut floors: Vec<[f64; 3]> = Vec::new();
                        for &((mask, slack), r, c, s) in rows {
                            let set = RelSet(mask % (1 << n));
                            if !set.is_empty() && !sets.contains(&set) {
                                sets.push(set);
                                features.push([r.floor(), c.floor(), s.floor()]);
                                floors.push([r.floor(), c.floor() - slack.floor(), s.floor()]);
                            }
                        }

                        let members_where = |belongs: &dyn Fn(RelSet) -> bool| -> Vec<usize> {
                            (0..sets.len()).filter(|&i| belongs(sets[i])).collect()
                        };
                        let mut partitions: Vec<Vec<usize>> = match partitioning {
                            Partitioning::Global => vec![members_where(&|_| true)],
                            Partitioning::RootHub => hubs::root_hubs(graph)
                                .iter()
                                .map(|h| members_where(&|s| s.contains(h)))
                                .collect(),
                            Partitioning::ParentHub => hub_parents
                                .iter()
                                .map(|&hp| members_where(&|s| s.is_superset(hp)))
                                .collect(),
                        };
                        partitions.retain(|members| !members.is_empty());
                        let order_partitions: Vec<Vec<usize>> = order_relations
                            .iter()
                            .map(|&t| members_where(&|s| !s.contains(t)))
                            .filter(|members| !members.is_empty())
                            .collect();
                        // Plain DP outside levels 2 ..= n − 2.
                        let expected = if level <= n - 2 {
                            naive_keep(skyline, &features, &partitions, &order_partitions)
                        } else {
                            vec![true; sets.len()]
                        };

                        let mut keep = vec![true; sets.len()];
                        let (mut exact, mut costed) = (features.clone(), vec![true; sets.len()]);
                        let mut unasked = |_| -> f64 { unreachable!("every cost is exact") };
                        let mut jcrs = LevelJcrs::new(&sets, &mut exact, &mut costed, &mut unasked);
                        let stats = pruner.prune(&ctx, level, &mut jcrs, &mut keep);
                        prop_assert_eq!(
                            &keep, &expected,
                            "{:?} × {:?}, level {}", partitioning, skyline, level
                        );

                        let mut lazy_keep = vec![true; sets.len()];
                        let mut costed = vec![false; sets.len()];
                        let mut asked = vec![0; sets.len()];
                        let mut cost = |i: usize| {
                            asked[i] += 1;
                            features[i][1]
                        };
                        let mut jcrs = LevelJcrs::new(&sets, &mut floors, &mut costed, &mut cost);
                        let lazy_stats = lazy.prune(&ctx, level, &mut jcrs, &mut lazy_keep);
                        prop_assert_eq!(
                            &lazy_keep, &expected,
                            "lazy {:?} × {:?}, level {}", partitioning, skyline, level
                        );
                        prop_assert_eq!(lazy_stats, stats);
                        // The level loop costs the survivors.
                        for (i, costed) in costed.iter_mut().enumerate() {
                            if lazy_keep[i] && !*costed {
                                *costed = true;
                                asked[i] += 1;
                            }
                        }
                        for i in 0..sets.len() {
                            prop_assert!(asked[i] <= 1, "{} costed twice", i);
                            prop_assert_eq!(asked[i] == 1, costed[i]);
                            if matches!(skyline, SkylineOption::KDominant(_)) {
                                prop_assert!(costed[i], "k-dominance asks for every cost");
                            }
                        }

                        let survivors = sets.iter().zip(&keep).filter(|(_, &k)| k);
                        hub_parents = hubs::hub_parents(graph, survivors.map(|(s, _)| s));
                        hub_parents.sort_unstable();
                    }
                }
            }
        }
    }
}
