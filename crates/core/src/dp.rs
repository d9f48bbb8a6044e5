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
//! A level's candidate pairs come from [`crate::enumerate::LevelScan`]
//! — the survivors of the levels below, scanned against each other in
//! a deterministic order.
//!
//! A level is *staged*: its pairs are costed, on the calling thread and
//! in the scan's order, into the plan records of groups held beside
//! the memo (`crate::context::LevelStage`), and the JCRs that come
//! through the level barrier move into the memo as they are — no plan
//! node is built at any level; `EnumContext::finalize` builds the
//! served plan's. A crate-private level pruner judges the stage at the
//! barrier: SDP's hub-partitioned skyline pruning, or exhaustive DP's
//! incumbent bound. A pruner may have a level staged uncosted: its
//! JCRs are then costed, each whole and in scan order, only where the
//! verdict needs an exact cost and where they survive. One set of
//! level buffers (pair list, stage, the pruner's inputs) serves all
//! levels of a `run_levels` call.

use std::sync::Arc;

use sdp_query::RelSet;

use crate::budget::OptError;
use crate::context::{EnumContext, Incumbent, LevelStage, LevelStats, StagedJcr};
use crate::enumerate::LevelScan;
use crate::plan::PlanNode;

/// Budget-check cadence, in candidate pair visits.
const CHECK_INTERVAL: u64 = 1 << 16;

/// Pruning hook invoked after each DP level is complete: SDP's skylines
/// (`crate::sdp::SdpPruner`), exhaustive DP's bound ([`IncumbentPruner`],
/// [`FixedBound`]), and the test oracles that stand in for them.
pub(crate) trait LevelPruner {
    /// Judge the fully-enumerated `level` (number of atoms joined) by
    /// `jcrs`; `keep`, as long and all `true` on entry, is the verdict:
    /// clear a JCR's flag to prune it. What survives and is still
    /// uncosted is costed after the call. Returns the skyline
    /// accounting folded into the level's profile row. The default
    /// keeps every JCR and reports zeros.
    ///
    /// The level's JCRs are not in `ctx.memo` yet — what survives is
    /// built into memo groups after the call — so everything there is
    /// to know about them is in `jcrs`.
    fn prune(
        &mut self,
        _ctx: &EnumContext<'_>,
        _level: usize,
        _jcrs: &mut LevelJcrs<'_>,
        _keep: &mut [bool],
    ) -> PruneStats {
        PruneStats::default()
    }

    /// Whether `level` may stage its new JCRs uncosted: `prune` then
    /// sees a cost floor for each and costs, through
    /// [`LevelJcrs::cost`], those whose exact cost its verdict needs.
    fn defers_costing(&self, _level: usize) -> bool {
        false
    }

    /// `Some(bound)` when the verdict is "keep exactly the JCRs whose
    /// cheapest plan costs at most `bound`": the level leaves uncosted
    /// what costs more (`EnumContext::cost_orientation`'s floors), and
    /// the barrier applies it to the stage as it is, without building
    /// the level's feature vectors or calling [`LevelPruner::prune`].
    fn cost_bound(&self) -> Option<f64> {
        None
    }

    /// Called once the level's survivors (`survivors`, in creation
    /// order) are memo groups and its profile row is recorded.
    fn sealed(&mut self, _ctx: &mut EnumContext<'_>, _survivors: &[Survivor]) {}
}

/// How much a [`LevelJcrs`] knows of a JCR's Cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Known {
    /// The inputs floor it was staged with (`EnumContext::cost_floor`).
    InputsFloor,
    /// The tight floor (`EnumContext::tight_floor`).
    TightFloor,
    /// Its cheapest plan's cost.
    Cost,
}

/// A level as a [`LevelPruner`] judges it: its JCRs' sets and their
/// `[Rows, Cost, Selectivity]` vectors (paper Figure 2.3), index for
/// index, in creation order. Rows and Selectivity are exact from
/// staging on. Cost is exact for a costed JCR; for one its level staged
/// uncosted ([`LevelPruner::defers_costing`]) it is a floor, at most the
/// JCR's cheapest plan's cost, until [`LevelJcrs::cost`] costs it — the
/// inputs floor, or, once [`LevelJcrs::tighten`] raised it, the tight
/// floor.
pub(crate) struct LevelJcrs<'l> {
    sets: &'l [RelSet],
    features: &'l mut [[f64; 3]],
    known: &'l mut [Known],
    price: &'l mut dyn FnMut(usize, Known) -> f64,
}

impl<'l> LevelJcrs<'l> {
    /// The level as `sets` and `features` describe it, `known` saying
    /// what each JCR's Cost among the features is; `price(i, Known::Cost)`
    /// costs JCR `i` and returns its cheapest plan's cost, and
    /// `price(i, Known::TightFloor)` returns its tight floor.
    pub fn new(
        sets: &'l [RelSet],
        features: &'l mut [[f64; 3]],
        known: &'l mut [Known],
        price: &'l mut dyn FnMut(usize, Known) -> f64,
    ) -> Self {
        LevelJcrs {
            sets,
            features,
            known,
            price,
        }
    }

    /// Number of JCRs in the level.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// The JCRs' relation sets.
    pub fn sets(&self) -> &'l [RelSet] {
        self.sets
    }

    /// The JCRs' `[Rows, Cost, Selectivity]` vectors, Cost a floor where
    /// a JCR is not costed yet.
    pub fn features(&self) -> &[[f64; 3]] {
        self.features
    }

    /// Whether JCR `i`'s Cost is exact.
    pub fn is_costed(&self, i: usize) -> bool {
        self.known[i] == Known::Cost
    }

    /// Raise JCR `i`'s Cost to its tight floor if it is still the inputs
    /// floor, and return its Cost: a floor no lower, or the exact cost.
    pub fn tighten(&mut self, i: usize) -> f64 {
        if self.known[i] == Known::InputsFloor {
            let tight = (self.price)(i, Known::TightFloor);
            debug_assert!(tight >= self.features[i][1], "a tight floor is no lower");
            self.features[i][1] = tight;
            self.known[i] = Known::TightFloor;
        }
        self.features[i][1]
    }

    /// Cost JCR `i` (if it is not yet) and return its exact Cost.
    pub fn cost(&mut self, i: usize) -> f64 {
        if self.known[i] != Known::Cost {
            self.features[i][1] = (self.price)(i, Known::Cost);
            self.known[i] = Known::Cost;
        }
        self.features[i][1]
    }
}

/// Per-level skyline accounting reported by a [`LevelPruner`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PruneStats {
    /// Hub (or global) partitions the skyline examined.
    pub partitions: u64,
    /// Skyline survivors summed over partitions.
    pub survivors: u64,
    /// JCRs kept only by interesting-order retention.
    pub order_rescued: u64,
}

/// A JCR in a [`LevelTable`]: its set, its cached join-graph
/// neighbourhood, and the memo arena slot of its group, which names
/// the group for the rest of the `run_levels` call (no memo group is
/// removed during one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Survivor {
    /// The JCR's relations.
    pub set: RelSet,
    /// The relations outside it that share a join edge with it.
    pub neighbors: RelSet,
    /// Its group's memo slot.
    pub slot: u32,
}

/// Survivor table produced by [`run_levels`]: the surviving JCRs of
/// each level, in one buffer for the run — level after level, each in
/// survivor order.
#[derive(Debug, Default)]
pub struct LevelTable {
    /// Every level's survivors, back to back.
    survivors: Vec<Survivor>,
    /// `ends[s - 1]`: where the survivors of `s` atoms end.
    ends: Vec<usize>,
}

impl LevelTable {
    /// The survivors of `atom_count` atoms, in survivor order (none for
    /// a level not run).
    pub fn level(&self, atom_count: usize) -> &[Survivor] {
        let Some(&end) = self.ends.get(atom_count - 1) else {
            return &[];
        };
        let start = atom_count.checked_sub(2).map_or(0, |s| self.ends[s]);
        &self.survivors[start..end]
    }

    /// Surviving JCR sets at the given atom count, in survivor order.
    /// Borrows the table — collect if you need to outlive it.
    pub fn sets_at(&self, atom_count: usize) -> impl Iterator<Item = RelSet> + '_ {
        self.level(atom_count).iter().map(|s| s.set)
    }

    /// Each survivor's set, by its slot.
    #[cfg(test)]
    pub(crate) fn sets_by_slot(&self) -> crate::fx::FxHashMap<u32, RelSet> {
        let by_slot: crate::fx::FxHashMap<u32, RelSet> =
            self.survivors.iter().map(|s| (s.slot, s.set)).collect();
        assert_eq!(by_slot.len(), self.survivors.len(), "one slot a survivor");
        by_slot
    }

    /// Record the next level's survivors.
    pub(crate) fn push_level(&mut self, survivors: impl IntoIterator<Item = Survivor>) {
        self.survivors.extend(survivors);
        self.ends.push(self.survivors.len());
    }
}

/// What one `run_levels` call keeps from level to level — the pair
/// list, the stage and the pruner's inputs — so that a level clears
/// and refills them instead of building its own.
#[derive(Debug, Default)]
struct LevelBuffers {
    /// The level's pairs, as their inputs' memo slots.
    pairs: Vec<(u32, u32)>,
    stage: LevelStage,
    sets: Vec<RelSet>,
    features: Vec<[f64; 3]>,
    known: Vec<Known>,
    keep: Vec<bool>,
}

/// Enumerate and prune one DP level, recording its surviving JCRs with
/// their join-graph neighbourhoods in `table`. The level's pairs (`buffers.pairs`)
/// are staged into `buffers.stage`, whose JCRs are all new to the memo
/// — costed as they come, or, where the pruner defers costing, each JCR
/// when the pruner asks for its cost or it survives.
/// What comes through the pruner and both barrier checks moves into the
/// memo as it is, the rest is dropped: on error, the caller rolls back
/// what the stage still holds. The barrier checks run once the level is
/// costed, before the verdict drops anything, and after it — the two
/// deterministic per-level poll points of the governor.
fn run_one_level<'p>(
    ctx: &mut EnumContext<'_>,
    buffers: &mut LevelBuffers,
    table: &mut LevelTable,
    level: usize,
    visits: &mut u64,
    mut pruner: Option<&mut (dyn LevelPruner + 'p)>,
) -> Result<(), OptError> {
    let LevelBuffers {
        pairs,
        stage,
        sets,
        features,
        known,
        keep,
    } = buffers;
    let plans_before = ctx.plans_costed;
    let pruned_before = ctx.jcrs_pruned;
    let enforcers_before = ctx.sort_enforcers;
    // The bound is this rung's, handed to this level's stage: nothing
    // that outlives the rung may carry it to the next.
    let bound = pruner.as_ref().and_then(|p| p.cost_bound());
    // The reference mode takes no bound: the barrier asks the pruner.
    #[cfg(test)]
    let bound = bound.filter(|_| !ctx.reference);
    let defer = bound.is_none() && pruner.as_ref().is_some_and(|p| p.defers_costing(level));
    #[cfg(test)]
    let defer = defer && !ctx.reference;
    stage.reset(pairs.len(), defer);
    stage.costing.bound = bound;
    let enumerated = pairs.iter().try_for_each(|&(a, b)| {
        *visits += 1;
        if visits.is_multiple_of(CHECK_INTERVAL) {
            ctx.memory.check(ctx.memo.live_nodes())?;
        }
        ctx.stage_pair(stage, a, b);
        Ok(())
    });
    // Costed is costed, even in a level that is about to roll back.
    ctx.plans_costed += std::mem::take(&mut stage.costing.plans_costed);
    ctx.ruled_out += std::mem::take(&mut stage.costing.ruled_out);
    ctx.dominated += std::mem::take(&mut stage.costing.dominated);
    enumerated?;
    ctx.emit_staged(stage);

    let created = stage.jcrs.len();
    let mut prune_stats = PruneStats::default();
    let mut uncosted = 0;
    let judge = pruner.as_deref_mut().filter(|_| bound.is_none());
    if let Some(p) = judge {
        sets.clear();
        features.clear();
        known.clear();
        keep.clear();
        // The four stay for the run, and double when a level outgrows
        // every earlier one.
        sets.reserve(stage.jcrs.len());
        features.reserve(stage.jcrs.len());
        known.reserve(stage.jcrs.len());
        keep.reserve(stage.jcrs.len());
        for (slot, jcr) in stage.jcrs.iter().enumerate() {
            let group = &jcr.group;
            let (cost, what) = if jcr.costed() {
                (group.best_cost(), Known::Cost)
            } else {
                (ctx.cost_floor(stage, slot), Known::InputsFloor)
            };
            sets.push(jcr.group.set);
            features.push([group.rows, cost, group.selectivity]);
            known.push(what);
        }
        keep.resize(sets.len(), true);
        let ctx: &EnumContext<'_> = ctx;
        let mut price = |i, what| match what {
            Known::Cost => ctx.cost_staged(stage, i),
            _ => ctx.tight_floor(stage, i),
        };
        let mut jcrs = LevelJcrs::new(sets, features, known, &mut price);
        prune_stats = p.prune(ctx, level, &mut jcrs, keep);
        // A survivor is costed as it would have been when staged.
        for (i, (&keep, known)) in keep.iter().zip(known.iter_mut()).enumerate() {
            if keep && *known != Known::Cost {
                ctx.cost_staged(stage, i);
                *known = Known::Cost;
            }
        }
        uncosted = known.iter().filter(|&&k| k != Known::Cost).count();
    }
    if defer {
        // The pruner costs through a shared context, so a deferring
        // level counts its records here, once: nothing reads the count
        // between its first pair and the barrier below.
        let records = stage.jcrs.iter().map(|jcr| jcr.group.charged()).sum();
        ctx.memo.built_mut().charge(records);
    }
    ctx.plans_costed += std::mem::take(&mut stage.costing.plans_costed);
    ctx.dominated += std::mem::take(&mut stage.costing.dominated);
    ctx.memory.barrier_check(ctx.memo.live_nodes())?;

    if let Some(bound) = bound {
        // A verdict that reads the cheapest cost alone needs no
        // feature vectors. A JCR the bound left with no plan goes.
        stage.jcrs.retain(|jcr| {
            let group = &jcr.group;
            let keep = !group.is_empty() && group.best_cost() <= bound;
            verdict(ctx, jcr, keep)
        });
    } else if pruner.is_some() {
        let mut verdicts = keep.iter();
        stage
            .jcrs
            .retain(|jcr| verdict(ctx, jcr, *verdicts.next().expect("one verdict per JCR")));
    }
    ctx.memory.barrier_check(ctx.memo.live_nodes())?;

    ctx.seal_stage(stage, table);
    let survivors = table.level(level);

    // Sort-ahead placement (post-barrier): offer each surviving JCR of
    // the level an explicit Sort enforcer producing the order target,
    // so order-preserving joins at higher levels can carry the order up
    // instead of paying a root sort over the full result. The survivors
    // are in creation order, so the offers are too.
    for s in survivors {
        ctx.offer_sort_enforcer(s.set);
    }

    let stats = LevelStats {
        level,
        phase: ctx.phase(),
        pairs: pairs.len() as u64,
        plans_costed: ctx.plans_costed - plans_before,
        jcrs_created: created as u64,
        jcrs_uncosted: uncosted as u64,
        jcrs_pruned: ctx.jcrs_pruned - pruned_before,
        jcrs_retained: survivors.len() as u64,
        skyline_partitions: prune_stats.partitions,
        skyline_survivors: prune_stats.survivors,
        order_rescued: prune_stats.order_rescued,
        sort_enforcers: ctx.sort_enforcers - enforcers_before,
        memo_groups: ctx.memo.len() as u64,
        model_bytes: ctx.memory.used_bytes(ctx.memo.live_nodes()),
        contractions: ctx.contractions(),
    };
    ctx.record_level(stats);
    ctx.tracer().emit_with(|| level_event(&stats));
    if let Some(p) = pruner {
        p.sealed(ctx, survivors);
    }
    Ok(())
}

/// Carry out the barrier's verdict on a staged JCR: a pruned one
/// leaves, and its accounting goes with it. Returns `keep`.
fn verdict(ctx: &mut EnumContext<'_>, jcr: &StagedJcr, keep: bool) -> bool {
    if !keep {
        ctx.drop_staged(jcr);
    }
    keep
}

/// The per-level span summarizing one completed level barrier. Every
/// field is deterministic: a function of the query and the budget.
fn level_event(stats: &LevelStats) -> sdp_trace::Event {
    sdp_trace::Event::new("level")
        .with("level", stats.level)
        .with("phase", stats.phase)
        .with("pairs", stats.pairs)
        .with("costed", stats.plans_costed)
        .with("created", stats.jcrs_created)
        .with("uncosted", stats.jcrs_uncosted)
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
/// group), building levels `2 ..= up_to` (in atom count) and keeping
/// every JCR. Each invocation scans afresh, so IDP iterations re-index
/// their shrinking atom lists.
///
/// Precondition: the memo holds no union of two or more atoms, so every
/// JCR a level stages is new to it. A fresh context and a governed
/// handoff (`prepare_handoff`) hold only base groups; IDP's `contract`
/// drops every group but the atoms'.
pub fn run_levels(
    ctx: &mut EnumContext<'_>,
    atoms: &[RelSet],
    up_to: usize,
) -> Result<LevelTable, OptError> {
    run_levels_with(ctx, atoms, up_to, None)
}

/// [`run_levels`], applying `pruner` after each level when provided.
pub(crate) fn run_levels_with(
    ctx: &mut EnumContext<'_>,
    atoms: &[RelSet],
    up_to: usize,
    mut pruner: Option<&mut dyn LevelPruner>,
) -> Result<LevelTable, OptError> {
    debug_assert!(up_to >= 1 && up_to <= atoms.len());
    let mut scan = LevelScan::new(ctx.graph().len());
    // Compound atoms are contracted subtrees the scan treats as
    // single vertices (IDP re-runs over already-joined blocks); the
    // count is part of the level profile so `explain_analyze` shows
    // how much of the graph each pass saw pre-contracted.
    ctx.set_contractions(atoms.iter().filter(|a| a.len() > 1).count() as u64);
    let mut table = LevelTable::default();
    table.ends.reserve_exact(up_to);
    table.push_level(atoms.iter().map(|&set| {
        let (slot, _) =
            (ctx.memo.get_slot(set)).unwrap_or_else(|| panic!("atom {set:?} lacks a memo group"));
        Survivor {
            set,
            neighbors: ctx.graph().neighbors(set),
            slot,
        }
    }));

    ctx.reserve_profile(up_to - 1);
    let mut visits: u64 = 0;
    let mut buffers = LevelBuffers::default();
    for s in 2..=up_to {
        debug_assert!(
            (table.survivors.iter()).all(|s| ctx.memo.at(s.slot).set == s.set),
            "every survivor's slot holds its group"
        );
        scan.level_pairs(&table, s, &mut buffers.pairs);
        if let Err(e) = run_one_level(
            ctx,
            &mut buffers,
            &mut table,
            s,
            &mut visits,
            pruner.as_deref_mut(),
        ) {
            // Determinism-by-rollback: drop every JCR this level
            // created, so the memo a governed descent inherits
            // equals the last *completed* level regardless of where
            // inside the level the budget tripped. The rollback
            // span carries only the level: how far into the level
            // a wall-clock trip was detected (and hence how many
            // JCRs roll back) depends on timing, so it must not
            // appear in canonical fields.
            ctx.tracer()
                .emit_with(|| sdp_trace::Event::new("level_rollback").with("level", s));
            ctx.roll_back_stage(&buffers.stage);
            return Err(e);
        }
    }
    Ok(table)
}

/// Exhaustive DP (`Algorithm::Dp`), bounded by an incumbent: once the
/// base groups exist, a costs-only greedy prices GOO's plan at `B`
/// (`EnumContext::incumbent`). Every level then leaves uncosted the
/// plan pairs whose floor already exceeds `B`, and its barrier drops
/// the JCRs whose cheapest plan costs more (`IncumbentPruner`); after
/// a wide level's barrier, a completion of its cheapest survivor may
/// lower `B` for the levels above.
/// The plan, its cost bits and its tie-breaking are those of
/// [`optimize_complete`]; see "Incumbent-bounded DP" in DESIGN.md for
/// why.
pub fn optimize_dp(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    let all = prepare(ctx)?;
    let (bound, plans_costed) = ctx.incumbent(RelSet::EMPTY);
    let mut pruner = IncumbentPruner(Incumbent {
        first: bound,
        last: bound,
        plans_costed,
    });
    let served = complete(ctx, all, Some(&mut pruner));
    // Recorded even for a rung that trips: its bound and its plans are
    // part of the run's account.
    let incumbent = pruner.0;
    ctx.incumbent = Some(incumbent);
    ctx.tracer().emit_with(|| {
        sdp_trace::Event::new("incumbent")
            .with("first", incumbent.first)
            .with("last", incumbent.last)
            .with("plans_costed", incumbent.plans_costed)
    });
    served
}

/// The level pruner of exhaustive DP: a [`LevelPruner::cost_bound`] at
/// `B` (`Incumbent::last`), a complete plan's cost. Each level leaves
/// uncosted every plan pair whose floor exceeds `B`, and its barrier
/// drops every JCR whose cheapest plan costs strictly more.
///
/// Every join costs at least the inputs it includes, and only an
/// index nested loop leaves one out — its inner, always a single base
/// relation (`sdp_cost::JoinTerms`). A JCR of two or more relations
/// costing more than `B`, like a plan pair whose floor exceeds it,
/// therefore only ever yields offers costing more than `B`, which
/// evict only entries costing more than `B`: every entry at or under
/// it, the served plan among them, is retained as it would be without
/// the pruner, in the same order. The levels DP runs over singleton
/// atoms hold only such JCRs; base groups are never staged.
///
/// `B` falls as the run finds cheaper complete plans
/// ([`LevelPruner::sealed`]). The argument holds for any `B` that is the
/// cost of a real plan: a level pruned under a looser bound kept a
/// superset of what a tighter one keeps.
#[derive(Debug, Clone, Copy)]
struct IncumbentPruner(Incumbent);

impl LevelPruner for IncumbentPruner {
    fn cost_bound(&self) -> Option<f64> {
        Some(self.0.last)
    }

    /// Tighten `B` from a wide level: greedy-complete its cheapest
    /// survivor (`EnumContext::incumbent`), and lower `B` to the
    /// complete plan's cost when that is cheaper.
    ///
    /// A completion from a JCR of `s` of the query's `n` relations takes
    /// `n − s` greedy merges; what a lower `B` saves is in the levels
    /// above, whose pairs grow with this level's survivors. So a level
    /// tightens when it kept more than twice as many JCRs as a
    /// completion takes merges. Levels around a hub, and a clique's,
    /// are exponentially wide and qualify from their third level on; a
    /// chain's level keeps at most `n − s + 1` JCRs and never does, a
    /// cycle's `n` only above `s = n / 2`. (Tightening after every level
    /// costs a chain more plans than it saves.)
    fn sealed(&mut self, ctx: &mut EnumContext<'_>, survivors: &[Survivor]) {
        let n = ctx.graph().len();
        let s = survivors.first().map_or(n, |survivor| survivor.set.len());
        if s >= n || survivors.len() <= 2 * (n - s) {
            return;
        }
        let cost = |survivor: &Survivor| (survivor.set, ctx.memo.at(survivor.slot).best_cost());
        let cheapest = (survivors.iter().map(cost))
            .reduce(|a, b| if b.1 < a.1 { b } else { a })
            .expect("a wide level has survivors");
        let (complete, plans_costed) = ctx.incumbent(cheapest.0);
        self.0.plans_costed += plans_costed;
        self.0.last = self.0.last.min(complete);
    }
}

/// [`IncumbentPruner`] without its tightening.
struct FixedBound(f64);

impl LevelPruner for FixedBound {
    fn cost_bound(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Run the engine from singleton atoms all the way to the complete
/// query, keeping every JCR, and serve the plan: the unbounded
/// enumeration, which keeps every connected subgraph — the oracle
/// bounded DP ([`optimize_dp`]) and the feasibility oracle are held
/// against, and the harness's paper-table DP.
pub fn optimize_complete(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    let all = prepare(ctx)?;
    complete(ctx, all, None)
}

/// Exhaustive DP's levels under `bound` held fixed ([`optimize_dp`]'s
/// without its tightening): at the optimum's cost, the fewest plans any
/// incumbent can leave DP to cost. A bound under it may leave the query
/// with no plan, and the run fails with [`OptError::DisconnectedJoinGraph`].
pub fn optimize_bounded(ctx: &mut EnumContext<'_>, bound: f64) -> Result<Arc<PlanNode>, OptError> {
    let all = prepare(ctx)?;
    complete(ctx, all, Some(&mut FixedBound(bound)))
}

/// Reject an empty or disconnected query, create the base groups and
/// poll the budget once; returns the complete set.
pub(crate) fn prepare(ctx: &mut EnumContext<'_>) -> Result<RelSet, OptError> {
    let n = ctx.graph().len();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let all = ctx.graph().all_nodes();
    if !ctx.graph().is_connected(all) {
        return Err(OptError::DisconnectedJoinGraph);
    }
    for i in 0..n {
        ctx.ensure_base_group(i);
    }
    ctx.memory.check(ctx.memo.live_nodes())?;
    Ok(all)
}

/// The levels over singleton atoms, then the plan for `all`, which
/// always has a group: a level SDP prunes keeps a JCR (its FreeGroup
/// whole, one or more of each hub partition), each kept JCR of `k < n`
/// relations yields one of `k + 1` with an adjacent base relation, and
/// no JCR of the served plan costs more than DP's bound, a real plan's
/// cost (DESIGN.md, "Why no level leaves the query unplanned"). A
/// pruner that breaks this gets `finalize`'s typed error.
pub(crate) fn complete(
    ctx: &mut EnumContext<'_>,
    all: RelSet,
    pruner: Option<&mut dyn LevelPruner>,
) -> Result<Arc<PlanNode>, OptError> {
    let atoms: Vec<RelSet> = (0..ctx.graph().len()).map(RelSet::single).collect();
    run_levels_with(ctx, &atoms, atoms.len(), pruner)?;
    ctx.finalize(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{Query, QueryGenerator, Topology};

    fn optimize(q: &Query, cat: &Catalog) -> Arc<PlanNode> {
        let model = CostModel::with_defaults(cat);
        let mut ctx = EnumContext::new(q, &model, Budget::unlimited());
        optimize_complete(&mut ctx).expect("optimization succeeds")
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
                    method: sdp_cost::JoinMethod::IndexNestedLoop,
                    ..
                }
            ) || p.children().iter().any(|c| has_inl(c))
        }
        assert!(has_inl(&plan), "star plan without any index NLJ");
    }

    #[test]
    fn level_table_records_survivors() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Chain(4), 1).instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        for i in 0..4 {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..4).map(RelSet::single).collect();
        let table = run_levels(&mut ctx, &atoms, 4).unwrap();
        // Chain-4 has 3 pairs, 2 triples, 1 quad of connected sets.
        assert_eq!(table.sets_at(1).count(), 4);
        assert_eq!(table.sets_at(2).count(), 3);
        assert_eq!(table.sets_at(3).count(), 2);
        assert_eq!(table.sets_at(4).count(), 1);
    }

    #[test]
    fn budget_infeasibility_surfaces() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(12), 2).instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::new(
            &q,
            &model,
            Budget::with_memory(64 * crate::budget::GROUP_MODEL_BYTES),
        );
        match optimize_complete(&mut ctx) {
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
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        assert!(matches!(
            optimize_complete(&mut ctx),
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
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_complete(&mut ctx).unwrap();
        assert_eq!(plan.set, RelSet::single(0));
        assert_eq!(plan.join_count(), 0);
    }

    #[test]
    fn ordered_query_root_is_ordered() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(5), 8).ordered_instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_complete(&mut ctx).unwrap();
        assert_eq!(plan.ordering, ctx.order_target());
        assert!(plan.ordering.is_some());
    }

    /// Incumbent-bounded DP beside the exactness harness's `DP bounded`
    /// row: where the bound starts and when it falls, a JCR the bound
    /// leaves with no plan, and a tripped rung's bound.
    mod bounded {
        use super::*;
        use crate::goo::optimize_goo;
        use crate::governor::prepare_handoff;
        use crate::sdp::{optimize_sdp, SdpConfig};

        /// The first bound is GOO's plan's cost, bit for bit. Star levels
        /// are wide, so the bound falls below it on some instances, and
        /// the plans stay the unbounded run's; a chain's levels never
        /// are, so its run costs only GOO's greedy.
        #[test]
        fn wide_levels_tighten_the_bound_and_chains_never_do() {
            let cat = Catalog::paper();
            let model = CostModel::with_defaults(&cat);
            let mut tightened = 0;
            for k in 0..8 {
                let q = QueryGenerator::new(&cat, Topology::Star(9), 7).instance(k);
                let mut oracle = EnumContext::new(&q, &model, Budget::unlimited());
                let expected = optimize_complete(&mut oracle).unwrap();
                let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
                let plan = optimize_dp(&mut ctx).unwrap();
                assert_eq!(plan.cost.to_bits(), expected.cost.to_bits(), "instance {k}");
                assert_eq!(plan.structural_digest(), expected.structural_digest());
                let incumbent = ctx.incumbent.unwrap();
                assert!(expected.cost <= incumbent.last && incumbent.last <= incumbent.first);
                let mut goo = EnumContext::new(&q, &model, Budget::unlimited());
                let greedy = optimize_goo(&mut goo).unwrap();
                assert_eq!(incumbent.first.to_bits(), greedy.cost.to_bits());
                tightened += usize::from(incumbent.last < incumbent.first);
            }
            assert!(tightened > 0, "no Star-9 instance tightened its bound");

            let q = QueryGenerator::new(&cat, Topology::Chain(12), 7).instance(0);
            let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
            optimize_dp(&mut ctx).unwrap();
            let mut greedy = EnumContext::new(&q, &model, Budget::unlimited());
            prepare(&mut greedy).unwrap();
            let (_, plans_costed) = greedy.incumbent(RelSet::EMPTY);
            let incumbent = ctx.incumbent.unwrap();
            assert_eq!(incumbent.plans_costed, plans_costed);
            assert_eq!(incumbent.last.to_bits(), incumbent.first.to_bits());
        }

        /// A JCR whose every alternative the bound rules out has no plan
        /// to be judged by: the barrier drops it as pruned. Under the
        /// floor of every join nothing survives level 2, and the query
        /// is left without a plan: the run fails with `finalize`'s
        /// typed error.
        #[test]
        fn a_jcr_left_without_a_plan_is_pruned_at_the_barrier() {
            let cat = Catalog::paper();
            let model = CostModel::with_defaults(&cat);
            let q = QueryGenerator::new(&cat, Topology::Chain(4), 1).instance(0);
            let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
            let served = optimize_bounded(&mut ctx, 0.0);
            assert!(matches!(served, Err(OptError::DisconnectedJoinGraph)));
            let pairs = &ctx.profile()[0];
            assert_eq!((pairs.level, pairs.pairs, pairs.plans_costed), (2, 3, 0));
            assert_eq!((pairs.jcrs_created, pairs.jcrs_pruned), (3, 3));
            assert_eq!(pairs.jcrs_retained, 0);
            assert_eq!(ctx.jcrs_pruned, 3);
            assert!(ctx.ruled_out > 0);
        }

        /// The bound is the DP rung's, not the run's. A DP rung that
        /// trips after pricing its incumbent leaves
        /// `EnumContext::incumbent` set; SDP, run over its handoff, must
        /// cost, create, prune and serve exactly what it does over the
        /// same handoff with no incumbent on record.
        #[test]
        fn a_tripped_dp_rung_leaves_its_bound_behind() {
            let cat = Catalog::paper();
            let model = CostModel::with_defaults(&cat);
            let q = QueryGenerator::new(&cat, Topology::star_chain(9), 5).ordered_instance(0);
            let descend = |forget_incumbent: bool| {
                let budget = Budget::with_memory(60 * crate::budget::GROUP_MODEL_BYTES);
                let mut ctx = EnumContext::new(&q, &model, budget);
                let tripped = optimize_dp(&mut ctx);
                assert!(matches!(tripped, Err(OptError::MemoryExhausted { .. })));
                assert!(ctx.incumbent.is_some());
                assert!(ctx.ruled_out > 0, "the rung ran bounded levels");
                if forget_incumbent {
                    ctx.incumbent = None;
                }
                prepare_handoff(&mut ctx);
                ctx.memory.set_budget(Budget::unlimited());
                let ruled_out = ctx.ruled_out;
                let plan = optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
                assert_eq!(ctx.ruled_out, ruled_out, "SDP rules nothing out");
                let served = (plan.cost.to_bits(), plan.structural_digest());
                (served, ctx.take_profile())
            };
            let (served, unaware) = (descend(false), descend(true));
            assert!(served.1.len() > 1, "DP's level 2 and SDP's levels");
            assert_eq!(served, unaware);
        }

        /// The books of bounded DP, exactly: the exactness harness holds
        /// them only at or under the unbounded run's. Seed-7 Star-9 (the
        /// instance `explain_analyze_reports_rung_and_levels` reports),
        /// the first seed-7 Star-12 whose hub joins on its indexed
        /// column, and an ordered seed-7 Star-Chain-14.
        #[test]
        fn bounded_dp_books_are_pinned() {
            let cat = Catalog::paper();
            let model = CostModel::with_defaults(&cat);
            let star_12 = QueryGenerator::new(&cat, Topology::Star(12), 7);
            let hub_index = (0..)
                .map(|k| star_12.instance(k))
                .find(|q| {
                    let indexed = cat.relation(q.graph.relation(0)).unwrap().indexed_column;
                    (q.graph.edges().iter())
                        .flat_map(|e| [e.left, e.right])
                        .any(|c| c.node == 0 && c.col == indexed)
                })
                .unwrap();
            let cases = [
                (
                    QueryGenerator::new(&cat, Topology::Star(9), 7).instance(0),
                    (2_971, 943, 810),
                ),
                (hub_index, (13_695, 12_603, 2_562)),
                (
                    QueryGenerator::new(&cat, Topology::star_chain(14), 7).ordered_instance(0),
                    (45_654, 31_048, 9_552),
                ),
            ];
            for (q, books) in cases {
                let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
                optimize_dp(&mut ctx).unwrap();
                let run = (ctx.plans_costed, ctx.ruled_out, ctx.dominated);
                assert_eq!(run, books, "{}", q.graph.len());
            }
        }
    }

    /// Plans are records until one is served. Two things must not
    /// notice: the memory model — at every point where nothing is
    /// staged, the run's live-node count is the number of records and
    /// built nodes the memo reaches through `(set, entry)` references,
    /// which is the number of nodes an optimizer building every
    /// retained plan holds (`memo::eager`, the oracle) — and the plans
    /// themselves: what `extract` builds from the records is, field for
    /// field, what the oracle built eagerly, level by level.
    mod accounting {
        use super::*;
        use crate::budget::{Budget, GROUP_MODEL_BYTES, NODE_MODEL_BYTES};
        use crate::enumerate::tests::random_connected_query;
        use crate::goo::optimize_goo;
        use crate::governor::prepare_handoff;
        use crate::idp::{contract, optimize_idp};
        use crate::memo::eager::EagerMemo;
        use crate::memo::PlanSource;
        use crate::sdp::{optimize_sdp, SdpConfig, SdpPruner};
        use proptest::prelude::*;
        use std::collections::HashSet;

        /// Every memo group carries the sort cost of its rows and width,
        /// bit for bit — computed at the barrier it survived, or where
        /// a base or `join_pair` group entered the memo.
        pub(super) fn assert_sort_costs(ctx: &EnumContext<'_>, when: &str) {
            for set in ctx.memo.sets() {
                let group = ctx.memo.get(set).expect("live set");
                let expected = ctx.model().sort_cost(group.rows, group.width);
                assert_eq!(
                    group.sort_cost.to_bits(),
                    expected.to_bits(),
                    "sort cost of {set:?} {when}"
                );
            }
        }

        /// Bring the oracle up to date and compare the counts.
        fn assert_counted(ctx: &EnumContext<'_>, eager: &mut EagerMemo, when: &str) {
            fn walk_node(node: &Arc<PlanNode>, seen: &mut HashSet<*const PlanNode>) {
                if seen.insert(Arc::as_ptr(node)) {
                    node.children().iter().for_each(|c| walk_node(c, seen));
                }
            }
            #[derive(Default)]
            struct Reached {
                records: HashSet<(RelSet, u16)>,
                nodes: HashSet<*const PlanNode>,
            }
            fn walk(ctx: &EnumContext<'_>, set: RelSet, id: u16, reached: &mut Reached) {
                let group = ctx.memo.get(set).expect("a referenced JCR is live");
                let entry = group.entry(id);
                match entry.source {
                    PlanSource::Built(_) => {
                        walk_node(ctx.memo.built(entry).unwrap(), &mut reached.nodes)
                    }
                    _ if !reached.records.insert((set, id)) => {}
                    PlanSource::Sort { input } => walk(ctx, set, input, reached),
                    PlanSource::Join {
                        outer,
                        outer_entry,
                        inner_entry,
                        ..
                    } => {
                        walk(ctx, outer, outer_entry, reached);
                        walk(ctx, set - outer, inner_entry, reached);
                    }
                }
            }
            let mut reached = Reached::default();
            for set in ctx.memo.sets() {
                for e in ctx.memo.get(set).expect("live set").entries() {
                    walk(ctx, set, e.id(), &mut reached);
                }
            }
            let reached = (reached.records.len() + reached.nodes.len()) as u64;
            assert_sort_costs(ctx, when);
            eager.sync(&ctx.memo);
            assert_eq!(ctx.memo.live_nodes(), reached, "live nodes {when}");
            assert_eq!(eager.nodes.get(), reached, "eagerly built nodes {when}");
            assert_eq!(
                ctx.memory.used_bytes(ctx.memo.live_nodes()),
                ctx.memo.len() as u64 * GROUP_MODEL_BYTES + reached * NODE_MODEL_BYTES,
                "model bytes {when}"
            );
        }

        /// Extract every plan the memo retains and hold it against the
        /// oracle's; the counts must not notice the extraction.
        fn assert_extracted(ctx: &mut EnumContext<'_>, eager: &mut EagerMemo, when: &str) {
            assert_counted(ctx, eager, when);
            for set in ctx.memo.sets().collect::<Vec<_>>() {
                let ids: Vec<u16> = (ctx.memo.get(set).unwrap().entries().iter())
                    .map(|e| e.id())
                    .collect();
                for (id, plan) in ids.into_iter().zip(ctx.extract_all(set)) {
                    let oracle = eager.plan(set, id);
                    assert_eq!(
                        plan.cost.to_bits(),
                        oracle.cost.to_bits(),
                        "{set:?}/{id} {when}"
                    );
                    assert_eq!(
                        plan.structural_digest(),
                        oracle.structural_digest(),
                        "{set:?}/{id} {when}"
                    );
                    plan.check_invariants().unwrap();
                }
            }
            assert_counted(ctx, eager, &format!("{when}, everything extracted"));
        }

        fn graph_inputs() -> impl Strategy<Value = (sdp_query::Query, usize)> {
            (
                3usize..=10,
                prop::collection::vec(any::<u64>(), 9usize),
                prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=8),
                any::<bool>(),
            )
                .prop_map(|(n, parents, extras, ordered)| {
                    // Low-numbered parents make hubs (and SDP pruning) likely.
                    let parents: Vec<u64> = parents.iter().map(|p| p % 3).collect();
                    let (mut query, _) = random_connected_query(n, &parents, &extras);
                    if ordered {
                        let column = query.graph.edges()[0].left;
                        query = query.with_order_by(column);
                    }
                    (query, n)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn live_nodes_are_the_nodes_the_memo_reaches(
                (query, n) in graph_inputs(),
                budget_groups in 4u64..80,
                winner in any::<usize>(),
            ) {
                let cat = Catalog::paper();
                let model = CostModel::with_defaults(&cat);
                let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
                let context = |budget| EnumContext::new(&query, &model, budget);

                // Level by level, exhaustive and pruned: each `up_to`
                // from a fresh context, whose memo holds no JCR yet.
                for pruned in [false, true] {
                    for up_to in 2..=n {
                        let mut ctx = context(Budget::unlimited());
                        let mut eager = EagerMemo::default();
                        (0..n).for_each(|i| ctx.ensure_base_group(i));
                        let mut pruner = SdpPruner::new(&ctx, SdpConfig::paper());
                        let pruner: Option<&mut dyn LevelPruner> =
                            if pruned { Some(&mut pruner) } else { None };
                        run_levels_with(&mut ctx, &atoms, up_to, pruner).unwrap();
                        let when = format!("after level {up_to} (pruned: {pruned})");
                        assert_counted(&ctx, &mut eager, &when);
                    }
                }

                // Bounded DP: the greedy's scratch records give their
                // count back, the barrier's drops theirs.
                let mut ctx = context(Budget::unlimited());
                let mut eager = EagerMemo::default();
                drop(optimize_dp(&mut ctx).unwrap());
                assert_counted(&ctx, &mut eager, "after bounded DP");

                // An IDP iteration: a block of the first levels is
                // contracted — its plans built, everything they were
                // records over dropped — and the levels run again over
                // the compound atom.
                let mut ctx = context(Budget::unlimited());
                let mut eager = EagerMemo::default();
                (0..n).for_each(|i| ctx.ensure_base_group(i));
                let block = 2.max(n / 2);
                let table = run_levels(&mut ctx, &atoms, block).unwrap();
                assert_counted(&ctx, &mut eager, "after the block's levels");
                let blocks: Vec<RelSet> = table.sets_at(block).collect();
                let atoms = contract(&mut ctx, &atoms, blocks[winner % blocks.len()]);
                assert_counted(&ctx, &mut eager, "after the contraction");
                run_levels(&mut ctx, &atoms, atoms.len()).unwrap();
                assert_counted(&ctx, &mut eager, "over the compound atom");
                let plan = ctx.finalize(query.graph.all_nodes()).unwrap();
                plan.check_invariants().unwrap();
                // A root sort is the caller's, not the memo's.
                drop(plan);
                assert_counted(&ctx, &mut eager, "after serving the plan");

                // A governed descent: exhaustive DP under a budget it
                // (usually) cannot meet rolls a level back; the memo is
                // handed down and SDP finishes over the base groups.
                let mut ctx = context(Budget::with_memory(budget_groups * GROUP_MODEL_BYTES));
                let mut eager = EagerMemo::default();
                let exhaustive = optimize_complete(&mut ctx);
                if let Err(e) = &exhaustive {
                    prop_assert!(matches!(e, OptError::MemoryExhausted { .. }), "{e}");
                }
                drop(exhaustive);
                assert_counted(&ctx, &mut eager, "after the abandoned rung");
                prepare_handoff(&mut ctx);
                assert_counted(&ctx, &mut eager, "after the handoff");
                ctx.memory.set_budget(Budget::unlimited());
                let plan = optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
                plan.check_invariants().unwrap();
                drop(plan);
                assert_counted(&ctx, &mut eager, "after the descent");
            }

            #[test]
            fn extracted_plans_equal_eager_plans(
                (query, n) in graph_inputs(),
                k in 2usize..=4,
                budget_groups in 4u64..80,
            ) {
                let cat = Catalog::paper();
                let model = CostModel::with_defaults(&cat);
                let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
                let context = |budget| EnumContext::new(&query, &model, budget);

                // DP and SDP, level by level: each `up_to` from a fresh
                // context, whose memo holds no JCR yet.
                for pruned in [false, true] {
                    for up_to in 2..=n {
                        let mut ctx = context(Budget::unlimited());
                        let mut eager = EagerMemo::default();
                        (0..n).for_each(|i| ctx.ensure_base_group(i));
                        let mut pruner = SdpPruner::new(&ctx, SdpConfig::paper());
                        let pruner: Option<&mut dyn LevelPruner> =
                            if pruned { Some(&mut pruner) } else { None };
                        run_levels_with(&mut ctx, &atoms, up_to, pruner).unwrap();
                        let when = format!("level {up_to} (pruned: {pruned})");
                        assert_extracted(&mut ctx, &mut eager, &when);
                    }
                }

                // IDP(k) and GOO, whole: the oracle sees IDP's last
                // iteration (compound atoms arrive built) and every
                // group GOO joined.
                for idp in [true, false] {
                    let mut ctx = context(Budget::unlimited());
                    let mut eager = EagerMemo::default();
                    let plan = if idp {
                        optimize_idp(&mut ctx, k).unwrap()
                    } else {
                        optimize_goo(&mut ctx).unwrap()
                    };
                    plan.check_invariants().unwrap();
                    drop(plan);
                    assert_extracted(&mut ctx, &mut eager, if idp { "IDP" } else { "GOO" });
                }

                // A rolled-back rung, the handoff, SDP over what it left.
                let mut ctx = context(Budget::with_memory(budget_groups * GROUP_MODEL_BYTES));
                let mut eager = EagerMemo::default();
                drop(optimize_complete(&mut ctx));
                assert_extracted(&mut ctx, &mut eager, "the abandoned rung");
                prepare_handoff(&mut ctx);
                assert_counted(&ctx, &mut eager, "the handoff");
                ctx.memory.set_budget(Budget::unlimited());
                let plan = optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
                plan.check_invariants().unwrap();
                drop(plan);
                assert_extracted(&mut ctx, &mut eager, "the descent");
            }
        }
    }
}
