//! The resource governor: per-request deadlines, memory budgets and
//! the graceful-degradation ladder **DP → SDP → IDP(4) → GOO**.
//!
//! The paper's enumerators trade plan quality for robustness — SDP
//! exists because exhaustive DP blows its time/space budget on
//! 15–25-relation graphs. The governor makes that trade-off an
//! explicit, observable *mechanism* instead of an operator guess: a
//! request carries a deadline and a memory budget, the optimizer polls
//! them cooperatively (at DP level barriers and every 2^16 candidate
//! pairs within a level), and when a strategy exhausts
//! its slice of the budget the run **escalates down the ladder** to
//! the next-cheaper strategy instead of failing. The failed rung's
//! base-relation groups are handed to the next rung (compound groups
//! are dropped, see [`prepare_handoff`]), and the returned
//! [`GovernedPlan`] records which rung produced the plan and why each
//! degradation happened — deadline or memory.
//!
//! A rung that *provably* cannot fit the memory budget is not run at
//! all: before an exhaustive rung (DP, or IDP's first block) starts,
//! the feasibility oracle ([`crate::feasibility`]) bounds its peak
//! memory from below by counting the join graph's connected subgraphs,
//! and when that bound exceeds the budget the governor records the
//! descent — same [`DegradeEvent`], same hand-off, marked
//! [`DegradeEvent::predicted`] — and moves on. The bound is a lower
//! bound, so the rung that finally serves and its plan are exactly
//! those of a run that tried the doomed rung first.
//!
//! # Ladder semantics
//!
//! Each rung gets a *soft deadline* that is a fraction of the
//! request's total deadline (measured from the start of the run, not
//! per rung): DP may spend 40%, SDP up to 65%, IDP(4) up to 85%, and
//! GOO the full 100%. A rung that trips its slice leaves the rest of
//! the wall-clock to the cheaper strategies below it, which is what
//! makes "a GOO-or-better plan within the deadline" achievable: GOO
//! costs O(n) joins and virtually always fits the final slice.
//! Memory budgets are absolute (the ladder's value is that cheaper
//! rungs *retain fewer JCRs*, not that they get more memory).

use std::fmt;
use std::time::Duration;

use sdp_query::RelSet;

use crate::budget::{Budget, OptError};
use crate::context::EnumContext;
use crate::optimizer::{Algorithm, OptimizedPlan};
use crate::sdp::SdpConfig;

/// One rung of the degradation ladder, ordered from the most thorough
/// strategy to the cheapest (`Rung::Dp < Rung::Goo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rung {
    /// Exhaustive dynamic programming.
    Dp,
    /// Skyline DP (the paper's robust default).
    Sdp,
    /// Iterative DP with block size 4.
    Idp,
    /// Greedy operator ordering — the floor; always cheap enough.
    Goo,
}

/// The full ladder, top to bottom.
pub const LADDER: [Rung; 4] = [Rung::Dp, Rung::Sdp, Rung::Idp, Rung::Goo];

/// The floor under the cheapest rung: below this much remaining
/// deadline not even GOO — O(n) greedy joins on an already-bound
/// query — can be expected to produce a plan, so admission control
/// sheds the request instead of burning a worker on a run that can
/// only end in [`OptError::TimedOut`].
pub const CHEAPEST_RUNG_FLOOR: Duration = Duration::from_micros(100);

impl Rung {
    /// Display label, matching [`Algorithm::label`] for the rung's
    /// canonical configuration.
    pub fn label(&self) -> &'static str {
        match self {
            Rung::Dp => "DP",
            Rung::Sdp => "SDP",
            Rung::Idp => "IDP(4)",
            Rung::Goo => "GOO",
        }
    }

    /// The ladder rung a requested algorithm starts on.
    pub fn for_algorithm(algorithm: Algorithm) -> Rung {
        match algorithm {
            Algorithm::Dp => Rung::Dp,
            Algorithm::Sdp(_) => Rung::Sdp,
            Algorithm::Idp { .. } => Rung::Idp,
            Algorithm::Goo => Rung::Goo,
        }
    }

    /// The canonical algorithm the governor runs when it *descends to*
    /// this rung (descents always use the paper-default configuration;
    /// the originally requested configuration only applies to the
    /// first attempt).
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Rung::Dp => Algorithm::Dp,
            Rung::Sdp => Algorithm::Sdp(SdpConfig::paper()),
            Rung::Idp => Algorithm::Idp { k: 4 },
            Rung::Goo => Algorithm::Goo,
        }
    }

    /// Stable numeric tag for the persisted plan-store format. Never
    /// renumber; append for new rungs.
    pub fn stable_tag(&self) -> u8 {
        match self {
            Rung::Dp => 1,
            Rung::Sdp => 2,
            Rung::Idp => 3,
            Rung::Goo => 4,
        }
    }

    /// Inverse of [`Rung::stable_tag`]; `None` for unknown tags.
    pub fn from_stable_tag(tag: u8) -> Option<Rung> {
        match tag {
            1 => Some(Rung::Dp),
            2 => Some(Rung::Sdp),
            3 => Some(Rung::Idp),
            4 => Some(Rung::Goo),
            _ => None,
        }
    }

    /// The next-cheaper rung, or `None` at the bottom.
    pub fn next_down(&self) -> Option<Rung> {
        match self {
            Rung::Dp => Some(Rung::Sdp),
            Rung::Sdp => Some(Rung::Idp),
            Rung::Idp => Some(Rung::Goo),
            Rung::Goo => None,
        }
    }

    /// Fraction of the request's total deadline this rung may consume
    /// (cumulative from the start of the run): trips leave wall-clock
    /// headroom for every cheaper rung below.
    pub fn deadline_fraction(&self) -> f64 {
        match self {
            Rung::Dp => 0.40,
            Rung::Sdp => 0.65,
            Rung::Idp => 0.85,
            Rung::Goo => 1.0,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why the governor abandoned a rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The rung's slice of the request deadline expired.
    Deadline,
    /// The memory-model budget tripped.
    Memory,
}

impl DegradeReason {
    /// The degradation reason a recoverable optimizer error maps to;
    /// `None` for errors the ladder cannot recover from (empty or
    /// disconnected queries).
    pub fn for_error(error: &OptError) -> Option<DegradeReason> {
        match error {
            OptError::TimedOut { .. } => Some(DegradeReason::Deadline),
            OptError::MemoryExhausted { .. } => Some(DegradeReason::Memory),
            OptError::DisconnectedJoinGraph | OptError::EmptyQuery => None,
        }
    }

    /// Stable numeric tag for the persisted dead-letter format. Never
    /// renumber; append for new reasons. Tag 3 (caller cancellation)
    /// is retired, never to be reused.
    pub fn stable_tag(&self) -> u8 {
        match self {
            DegradeReason::Deadline => 1,
            DegradeReason::Memory => 2,
        }
    }

    /// Inverse of [`DegradeReason::stable_tag`]; `None` for unknown
    /// and retired tags.
    pub fn from_stable_tag(tag: u8) -> Option<DegradeReason> {
        match tag {
            1 => Some(DegradeReason::Deadline),
            2 => Some(DegradeReason::Memory),
            _ => None,
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::Memory => "memory",
        })
    }
}

/// One recorded descent of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeEvent {
    /// The rung that was abandoned.
    pub from: Rung,
    /// The rung the run descended to.
    pub to: Rung,
    /// Why the descent happened.
    pub reason: DegradeReason,
    /// Wall-clock elapsed since the start of the run when the descent
    /// was taken.
    pub elapsed: Duration,
    /// `Some(bound)` when the abandoned rung was never run: the
    /// feasibility oracle ([`crate::feasibility`]) proved from the join
    /// graph alone that it needs at least `bound` model bytes, more
    /// than the budget in force. Always a [`DegradeReason::Memory`]
    /// descent, and in every other respect an ordinary one.
    pub predicted: Option<u64>,
}

/// Per-request resource policy: deadline, memory budget and (in test
/// builds) an injected fault schedule.
#[derive(Debug, Clone, Default)]
pub struct Governor {
    deadline: Option<Duration>,
    memory_bytes: Option<u64>,
    #[cfg(feature = "testkit")]
    faults: Option<sdp_testkit::FaultPlan>,
}

impl Governor {
    /// A governor with no deadline and the default memory budget.
    pub fn new() -> Self {
        Governor::default()
    }

    /// Set the request's total deadline. Rungs receive cumulative
    /// slices of it (see [`Rung::deadline_fraction`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the memory-model budget in bytes (default: the paper's
    /// 1 GB, [`Budget::default`]).
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }

    /// Install a deterministic fault schedule (test builds only); the
    /// optimizer consults it at every level barrier.
    #[cfg(feature = "testkit")]
    pub fn with_fault_plan(mut self, faults: sdp_testkit::FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The injected fault schedule, when one is installed.
    #[cfg(feature = "testkit")]
    pub fn fault_plan(&self) -> Option<sdp_testkit::FaultPlan> {
        self.faults.clone()
    }

    /// The request's total deadline, when one is set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The memory budget in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
            .unwrap_or_else(|| Budget::default().max_model_bytes)
    }

    /// The [`Budget`] in force while the given rung runs: the full
    /// memory budget plus the rung's cumulative slice of the deadline.
    pub fn rung_budget(&self, rung: Rung) -> Budget {
        Budget {
            max_model_bytes: self.memory_bytes(),
            max_elapsed: match self.deadline {
                Some(d) => d.mul_f64(rung.deadline_fraction()),
                None => Budget::unlimited().max_elapsed,
            },
        }
    }
}

/// The result of a governed optimization: the plan, the rung that
/// produced it, and every descent taken on the way there.
#[derive(Debug, Clone)]
pub struct GovernedPlan {
    /// The chosen plan with its run statistics (cumulative across all
    /// rungs attempted).
    pub plan: OptimizedPlan,
    /// The strategy originally requested.
    pub requested: Algorithm,
    /// The strategy that actually produced the plan (equals
    /// `requested` when nothing degraded).
    pub produced: Algorithm,
    /// The ladder rung that produced the plan: always `Some` (every
    /// strategy is a rung).
    pub rung: Option<Rung>,
    /// Every descent taken, in order.
    pub degradations: Vec<DegradeEvent>,
}

/// A governed run that failed even after walking the ladder, with the
/// descent history that led there — the raw material for a
/// dead-letter record. [`Optimizer::optimize_governed`] flattens this
/// to its [`OptError`]; callers that persist failures use
/// [`Optimizer::optimize_governed_full`] to keep the history.
///
/// [`Optimizer::optimize_governed`]: crate::Optimizer::optimize_governed
/// [`Optimizer::optimize_governed_full`]: crate::Optimizer::optimize_governed_full
#[derive(Debug, Clone, PartialEq)]
pub struct GovernedFailure {
    /// The terminal error (from the bottom rung reached, or an
    /// unrecoverable error no rung helps with).
    pub error: OptError,
    /// Every descent taken before the run gave up, in order.
    pub degradations: Vec<DegradeEvent>,
}

impl fmt::Display for GovernedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} degradation(s)",
            self.error,
            self.degradations.len()
        )
    }
}

impl GovernedPlan {
    /// Whether the plan came from a cheaper rung than requested.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// The reason for the final descent, when any was taken.
    pub fn reason(&self) -> Option<DegradeReason> {
        self.degradations.last().map(|d| d.reason)
    }

    /// Display label of the strategy that produced the plan.
    pub fn rung_label(&self) -> String {
        self.produced.label()
    }
}

/// Prepare the memo for a descent: keep the base-relation groups and
/// drop every compound group the abandoned rung left. Every strategy
/// needs the base groups, and re-deriving access paths is pure waste;
/// a compound group would save no costing — the next rung's levels
/// build each JCR afresh from the groups below it — and its levels
/// stage only sets new to the memo (the precondition of
/// [`crate::dp::run_levels`]). No plan needs building for the handoff:
/// base groups hold access paths, which refer to nothing.
pub fn prepare_handoff(ctx: &mut EnumContext<'_>) {
    let compound: Vec<RelSet> = ctx.memo.sets().filter(|s| s.len() > 1).collect();
    for set in compound {
        ctx.prune_group(set);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    use crate::budget::GROUP_MODEL_BYTES;
    use crate::dp::optimize_dp;
    use crate::enumerate::tests::random_connected_query;
    use crate::goo::optimize_goo;
    use crate::idp::optimize_idp;
    use crate::plan::PlanNode;
    use crate::sdp::optimize_sdp;
    use proptest::prelude::*;

    #[test]
    fn ladder_descends_dp_to_goo() {
        assert_eq!(LADDER.to_vec(), {
            let mut walk = vec![Rung::Dp];
            while let Some(next) = walk.last().unwrap().next_down() {
                walk.push(next);
            }
            walk
        });
        assert!(Rung::Dp < Rung::Sdp && Rung::Sdp < Rung::Idp && Rung::Idp < Rung::Goo);
        assert_eq!(Rung::Goo.next_down(), None);
    }

    #[test]
    fn rung_labels_match_their_algorithms() {
        for rung in LADDER {
            assert_eq!(rung.label(), rung.algorithm().label(), "{rung:?}");
            assert_eq!(Rung::for_algorithm(rung.algorithm()), rung);
        }
        assert_eq!(Rung::for_algorithm(Algorithm::Idp { k: 7 }), Rung::Idp);
    }

    #[test]
    fn deadline_fractions_are_cumulative_and_end_at_one() {
        let fractions: Vec<f64> = LADDER.iter().map(|r| r.deadline_fraction()).collect();
        assert!(fractions.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(fractions.last(), Some(&1.0));
    }

    #[test]
    fn rung_budgets_slice_the_deadline() {
        let gov = Governor::new()
            .with_deadline(Duration::from_secs(10))
            .with_memory_budget(1 << 20);
        let dp = gov.rung_budget(Rung::Dp);
        let goo = gov.rung_budget(Rung::Goo);
        assert_eq!(dp.max_elapsed, Duration::from_secs(4));
        assert_eq!(goo.max_elapsed, Duration::from_secs(10));
        assert_eq!(dp.max_model_bytes, 1 << 20);
        assert_eq!(goo.max_model_bytes, 1 << 20, "memory is absolute");
    }

    #[test]
    fn no_deadline_means_effectively_unlimited_time() {
        let gov = Governor::new();
        assert_eq!(
            gov.rung_budget(Rung::Dp).max_elapsed,
            Budget::unlimited().max_elapsed
        );
        assert_eq!(gov.memory_bytes(), Budget::default().max_model_bytes);
    }

    #[test]
    fn degrade_reasons_map_from_errors() {
        assert_eq!(
            DegradeReason::for_error(&OptError::TimedOut {
                elapsed: Duration::ZERO,
                limit: Duration::ZERO,
            }),
            Some(DegradeReason::Deadline)
        );
        assert_eq!(
            DegradeReason::for_error(&OptError::MemoryExhausted {
                used_bytes: 1,
                budget_bytes: 0,
            }),
            Some(DegradeReason::Memory)
        );
        assert_eq!(DegradeReason::for_error(&OptError::EmptyQuery), None);
        assert_eq!(
            DegradeReason::for_error(&OptError::DisconnectedJoinGraph),
            None
        );
    }

    #[test]
    fn handoff_keeps_bases_drops_compounds() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Chain(3), 1).instance(0);
        let model = CostModel::with_defaults(&cat);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        for i in 0..3 {
            ctx.ensure_base_group(i);
        }
        ctx.join_pair(RelSet::single(0), RelSet::single(1));
        ctx.join_pair(RelSet::from_indices([0, 1]), RelSet::single(2));
        assert_eq!(ctx.memo.len(), 5);

        // Pairs go with the triple, at any budget; bases stay.
        prepare_handoff(&mut ctx);
        assert_eq!(ctx.memo.len(), 3);
        for i in 0..3 {
            assert!(ctx.memo.get(RelSet::single(i)).is_some());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A rung run over a handoff is a rung run from scratch: the
        /// handoff leaves it nothing but base groups, so it serves the
        /// same plan, and its levels pair, create, prune and retain what
        /// they do over a fresh context.
        #[test]
        fn a_rung_over_a_handoff_serves_its_from_scratch_plan(
            n in 3usize..=10,
            parents in prop::collection::vec(any::<u64>(), 9usize),
            extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=8),
            ordered in any::<bool>(),
            budget_groups in 4u64..80,
        ) {
            // Low-numbered parents make hubs (and SDP pruning) likely.
            let parents: Vec<u64> = parents.iter().map(|p| p % 3).collect();
            let (mut query, _) = random_connected_query(n, &parents, &extras);
            if ordered {
                let column = query.graph.edges()[0].left;
                query = query.with_order_by(column);
            }
            let cat = Catalog::paper();
            let model = CostModel::with_defaults(&cat);
            let budget = Budget::with_memory(budget_groups * GROUP_MODEL_BYTES);
            type RungFn = fn(&mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError>;
            let rungs: [(&str, RungFn); 3] = [
                ("SDP", |ctx| optimize_sdp(ctx, SdpConfig::paper())),
                ("IDP(4)", |ctx| optimize_idp(ctx, 4)),
                ("GOO", optimize_goo),
            ];
            for (label, rung) in rungs {
                let served = |ctx: &mut EnumContext<'_>| {
                    let plan = rung(ctx).unwrap();
                    let levels: Vec<_> = (ctx.take_profile().iter())
                        .map(|l| (l.level, l.pairs, l.jcrs_created, l.jcrs_pruned, l.jcrs_retained))
                        .collect();
                    (plan.cost.to_bits(), plan.structural_digest(), levels)
                };
                let mut ctx = EnumContext::new(&query, &model, budget);
                let tripped = optimize_dp(&mut ctx).map(drop);
                prop_assume!(tripped.is_err());
                prop_assert!(matches!(tripped, Err(OptError::MemoryExhausted { .. })), "{:?}", tripped);
                ctx.take_profile();
                prepare_handoff(&mut ctx);
                prop_assert!(ctx.memo.sets().all(|s| s.len() == 1), "{}", label);
                ctx.memory.set_budget(Budget::unlimited());
                let fresh = served(&mut EnumContext::new(&query, &model, Budget::unlimited()));
                prop_assert_eq!(served(&mut ctx), fresh, "{}", label);
            }
        }
    }

    #[test]
    fn display_labels_are_stable() {
        assert_eq!(Rung::Idp.to_string(), "IDP(4)");
        assert_eq!(DegradeReason::Memory.to_string(), "memory");
        assert_eq!(DegradeReason::Deadline.to_string(), "deadline");
    }
}
