//! Public optimizer entry point.
//!
//! ```
//! use sdp_catalog::Catalog;
//! use sdp_core::{Algorithm, Optimizer};
//! use sdp_query::{QueryGenerator, Topology};
//!
//! let catalog = Catalog::paper();
//! let query = QueryGenerator::new(&catalog, Topology::star_chain(8), 42).instance(0);
//! let optimizer = Optimizer::new(&catalog);
//! let plan = optimizer.optimize(&query, Algorithm::Sdp(Default::default())).unwrap();
//! assert!(plan.cost > 0.0);
//! ```

use std::sync::Arc;

use sdp_catalog::Catalog;
use sdp_cost::{CostModel, CostParams};
use sdp_query::{EquivClasses, Query};

use crate::budget::{Budget, OptError};
use crate::context::{EnumContext, LevelStats, RunStats};
use crate::dp::optimize_dp;
use crate::enumerate::EnumeratorKind;
use crate::feasibility;
use crate::goo::optimize_goo;
use crate::governor::{
    prepare_handoff, DegradeEvent, DegradeReason, GovernedFailure, GovernedPlan, Governor, Rung,
};
use crate::idp::optimize_idp;
use crate::plan::PlanNode;
use crate::sdp::{optimize_sdp, SdpConfig};

/// Which enumeration strategy to use: the strategies of the governor's
/// ladder ([`Rung`]), each with its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Exhaustive bushy dynamic programming (PostgreSQL's baseline),
    /// bounded by a greedy incumbent: the optimal plan at a fraction of
    /// the plans costed ([`crate::dp::optimize_dp`]).
    Dp,
    /// Iterative DP, the `IDP1-balanced-bestRow` variant, with block
    /// parameter `k` (paper: 4 or 7).
    Idp {
        /// DP levels per iteration.
        k: usize,
    },
    /// Skyline Dynamic Programming (the paper's contribution).
    Sdp(SdpConfig),
    /// Greedy operator ordering baseline.
    Goo,
}

impl Algorithm {
    /// Display label matching the paper's table rows.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Dp => "DP".into(),
            Algorithm::Idp { k } => format!("IDP({k})"),
            Algorithm::Sdp(cfg) if *cfg == SdpConfig::paper() => "SDP".into(),
            Algorithm::Sdp(cfg) => format!("SDP[{:?}/{:?}]", cfg.partitioning, cfg.skyline),
            Algorithm::Goo => "GOO".into(),
        }
    }
}

/// The result of one optimization: the chosen plan and the run's
/// overhead statistics.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// Root of the chosen physical plan.
    pub root: Arc<PlanNode>,
    /// Estimated cost of the plan (the paper's plan-quality
    /// currency).
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Overhead counters (plans costed, peak memory model bytes,
    /// elapsed time, …).
    pub stats: RunStats,
    /// Per-level enumeration profile, in barrier order. Governed
    /// descents accumulate rows across rungs; each row's `phase`
    /// names the strategy that ran it. Feeds `ExplainAnalyze`.
    pub profile: Vec<LevelStats>,
}

/// Optimizer façade: catalog + budget + trace handle. Costs use
/// PostgreSQL's default constants and the rewriter always infers the
/// transitive closure, as PostgreSQL's planner does.
#[derive(Debug, Clone)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    budget: Budget,
    tracer: sdp_trace::Tracer,
}

impl<'a> Optimizer<'a> {
    /// Optimizer with the paper's 1 GB memory budget and a disabled
    /// tracer. Reads no environment.
    pub fn new(catalog: &'a Catalog) -> Self {
        Optimizer {
            catalog,
            budget: Budget::default(),
            tracer: sdp_trace::Tracer::disabled(),
        }
    }

    /// Override the resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Accepted and ignored: an optimization runs on the calling
    /// thread whatever `threads` says. Kept as a no-op only because the
    /// benchmark still calls it (`perf/src/run.rs`, `perf/src/traced.rs`);
    /// it goes once the benchmark stops naming it.
    pub fn with_parallelism(self, _threads: usize) -> Self {
        self
    }

    /// Install a structured-trace handle; every run started from this
    /// optimizer emits its level spans, skyline partition spans and
    /// governor transitions into it. Canonical event sequences are
    /// deterministic (see `sdp-trace`).
    pub fn with_tracer(mut self, tracer: sdp_trace::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The budget in force.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The pair-generation tag a plan from this optimizer is persisted
    /// under — a constant; see [`EnumeratorKind`] for why it remains.
    pub fn enumerator(&self) -> EnumeratorKind {
        EnumeratorKind::LevelScan
    }

    /// Optimize `query` with the chosen algorithm.
    ///
    /// The query is first passed through the rewriter (transitive
    /// closure of shared join columns), exactly as PostgreSQL's
    /// rewriter would before planning.
    pub fn optimize(&self, query: &Query, algorithm: Algorithm) -> Result<OptimizedPlan, OptError> {
        let (rewritten, classes) = rewrite(query);
        let model = CostModel::new(self.catalog, CostParams::default());
        let mut ctx = self.context(&rewritten, &model, self.budget, classes);
        let root = dispatch(&mut ctx, algorithm)?;
        let stats = ctx.stats();
        Ok(OptimizedPlan {
            cost: root.cost,
            rows: root.rows,
            root,
            stats,
            profile: ctx.take_profile(),
        })
    }

    /// Optimize `query` under a [`Governor`]: on budget exhaustion
    /// the run descends the degradation ladder **DP → SDP → IDP(4) →
    /// GOO** instead of failing, reusing the base groups between
    /// rungs (see [`prepare_handoff`]). An exhaustive rung (DP, IDP's
    /// first block) that provably cannot fit the memory budget in
    /// force is descended past without being run — a
    /// [`DegradeEvent::predicted`] memory descent, see
    /// [`crate::feasibility`]. The returned [`GovernedPlan`] records
    /// the producing rung and every descent taken.
    ///
    /// Errors surface only when the query itself is invalid (empty or
    /// disconnected) or when the bottom rung still cannot fit the
    /// budget.
    pub fn optimize_governed(
        &self,
        query: &Query,
        algorithm: Algorithm,
        governor: &Governor,
    ) -> Result<GovernedPlan, OptError> {
        self.optimize_governed_full(query, algorithm, governor)
            .map_err(|failure| failure.error)
    }

    /// Like [`Optimizer::optimize_governed`], but a failed run returns
    /// a [`GovernedFailure`] carrying the descent history alongside
    /// the terminal error — what the service layer serializes into a
    /// dead-letter record.
    pub fn optimize_governed_full(
        &self,
        query: &Query,
        algorithm: Algorithm,
        governor: &Governor,
    ) -> Result<GovernedPlan, GovernedFailure> {
        let (rewritten, classes) = rewrite(query);
        let model = CostModel::new(self.catalog, CostParams::default());

        let mut rung = Rung::for_algorithm(algorithm);
        let mut ctx = self.context(&rewritten, &model, governor.rung_budget(rung), classes);
        #[cfg(feature = "testkit")]
        if let Some(faults) = governor.fault_plan() {
            ctx.memory.set_fault_plan(faults);
        }

        // The first attempt honours the requested configuration
        // verbatim (e.g. a pinned IDP(7)); descents use each rung's
        // canonical paper configuration.
        let mut attempt = algorithm;
        let mut degradations: Vec<DegradeEvent> = Vec::new();
        loop {
            // A rung the oracle proves doomed is descended past without
            // being run — no `rung_start`, no levels, no barriers: its
            // error is the one it would have ended in.
            let predicted = predicted_exhaustion(&mut ctx, attempt);
            let error = if let Some(bound) = predicted {
                OptError::MemoryExhausted {
                    used_bytes: bound,
                    budget_bytes: ctx.memory.budget().max_model_bytes,
                }
            } else {
                ctx.tracer().emit_with(|| {
                    sdp_trace::Event::new("rung_start")
                        .with("rung", rung.label())
                        .with("algorithm", attempt.label())
                        .with("budget_bytes", governor.rung_budget(rung).max_model_bytes)
                });
                match dispatch(&mut ctx, attempt) {
                    Ok(root) => {
                        let stats = ctx.stats();
                        ctx.tracer().emit_with(|| {
                            sdp_trace::Event::new("rung_complete")
                                .with("rung", rung.label())
                                .with("cost", root.cost)
                                .with("plans_costed", stats.plans_costed)
                                .with("degradations", degradations.len())
                        });
                        return Ok(GovernedPlan {
                            plan: OptimizedPlan {
                                cost: root.cost,
                                rows: root.rows,
                                root,
                                stats,
                                profile: ctx.take_profile(),
                            },
                            requested: algorithm,
                            produced: attempt,
                            rung: Some(rung),
                            degradations,
                        });
                    }
                    Err(e) => e,
                }
            };
            let Some(reason) = DegradeReason::for_error(&error) else {
                // Empty/disconnected: no rung helps.
                return Err(GovernedFailure {
                    error,
                    degradations,
                });
            };
            let Some(next) = rung.next_down() else {
                // Bottom rung failed: the ladder is exhausted.
                return Err(GovernedFailure {
                    error,
                    degradations,
                });
            };
            degradations.push(DegradeEvent {
                from: rung,
                to: next,
                reason,
                elapsed: ctx.memory.elapsed(),
                predicted,
            });
            // The degrade span's canonical fields carry only the
            // deterministic facts (rungs, reason, the oracle's verdict);
            // elapsed time is wall-clock and stays out of the canonical
            // form.
            ctx.tracer().emit_with(|| {
                let event = sdp_trace::Event::new("degrade")
                    .with("from", rung.label())
                    .with("to", next.label())
                    .with("reason", format!("{reason:?}"))
                    .with("predicted", predicted.is_some());
                match predicted {
                    Some(bound) => event.with("bound_bytes", bound),
                    None => event,
                }
            });
            let next_budget = governor.rung_budget(next);
            prepare_handoff(&mut ctx);
            ctx.memory.set_budget(next_budget);
            ctx.tracer().emit_with(|| {
                sdp_trace::Event::new("handoff")
                    .with("retained_groups", ctx.memo.len())
                    .with("model_bytes", ctx.memory.used_bytes(ctx.memo.live_nodes()))
            });
            rung = next;
            attempt = next.algorithm();
        }
    }

    /// A run context over the rewritten query and its classes, carrying
    /// this optimizer's trace handle.
    fn context<'q>(
        &self,
        query: &'q Query,
        model: &'q CostModel<'q>,
        budget: Budget,
        classes: EquivClasses,
    ) -> EnumContext<'q> {
        let mut ctx = EnumContext::with_classes(query, model, budget, classes);
        ctx.set_tracer(self.tracer.clone());
        ctx
    }
}

/// The query as the rewriter leaves it, and its join-column classes:
/// computed once, they drive the closure and the run alike (the closure
/// only joins members of a class, so the classes hold after it).
fn rewrite(query: &Query) -> (Query, EquivClasses) {
    let classes = query.equiv_classes();
    let mut rewritten = query.clone();
    classes.close(&mut rewritten.graph);
    (rewritten, classes)
}

/// The feasibility oracle's verdict on starting `attempt` now, under
/// the budget in force: `Some(bound)` when the rung provably needs
/// `bound > budget` model bytes (see [`feasibility::doomed_bound`]).
/// An expired deadline slice or an inherited memo already over budget
/// is the rung's own to report — it does so at its first check — so
/// nothing is predicted then.
fn predicted_exhaustion(ctx: &mut EnumContext<'_>, attempt: Algorithm) -> Option<u64> {
    let bound =
        feasibility::doomed_bound(ctx.graph(), attempt, ctx.memory.budget().max_model_bytes)?;
    ctx.memory.check(ctx.memo.live_nodes()).ok()?;
    Some(bound)
}

/// Run one enumeration strategy over an existing context. Shared by
/// the plain and governed entry points; the governed ladder re-invokes
/// it on the same context so retained memo state carries across rungs.
fn dispatch(ctx: &mut EnumContext<'_>, algorithm: Algorithm) -> Result<Arc<PlanNode>, OptError> {
    ctx.set_phase(match algorithm {
        Algorithm::Dp => "DP",
        Algorithm::Idp { .. } => "IDP",
        Algorithm::Sdp(_) => "SDP",
        Algorithm::Goo => "GOO",
    });
    match algorithm {
        Algorithm::Dp => optimize_dp(ctx),
        Algorithm::Idp { k } => optimize_idp(ctx, k),
        Algorithm::Sdp(cfg) => optimize_sdp(ctx, cfg),
        Algorithm::Goo => optimize_goo(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_query::{QueryGenerator, Topology};

    fn plan_for(algorithm: Algorithm, topo: Topology, seed: u64) -> OptimizedPlan {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, topo, seed).instance(0);
        Optimizer::new(&cat).optimize(&q, algorithm).unwrap()
    }

    #[test]
    fn all_algorithms_agree_on_tiny_queries() {
        // Two relations: a single join — every strategy must find the
        // identical optimum.
        let costs: Vec<f64> = [
            Algorithm::Dp,
            Algorithm::Idp { k: 4 },
            Algorithm::Sdp(SdpConfig::paper()),
            Algorithm::Goo,
        ]
        .iter()
        .map(|&a| plan_for(a, Topology::Chain(2), 3).cost)
        .collect();
        for c in &costs[1..] {
            assert!((c - costs[0]).abs() / costs[0] < 1e-9);
        }
    }

    #[test]
    fn quality_ordering_holds_on_star() {
        let dp = plan_for(Algorithm::Dp, Topology::Star(9), 11);
        let sdp = plan_for(Algorithm::Sdp(SdpConfig::paper()), Topology::Star(9), 11);
        let idp = plan_for(Algorithm::Idp { k: 4 }, Topology::Star(9), 11);
        let goo = plan_for(Algorithm::Goo, Topology::Star(9), 11);
        let eps = 1.0 - 1e-9;
        assert!(sdp.cost >= dp.cost * eps);
        assert!(idp.cost >= dp.cost * eps);
        assert!(goo.cost >= dp.cost * eps);
        // Efforts: DP costs the most plans, GOO the fewest.
        assert!(dp.stats.plans_costed > sdp.stats.plans_costed);
        assert!(sdp.stats.plans_costed > goo.stats.plans_costed);
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Algorithm::Dp.label(), "DP");
        assert_eq!(Algorithm::Idp { k: 7 }.label(), "IDP(7)");
        assert_eq!(Algorithm::Sdp(SdpConfig::paper()).label(), "SDP");
        assert!(Algorithm::Sdp(SdpConfig {
            partitioning: crate::sdp::Partitioning::Global,
            ..SdpConfig::paper()
        })
        .label()
        .contains("Global"));
    }

    #[test]
    fn budget_propagates_to_runs() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(13), 5).instance(0);
        let tight = Optimizer::new(&cat).with_budget(Budget::with_memory(1 << 20));
        assert!(matches!(
            tight.optimize(&q, Algorithm::Dp),
            Err(OptError::MemoryExhausted { .. })
        ));
        // SDP fits where DP does not.
        let sdp = tight.optimize(&q, Algorithm::Sdp(SdpConfig::paper()));
        assert!(sdp.is_ok(), "SDP should fit the tight budget: {sdp:?}");
    }

    #[test]
    fn stats_are_populated() {
        let p = plan_for(
            Algorithm::Sdp(SdpConfig::paper()),
            Topology::star_chain(9),
            2,
        );
        assert!(p.stats.plans_costed > 0);
        assert!(p.stats.jcrs_processed > 9);
        assert!(p.stats.peak_model_bytes > 0);
        assert!(p.rows >= 1.0);
    }

    #[test]
    fn governed_run_without_pressure_matches_plain() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(9), 11).instance(0);
        let opt = Optimizer::new(&cat);
        let plain = opt.optimize(&q, Algorithm::Dp).unwrap();
        let governed = opt
            .optimize_governed(&q, Algorithm::Dp, &Governor::new())
            .unwrap();
        assert_eq!(governed.rung, Some(Rung::Dp));
        assert!(!governed.degraded());
        assert_eq!(governed.reason(), None);
        assert_eq!(governed.rung_label(), "DP");
        assert_eq!(plain.cost.to_bits(), governed.plan.cost.to_bits());
    }

    #[test]
    fn governed_memory_exhaustion_descends_to_a_feasible_rung() {
        // Star-13 under a 1 MB model budget: DP blows it, SDP fits
        // (the same frontier `budget_propagates_to_runs` pins down).
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(13), 5).instance(0);
        let governor = Governor::new().with_memory_budget(1 << 20);
        let governed = Optimizer::new(&cat)
            .optimize_governed(&q, Algorithm::Dp, &governor)
            .unwrap();
        assert_eq!(governed.rung, Some(Rung::Sdp));
        assert_eq!(governed.rung_label(), "SDP");
        assert!(governed.degraded());
        assert_eq!(governed.reason(), Some(DegradeReason::Memory));
        assert_eq!(governed.degradations.len(), 1);
        assert_eq!(governed.degradations[0].from, Rung::Dp);
        assert_eq!(governed.degradations[0].to, Rung::Sdp);
        assert_eq!(governed.plan.root.set, q.graph.all_nodes());
    }

    #[test]
    fn infeasible_bottom_rung_surfaces_the_error() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(9), 3).instance(0);
        let governor = Governor::new().with_memory_budget(0);
        let result = Optimizer::new(&cat).optimize_governed(&q, Algorithm::Dp, &governor);
        assert!(matches!(result, Err(OptError::MemoryExhausted { .. })));
    }

    #[test]
    fn unrecoverable_errors_skip_the_ladder() {
        use sdp_catalog::RelId;
        let cat = Catalog::paper();
        let g = sdp_query::JoinGraph::new(vec![RelId(0), RelId(1)], vec![]);
        let q = Query::new(g);
        assert_eq!(
            Optimizer::new(&cat)
                .optimize_governed(&q, Algorithm::Dp, &Governor::new())
                .err(),
            Some(OptError::DisconnectedJoinGraph)
        );
    }

    #[test]
    fn pinned_configuration_labels_survive_success() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Chain(6), 2).instance(0);
        let governed = Optimizer::new(&cat)
            .optimize_governed(&q, Algorithm::Idp { k: 7 }, &Governor::new())
            .unwrap();
        assert_eq!(governed.rung, Some(Rung::Idp));
        assert_eq!(governed.rung_label(), "IDP(7)", "requested config ran");
    }
}
