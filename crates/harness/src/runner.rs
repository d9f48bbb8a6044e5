//! Shared experiment machinery: run techniques over instance streams,
//! aggregate quality and overheads.

use std::sync::Arc;

use sdp_catalog::Catalog;
use sdp_core::{Algorithm, Budget, EnumContext, OptError, Optimizer, PlanNode, RunStats};
use sdp_cost::CostModel;
use sdp_metrics::{OverheadSample, OverheadSummary, QualitySummary};
use sdp_query::{infer_transitive_edges, Query, QueryGenerator, Topology};

use crate::random;

/// What one experiment row runs: a strategy of the optimizer's ladder,
/// or one of the randomized baselines only the harness carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Technique {
    /// A ladder strategy, run by `Optimizer::optimize` — except DP,
    /// which runs as the paper's unbounded enumeration ([`paper_dp`]).
    Ladder(Algorithm),
    /// Iterative Improvement ([`random::optimize_ii`]).
    Ii,
    /// Simulated Annealing ([`random::optimize_sa`]).
    Sa,
}

impl Technique {
    /// Display label matching the paper's table rows.
    pub fn label(&self) -> String {
        match self {
            Technique::Ladder(algorithm) => algorithm.label(),
            Technique::Ii => "II".into(),
            Technique::Sa => "SA".into(),
        }
    }
}

impl From<Algorithm> for Technique {
    fn from(algorithm: Algorithm) -> Self {
        Technique::Ladder(algorithm)
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Query instances per configuration (paper tables use 100).
    pub instances: usize,
    /// Base RNG seed for the instance stream.
    pub seed: u64,
    /// Resource budget per optimization (paper: 1 GB memory model).
    pub budget: Budget,
    /// Use the ordered query variants (`ORDER BY` a join column).
    pub ordered: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            instances: 100,
            seed: 0x5d9_2007,
            budget: Budget::default(),
            ordered: false,
        }
    }
}

impl ExperimentConfig {
    /// Reduced-instance configuration for smoke runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            instances: 10,
            ..ExperimentConfig::default()
        }
    }

    /// Same configuration with the ordered query variants.
    pub fn ordered(mut self) -> Self {
        self.ordered = true;
        self
    }
}

/// Result of optimizing one query instance with one algorithm.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// Optimization completed.
    Plan {
        /// Estimated cost of the chosen plan.
        cost: f64,
        /// Overhead counters.
        stats: RunStats,
    },
    /// Budget exceeded — the paper's `*` cells.
    Infeasible(OptError),
}

impl RunOutcome {
    /// The outcome of one optimization: its plan, or the paper's `*`
    /// when the budget stopped it (memory or deadline).
    ///
    /// # Panics
    /// On any other error — a defect, not infeasibility — naming the run
    /// with `what()`: it fails the experiment.
    fn of(optimized: Result<(f64, RunStats), OptError>, what: impl Fn() -> String) -> Self {
        match optimized {
            Ok((cost, stats)) => RunOutcome::Plan { cost, stats },
            Err(e @ (OptError::MemoryExhausted { .. } | OptError::TimedOut { .. })) => {
                RunOutcome::Infeasible(e)
            }
            Err(e) => panic!("{}: {e}", what()),
        }
    }

    /// Plan cost if feasible.
    pub fn cost(&self) -> Option<f64> {
        match self {
            RunOutcome::Plan { cost, .. } => Some(*cost),
            RunOutcome::Infeasible(_) => None,
        }
    }

    /// Run statistics if feasible.
    pub fn stats(&self) -> Option<&RunStats> {
        match self {
            RunOutcome::Plan { stats, .. } => Some(stats),
            RunOutcome::Infeasible(_) => None,
        }
    }
}

/// Runs configurations over a catalog.
#[derive(Debug)]
pub struct Runner<'a> {
    catalog: &'a Catalog,
    config: ExperimentConfig,
}

impl<'a> Runner<'a> {
    /// Create a runner.
    pub fn new(catalog: &'a Catalog, config: ExperimentConfig) -> Self {
        Runner { catalog, config }
    }

    /// The configuration in force.
    pub fn config(&self) -> ExperimentConfig {
        self.config
    }

    /// Optimize every instance of `topology` with `technique`.
    ///
    /// Instance `k` of the stream is identical across techniques
    /// (same seed), so per-instance cost ratios are meaningful. The
    /// paper's DP is PostgreSQL's exhaustive enumeration, so that is
    /// what a DP row runs ([`paper_dp`]): `Algorithm::Dp` serves the
    /// same plan bounded by a greedy incumbent, costing a fraction of
    /// the plans and fitting budgets the paper's DP does not.
    pub fn run(&self, topology: Topology, technique: impl Into<Technique>) -> Vec<RunOutcome> {
        let technique = technique.into();
        let budget = self.config.budget;
        let generator = QueryGenerator::new(self.catalog, topology, self.config.seed);
        let optimizer = Optimizer::new(self.catalog).with_budget(budget);
        let mut outcomes = Vec::with_capacity(self.config.instances);
        for k in 0..self.config.instances as u64 {
            let query = if self.config.ordered {
                generator.ordered_instance(k)
            } else {
                generator.instance(k)
            };
            let optimized = match technique {
                Technique::Ladder(Algorithm::Dp) => paper_dp(self.catalog, budget, &query),
                Technique::Ladder(algorithm) => optimizer
                    .optimize(&query, algorithm)
                    .map(|plan| (plan.cost, plan.stats)),
                Technique::Ii => run_rewritten(self.catalog, budget, &query, random::optimize_ii),
                Technique::Sa => run_rewritten(self.catalog, budget, &query, random::optimize_sa),
            };
            let what = || format!("{} on {topology}, instance {k}", technique.label());
            match RunOutcome::of(optimized, what) {
                outcome @ RunOutcome::Plan { .. } => outcomes.push(outcome),
                infeasible => {
                    // Infeasibility is structural (the memory wall does
                    // not depend on which relations fill the template):
                    // one failure condemns the whole configuration, so
                    // skip the remaining instances — exactly how the
                    // paper reports a single `*` per configuration.
                    outcomes.resize(self.config.instances, infeasible);
                    break;
                }
            }
        }
        outcomes
    }

    /// Whether a configuration should be reported as the paper's `*`:
    /// infeasible on any instance (the paper's infeasibility is
    /// structural — memory exhaustion does not depend on which
    /// relations fill the template, so one failure condemns the
    /// configuration).
    pub fn is_infeasible(outcomes: &[RunOutcome]) -> bool {
        outcomes.iter().any(|o| o.cost().is_none())
    }
}

/// The paper's DP over `query` under `budget`: the unbounded level
/// enumeration (`sdp_core::dp::optimize_complete`) over
/// the rewritten query, as `Optimizer::optimize` would see it. Returns
/// the plan's cost and the run's counters.
pub fn paper_dp(
    catalog: &Catalog,
    budget: Budget,
    query: &Query,
) -> Result<(f64, RunStats), OptError> {
    run_rewritten(catalog, budget, query, |ctx| {
        sdp_core::dp::optimize_complete(ctx)
    })
}

/// Run `strategy` over `query` as `Optimizer::optimize` runs a ladder
/// strategy: on the rewritten query, with default cost constants, under
/// `budget`. Returns the plan's cost and the run's counters.
fn run_rewritten(
    catalog: &Catalog,
    budget: Budget,
    query: &Query,
    strategy: impl FnOnce(&mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError>,
) -> Result<(f64, RunStats), OptError> {
    let model = CostModel::with_defaults(catalog);
    let mut rewritten = query.clone();
    infer_transitive_edges(&mut rewritten.graph);
    let mut ctx = EnumContext::new(&rewritten, &model, budget);
    let plan = strategy(&mut ctx)?;
    Ok((plan.cost, ctx.stats()))
}

/// Per-instance cost ratios of `candidate` against `reference`,
/// skipping instances where either side was infeasible.
pub fn cost_ratios(reference: &[RunOutcome], candidate: &[RunOutcome]) -> Vec<f64> {
    reference
        .iter()
        .zip(candidate)
        .filter_map(|(r, c)| match (r.cost(), c.cost()) {
            (Some(rc), Some(cc)) => {
                // Guard against rounding making the candidate
                // infinitesimally "better" than the reference.
                Some((cc / rc).max(1.0))
            }
            _ => None,
        })
        .collect()
}

/// Quality summary of `candidate` against `reference`; `None` when no
/// instance pair was feasible.
pub fn quality_against(
    reference: &[RunOutcome],
    candidate: &[RunOutcome],
) -> Option<QualitySummary> {
    let ratios = cost_ratios(reference, candidate);
    if ratios.is_empty() {
        None
    } else {
        Some(QualitySummary::from_ratios(&ratios))
    }
}

/// Overhead summary over the feasible runs of a configuration.
pub fn overheads(outcomes: &[RunOutcome]) -> OverheadSummary {
    let samples: Vec<OverheadSample> = outcomes
        .iter()
        .filter_map(|o| o.stats())
        .map(|s| OverheadSample {
            memory_bytes: s.peak_model_bytes,
            elapsed: s.elapsed,
            plans_costed: s.plans_costed,
        })
        .collect();
    OverheadSummary::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_core::SdpConfig;
    use std::time::Duration;

    /// Only the budget's errors print as the paper's `*`; any other
    /// error fails the experiment, naming the run.
    #[test]
    fn only_budget_errors_become_stars() {
        let (used_bytes, budget_bytes) = (2, 1);
        let (elapsed, limit) = (Duration::from_millis(2), Duration::from_millis(1));
        let budget = [
            OptError::MemoryExhausted {
                used_bytes,
                budget_bytes,
            },
            OptError::TimedOut { elapsed, limit },
        ];
        for e in budget {
            let outcome = RunOutcome::of(Err(e), || unreachable!("a star names no run"));
            assert!(matches!(outcome, RunOutcome::Infeasible(_)));
        }
        for e in [OptError::DisconnectedJoinGraph, OptError::EmptyQuery] {
            let run = || RunOutcome::of(Err(e.clone()), || "SDP on Star-6, instance 3".into());
            let message = *std::panic::catch_unwind(run)
                .unwrap_err()
                .downcast::<String>()
                .unwrap();
            assert_eq!(message, format!("SDP on Star-6, instance 3: {e}"));
        }
    }

    #[test]
    fn runner_produces_per_instance_outcomes() {
        let cat = Catalog::paper();
        let cfg = ExperimentConfig {
            instances: 3,
            ..ExperimentConfig::default()
        };
        let runner = Runner::new(&cat, cfg);
        let outcomes = runner.run(Topology::star_chain(8), Algorithm::Dp);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.cost().is_some()));
    }

    #[test]
    fn ratios_pair_instances() {
        let cat = Catalog::paper();
        let cfg = ExperimentConfig {
            instances: 4,
            ..ExperimentConfig::default()
        };
        let runner = Runner::new(&cat, cfg);
        let dp = runner.run(Topology::star_chain(8), Algorithm::Dp);
        let sdp = runner.run(Topology::star_chain(8), Algorithm::Sdp(SdpConfig::paper()));
        let ratios = cost_ratios(&dp, &sdp);
        assert_eq!(ratios.len(), 4);
        assert!(ratios.iter().all(|&r| r >= 1.0));
        let q = quality_against(&dp, &sdp).unwrap();
        assert!(q.rho >= 1.0);
    }

    #[test]
    fn infeasible_runs_detected() {
        let cat = Catalog::paper();
        let cfg = ExperimentConfig {
            instances: 1,
            budget: Budget::with_memory(1 << 16),
            ..ExperimentConfig::default()
        };
        let runner = Runner::new(&cat, cfg);
        let dp = runner.run(Topology::Star(12), Algorithm::Dp);
        assert!(Runner::is_infeasible(&dp));
        assert!(quality_against(&dp, &dp).is_none());
        assert_eq!(overheads(&dp).runs, 0);
    }
}

#[cfg(test)]
mod short_circuit_tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn infeasibility_short_circuits_the_instance_loop() {
        let cat = Catalog::paper();
        let cfg = ExperimentConfig {
            instances: 50,
            budget: Budget::with_memory(1 << 16),
            ..ExperimentConfig::default()
        };
        let runner = Runner::new(&cat, cfg);
        let started = Instant::now();
        let outcomes = runner.run(Topology::Star(14), sdp_core::Algorithm::Dp);
        // All 50 slots filled with the structural failure…
        assert_eq!(outcomes.len(), 50);
        assert!(outcomes.iter().all(|o| o.cost().is_none()));
        // …after optimizing only one instance.
        assert!(
            started.elapsed().as_secs_f64() < 10.0,
            "short-circuit did not engage"
        );
    }
}
