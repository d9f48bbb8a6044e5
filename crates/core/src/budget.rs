//! Resource budgets and the infeasibility errors behind the paper's
//! `*` table cells.
//!
//! The paper ran on "vanilla Pentium-IV PCs with 1 GB of memory"; DP
//! on Star-20, and later IDP(7) on Star-23, simply ran out of physical
//! memory. We model that wall with a deterministic *memory model*:
//! each live memo group and each live plan node is charged a constant
//! number of bytes, calibrated so that the feasibility frontier of the
//! paper (DP feasible at Star-15/16, infeasible at Star-20; see
//! DESIGN.md) is reproduced. The harness additionally reports real
//! allocator bytes; the model is what decides feasibility.

use std::fmt;
use std::time::{Duration, Instant};

/// Paper-equivalent bytes charged per live memo group.
///
/// Calibrated (together with [`NODE_MODEL_BYTES`]) so that the paper's
/// feasibility frontier is reproduced under the 1 GB default budget:
/// DP feasible at Star-16 (~300 MB here, 326 MB in the paper) but not
/// at Star-20 or Star-Chain-23; IDP(7) feasible at Star-20 but not at
/// Star-23.
pub const GROUP_MODEL_BYTES: u64 = 6144;
/// Paper-equivalent bytes charged per live plan node (see
/// [`GROUP_MODEL_BYTES`] for the calibration).
pub const NODE_MODEL_BYTES: u64 = 3072;

/// Why optimization could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The memory model exceeded the budget — the analogue of the
    /// paper's out-of-physical-memory `*` entries.
    MemoryExhausted {
        /// Model bytes in use when the budget tripped — or, when the
        /// governor's feasibility oracle predicted the failure instead
        /// of running into it, its lower bound on the rung's peak.
        used_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// Wall-clock limit exceeded.
    TimedOut {
        /// Elapsed time when the deadline tripped.
        elapsed: Duration,
        /// The configured limit.
        limit: Duration,
    },
    /// The query's join graph is disconnected — no cartesian-product-
    /// free plan exists.
    DisconnectedJoinGraph,
    /// The query has no relations.
    EmptyQuery,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::MemoryExhausted {
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "optimizer memory exhausted: {:.1} MB used, {:.1} MB budget",
                *used_bytes as f64 / 1048576.0,
                *budget_bytes as f64 / 1048576.0
            ),
            OptError::TimedOut { elapsed, limit } => write!(
                f,
                "optimization timed out after {:.1}s (limit {:.1}s)",
                elapsed.as_secs_f64(),
                limit.as_secs_f64()
            ),
            OptError::DisconnectedJoinGraph => {
                write!(
                    f,
                    "join graph is disconnected (cartesian products excluded)"
                )
            }
            OptError::EmptyQuery => write!(f, "query joins zero relations"),
        }
    }
}

impl std::error::Error for OptError {}

/// Resource limits for one optimization run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Memory-model budget in bytes (default: the paper's 1 GB).
    pub max_model_bytes: u64,
    /// Wall-clock limit (default: 5 minutes — the paper's slowest
    /// feasible run, DP on Star-16, took ~2 minutes).
    pub max_elapsed: Duration,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_model_bytes: 1 << 30,
            max_elapsed: Duration::from_secs(300),
        }
    }
}

impl Budget {
    /// A budget that never trips (for unit tests of small queries).
    pub fn unlimited() -> Self {
        Budget {
            max_model_bytes: u64::MAX,
            max_elapsed: Duration::from_secs(u32::MAX as u64),
        }
    }

    /// Budget with a specific memory-model limit.
    pub fn with_memory(bytes: u64) -> Self {
        Budget {
            max_model_bytes: bytes,
            ..Budget::default()
        }
    }
}

/// Tracks live groups/nodes against a [`Budget`] and remembers peaks.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    budget: Budget,
    start: Instant,
    live_groups: u64,
    peak_bytes: u64,
    /// Logical clock of level barriers passed so far (see
    /// [`MemoryModel::barrier_check`]).
    barriers: u64,
    #[cfg(feature = "testkit")]
    faults: Option<sdp_testkit::FaultPlan>,
}

impl MemoryModel {
    /// Start tracking. The live-node count is the run's memo's
    /// ([`crate::Memo::live_nodes`]), passed to every reading, so plans
    /// owned by the caller (from earlier runs) are not charged.
    pub fn new(budget: Budget) -> Self {
        MemoryModel {
            budget,
            start: Instant::now(),
            live_groups: 0,
            peak_bytes: 0,
            barriers: 0,
            #[cfg(feature = "testkit")]
            faults: None,
        }
    }

    /// Record `n` additional live groups.
    pub fn add_groups(&mut self, n: u64) {
        self.live_groups += n;
    }

    /// Record `n` groups freed.
    pub fn remove_groups(&mut self, n: u64) {
        self.live_groups = self.live_groups.saturating_sub(n);
    }

    /// Current model bytes in use, with `live_nodes` plan nodes alive.
    pub fn used_bytes(&self, live_nodes: u64) -> u64 {
        self.live_groups * GROUP_MODEL_BYTES + live_nodes * NODE_MODEL_BYTES
    }

    /// Peak model bytes observed so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Elapsed wall-clock time since tracking began.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The budget currently in force.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Replace the budget in force. The governor swaps per-rung
    /// budgets in here between ladder attempts; elapsed time keeps
    /// counting from the run's start, so a rung's deadline is a
    /// fraction of the request's total deadline, not a fresh window.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Number of level barriers passed so far.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Install a fault-injection schedule consulted at every barrier.
    #[cfg(feature = "testkit")]
    pub fn set_fault_plan(&mut self, faults: sdp_testkit::FaultPlan) {
        self.faults = Some(faults);
    }

    /// Check the budget with `live_nodes` plan nodes alive; updates the
    /// peak. Call once per enumeration batch (checking per-plan would be
    /// wasteful).
    pub fn check(&mut self, live_nodes: u64) -> Result<(), OptError> {
        let used = self.used_bytes(live_nodes);
        self.peak_bytes = self.peak_bytes.max(used);
        if used > self.budget.max_model_bytes {
            return Err(OptError::MemoryExhausted {
                used_bytes: used,
                budget_bytes: self.budget.max_model_bytes,
            });
        }
        let elapsed = self.start.elapsed();
        if elapsed > self.budget.max_elapsed {
            return Err(OptError::TimedOut {
                elapsed,
                limit: self.budget.max_elapsed,
            });
        }
        Ok(())
    }

    /// [`MemoryModel::check`] at a level barrier: ticks the barrier
    /// counter first, and (under the `testkit` feature) applies any
    /// faults scheduled for the new tick before checking. Barriers
    /// happen twice per DP level — once the level is costed, before its
    /// verdict drops anything, and after the verdict — so the counter is
    /// a deterministic logical clock.
    pub fn barrier_check(&mut self, live_nodes: u64) -> Result<(), OptError> {
        self.barriers += 1;
        #[cfg(feature = "testkit")]
        if let Some(faults) = &self.faults {
            let fault = faults.at_barrier(self.barriers);
            if let Some(bytes) = fault.shrink_memory_to {
                self.budget.max_model_bytes = bytes;
            }
            if let Some(delay) = fault.delay {
                std::thread::sleep(delay);
            }
        }
        self.check(live_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_one_gigabyte() {
        let b = Budget::default();
        assert_eq!(b.max_model_bytes, 1 << 30);
    }

    #[test]
    fn memory_model_counts_groups() {
        let mut m = MemoryModel::new(Budget::unlimited());
        assert_eq!(m.used_bytes(0), 0);
        m.add_groups(10);
        assert_eq!(m.used_bytes(0), 10 * GROUP_MODEL_BYTES);
        m.remove_groups(4);
        assert_eq!(m.used_bytes(0), 6 * GROUP_MODEL_BYTES);
        assert!(m.check(0).is_ok());
        assert_eq!(m.peak_bytes(), 6 * GROUP_MODEL_BYTES);
    }

    #[test]
    fn memory_model_counts_live_nodes() {
        use crate::memo::{EdgeWords, Group, Memo};
        use crate::plan::{PlanNode, PlanOp};
        use sdp_catalog::RelId;
        use sdp_query::RelSet;
        let mut memo = Memo::new();
        let m = MemoryModel::new(Budget::unlimited());
        let set = RelSet::single(0);
        let op = PlanOp::SeqScan {
            rel: RelId(0),
            node: 0,
        };
        let mut group = Group::new(set, 1.0, 1.0, 8.0, EdgeWords::default());
        group.add_plan(PlanNode::new(op, set, 1.0, 1.0, None), memo.built_mut());
        memo.insert(group);
        assert_eq!(m.used_bytes(memo.live_nodes()), NODE_MODEL_BYTES);
        memo.remove(set);
        assert_eq!(m.used_bytes(memo.live_nodes()), 0);
    }

    #[test]
    fn budget_trips_on_memory() {
        let mut m = MemoryModel::new(Budget::with_memory(GROUP_MODEL_BYTES));
        m.add_groups(2);
        match m.check(0) {
            Err(OptError::MemoryExhausted { used_bytes, .. }) => {
                assert_eq!(used_bytes, 2 * GROUP_MODEL_BYTES)
            }
            other => panic!("expected memory exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn budget_trips_on_time() {
        let mut m = MemoryModel::new(Budget {
            max_model_bytes: u64::MAX,
            max_elapsed: Duration::from_nanos(1),
        });
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(m.check(0), Err(OptError::TimedOut { .. })));
    }

    #[test]
    fn barrier_check_ticks_the_logical_clock() {
        let mut m = MemoryModel::new(Budget::unlimited());
        assert_eq!(m.barriers(), 0);
        assert!(m.barrier_check(0).is_ok());
        assert!(m.barrier_check(0).is_ok());
        assert_eq!(m.barriers(), 2);
        // Plain checks do not tick the clock.
        assert!(m.check(0).is_ok());
        assert_eq!(m.barriers(), 2);
    }

    #[test]
    fn set_budget_swaps_limits_mid_run() {
        let mut m = MemoryModel::new(Budget::unlimited());
        m.add_groups(4);
        assert!(m.check(0).is_ok());
        m.set_budget(Budget::with_memory(GROUP_MODEL_BYTES));
        assert!(matches!(m.check(0), Err(OptError::MemoryExhausted { .. })));
        m.set_budget(Budget::unlimited());
        assert!(m.check(0).is_ok());
        assert_eq!(m.budget().max_model_bytes, u64::MAX);
    }

    #[cfg(feature = "testkit")]
    #[test]
    fn fault_plan_shrinks_budget_at_its_barrier() {
        let mut m = MemoryModel::new(Budget::unlimited());
        m.set_fault_plan(sdp_testkit::FaultPlan::new().shrink_memory_at(2, 0));
        m.add_groups(1);
        assert!(m.barrier_check(0).is_ok(), "barrier 1 is unscheduled");
        assert!(
            matches!(m.barrier_check(0), Err(OptError::MemoryExhausted { .. })),
            "barrier 2 shrinks the budget to zero"
        );
    }

    #[test]
    fn errors_display_helpfully() {
        let e = OptError::MemoryExhausted {
            used_bytes: 2 << 30,
            budget_bytes: 1 << 30,
        };
        assert!(e.to_string().contains("MB"));
        assert!(OptError::DisconnectedJoinGraph
            .to_string()
            .contains("disconnected"));
    }
}
