//! # sdp-core — the SDP optimizer and its competitor enumerators
//!
//! The paper's primary contribution, implemented on a System-R-style
//! bottom-up dynamic-programming substrate:
//!
//! * [`dp`] — the exhaustive bushy DP enumerator (PostgreSQL's
//!   baseline), generalized over *atoms* so that IDP can reuse it
//!   after contracting compounds;
//! * [`enumerate`] — candidate-pair generation: the survivor-level
//!   scan every level-wise strategy runs on, and the count-only
//!   connected-subgraph walk behind the feasibility oracle;
//! * [`sdp`] — **Skyline Dynamic Programming**: localized pruning on
//!   hub partitions with the disjunctive pairwise-skyline function
//!   over the `[Rows, Cost, Selectivity]` feature vector, including
//!   the Root-Hub / Parent-Hub / Global partitioning variants and the
//!   Option-1 / Option-2 / k-dominant skyline variants;
//! * [`idp`] — Iterative Dynamic Programming, the
//!   `IDP1-balanced-bestRow` variant the paper benchmarks against;
//! * [`goo`] — Greedy Operator Ordering, a cheap baseline;
//! * [`feasibility`] — the oracle that lets the governor descend past
//!   an exhaustive rung which provably cannot fit its memory budget;
//! * [`optimizer`] — the public entry point tying everything together.
//!
//! Every enumerator runs under a [`budget::Budget`] that models the
//! paper's 1 GB physical-memory wall (the `*` cells in its tables) and
//! counts plans costed, the paper's third overhead metric.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod context;
pub mod dp;
pub mod enumerate;
pub mod explain;
pub mod feasibility;
pub mod fx;
pub mod goo;
pub mod governor;
pub mod idp;
pub mod memo;
pub mod optimizer;
pub mod plan;
pub mod sdp;

pub use budget::{Budget, OptError};
pub use governor::{
    CancelHandle, DegradeEvent, DegradeReason, GovernedFailure, GovernedPlan, Governor, Rung,
    CHEAPEST_RUNG_FLOOR, LADDER,
};

// Compile-time guarantee for the service layer: everything a resident
// optimizer daemon shares across worker threads — the optimizer
// facade, its inputs and its outputs — is `Send + Sync`. A regression
// (say, an `Rc` or `RefCell` sneaking back into a plan tree) fails
// this function's type-check rather than surfacing as a distant
// trait-bound error in `sdp-service`.
#[allow(dead_code)]
fn _assert_service_types_are_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Optimizer<'static>>();
    check::<optimizer::Algorithm>();
    check::<OptimizedPlan>();
    check::<PlanNode>();
    check::<NodeCounter>();
    check::<Budget>();
    check::<RunStats>();
    check::<OptError>();
    check::<Memo>();
    check::<Governor>();
    check::<GovernedPlan>();
    check::<CancelHandle>();
    check::<Rung>();
    check::<DegradeEvent>();
    check::<sdp_catalog::Catalog>();
    check::<sdp_query::Query>();
    check::<context::LevelStats>();
    check::<enumerate::EnumeratorKind>();
    #[cfg(feature = "trace")]
    check::<sdp_trace::Tracer>();
}
pub use context::{EnumContext, Incumbent, LevelStats, RunStats};
pub use enumerate::{EnumeratorKind, LevelScan};
pub use explain::{explain, explain_analyze, worst_estimates};
pub use memo::{Group, Memo, PlanEntry, PlanSource};
pub use optimizer::{Algorithm, OptimizedPlan, Optimizer};
pub use plan::{Children, NodeCounter, PlanNode, PlanOp};
pub use sdp::{Partitioning, SdpConfig, SkylineOption};
