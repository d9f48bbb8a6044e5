//! # sdp-cost — PostgreSQL-shaped cost model and cardinality estimation
//!
//! The SDP paper's experiments were "conducted through direct
//! implementation on the PostgreSQL engine", so every plan-quality
//! number in its tables is an *optimizer-estimated cost* produced by
//! PostgreSQL's cost model over `ANALYZE` statistics. This crate
//! rebuilds that model in the same shape:
//!
//! * [`CostParams`] — the familiar `seq_page_cost` /
//!   `random_page_cost` / `cpu_tuple_cost` / … constants with
//!   PostgreSQL 8.1 defaults;
//! * [`Estimator`] — cardinality and selectivity estimation under the
//!   classical independence assumptions (`1/max(ndv)` equi-join
//!   selectivity, Cardenas distinct counts, skew correction), working
//!   in log-space so 40+-way joins cannot overflow;
//! * [`CostModel`] — access-path costing (sequential and full index
//!   scans) and join costing (nested loop, index nested loop, hash,
//!   merge) including sort costs and an interesting-order-aware
//!   description of each candidate's output ordering.
//!
//! The absolute constants do not matter for reproducing the paper —
//! only the *trade-off structure* does (cheap-but-big versus
//! expensive-but-small subplans is what skyline pruning exploits) —
//! but keeping PostgreSQL's shape makes the reproduction faithful.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod estimate;
mod join;
mod model;
mod params;
mod scan;

pub use estimate::Estimator;
pub use join::{JoinMethod, JoinSide, JoinTerms};
pub use model::CostModel;
pub use params::CostParams;
pub use scan::{
    index_probe_cost, scan_paths, scan_paths_for_node, sort_cost, IndexProbe, ScanKind, ScanPath,
    ScanPaths,
};
