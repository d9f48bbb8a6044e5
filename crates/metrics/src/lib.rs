//! # sdp-metrics — plan-quality metrics and overhead aggregation
//!
//! The measurement vocabulary of the paper's evaluation:
//!
//! * plan-quality classes (refined from Kossmann & Stocker's G/A/B):
//!   **Ideal** (within 1 % of the DP optimum), **Good** (≤ 2×),
//!   **Acceptable** (≤ 10×), **Bad** (> 10×);
//! * **W** — the worst-case plan-cost ratio across a query set;
//! * **ρ** — "the Geometric Mean of the plan-costs normalized … w.r.t.
//!   DP", the overall plan-quality factor;
//! * overheads — memory (MB), time (seconds) and plans costed.
//!
//! Plus a byte-counting global allocator ([`alloc`]) the harness
//! installs to report *real* process allocation peaks alongside the
//! deterministic memory model, and the [`service`] module's request
//! counters (hit/miss/coalesced/evicted) and latency histograms
//! consumed by the `sdp-service` optimizer daemon.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod expo;
pub mod histogram;
pub mod overhead;
pub mod quality;
pub mod service;
pub mod store;
pub mod table;

pub use alloc::AllocSnapshot;
pub use expo::{MetricsReport, METRICS_SCHEMA_VERSION};
pub use histogram::{Histogram, HistogramSample, QErrorHistogram};
pub use overhead::{OverheadSample, OverheadSummary};
pub use quality::{geometric_mean_ratio, QualityClass, QualitySummary};
pub use service::{
    CountersSnapshot, DescentReason, GovernorCounters, GovernorSnapshot, LatencyHistogram,
    OverloadCounters, OverloadSnapshot, RungLatencies, ServiceCounters, HISTOGRAM_BUCKETS,
};
pub use store::{StoreCounters, StoreSnapshot};
pub use table::{Kind, MetricDef};
