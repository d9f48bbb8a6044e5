//! # sdp — Skyline Dynamic Programming query optimization
//!
//! A from-scratch Rust reproduction of *"Robust Heuristics for
//! Scalable Optimization of Complex SQL Queries"* (ICDE 2007): the
//! **SDP** join-order enumerator — classical bottom-up dynamic
//! programming augmented with localized, hub-partitioned skyline
//! pruning over `[Rows, Cost, Selectivity]` feature vectors — together
//! with everything needed to evaluate it: a synthetic benchmark
//! catalog, a PostgreSQL-shaped cost model, the IDP and GOO competitor
//! enumerators, a validation executor, and an experiment harness that
//! regenerates every table and figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use sdp::prelude::*;
//!
//! // The paper's 25-relation benchmark schema.
//! let catalog = Catalog::paper();
//!
//! // A 15-relation star-chain query (the paper's Figure 1.1 shape).
//! let query = QueryGenerator::new(&catalog, Topology::star_chain(15), 42).instance(0);
//!
//! // Optimize with SDP and with exhaustive DP, compare.
//! let optimizer = Optimizer::new(&catalog);
//! let sdp = optimizer.optimize(&query, Algorithm::Sdp(SdpConfig::paper())).unwrap();
//! let dp = optimizer.optimize(&query, Algorithm::Dp).unwrap();
//! assert!(sdp.cost / dp.cost < 2.0); // SDP is at least "good", usually ideal
//! assert!(sdp.stats.plans_costed < dp.stats.plans_costed / 2);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`catalog`] | schema, statistics, the paper's 25-relation benchmark database |
//! | [`query`] | join graphs, topologies, hub detection, workload generation |
//! | [`skyline`] | skyline algorithms (SFS, pairwise-union) |
//! | [`cost`] | PostgreSQL-shaped cost model and cardinality estimation |
//! | [`core`] | the enumerators: DP, IDP(k), **SDP**, GOO; memo, plans, budgets |
//! | [`sql`] | SQL front-end: lexer, parser, binder, renderer |
//! | [`engine`] | synthetic tuples + Volcano executor for validation |
//! | [`metrics`] | plan-quality classes, ρ, overhead aggregation, service counters, metrics exposition |
//! | [`service`] | resident optimizer daemon: query fingerprints, sharded plan cache, single-flight coalescing |
//! | [`trace`] | zero-dependency structured tracing: spans, sinks, chrome://tracing dumps |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use sdp_catalog as catalog;
pub use sdp_core as core;
pub use sdp_cost as cost;
pub use sdp_engine as engine;
pub use sdp_metrics as metrics;
pub use sdp_query as query;
pub use sdp_service as service;
pub use sdp_skyline as skyline;
pub use sdp_sql as sql;
pub use sdp_trace as trace;

/// The common imports for working with the library.
pub mod prelude {
    pub use sdp_catalog::{Catalog, ColId, RelId, SchemaSpec};
    pub use sdp_core::{
        explain::explain, explain::explain_analyze, Algorithm, Budget, DegradeReason, GovernedPlan,
        Governor, LevelStats, OptError, OptimizedPlan, Optimizer, Partitioning, Rung, SdpConfig,
        SkylineOption,
    };
    pub use sdp_cost::{CostModel, CostParams};
    pub use sdp_engine::{execute, scaled_catalog, Database};
    pub use sdp_metrics::{QualityClass, QualitySummary};
    pub use sdp_query::{
        ColRef, JoinEdge, JoinGraph, PredOp, Predicate, Query, QueryGenerator, RelSet, Topology,
    };
    pub use sdp_service::{
        Daemon, DaemonConfig, Fingerprint, OptimizerService, PlanSource, ServiceConfig,
        ServiceError, ServiceRequest, ShedReason,
    };
    pub use sdp_sql::{parse_query, render_sql};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let catalog = Catalog::paper();
        let query = QueryGenerator::new(&catalog, Topology::Star(5), 1).instance(0);
        let plan = Optimizer::new(&catalog)
            .optimize(&query, Algorithm::Sdp(SdpConfig::paper()))
            .unwrap();
        assert!(plan.cost > 0.0);
        assert!(!explain(&plan.root).is_empty());
    }

    #[test]
    fn facade_exposes_the_service_layer() {
        let service = OptimizerService::with_defaults(Catalog::paper());
        let req = ServiceRequest::sql("SELECT * FROM R1 a, R2 b WHERE a.c0 = b.c1");
        assert_eq!(service.get_plan(&req).unwrap().source, PlanSource::Fresh);
        assert_eq!(service.get_plan(&req).unwrap().source, PlanSource::Cache);
    }
}
