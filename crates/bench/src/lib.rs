//! # sdp-bench — Criterion benchmarks per paper table/figure
//!
//! Each bench target regenerates the *timing* dimension of one paper
//! table; the full tables (quality classes, memory, plans costed) are
//! produced by the `sdp-experiments` binary in `sdp-harness`.
//!
//! | bench target | paper artifact |
//! |---|---|
//! | `table_1_2_star_chain_overheads` | Table 1.2 / 1.4 — optimization time per technique on star-chains |
//! | `table_2_1_dp_chain_vs_star` | Table 2.1 — DP cost growth, chain vs star |
//! | `table_2_3_skyline_options` | Table 2.3 — Option 1 vs Option 2 (vs strong skyline) |
//! | `table_3_2_star_overheads` | Table 3.2 — per-technique time on pure stars |
//! | `table_3_3_scaleup` | Table 3.3 — large-star optimization time |
//! | `table_3_6_local_vs_global` | Table 3.6 — local vs global pruning effort |
//! | `figure_1_2_quality_vs_effort` | Figure 1.2 — effort axis per technique |
//! | `skyline_kernels` | substrate: BNL vs SFS vs pairwise union vs k-dominant |
//! | `scaleup_threads` | extension: enumeration thread scale-up on large stars |
//! | `plan_cache` | extension: service-layer cold miss vs warm hit vs coalesced requests |
//! | `feasibility` | extension: the governor's feasibility oracle vs the doomed rung it replaces |

#![warn(missing_docs)]

use sdp_catalog::Catalog;
use sdp_core::{Algorithm, OptimizedPlan, Optimizer};
use sdp_query::{Query, QueryGenerator, Topology};

/// Build a deterministic query instance on the paper catalog.
pub fn paper_query(catalog: &Catalog, topology: Topology, seed: u64, k: u64) -> Query {
    QueryGenerator::new(catalog, topology, seed).instance(k)
}

/// Optimize, panicking on infeasibility (bench configurations are
/// chosen feasible).
pub fn optimize(catalog: &Catalog, query: &Query, algorithm: Algorithm) -> OptimizedPlan {
    Optimizer::new(catalog)
        .optimize(query, algorithm)
        .expect("bench configuration must be feasible")
}

/// [`optimize`] with an explicit enumeration thread count, for the
/// thread scale-up benchmark.
pub fn optimize_with_threads(
    catalog: &Catalog,
    query: &Query,
    algorithm: Algorithm,
    threads: usize,
) -> OptimizedPlan {
    Optimizer::new(catalog)
        .with_parallelism(threads)
        .optimize(query, algorithm)
        .expect("bench configuration must be feasible")
}
