//! # sdp-bench — Criterion benchmarks of the optimizer's extensions
//!
//! The paper's tables, timing included, are produced by the
//! `sdp-experiments` binary in `sdp-harness`. The benches here time
//! what EXPERIMENTS.md cites beside them:
//!
//! | bench target | measures |
//! |---|---|
//! | `plan_cache` | service-layer cold miss vs warm hit vs coalesced requests |
//! | `enumeration_pairs` | pair generation in isolation beside end-to-end exhaustive DP |
//! | `warm_restart` | a restarted daemon's first request, with and without a durable store |
//! | `obs_overhead` | flight-recorder and Q-error instrumentation overhead |
//! | `feasibility` | the governor's feasibility oracle vs the doomed rung it replaces |

#![warn(missing_docs)]

use sdp_catalog::Catalog;
use sdp_query::{Query, QueryGenerator, Topology};

/// Build a deterministic query instance on the paper catalog.
pub fn paper_query(catalog: &Catalog, topology: Topology, seed: u64, k: u64) -> Query {
    QueryGenerator::new(catalog, topology, seed).instance(k)
}
