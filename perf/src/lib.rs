//! # sdp-perf — the repository's benchmark
//!
//! Four single-threaded request-path workloads, each measured end to
//! end (`--trace 0`) and layer by layer (`--trace 1`), with a
//! correctness gate on every served plan. `BENCHMARK.json` at the
//! repository root is the contract ([`spec`]); README.md beside this
//! crate says why each workload and metric is there.
//!
//! Every layer is reached through the public items a caller of the
//! repository's crates would use — never through enumerator internals
//! — so a refactor behind those items is measured, not broken, by this
//! crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod run;
pub mod selfcheck;
pub mod span;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;
