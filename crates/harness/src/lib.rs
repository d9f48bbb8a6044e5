//! # sdp-harness — experiment drivers for every paper table and figure
//!
//! One module per experiment (see `DESIGN.md` for the index), plus the
//! shared machinery: a [`runner`] that executes `(topology, technique)`
//! configurations over seeded query-instance streams, and [`tables`]
//! that renders rows in the paper's format. Two ablations live here
//! rather than in the optimizer, because experiments are their only
//! callers: the randomized baselines II and SA ([`random`]) and plan
//! re-costing under another cost model ([`recost`]).
//!
//! The `sdp-experiments` binary exposes each experiment as a
//! subcommand and `all` regenerates the measured columns of
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod random;
pub mod recost;
pub mod runner;
pub mod svg;
pub mod tables;

pub use runner::{ExperimentConfig, RunOutcome, Runner, Technique};
