//! # sdp-obs — decision observability for the optimizer service
//!
//! PR 5 instrumented the *optimizer* (traces, counters, per-rung
//! latency histograms). This crate instruments the *decisions*: which
//! plans were served, why, and how wrong their cardinality estimates
//! turned out to be. Two surfaces, both deterministic and
//! interleaving-invariant:
//!
//! * [`flight`] — a bounded ring of per-request [`FlightRecord`]s
//!   projected from the existing `sdp-service` trace events by a
//!   [`TraceSink`](sdp_trace::TraceSink) adapter, persisted
//!   write-through into a CRC-framed `sdp-store` log so
//!   `sdp-service inspect --flight` can reconstruct the last N
//!   decisions after a crash — the post-mortem companion to the DLQ;
//! * [`qerror`] — the cardinality-accuracy observatory: per-node-kind
//!   and per-predicate Q-error histograms over the instrumented
//!   executor's (estimated, actual) row counts, and a bounded
//!   worst-estimated-nodes table.
//!
//! Determinism discipline matches the rest of the workspace: wall
//! clock lives only in non-canonical fields ([`FlightRecord::
//! wait_micros`], like [`sdp_trace::Event::wall_micros`]), canonical
//! renderings sort on content, and multiset digests fold
//! commutatively, so recorder contents and Q-error aggregates are
//! bit-identical from run to run, whatever the client and worker
//! interleaving.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flight;
pub mod qerror;

pub use flight::{
    canonical_sort, fold_digest, multiset_digest, FlightLog, FlightRecord, FlightRecorder,
    DEFAULT_FLIGHT_CAPACITY, FLIGHT_EVENTS, FLIGHT_FILE, FLIGHT_LOG_KIND,
};
pub use qerror::{q_error, Observation, QErrorObservatory};
