//! # sdp-query — join graphs, topologies and workload generation
//!
//! This crate models the *query side* of the SDP paper's experimental
//! framework:
//!
//! * [`JoinGraph`] — an undirected multigraph over query-local node
//!   indices, each node bound to a catalog relation, each edge an
//!   equi-join between two columns;
//! * [`RelSet`] — a 64-bit bitset of node indices, the currency of the
//!   dynamic-programming enumerators (a "JCR" in the paper's terms is
//!   a `RelSet` together with its plans);
//! * hub detection ([`hubs`]) — a *hub* is any (composite) relation
//!   joining with three or more neighbours, the trigger for SDP's
//!   localized pruning;
//! * topology constructors ([`Topology`]) — chain, star, cycle, clique
//!   and the paper's star-chain graphs;
//! * workload generation ([`QueryGenerator`]) — seeded sampling of
//!   relation combinations from a catalog, reproducing the paper's
//!   combinatorial query instantiation (e.g. choosing 14 of 24
//!   non-hub relations for Star-15), plus the ordered variants that
//!   request sorted output on a join column;
//! * join-column equivalence classes ([`EquivClasses`]) with the
//!   transitive-closure edge inference the paper attributes to the
//!   optimizer rewriter (`R.a = S.b ∧ R.a = T.c ⇒ S.b = T.c`);
//! * canonical graph hashing ([`canon`]) — permutation-invariant
//!   Weisfeiler–Leman fingerprints of labelled join graphs, the
//!   substrate of the service layer's plan-cache keys.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canon;
mod closure;
mod generator;
mod graph;
pub mod hubs;
mod predicate;
mod query;
mod relset;
mod topology;

pub use closure::{infer_transitive_edges, ClassId, EquivClasses};
pub use generator::QueryGenerator;
pub use graph::{ColRef, JoinEdge, JoinGraph};
pub use predicate::{PredOp, Predicate};
pub use query::{OrderSpec, Query};
pub use relset::RelSet;
pub use topology::Topology;
