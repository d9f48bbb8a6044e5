//! # sdp-service — the resident optimizer daemon
//!
//! The paper's heuristics exist because real optimizers run inside
//! long-lived server processes where optimization time is a tax on
//! every query. This crate packages the `sdp-core` enumerators as such
//! a process component:
//!
//! * [`fingerprint`] — canonicalizes each request into an
//!   order-independent structural hash of its join graph, predicates,
//!   statistics and interesting orders, so isomorphic queries collide
//!   (a Weisfeiler–Leman hash over [`sdp_query::canon`]);
//! * [`cache`] — a sharded LRU plan cache whose entries carry the
//!   statistics epoch they were optimized under; bumping the catalog
//!   epoch atomically invalidates stale plans;
//! * [`singleflight`] — concurrent identical requests coalesce onto
//!   one enumeration: a leader optimizes, waiters share its plan;
//! * [`select`] — a topology-aware strategy selector (DP for small
//!   queries, SDP for hub-bearing graphs, IDP for large hub-free
//!   ones, GOO beyond that) driven by `sdp-query` hub detection;
//! * [`service`] — [`OptimizerService`], the `Send + Sync` request
//!   path tying the above together over a swappable catalog snapshot,
//!   with counters and latency histograms in `sdp-metrics`.
//!   Requests may carry a deadline and memory budget; the leader runs
//!   under `sdp-core`'s resource governor, degrading down the
//!   DP → SDP → IDP(4) → GOO ladder instead of failing, and a leader
//!   that *panics* is retried exactly once, one rung cheaper;
//! * [`daemon`] — a worker-pool front ([`Daemon`]) that serves
//!   requests from plain threads, charging queue-wait time against
//!   each request's deadline. Shutdown flushes the durable store;
//! * **overload control** — [`DaemonConfig`] bounds the admission
//!   queue (full queue → immediate [`ServiceError::Shed`]) and sheds
//!   dequeued jobs whose remaining deadline can't cover even the
//!   cheapest rung; under pressure, fingerprints with an
//!   epoch-evicted plan on the *stale shelf* are served that plan
//!   (tagged [`PlanSource::Stale`]) instead of being shed. A
//!   per-fingerprint circuit breaker opens after
//!   `breaker_threshold` consecutive ladder exhaustions: arrivals
//!   fail fast into the DLQ ([`ServiceError::BreakerOpen`]) and
//!   every `breaker_probe_every`-th arrival probes for recovery —
//!   all decisions are counted, never wall-clock, so they replay
//!   bit-identically across thread counts;
//! * **durability** — attach an `sdp-store` plan store with
//!   [`OptimizerService::with_store`]: fresh plans are persisted from
//!   a write-behind thread, and on the next startup the segment log is
//!   replayed (stale-epoch records dropped) to pre-populate the cache
//!   with *warm* entries. [`OptimizerService::with_dlq`] adds a
//!   dead-letter queue: requests that exhaust the degradation ladder
//!   or the leader-panic retry are serialized (query canon, fault
//!   context, degradation history) for offline `replay --dlq`.
//!
//! Attach an `sdp_trace::Tracer` with
//! [`OptimizerService::with_tracer`] and the whole request lifecycle
//! becomes observable: cache outcome per fingerprint, queue waits,
//! governor degradations, leader retries and per-request errors, plus
//! the optimizer's own enumeration spans. [`OptimizerService::metrics_report`] snapshots every counter
//! family into an `sdp_metrics::MetricsReport` for Prometheus-text or
//! JSON exposition.
//!
//! The `sdp-service` binary's `replay` subcommand generates a
//! workload, replays it through a daemon, and reports throughput plus
//! cache behaviour; `--trace` dumps a chrome://tracing-compatible
//! event file and `--metrics-json` the full metrics report.
//!
//! ```
//! use sdp_catalog::Catalog;
//! use sdp_service::{OptimizerService, PlanSource, ServiceRequest};
//!
//! let service = OptimizerService::with_defaults(Catalog::paper());
//! let req = ServiceRequest::sql("SELECT * FROM R1 a, R2 b WHERE a.c0 = b.c1");
//! let first = service.get_plan(&req).unwrap();
//! assert_eq!(first.source, PlanSource::Fresh);
//! let second = service.get_plan(&req).unwrap();
//! assert_eq!(second.source, PlanSource::Cache);
//! assert_eq!(second.plans_costed, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod daemon;
mod durable;
pub mod fingerprint;
pub mod select;
pub mod service;
pub mod singleflight;

pub use cache::{Lookup, ShardedLru};
pub use daemon::{Daemon, DaemonConfig, Ticket};
pub use fingerprint::{fingerprint_query, Fingerprint};
pub use service::{
    CachedPlan, OptimizerService, PlanSource, ServiceConfig, ServiceError, ServiceRequest,
    ServiceResponse, ShedReason,
};
pub use singleflight::{Flight, LeaderToken, SingleFlight};
