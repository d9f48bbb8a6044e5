//! The resident optimizer service: fingerprint → cache → single
//! flight → enumeration.
//!
//! [`OptimizerService`] is the shared, `Send + Sync` heart of the
//! daemon. Its request path holds no lock across an enumeration:
//!
//! 1. snapshot the catalog (`RwLock<Arc<Catalog>>` — statistics
//!    refreshes swap a new `Arc` in without blocking in-flight
//!    optimizations, which keep planning against their snapshot);
//! 2. bind the request (SQL text through `sdp-sql`, or a programmatic
//!    [`Query`]) and compute its [`Fingerprint`];
//! 3. probe the sharded LRU under the snapshot's statistics epoch;
//! 4. on a miss, join the single-flight for the key: the leader runs
//!    the enumeration (strategy from [`crate::select::choose`] unless
//!    the request pins one) and publishes; waiters block and receive
//!    the same plan;
//! 5. record hit/miss/coalesced/evicted counters and each fresh
//!    enumeration's latency into `sdp-metrics`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use sdp_catalog::{AnalyzedRelation, Catalog, CatalogError};
use sdp_core::{
    Algorithm, DegradeEvent, DegradeReason, EnumeratorKind, GovernedPlan, Governor, OptError,
    Optimizer, PlanNode, Rung,
};
use sdp_metrics::{
    CountersSnapshot, DescentReason, GovernorCounters, GovernorSnapshot, MetricsReport,
    OverloadCounters, RungLatencies, ServiceCounters, StoreCounters,
};
use sdp_query::canon::stable_hash;
use sdp_query::Query;
use sdp_sql::SqlError;
use sdp_store::{
    DeadLetterQueue, DlqDegradation, DlqErrorKind, DlqRecord, PlanRecord, PlanStore, StoreError,
    StoreOptions,
};
use sdp_trace::{Event, Tracer};

use crate::cache::{Lookup, ShardedLru};
use crate::durable::StoreHandle;
use crate::fingerprint::{fingerprint_query, Fingerprint};
use crate::select;
use crate::singleflight::{Flight, SingleFlight};

/// Tuning for one [`OptimizerService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum cached plans (spread over the shards).
    pub cache_capacity: usize,
    /// Number of cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Accepted and ignored: every optimization runs on one daemon
    /// worker thread. Kept, unread, only because the benchmark still
    /// sets it (`perf/src/run.rs`); it goes once the benchmark stops
    /// naming it.
    pub parallelism: Option<usize>,
    /// Consecutive ladder-exhaustion / leader-panic failures on one
    /// fingerprint before its circuit breaker opens (0 disables the
    /// breaker entirely).
    pub breaker_threshold: u32,
    /// While a breaker is open, every Nth arrival is admitted as a
    /// half-open recovery probe (counted, never wall-clock; floored
    /// at 1, where every arrival probes).
    pub breaker_probe_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            cache_shards: 8,
            parallelism: None,
            breaker_threshold: 3,
            breaker_probe_every: 4,
        }
    }
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// The request led an enumeration.
    Fresh,
    /// Served from the plan cache.
    Cache,
    /// Coalesced onto another request's in-flight enumeration.
    Coalesced,
    /// Served from the stale shelf under admission pressure: a plan
    /// optimized under an older statistics epoch, handed back as a
    /// degraded answer instead of shedding the request outright.
    Stale,
}

/// A plan as stored in (and served from) the cache.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// Root of the chosen physical plan.
    pub root: Arc<PlanNode>,
    /// Estimated plan cost.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Strategy that produced the plan (display label).
    pub strategy: String,
    /// The degradation-ladder rung that produced the plan: always
    /// `Some` for a plan optimized now (every strategy is a rung), `None`
    /// only when warm-loaded from a record of a retired off-ladder
    /// strategy. A cached `Some(Rung::Goo)` entry marks a degraded plan
    /// the daemon could re-optimize at a higher rung when idle.
    pub rung: Option<Rung>,
    /// Ladder descents taken while producing the plan (0 = the
    /// requested strategy finished within its budget).
    pub degradations: u64,
    /// The query's structural fingerprint.
    pub fingerprint: Fingerprint,
    /// Statistics epoch the plan was optimized under.
    pub stats_epoch: u64,
    /// Whether this entry was pre-populated from the durable store at
    /// startup (a *warm* entry) rather than optimized by this process.
    pub warm: bool,
}

/// One optimization request: a query (by text or by value) plus an
/// optional pinned strategy and per-request resource limits.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    spec: QuerySpec,
    algorithm: Option<Algorithm>,
    deadline: Option<Duration>,
    memory_budget: Option<u64>,
    #[cfg(feature = "testkit")]
    faults: Option<sdp_testkit::FaultPlan>,
}

#[derive(Debug, Clone)]
enum QuerySpec {
    Sql(String),
    Query(Query),
}

impl ServiceRequest {
    /// Request optimization of a SQL string.
    pub fn sql(text: impl Into<String>) -> Self {
        ServiceRequest {
            spec: QuerySpec::Sql(text.into()),
            algorithm: None,
            deadline: None,
            memory_budget: None,
            #[cfg(feature = "testkit")]
            faults: None,
        }
    }

    /// Request optimization of an already-bound query.
    pub fn query(query: Query) -> Self {
        ServiceRequest {
            spec: QuerySpec::Query(query),
            algorithm: None,
            deadline: None,
            memory_budget: None,
            #[cfg(feature = "testkit")]
            faults: None,
        }
    }

    /// Pin the enumeration strategy instead of letting the
    /// topology-aware selector choose.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Set a total optimization deadline for this request; the
    /// governor slices it across the degradation ladder. Time spent
    /// queued in the daemon counts against it.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the memory-model budget for this request, in bytes.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// The request's deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Install a deterministic fault schedule for this request's
    /// enumeration (test builds only).
    #[cfg(feature = "testkit")]
    pub fn with_fault_plan(mut self, faults: sdp_testkit::FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Charge queue-wait time against the deadline: a request that
    /// waited in the daemon's queue has that much less time left to
    /// optimize. No-op when no deadline is set.
    pub(crate) fn shrink_deadline(&mut self, elapsed: Duration) {
        if let Some(d) = self.deadline.as_mut() {
            *d = d.saturating_sub(elapsed);
        }
    }
}

/// A served plan plus provenance.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The plan (shared with the cache).
    pub plan: CachedPlan,
    /// How the request was satisfied.
    pub source: PlanSource,
    /// Plan alternatives costed *by this request* — zero unless
    /// [`PlanSource::Fresh`].
    pub plans_costed: u64,
}

/// Why admission control shed a request before optimization ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The daemon's bounded admission queue was full at submit.
    QueueFull,
    /// The deadline remaining after charged queue-wait was below the
    /// cheapest rung's floor — the run could only have timed out.
    DeadlineExpired,
}

impl ShedReason {
    /// Short display label (used in trace events).
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineExpired => "deadline-expired",
        }
    }
}

/// Request-path errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The SQL front-end rejected the request text.
    Sql(SqlError),
    /// The enumeration failed (budget, disconnected graph, …).
    Opt(OptError),
    /// The single-flight leader panicked and the bounded
    /// retry-with-degradation policy was exhausted (the panic payload
    /// message is preserved). The flight is abandoned, so waiters
    /// retry rather than hang.
    LeaderPanicked(String),
    /// Admission control shed the request without optimizing —
    /// deterministic load shedding, not a fault.
    Shed(ShedReason),
    /// The fingerprint's circuit breaker was open and this arrival was
    /// not a scheduled half-open probe; the rejection is serialized to
    /// the dead-letter queue.
    BreakerOpen {
        /// Consecutive failures recorded when the breaker opened.
        failures: u32,
    },
    /// A daemon worker died before replying — an internal error.
    WorkerDied,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Sql(e) => write!(f, "sql: {e}"),
            ServiceError::Opt(e) => write!(f, "optimizer: {e}"),
            ServiceError::LeaderPanicked(msg) => write!(f, "leader panicked: {msg}"),
            ServiceError::Shed(reason) => write!(f, "shed: {}", reason.label()),
            ServiceError::BreakerOpen { failures } => {
                write!(f, "circuit breaker open ({failures} consecutive failures)")
            }
            ServiceError::WorkerDied => write!(f, "daemon worker died before replying"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-fingerprint circuit-breaker state. Keyed by the *raw*
/// fingerprint rather than the plan key: a query that poisons the
/// ladder does so regardless of the pinned strategy, so
/// every variant trips — and recovers — together.
#[derive(Debug)]
struct Breaker {
    entries: Mutex<HashMap<u128, BreakerEntry>>,
    /// Number of fingerprints with tracked failure state; lets the
    /// request hot path skip the lock while everything is healthy.
    tracked: AtomicU64,
    threshold: u32,
    probe_every: u64,
}

#[derive(Debug, Default)]
struct BreakerEntry {
    consecutive_failures: u32,
    open: bool,
    arrivals_while_open: u64,
}

/// Admission decision for one arrival.
enum BreakerVerdict {
    /// Closed (or untracked): proceed normally.
    Proceed,
    /// Open, but this arrival is the scheduled half-open probe.
    Probe,
    /// Open: fail fast without optimizing.
    Reject {
        /// Consecutive failures recorded when the breaker opened.
        failures: u32,
    },
}

impl Breaker {
    fn new(threshold: u32, probe_every: u64) -> Self {
        Breaker {
            entries: Mutex::new(HashMap::new()),
            tracked: AtomicU64::new(0),
            threshold,
            probe_every: probe_every.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u128, BreakerEntry>> {
        self.entries.lock().expect("breaker lock poisoned")
    }

    /// Gate one arrival. Open breakers count arrivals and admit every
    /// `probe_every`-th one as a half-open probe — a logical clock, so
    /// the decision sequence is identical across thread counts.
    fn admit(&self, fp: u128) -> BreakerVerdict {
        if self.tracked.load(Ordering::Relaxed) == 0 {
            return BreakerVerdict::Proceed;
        }
        let mut entries = self.lock();
        match entries.get_mut(&fp) {
            Some(entry) if entry.open => {
                entry.arrivals_while_open += 1;
                if entry.arrivals_while_open % self.probe_every == 0 {
                    BreakerVerdict::Probe
                } else {
                    BreakerVerdict::Reject {
                        failures: entry.consecutive_failures,
                    }
                }
            }
            _ => BreakerVerdict::Proceed,
        }
    }

    /// Record a ladder-exhaustion / leader-panic failure. Returns the
    /// consecutive-failure count when *this* failure tripped the
    /// breaker open (exactly at the threshold), `None` otherwise.
    fn record_failure(&self, fp: u128) -> Option<u32> {
        if self.threshold == 0 {
            return None;
        }
        let mut entries = self.lock();
        let entry = entries.entry(fp).or_insert_with(|| {
            self.tracked.fetch_add(1, Ordering::Relaxed);
            BreakerEntry::default()
        });
        entry.consecutive_failures += 1;
        if !entry.open && entry.consecutive_failures >= self.threshold {
            entry.open = true;
            entry.arrivals_while_open = 0;
            Some(entry.consecutive_failures)
        } else {
            None
        }
    }

    /// Record a served plan for the fingerprint, clearing any tracked
    /// failure streak. Returns whether that closed an *open* breaker —
    /// the half-open probe succeeded.
    fn record_success(&self, fp: u128) -> bool {
        if self.tracked.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut entries = self.lock();
        let Some(entry) = entries.remove(&fp) else {
            return false;
        };
        self.tracked.fetch_sub(1, Ordering::Relaxed);
        entry.open
    }
}

impl From<SqlError> for ServiceError {
    fn from(e: SqlError) -> Self {
        ServiceError::Sql(e)
    }
}

impl From<OptError> for ServiceError {
    fn from(e: OptError) -> Self {
        ServiceError::Opt(e)
    }
}

/// The shared optimizer service. `Arc` it and hand clones of the
/// `Arc` to every worker thread.
#[derive(Debug)]
pub struct OptimizerService {
    catalog: RwLock<Arc<Catalog>>,
    cache: ShardedLru<CachedPlan>,
    flights: SingleFlight<u128, CachedPlan>,
    counters: ServiceCounters,
    governor_counters: GovernorCounters,
    rung_latencies: RungLatencies,
    store_counters: Arc<StoreCounters>,
    store: Option<StoreHandle>,
    dlq: Option<Mutex<DeadLetterQueue>>,
    tracer: Tracer,
    /// Overload-control counters: sheds, stale serves, breaker
    /// transitions, queue/in-flight gauges.
    overload: OverloadCounters,
    /// Epoch-evicted plans parked for stale-serve degraded mode,
    /// keyed like the cache and bounded at the cache capacity.
    stale_shelf: Mutex<HashMap<u128, CachedPlan>>,
    breaker: Breaker,
    config: ServiceConfig,
    #[cfg(feature = "testkit")]
    store_faults: Option<sdp_testkit::FaultPlan>,
}

/// A request bound against one catalog snapshot: everything the
/// request path derives from it before looking anything up.
struct Resolved<'a> {
    request: &'a ServiceRequest,
    catalog: Arc<Catalog>,
    query: Query,
    algorithm: Algorithm,
    fingerprint: Fingerprint,
    /// Cache/flight/shelf key: the fingerprint folded with the strategy.
    key: u128,
    epoch: u64,
}

/// What a stage of the request path decided about one request. Stages
/// only decide; [`OptimizerService::observe`] is the single projection
/// of a decision onto counters and trace events.
#[derive(Clone, Copy)]
enum Outcome<'a> {
    Hit(&'a CachedPlan),
    Coalesced(&'a CachedPlan),
    /// Led this run and published its plan: wall time, cache evictions.
    Fresh(&'a CachedPlan, &'a GovernedPlan, Duration, u64),
    ServedStale(&'a CachedPlan),
    StoreWrite(&'a CachedPlan),
    /// The probe found, and removed, an entry of an older epoch.
    CacheStale,
    BreakerProbe,
    /// Carries the consecutive failures that opened the breaker.
    BreakerReject(u32),
    BreakerOpen(u32),
    BreakerClose,
    LeaderRetry(Algorithm, Rung),
    /// The leader gave up on this rung with this error: `true` for a
    /// deadline even the bottom rung could not meet.
    RequestError(Algorithm, &'a str, bool),
    DlqEnqueue(DlqErrorKind, &'a str),
    /// The dead-letter append itself failed, or the codec refused the
    /// record (a string or count over its `u16` length prefix).
    DlqWriteError,
}

/// Render a panic payload as a message, as `std::panic::catch_unwind`
/// hands it back.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Cache/flight key: the fingerprint folded with the strategy, so a
/// pinned `Dp` request and the selector's `Sdp` choice for the same
/// query occupy distinct entries. `Algorithm` carries `f64` tuning and
/// is deliberately not `Hash`, so its `Debug` rendering (which shows
/// every tuning field) stands in as the hashable identity — which is
/// also what lets the durable store reconstruct identical keys at warm
/// restart from the persisted rendering ([`plan_key_repr`]).
fn plan_key(fp: Fingerprint, algorithm: Algorithm) -> u128 {
    plan_key_repr(fp, &format!("{algorithm:?}"))
}

/// [`plan_key`] on a pre-rendered strategy identity — the form the
/// warm-restart fill uses, since persisted records carry the rendering
/// rather than the (non-`Hash`) `Algorithm` value.
fn plan_key_repr(fp: Fingerprint, algo_repr: &str) -> u128 {
    let mut words = [0u64; 4];
    for (i, chunk) in algo_repr.as_bytes().chunks(8).enumerate() {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words[i % 4] ^= u64::from_le_bytes(w).rotate_left((i / 4) as u32);
    }
    // The pair-generation tag, from when there was more than one: a
    // constant now, still folded so that keys — and with them shard
    // placement, LRU eviction order and warm-restart fills — are what
    // they were (`plan_key_is_stable`).
    words[3] ^= (EnumeratorKind::LevelScan.stable_tag() as u64) << 56;
    let algo_hash = stable_hash(0x61_6c_67_6f, &words) as u128;
    fp.0 ^ (algo_hash | (algo_hash << 64))
}

impl OptimizerService {
    /// Service over an initial catalog with the given tuning.
    pub fn new(catalog: Catalog, config: ServiceConfig) -> Self {
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_probe_every);
        OptimizerService {
            catalog: RwLock::new(Arc::new(catalog)),
            cache: ShardedLru::new(config.cache_capacity, config.cache_shards),
            flights: SingleFlight::new(),
            counters: ServiceCounters::new(),
            governor_counters: GovernorCounters::new(),
            rung_latencies: RungLatencies::new(),
            store_counters: Arc::new(StoreCounters::default()),
            store: None,
            dlq: None,
            tracer: Tracer::disabled(),
            overload: OverloadCounters::new(),
            stale_shelf: Mutex::new(HashMap::new()),
            breaker,
            config,
            #[cfg(feature = "testkit")]
            store_faults: None,
        }
    }

    /// Service with default tuning.
    pub fn with_defaults(catalog: Catalog) -> Self {
        OptimizerService::new(catalog, ServiceConfig::default())
    }

    /// Attach a trace sink: request-lifecycle events (cache outcome,
    /// degradations, errors) flow to it, and — when the `trace`
    /// feature is on — so do the optimizer's enumeration spans.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The service's tracer (disabled unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attach the durable plan store under `dir` with default tuning.
    /// See [`with_store_options`](Self::with_store_options).
    pub fn with_store(self, dir: &Path) -> Result<Self, StoreError> {
        self.with_store_options(dir, StoreOptions::default())
    }

    /// Attach the durable plan store under `dir`: replay its segments
    /// (dropping records from other statistics epochs), pre-populate
    /// the plan cache with the live records as *warm* entries, and
    /// start the write-behind thread that persists every fresh plan.
    ///
    /// Call after [`with_tracer`](Self::with_tracer) so the
    /// `warm_start` event reaches the sink, and before the service is
    /// shared. Warm entries satisfy requests like any cached plan and
    /// additionally count `store_warm_hits`.
    pub fn with_store_options(
        mut self,
        dir: &Path,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let epoch = self.catalog().stats_epoch();
        #[allow(unused_mut)]
        let (mut store, records, stats) =
            PlanStore::open(dir, epoch, options, Arc::clone(&self.store_counters))?;
        #[cfg(feature = "testkit")]
        if let Some(faults) = self.store_faults.take() {
            store.inject_faults(faults);
        }
        for record in &records {
            let key = plan_key_repr(Fingerprint(record.fingerprint), &record.algo_repr);
            let plan = CachedPlan {
                root: Arc::clone(&record.root),
                cost: record.cost,
                rows: record.rows,
                strategy: record.strategy.clone(),
                rung: record.rung,
                degradations: record.degradations,
                fingerprint: Fingerprint(record.fingerprint),
                stats_epoch: record.stats_epoch,
                warm: true,
            };
            self.cache.insert(key, plan, epoch);
            self.store_counters.record_warm_fill();
        }
        self.tracer.emit_with(|| {
            Event::new("warm_start")
                .with("live", stats.live)
                .with("stale_dropped", stats.stale_dropped)
                .with("torn", stats.recovery.truncated_bytes)
                .with("epoch", epoch)
        });
        self.store = Some(StoreHandle::spawn(store, Arc::clone(&self.store_counters)));
        Ok(self)
    }

    /// Attach a dead-letter queue under `dir`: requests that exhaust
    /// the degradation ladder or exhaust the leader-panic retry are
    /// serialized there (query canon, fault context, degradation
    /// history) for offline replay via `sdp-service replay --dlq`.
    pub fn with_dlq(mut self, dir: &Path) -> Result<Self, StoreError> {
        let (dlq, _, _) = DeadLetterQueue::open(dir)?;
        self.store_counters.set_dlq_depth(dlq.len() as u64);
        self.dlq = Some(Mutex::new(dlq));
        Ok(self)
    }

    /// Arm a deterministic crash point in the durable store (consumed
    /// by the next [`with_store_options`](Self::with_store_options)
    /// call). Test builds only.
    #[cfg(feature = "testkit")]
    pub fn with_store_faults(mut self, faults: sdp_testkit::FaultPlan) -> Self {
        self.store_faults = Some(faults);
        self
    }

    /// Block until every plan enqueued to the write-behind store has
    /// been applied to the segment log. No-op without a store.
    pub fn flush_store(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    /// Durable-store and DLQ counters (live handle; all zeros when no
    /// store is attached).
    pub fn store_counters(&self) -> &StoreCounters {
        &self.store_counters
    }

    /// Current dead-letter queue depth (0 without a DLQ).
    pub fn dlq_depth(&self) -> usize {
        self.dlq
            .as_ref()
            .map(|d| d.lock().expect("dlq lock poisoned").len())
            .unwrap_or(0)
    }

    /// One-call snapshot of every metric family the service owns, for
    /// the exposition endpoints (`prometheus_text`, `--metrics-json`).
    pub fn metrics_report(&self) -> MetricsReport {
        MetricsReport {
            counters: self.counters.snapshot(),
            governor: self.governor_counters.snapshot(),
            rungs: self.rung_latencies.snapshot(),
            alloc: sdp_metrics::alloc::snapshot(),
            store: self.store_counters.snapshot(),
            overload: self.overload.snapshot(),
            cached_plans: self.cache.len() as u64,
            // The service itself never executes plans; Q-error series
            // are merged in by callers that run an observed-execution
            // pass (`sdp-service replay --qerror`).
            qerror: std::collections::BTreeMap::new(),
        }
    }

    /// Overload-control counters (sheds, stale serves, breaker
    /// transitions, queue gauges) — live handle; the daemon records
    /// its admission decisions here.
    pub fn overload_counters(&self) -> &OverloadCounters {
        &self.overload
    }

    /// The current catalog snapshot.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read().expect("catalog lock poisoned"))
    }

    /// Request counters (live handle).
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Snapshot of the request counters.
    pub fn counters_snapshot(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Governor counters (degradations by reason, timeouts, leader
    /// retries) — live handle.
    pub fn governor_counters(&self) -> &GovernorCounters {
        &self.governor_counters
    }

    /// Snapshot of the governor counters.
    pub fn governor_snapshot(&self) -> GovernorSnapshot {
        self.governor_counters.snapshot()
    }

    /// Enumeration latency histograms, keyed by what produced each
    /// fresh plan (its `strategy` label).
    pub fn rung_latencies(&self) -> &RungLatencies {
        &self.rung_latencies
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Bind the request against the current catalog snapshot and
    /// derive what the request path keys on: one prologue, so
    /// `get_plan` and `serve_stale` look a query up under the same key.
    fn resolve<'a>(&self, request: &'a ServiceRequest) -> Result<Resolved<'a>, SqlError> {
        let catalog = self.catalog();
        let query = match &request.spec {
            QuerySpec::Sql(text) => sdp_sql::parse_query(&catalog, text)?,
            QuerySpec::Query(q) => q.clone(),
        };
        let algorithm = request.algorithm.unwrap_or_else(|| select::choose(&query));
        let fingerprint = fingerprint_query(&catalog, &query);
        Ok(Resolved {
            request,
            key: plan_key(fingerprint, algorithm),
            epoch: catalog.stats_epoch(),
            catalog,
            query,
            algorithm,
            fingerprint,
        })
    }

    /// The one place the request path moves a counter or builds a
    /// trace event: first the counters an outcome moves, then — only
    /// when a sink listens — its event. Event names, field order and
    /// values are a contract: the flight recorder parses them and
    /// `tests/lifecycle_trace_golden.rs` pins them.
    fn observe(&self, r: &Resolved<'_>, outcome: Outcome<'_>) {
        let (counters, overload, governor) =
            (&self.counters, &self.overload, &self.governor_counters);
        match outcome {
            Outcome::Hit(plan) => {
                counters.record_hit();
                if plan.warm {
                    self.store_counters.record_warm_hit();
                }
            }
            Outcome::Coalesced(_) => counters.record_coalesced(),
            Outcome::Fresh(plan, run, elapsed, evicted) => {
                for descent in &run.degradations {
                    let reason = match descent.reason {
                        DegradeReason::Deadline => DescentReason::Deadline,
                        DegradeReason::Memory => DescentReason::Memory,
                    };
                    governor.record_descent(reason, descent.predicted.is_some());
                }
                counters.record_miss();
                counters.record_enumeration(run.plan.stats.plans_costed);
                counters.add_evicted(evicted);
                self.rung_latencies.record(&plan.strategy, elapsed);
            }
            Outcome::ServedStale(_) => overload.record_served_stale(),
            Outcome::CacheStale => counters.add_stale_evicted(1),
            Outcome::BreakerProbe => overload.record_breaker_probe(),
            Outcome::BreakerReject(_) => overload.record_breaker_rejection(),
            Outcome::BreakerOpen(_) => overload.record_breaker_trip(),
            Outcome::BreakerClose => overload.record_breaker_recovery(),
            Outcome::LeaderRetry(..) => governor.record_leader_retry(),
            Outcome::RequestError(_, _, timed_out) if timed_out => governor.record_timeout(),
            Outcome::RequestError(..) | Outcome::StoreWrite(_) => {}
            Outcome::DlqEnqueue(..) => self.store_counters.record_dlq_enqueued(),
            // The one outcome without an event.
            Outcome::DlqWriteError => return self.store_counters.record_write_error(),
        }
        self.tracer.emit_with(|| {
            // Fixed-width hex, so fingerprints can be grepped and joined
            // across the request lifecycle.
            let about =
                |event: Event| event.with("fingerprint", format!("{:032x}", r.fingerprint.0));
            // A served request: `warm` on hits, the plans costed and
            // descents taken when it led the enumeration.
            let served = |how: &'static str, plan: &CachedPlan, costed: Option<u64>| {
                let mut event = about(Event::new("request")).with("outcome", how);
                if how == "hit" {
                    event = event.with("warm", u64::from(plan.warm));
                }
                event = event.with("rung", plan.strategy.clone());
                if let Some(costed) = costed {
                    event = event
                        .with("plans_costed", costed)
                        .with("degradations", plan.degradations);
                }
                // Deadline attainment by *presence*, never remaining
                // time: a served request with a deadline met it.
                // Wall-clock margins would break cross-thread-count
                // trace diffs.
                let deadline = r.request.deadline.map_or("none", |_| "met");
                event
                    .with("digest", format!("{:016x}", plan.root.structural_digest()))
                    .with("deadline", deadline)
            };
            match outcome {
                Outcome::Hit(plan) => served("hit", plan, None),
                Outcome::Coalesced(plan) => served("coalesced", plan, None),
                Outcome::Fresh(plan, run, ..) => {
                    served("fresh", plan, Some(run.plan.stats.plans_costed))
                }
                Outcome::ServedStale(plan) => about(Event::new("served_stale"))
                    .with("rung", plan.strategy.clone())
                    .with("stats_epoch", plan.stats_epoch),
                Outcome::StoreWrite(plan) => about(Event::new("store_write"))
                    .with("rung", plan.strategy.clone())
                    .with("epoch", r.epoch),
                Outcome::CacheStale => about(Event::new("cache_stale")).with("epoch", r.epoch),
                Outcome::BreakerProbe => about(Event::new("breaker_probe")),
                Outcome::BreakerReject(failures) => {
                    about(Event::new("breaker_reject")).with("failures", u64::from(failures))
                }
                Outcome::BreakerOpen(failures) => {
                    about(Event::new("breaker_open")).with("failures", u64::from(failures))
                }
                Outcome::BreakerClose => about(Event::new("breaker_close")),
                Outcome::LeaderRetry(from, to) => about(Event::new("leader_retry"))
                    .with("from", from.label())
                    .with("to", to.label()),
                Outcome::RequestError(rung, error, _) => about(Event::new("request_error"))
                    .with("rung", rung.label())
                    .with("error", error),
                Outcome::DlqEnqueue(kind, error) => about(Event::new("dlq_enqueue"))
                    .with("kind", kind.label())
                    .with("error", error),
                Outcome::DlqWriteError => unreachable!("returned above"),
            }
        });
    }

    /// Serialize a failed request into the dead-letter queue (no-op
    /// without one). Only replayable faults land here: resource
    /// exhaustion at the bottom of the ladder, cancellation, exhausted
    /// leader-panic retries and breaker rejections — semantic errors
    /// (disconnected graph, empty query) would fail identically on
    /// replay.
    fn enqueue_dead_letter(
        &self,
        r: &Resolved<'_>,
        kind: DlqErrorKind,
        error: String,
        degradations: &[DegradeEvent],
    ) {
        let Some(dlq) = &self.dlq else { return };
        let record = DlqRecord {
            fingerprint: r.fingerprint.0,
            stats_epoch: r.epoch,
            algorithm: r.request.algorithm,
            error_kind: kind,
            error: error.clone(),
            degradations: degradations
                .iter()
                .map(|e| DlqDegradation {
                    from: e.from,
                    to: e.to,
                    reason: e.reason,
                })
                .collect(),
            deadline_ms: r.request.deadline.map(|d| d.as_millis() as u64),
            memory_bytes: r.request.memory_budget,
            sql: sdp_sql::render_sql(&r.catalog, &r.query),
            query: r.query.clone(),
        };
        let outcome = match dlq.lock().expect("dlq lock poisoned").enqueue(record) {
            Ok(()) => Outcome::DlqEnqueue(kind, &error),
            Err(_) => Outcome::DlqWriteError,
        };
        self.observe(r, outcome);
    }

    /// Park an epoch-evicted plan on the stale shelf (bounded at the
    /// cache capacity) so stale-serve degraded mode can hand it back
    /// under admission pressure.
    fn shelve(&self, key: u128, plan: CachedPlan) {
        let mut shelf = self.stale_shelf.lock().expect("stale shelf poisoned");
        if shelf.len() < self.config.cache_capacity || shelf.contains_key(&key) {
            shelf.insert(key, plan);
        }
    }

    /// A plan was served for the fingerprint: clear its failure
    /// streak, closing the breaker if this was the half-open probe.
    fn breaker_succeeded(&self, r: &Resolved<'_>) {
        if self.breaker.record_success(r.fingerprint.0) {
            self.observe(r, Outcome::BreakerClose);
        }
    }

    /// Degraded-mode lookup: serve the request from the stale shelf —
    /// a plan optimized under an older statistics epoch — without
    /// enumerating. Returns `None` when the request can't be bound or
    /// nothing is shelved for its key; the daemon tries this before
    /// shedding under admission pressure.
    pub fn serve_stale(&self, request: &ServiceRequest) -> Option<ServiceResponse> {
        let r = self.resolve(request).ok()?;
        let shelf = self.stale_shelf.lock().expect("stale shelf poisoned");
        let plan = shelf.get(&r.key).cloned()?;
        drop(shelf);
        self.observe(&r, Outcome::ServedStale(&plan));
        Some(ServiceResponse {
            plan,
            source: PlanSource::Stale,
            plans_costed: 0,
        })
    }

    /// Serve one request: resolve → breaker gate → cache probe →
    /// single flight (govern + bounded retry) → publish/persist →
    /// respond.
    pub fn get_plan(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceError> {
        let r = self.resolve(request)?;
        self.breaker_gate(&r)?;
        loop {
            if let Some(plan) = self.probe_cache(&r) {
                return Ok(ServiceResponse {
                    plan,
                    source: PlanSource::Cache,
                    plans_costed: 0,
                });
            }
            match self.flights.join(r.key) {
                // A failing leader returns from here and drops the
                // token: the flight is abandoned, so waiters retry and
                // surface the error themselves.
                Flight::Leader(token) => {
                    let started = Instant::now();
                    let run = self.lead(&r)?;
                    let response = self.publish(&r, run, started.elapsed());
                    token.publish(response.plan.clone());
                    return Ok(response);
                }
                Flight::Coalesced(Some(plan)) => {
                    self.observe(&r, Outcome::Coalesced(&plan));
                    return Ok(ServiceResponse {
                        plan,
                        source: PlanSource::Coalesced,
                        plans_costed: 0,
                    });
                }
                // The leader abandoned (failed or panicked): retry
                // from the cache probe; this caller typically becomes
                // the next leader and observes the error directly.
                Flight::Coalesced(None) => continue,
            }
        }
    }

    /// Circuit-breaker gate: a fingerprint that exhausted the ladder
    /// `breaker_threshold` times in a row fails fast here (straight
    /// into the DLQ) instead of burning another full ladder walk.
    /// Every `breaker_probe_every`-th arrival is admitted as the
    /// half-open recovery probe.
    fn breaker_gate(&self, r: &Resolved<'_>) -> Result<(), ServiceError> {
        match self.breaker.admit(r.fingerprint.0) {
            BreakerVerdict::Proceed => {}
            BreakerVerdict::Probe => self.observe(r, Outcome::BreakerProbe),
            BreakerVerdict::Reject { failures } => {
                self.observe(r, Outcome::BreakerReject(failures));
                let error = ServiceError::BreakerOpen { failures };
                self.enqueue_dead_letter(r, DlqErrorKind::BreakerOpen, error.to_string(), &[]);
                return Err(error);
            }
        }
        Ok(())
    }

    /// Probe the cache under the snapshot's epoch. An entry of an
    /// older epoch is parked on the stale shelf: under admission
    /// pressure the daemon hands it back (tagged
    /// [`PlanSource::Stale`]) rather than shedding the request.
    fn probe_cache(&self, r: &Resolved<'_>) -> Option<CachedPlan> {
        match self.cache.get(r.key, r.epoch) {
            Lookup::Hit(plan) => {
                self.breaker_succeeded(r);
                self.observe(r, Outcome::Hit(&plan));
                return Some(plan);
            }
            Lookup::Stale(stale) => {
                self.shelve(r.key, stale);
                self.observe(r, Outcome::CacheStale);
            }
            Lookup::Miss => {}
        }
        None
    }

    /// The single flight's leader: run the governed ladder, with the
    /// bounded retry-with-degradation — a panicking leader gets
    /// exactly one retry, one rung cheaper. Optimizer errors are NOT
    /// retried here: the governor already walked the ladder for those.
    fn lead(&self, r: &Resolved<'_>) -> Result<GovernedPlan, ServiceError> {
        let optimizer = Optimizer::new(&r.catalog).with_tracer(self.tracer.clone());
        let mut governor = Governor::new();
        if let Some(deadline) = r.request.deadline {
            governor = governor.with_deadline(deadline);
        }
        if let Some(bytes) = r.request.memory_budget {
            governor = governor.with_memory_budget(bytes);
        }
        #[cfg(feature = "testkit")]
        if let Some(plan) = r.request.faults.clone() {
            governor = governor.with_fault_plan(plan);
        }

        let mut attempt = r.algorithm;
        let mut retried = false;
        loop {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(feature = "testkit")]
                if let Some(faults) = &r.request.faults {
                    if faults.take_leader_panic(&attempt.label()) {
                        panic!("injected leader panic ({})", attempt.label());
                    }
                }
                optimizer.optimize_governed_full(&r.query, attempt, &governor)
            }));
            // The error to return, what the trace calls it, and — for
            // a replayable failure only — its dead-letter kind, message
            // and descent history.
            let (error, shown, dead_letter) = match run {
                Ok(Ok(governed)) => return Ok(governed),
                // A resource failure here means the *bottom* rung was
                // exhausted (the governor already walked the ladder).
                Ok(Err(failure)) => {
                    let kind = match &failure.error {
                        OptError::TimedOut { .. } => Some(DlqErrorKind::Timeout),
                        OptError::MemoryExhausted { .. } => Some(DlqErrorKind::Memory),
                        _ => None,
                    };
                    let shown = failure.error.to_string();
                    let dead_letter = kind.map(|k| (k, shown.clone(), failure.degradations));
                    (failure.error.into(), shown, dead_letter)
                }
                Err(payload) => {
                    let next = Rung::for_algorithm(attempt).next_down();
                    if let (Some(rung), false) = (next, retried) {
                        retried = true;
                        self.observe(r, Outcome::LeaderRetry(attempt, rung));
                        attempt = rung.algorithm();
                        continue;
                    }
                    let message = panic_message(payload.as_ref());
                    let error = ServiceError::LeaderPanicked(message.clone());
                    let dead_letter = (DlqErrorKind::LeaderPanicked, message, vec![]);
                    (error.clone(), error.to_string(), Some(dead_letter))
                }
            };
            let timed_out = matches!(dead_letter, Some((DlqErrorKind::Timeout, ..)));
            self.observe(r, Outcome::RequestError(attempt, &shown, timed_out));
            // Only replayable exhaustion is dead-lettered and feeds the
            // breaker — a semantic error is not a poison signal.
            if let Some((kind, message, degradations)) = dead_letter {
                self.enqueue_dead_letter(r, kind, message, &degradations);
                if let Some(failures) = self.breaker.record_failure(r.fingerprint.0) {
                    self.observe(r, Outcome::BreakerOpen(failures));
                }
            }
            return Err(error);
        }
    }

    /// Publish and persist the leader's plan: into the cache (where a
    /// current-epoch plan supersedes any shelved stale one for the
    /// key), past the breaker, and down the write-behind channel — the
    /// request returns without waiting on storage.
    fn publish(&self, r: &Resolved<'_>, run: GovernedPlan, elapsed: Duration) -> ServiceResponse {
        let plan = CachedPlan {
            cost: run.plan.cost,
            rows: run.plan.rows,
            root: Arc::clone(&run.plan.root),
            strategy: run.rung_label(),
            rung: run.rung,
            degradations: run.degradations.len() as u64,
            fingerprint: r.fingerprint,
            stats_epoch: r.epoch,
            warm: false,
        };
        let evicted = self.cache.insert(r.key, plan.clone(), r.epoch);
        let mut shelf = self.stale_shelf.lock().expect("stale shelf poisoned");
        shelf.remove(&r.key);
        drop(shelf);
        self.breaker_succeeded(r);
        if let Some(store) = &self.store {
            // The record carries the *requested* strategy's rendering
            // — the key component — alongside the producing rung.
            store.write(PlanRecord {
                fingerprint: r.fingerprint.0,
                stats_epoch: r.epoch,
                rung: plan.rung,
                enumerator: EnumeratorKind::LevelScan,
                algo_repr: format!("{:?}", r.algorithm),
                strategy: plan.strategy.clone(),
                degradations: plan.degradations,
                cost: plan.cost,
                rows: plan.rows,
                root: Arc::clone(&plan.root),
            });
            self.observe(r, Outcome::StoreWrite(&plan));
        }
        self.observe(r, Outcome::Fresh(&plan, &run, elapsed, evicted));
        ServiceResponse {
            plan,
            source: PlanSource::Fresh,
            plans_costed: run.plan.stats.plans_costed,
        }
    }

    /// Install fresh statistics: swaps a new catalog snapshot in
    /// (bumping the statistics epoch atomically with respect to new
    /// requests) and eagerly purges plans optimized under older
    /// epochs. Returns the new epoch — or, with the epoch, the cache
    /// and the stale shelf untouched, why `analyzed` does not fit the
    /// schema. The shape is checked before the catalog lock is taken
    /// (a statistics update never changes the schema), so misshapen
    /// statistics can neither poison the lock nor reach the estimator.
    pub fn update_stats(&self, analyzed: Vec<AnalyzedRelation>) -> Result<u64, CatalogError> {
        self.catalog().check_stats(&analyzed)?;
        Ok(self.swap_catalog(|c| c.replace_stats(analyzed)))
    }

    /// Bump the statistics epoch without changing the estimates —
    /// forces re-optimization of everything (an `ANALYZE`-everything
    /// barrier). Returns the new epoch.
    pub fn bump_stats_epoch(&self) -> u64 {
        self.swap_catalog(|c| c.bump_stats_epoch())
    }

    fn swap_catalog(&self, mutate: impl FnOnce(&mut Catalog)) -> u64 {
        let epoch = {
            let mut guard = self.catalog.write().expect("catalog lock poisoned");
            // Two reference counts: the clone shares the snapshot's
            // relations and statistics until `mutate` replaces one.
            let mut next = (**guard).clone();
            mutate(&mut next);
            let epoch = next.stats_epoch();
            *guard = Arc::new(next);
            epoch
        };
        // Harvest the purge onto the stale shelf: the outgoing plans
        // are exactly what stale-serve degraded mode wants to hand
        // back under admission pressure.
        let purged = self.cache.purge_stale(epoch);
        self.counters.add_stale_evicted(purged.len() as u64);
        for (key, plan) in purged {
            self.shelve(key, plan);
        }
        epoch
    }
}

// The whole point of the service is to be shared across worker
// threads; keep that property machine-checked.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OptimizerService>();
    assert_send_sync::<ServiceRequest>();
    assert_send_sync::<ServiceResponse>();
    assert_send_sync::<ServiceError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn plan_key_separates_strategies_and_fingerprints() {
        let fp1 = Fingerprint(0x1234_5678_9abc_def0);
        let fp2 = Fingerprint(0x0fed_cba9_8765_4321);
        assert_eq!(plan_key(fp1, Algorithm::Dp), plan_key(fp1, Algorithm::Dp));
        assert_ne!(plan_key(fp1, Algorithm::Dp), plan_key(fp1, Algorithm::Goo));
        assert_ne!(
            plan_key(fp1, Algorithm::Idp { k: 4 }),
            plan_key(fp1, Algorithm::Idp { k: 7 })
        );
        assert_ne!(plan_key(fp1, Algorithm::Dp), plan_key(fp2, Algorithm::Dp));
        // The repr-based form (used by warm restart) matches exactly.
        assert_eq!(
            plan_key(fp1, Algorithm::Idp { k: 4 }),
            plan_key_repr(fp1, &format!("{:?}", Algorithm::Idp { k: 4 }))
        );
    }

    /// Keys place entries in cache shards, order LRU eviction and are
    /// rebuilt from persisted records at warm restart, so they must not
    /// move: these values were captured before the pair-generation
    /// choice was removed, with `EnumeratorKind::LevelScan` — the tag
    /// `plan_key_repr` still folds.
    #[test]
    fn plan_key_is_stable() {
        for (fp, algorithm, key) in [
            (
                0x1234_5678_9abc_def0,
                Algorithm::Dp,
                0x6bb1_3e33_0afe_491b_7985_684b_9042_97eb_u128,
            ),
            (
                0x0fed_cba9_8765_4321_0123_4567_89ab_cdef,
                Algorithm::Idp { k: 4 },
                0x7b5e_377f_3d67_5f9e_7590_b9b1_33a9_d150,
            ),
            (
                u128::MAX,
                Algorithm::Sdp(Default::default()),
                0x0e97_344c_46fd_65fc_0e97_344c_46fd_65fc,
            ),
        ] {
            assert_eq!(plan_key(Fingerprint(fp), algorithm), key, "{algorithm:?}");
        }
    }

    #[test]
    fn sql_and_programmatic_requests_share_an_entry() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Chain(4), 9).instance(0);
        let sql = sdp_sql::render_sql(&catalog, &q);

        let by_text = service.get_plan(&ServiceRequest::sql(&sql)).unwrap();
        assert_eq!(by_text.source, PlanSource::Fresh);
        let by_value = service.get_plan(&ServiceRequest::query(q)).unwrap();
        assert_eq!(by_value.source, PlanSource::Cache);
        assert_eq!(
            by_text.plan.root.structural_digest(),
            by_value.plan.root.structural_digest()
        );
        assert_eq!(by_value.plans_costed, 0);
    }

    #[test]
    fn ordered_requests_never_serve_order_blind_cache_entries() {
        // Regression for the plan-cache key: the requested output
        // order is part of the fingerprint, so an ORDER BY (or GROUP
        // BY) request must never be satisfied by a cached order-blind
        // plan for the same join graph — and vice versa.
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let gen = QueryGenerator::new(&catalog, Topology::Chain(5), 6);
        let unordered = gen.instance(0);
        let ordered = gen.ordered_instance(0);
        let grouped = gen.grouped_instance(0);

        let blind = service
            .get_plan(&ServiceRequest::query(unordered.clone()).with_algorithm(Algorithm::Dp))
            .unwrap();
        assert_eq!(blind.source, PlanSource::Fresh);

        let with_order = service
            .get_plan(&ServiceRequest::query(ordered.clone()).with_algorithm(Algorithm::Dp))
            .unwrap();
        assert_eq!(
            with_order.source,
            PlanSource::Fresh,
            "ordered request must not hit the order-blind entry"
        );
        assert!(
            with_order.plan.root.ordering.is_some(),
            "served plan delivers the requested order"
        );

        let with_group = service
            .get_plan(&ServiceRequest::query(grouped).with_algorithm(Algorithm::Dp))
            .unwrap();
        assert_eq!(
            with_group.source,
            PlanSource::Fresh,
            "grouped request is a third distinct entry"
        );
        assert!(with_group.plan.root.ordering.is_some());
        assert_eq!(service.cached_plans(), 3);

        // Repeats hit their own entries — including the unordered one,
        // which still serves order-blind requests.
        for (q, want_order) in [(ordered, true), (unordered, false)] {
            let again = service
                .get_plan(&ServiceRequest::query(q).with_algorithm(Algorithm::Dp))
                .unwrap();
            assert_eq!(again.source, PlanSource::Cache);
            assert_eq!(again.plan.root.ordering.is_some(), want_order);
        }
    }

    #[test]
    fn sql_errors_surface_without_touching_counters() {
        let service = OptimizerService::with_defaults(Catalog::paper());
        let err = service
            .get_plan(&ServiceRequest::sql("select * from NOWHERE t"))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Sql(_)), "{err}");
        assert_eq!(service.counters_snapshot().requests(), 0);
    }

    #[test]
    fn a_sixty_five_table_statement_is_a_sql_error_not_a_panic() {
        // One relation more than a `RelSet` holds: the binder refuses
        // it (it used to panic the worker in `JoinGraph::new`), and
        // the service goes on serving.
        let service = OptimizerService::with_defaults(Catalog::paper());
        let from: Vec<String> = (0..65).map(|i| format!("R1 t{i}")).collect();
        let on: Vec<String> = (1..65)
            .map(|i| format!("t{}.c0 = t{i}.c0", i - 1))
            .collect();
        let statement = format!(
            "SELECT * FROM {} WHERE {}",
            from.join(", "),
            on.join(" AND ")
        );
        let err = service
            .get_plan(&ServiceRequest::sql(statement))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Sql(_)), "{err}");
        let next = service
            .get_plan(&ServiceRequest::sql(
                "select * from R1 a, R2 b where a.c0 = b.c1",
            ))
            .unwrap();
        assert_eq!(next.source, PlanSource::Fresh);
    }

    #[test]
    fn optimizer_errors_abandon_the_flight() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        // Disconnected graph: two relations, no join edge.
        let graph =
            sdp_query::JoinGraph::new(vec![sdp_catalog::RelId(0), sdp_catalog::RelId(1)], vec![]);
        let err = service
            .get_plan(&ServiceRequest::query(Query::new(graph)))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::Opt(OptError::DisconnectedJoinGraph)),
            "{err}"
        );
        // The abandoned flight must not linger and block later
        // requests for the same key.
        assert_eq!(service.cached_plans(), 0);
    }

    #[test]
    fn pinned_strategy_is_respected_and_keyed_separately() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Star(6), 2).instance(0);

        let goo = service
            .get_plan(&ServiceRequest::query(q.clone()).with_algorithm(Algorithm::Goo))
            .unwrap();
        assert_eq!(goo.plan.strategy, "GOO");
        assert_eq!(goo.source, PlanSource::Fresh);

        // The selector's choice (DP for 6 relations) is a different
        // key: fresh enumeration, not a hit on the GOO entry.
        let auto = service.get_plan(&ServiceRequest::query(q)).unwrap();
        assert_eq!(auto.plan.strategy, "DP");
        assert_eq!(auto.source, PlanSource::Fresh);
        assert_eq!(service.cached_plans(), 2);
    }

    #[test]
    fn ungoverned_requests_record_their_rung() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Chain(5), 3).instance(0);
        let resp = service.get_plan(&ServiceRequest::query(q)).unwrap();
        assert_eq!(resp.plan.rung, Some(Rung::Dp));
        assert_eq!(resp.plan.degradations, 0);
        let snap = service.governor_snapshot();
        assert_eq!(snap.degradations, 0);
        assert_eq!(snap.timeouts, 0);
        assert!(service.rung_latencies().snapshot().contains_key("DP"));
    }

    #[test]
    fn a_pinned_configuration_files_its_latency_under_its_own_label() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Chain(6), 2).instance(0);
        let request = ServiceRequest::query(q).with_algorithm(Algorithm::Idp { k: 7 });
        let resp = service.get_plan(&request).unwrap();
        assert_eq!(resp.plan.rung, Some(Rung::Idp));
        let latencies = service.rung_latencies().snapshot();
        assert_eq!(latencies.get("IDP(7)").map(|h| h.count), Some(1));
        assert!(!latencies.contains_key("IDP(4)"), "{latencies:?}");
    }

    #[test]
    fn memory_pressure_degrades_and_is_visible_in_metrics() {
        // Star-13 under a 1 MB model budget: DP blows it, SDP fits
        // (same frontier the core governor test pins down).
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Star(13), 5).instance(0);
        let request = ServiceRequest::query(q)
            .with_algorithm(Algorithm::Dp)
            .with_memory_budget(1 << 20);
        let resp = service.get_plan(&request).unwrap();
        assert_eq!(resp.plan.rung, Some(Rung::Sdp));
        assert_eq!(resp.plan.strategy, "SDP");
        assert_eq!(resp.plan.degradations, 1);
        let snap = service.governor_snapshot();
        assert_eq!(snap.degradations, 1);
        assert_eq!(snap.memory_degradations, 1);
        assert_eq!(snap.deadline_degradations, 0);
        assert_eq!(
            service
                .rung_latencies()
                .snapshot()
                .get("SDP")
                .map(|h| h.count),
            Some(1),
            "latency lands in the producing rung's histogram"
        );
    }

    #[test]
    fn cached_plans_keep_rung_provenance_through_hits_and_staleness() {
        // Regression: a stale probe must surface the evicted entry's
        // value (carrying its rung) instead of discarding it blind.
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Star(6), 4).instance(0);
        let request = ServiceRequest::query(q).with_algorithm(Algorithm::Goo);
        let fresh = service.get_plan(&request).unwrap();
        assert_eq!(fresh.plan.rung, Some(Rung::Goo));

        let hit = service.get_plan(&request).unwrap();
        assert_eq!(hit.source, PlanSource::Cache);
        assert_eq!(hit.plan.rung, Some(Rung::Goo), "hit keeps provenance");

        // Epoch bump purges eagerly; the re-optimized entry carries
        // fresh provenance under the new epoch.
        service.bump_stats_epoch();
        let reopt = service.get_plan(&request).unwrap();
        assert_eq!(reopt.source, PlanSource::Fresh);
        assert_eq!(reopt.plan.rung, Some(Rung::Goo));
        assert_eq!(reopt.plan.stats_epoch, service.catalog().stats_epoch());
    }

    #[test]
    fn request_lifecycle_flows_through_the_tracer() {
        let catalog = Catalog::paper();
        let sink = Arc::new(sdp_trace::MemorySink::unbounded());
        let service = OptimizerService::with_defaults(catalog.clone())
            .with_tracer(Tracer::new(Arc::clone(&sink) as _));
        let q = QueryGenerator::new(&catalog, Topology::Star(13), 5).instance(0);
        let request = ServiceRequest::query(q)
            .with_algorithm(Algorithm::Dp)
            .with_memory_budget(1 << 20);
        service.get_plan(&request).unwrap();
        service.get_plan(&request).unwrap();

        let events = sink.snapshot();
        let outcome = |want: &str| {
            events
                .iter()
                .filter(|e| {
                    e.name == "request"
                        && e.fields
                            .iter()
                            .any(|(k, v)| *k == "outcome" && v.to_string() == want)
                })
                .count()
        };
        assert_eq!(outcome("fresh"), 1);
        assert_eq!(outcome("hit"), 1);
        // The fresh request degraded DP → SDP under the 1 MB budget;
        // the fingerprint field is fixed-width hex on every event.
        assert!(events.iter().any(|e| e.name == "request"
            && e.fields
                .iter()
                .any(|(k, v)| *k == "rung" && v.to_string() == "SDP")));
        for event in events.iter().filter(|e| e.name == "request") {
            let fp = event
                .fields
                .iter()
                .find(|(k, _)| *k == "fingerprint")
                .map(|(_, v)| v.to_string())
                .expect("request events carry a fingerprint");
            assert_eq!(fp.len(), 32, "{fp}");
        }
    }

    #[test]
    fn metrics_report_round_trips_both_formats() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Star(13), 5).instance(0);
        let request = ServiceRequest::query(q)
            .with_algorithm(Algorithm::Dp)
            .with_memory_budget(1 << 20);
        service.get_plan(&request).unwrap();
        service.get_plan(&request).unwrap();

        let report = service.metrics_report();
        assert_eq!(report.counters.hits, 1);
        assert_eq!(report.counters.misses, 1);
        assert_eq!(report.governor.memory_degradations, 1);
        assert_eq!(report.cached_plans, 1);
        assert_eq!(report.rungs["SDP"].count, 1);

        let text = report.prometheus_text();
        assert!(text.contains("sdp_cache_hits_total 1"));
        assert!(text.contains("sdp_degradations_memory_total 1"));
        assert!(text.contains("sdp_rung_latency_seconds_bucket{rung=\"SDP\",le=\"+Inf\"} 1"));
        let json = report.to_json();
        assert!(json.contains("\"requests\": 2"));
        assert!(json.contains("\"memory_degradations\": 1"));
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdp-service-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_restart_serves_bit_identical_plans_and_counts_warm_hits() {
        let dir = temp_dir("warm");
        let catalog = Catalog::paper();
        let q = QueryGenerator::new(&catalog, Topology::Star(6), 11).instance(0);

        let (digest, cost_bits) = {
            let service = OptimizerService::with_defaults(catalog.clone())
                .with_store(&dir)
                .unwrap();
            let resp = service.get_plan(&ServiceRequest::query(q.clone())).unwrap();
            assert_eq!(resp.source, PlanSource::Fresh);
            assert!(!resp.plan.warm);
            service.flush_store();
            assert_eq!(service.store_counters().snapshot().writes, 1);
            (resp.plan.root.structural_digest(), resp.plan.cost.to_bits())
        }; // service dropped = process "restart"

        let service = OptimizerService::with_defaults(catalog.clone())
            .with_store(&dir)
            .unwrap();
        assert_eq!(service.store_counters().snapshot().warm_fills, 1);
        assert_eq!(service.cached_plans(), 1);
        let resp = service.get_plan(&ServiceRequest::query(q)).unwrap();
        assert_eq!(resp.source, PlanSource::Cache, "warm entry serves the hit");
        assert!(resp.plan.warm);
        assert_eq!(resp.plan.root.structural_digest(), digest, "bit-identical");
        assert_eq!(resp.plan.cost.to_bits(), cost_bits, "costs bit-identical");
        assert_eq!(service.store_counters().snapshot().warm_hits, 1);
    }

    #[test]
    fn epoch_bump_invalidates_the_persisted_tier() {
        let dir = temp_dir("epoch");
        let catalog = Catalog::paper();
        let q = QueryGenerator::new(&catalog, Topology::Chain(5), 3).instance(0);
        {
            let service = OptimizerService::with_defaults(catalog.clone())
                .with_store(&dir)
                .unwrap();
            service.get_plan(&ServiceRequest::query(q.clone())).unwrap();
            service.flush_store();
        }
        let mut bumped = catalog.clone();
        bumped.bump_stats_epoch();
        let service = OptimizerService::with_defaults(bumped)
            .with_store(&dir)
            .unwrap();
        let snap = service.store_counters().snapshot();
        assert_eq!(snap.warm_fills, 0, "stale records must not warm the cache");
        assert_eq!(snap.stale_dropped, 1);
        let resp = service.get_plan(&ServiceRequest::query(q)).unwrap();
        assert_eq!(resp.source, PlanSource::Fresh, "stale plan re-optimized");
    }

    #[test]
    fn ladder_exhaustion_lands_in_the_dlq_with_its_history() {
        let dir = temp_dir("dlq");
        let catalog = Catalog::paper();
        let q = QueryGenerator::new(&catalog, Topology::Star(9), 7).instance(0);
        {
            let service = OptimizerService::with_defaults(catalog.clone())
                .with_dlq(&dir)
                .unwrap();
            // A zero-byte memory budget fails every rung down to GOO.
            let err = service
                .get_plan(
                    &ServiceRequest::query(q.clone())
                        .with_algorithm(Algorithm::Dp)
                        .with_memory_budget(0),
                )
                .unwrap_err();
            assert!(
                matches!(err, ServiceError::Opt(OptError::MemoryExhausted { .. })),
                "{err}"
            );
            assert_eq!(service.dlq_depth(), 1);
            assert_eq!(service.store_counters().snapshot().dlq_enqueued, 1);
            assert_eq!(service.store_counters().dlq_depth(), 1);
        }
        // The record survives the restart and carries the full canon.
        let (dlq, _, _) = sdp_store::DeadLetterQueue::open(&dir).unwrap();
        assert_eq!(dlq.len(), 1);
        let record = &dlq.records()[0];
        assert_eq!(record.error_kind, sdp_store::DlqErrorKind::Memory);
        assert_eq!(
            record.degradations.len(),
            3,
            "DP → SDP → IDP → GOO descent history: {:?}",
            record.degradations
        );
        assert_eq!(record.fingerprint, fingerprint_query(&catalog, &q).0);
        assert_eq!(record.memory_bytes, Some(0));
        assert!(record.sql.contains("SELECT"), "{}", record.sql);
        assert_eq!(record.query.graph.relations(), q.graph.relations());
    }

    #[test]
    fn a_dead_letter_its_codec_cannot_express_is_a_write_error() {
        // The binder caps relations, not predicates: thousands of
        // repeated filters render to SQL longer than the `u16` length
        // prefix the dead-letter codec writes strings behind. Refused
        // as a write error, the record is neither counted as enqueued
        // nor left in the log, undecodable, for the next open to skip.
        let dir = temp_dir("dlq-too-long");
        let catalog = Catalog::paper();
        let q = QueryGenerator::new(&catalog, Topology::Chain(2), 7).instance(0);
        let sql = sdp_sql::render_sql(&catalog, &q);
        let (_, conjuncts) = sql.split_once(" WHERE ").unwrap();
        let (column, _) = conjuncts.split_once(" = ").unwrap();
        let sql = format!("{sql}{}", format!(" AND {column} < 5").repeat(6_000));
        {
            let service = OptimizerService::with_defaults(catalog.clone())
                .with_dlq(&dir)
                .unwrap();
            let err = service
                .get_plan(
                    &ServiceRequest::sql(&sql)
                        .with_algorithm(Algorithm::Dp)
                        .with_memory_budget(0),
                )
                .unwrap_err();
            assert!(
                matches!(err, ServiceError::Opt(OptError::MemoryExhausted { .. })),
                "{err}"
            );
            let snap = service.store_counters().snapshot();
            assert_eq!((snap.dlq_enqueued, snap.write_errors), (0, 1));
            assert_eq!(service.dlq_depth(), 0);
        }
        let (dlq, _, undecodable) = sdp_store::DeadLetterQueue::open(&dir).unwrap();
        assert_eq!((dlq.len(), undecodable), (0, 0));
    }

    #[test]
    fn breaker_trips_after_exact_threshold_and_recovers_via_probe() {
        let dir = temp_dir("breaker");
        let catalog = Catalog::paper();
        let service = OptimizerService::new(catalog.clone(), ServiceConfig::default())
            .with_dlq(&dir)
            .unwrap();
        let q = QueryGenerator::new(&catalog, Topology::Star(9), 7).instance(0);
        // A zero-byte memory budget exhausts every rung: poison.
        let poison = ServiceRequest::query(q.clone())
            .with_algorithm(Algorithm::Dp)
            .with_memory_budget(0);

        // K-1 failures leave the breaker closed; arrivals still run.
        for _ in 0..2 {
            let err = service.get_plan(&poison).unwrap_err();
            assert!(matches!(err, ServiceError::Opt(_)), "{err}");
        }
        assert_eq!(service.overload_counters().snapshot().breaker_trips, 0);
        // The Kth consecutive failure trips it.
        service.get_plan(&poison).unwrap_err();
        assert_eq!(service.overload_counters().snapshot().breaker_trips, 1);

        // While open, arrivals for the same *fingerprint* — even a
        // plain request without the poison pin — fail fast into the
        // DLQ without optimizing.
        for i in 1..4u64 {
            let err = service
                .get_plan(&ServiceRequest::query(q.clone()))
                .unwrap_err();
            assert_eq!(
                err,
                ServiceError::BreakerOpen { failures: 3 },
                "arrival {i}"
            );
        }
        let snap = service.overload_counters().snapshot();
        assert_eq!(snap.breaker_rejections, 3);
        // 3 ladder exhaustions + 3 breaker rejections, all captured.
        assert_eq!(service.dlq_depth(), 6);

        // The 4th open arrival is the half-open probe: it runs, the
        // plain request succeeds, and the breaker closes.
        let resp = service.get_plan(&ServiceRequest::query(q.clone())).unwrap();
        assert_eq!(resp.source, PlanSource::Fresh);
        let snap = service.overload_counters().snapshot();
        assert_eq!(snap.breaker_probes, 1);
        assert_eq!(snap.breaker_recoveries, 1);

        // Closed again: the next arrival serves from cache, and no
        // further rejections accrue.
        let resp = service.get_plan(&ServiceRequest::query(q)).unwrap();
        assert_eq!(resp.source, PlanSource::Cache);
        assert_eq!(service.overload_counters().snapshot().breaker_rejections, 3);
    }

    #[test]
    fn failed_probe_keeps_the_breaker_open() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Star(9), 2).instance(0);
        let poison = ServiceRequest::query(q.clone())
            .with_algorithm(Algorithm::Dp)
            .with_memory_budget(0);
        for _ in 0..3 {
            service.get_plan(&poison).unwrap_err();
        }
        // Walk to the probe slot (arrivals 1-3 rejected, 4th probes);
        // the probe re-runs the poison and fails again.
        for _ in 0..3 {
            service.get_plan(&poison).unwrap_err();
        }
        let err = service.get_plan(&poison).unwrap_err();
        assert!(matches!(err, ServiceError::Opt(_)), "probe ran: {err}");
        let snap = service.overload_counters().snapshot();
        assert_eq!(snap.breaker_probes, 1);
        assert_eq!(snap.breaker_recoveries, 0, "failed probe stays open");
        // Next arrival is rejected again: still open.
        let err = service.get_plan(&poison).unwrap_err();
        assert!(matches!(err, ServiceError::BreakerOpen { .. }), "{err}");
    }

    #[test]
    fn epoch_evicted_plans_are_shelved_and_served_stale() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let q = QueryGenerator::new(&catalog, Topology::Chain(5), 3).instance(0);
        let request = ServiceRequest::query(q);
        assert!(
            service.serve_stale(&request).is_none(),
            "nothing shelved yet"
        );

        let fresh = service.get_plan(&request).unwrap();
        let old_epoch = fresh.plan.stats_epoch;
        service.bump_stats_epoch();

        // The eager purge harvested the entry onto the shelf.
        let stale = service.serve_stale(&request).expect("shelved plan");
        assert_eq!(stale.source, PlanSource::Stale);
        assert_eq!(stale.plan.stats_epoch, old_epoch);
        assert_eq!(
            stale.plan.root.structural_digest(),
            fresh.plan.root.structural_digest()
        );
        assert_eq!(stale.plans_costed, 0);
        assert_eq!(service.overload_counters().snapshot().served_stale, 1);

        // A fresh re-optimization under the new epoch unshelves the
        // key: stale-serve must never shadow a current plan.
        let reopt = service.get_plan(&request).unwrap();
        assert_eq!(reopt.source, PlanSource::Fresh);
        assert!(service.serve_stale(&request).is_none());
    }

    /// The epoch sweep leaves the shelf the only holder of an outgoing
    /// plan, so a re-optimized statement's old plan is freed when the
    /// new one unshelves it — whether or not a new plan reuses its slot.
    #[test]
    fn a_re_served_statement_frees_its_old_epoch_plan() {
        let catalog = Catalog::paper();
        let service = OptimizerService::with_defaults(catalog.clone());
        let gen = QueryGenerator::new(&catalog, Topology::Chain(4), 5);
        let requests: Vec<ServiceRequest> = (0..16)
            .map(|k| ServiceRequest::query(gen.instance(k)))
            .collect();
        let old_roots: Vec<std::sync::Weak<PlanNode>> = requests
            .iter()
            .map(|request| {
                let response = service.get_plan(request).unwrap();
                assert_eq!(response.source, PlanSource::Fresh);
                Arc::downgrade(&response.plan.root)
            })
            .collect();
        assert_eq!(service.cached_plans(), requests.len());

        service.bump_stats_epoch();
        for (request, old_root) in requests.iter().zip(&old_roots).step_by(2) {
            assert!(old_root.upgrade().is_some(), "the shelf holds it");
            let response = service.get_plan(request).unwrap();
            assert_eq!(response.source, PlanSource::Fresh);
        }
        for (k, old_root) in old_roots.iter().enumerate() {
            let held = old_root.upgrade().is_some();
            assert_eq!(held, k % 2 == 1, "statement {k}: old plan held {held}");
        }
    }

    #[test]
    fn queue_wait_shrinks_the_deadline() {
        let mut request = ServiceRequest::sql("select 1").with_deadline(Duration::from_secs(10));
        request.shrink_deadline(Duration::from_secs(4));
        assert_eq!(request.deadline(), Some(Duration::from_secs(6)));
        request.shrink_deadline(Duration::from_secs(100));
        assert_eq!(request.deadline(), Some(Duration::ZERO), "saturates");
        let mut bare = ServiceRequest::sql("select 1");
        bare.shrink_deadline(Duration::from_secs(1));
        assert_eq!(bare.deadline(), None, "no deadline, nothing to shrink");
    }
}
