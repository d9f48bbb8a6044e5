//! `sdp-service` — the optimizer daemon's command-line front.
//!
//! ```text
//! sdp-service replay [--shape star|chain|cycle|star-chain]
//!                    [--relations N] [--distinct N] [--requests N]
//!                    [--clients N] [--workers N] [--capacity N]
//!                    [--seed N]
//!                    [--deadline-ms N] [--memory-mb N]
//!                    [--trace PATH] [--metrics-json PATH]
//! ```
//!
//! `replay` generates a seeded workload of `--distinct` structurally
//! different queries on the chosen topology, replays `--requests`
//! requests drawn from it (alternating SQL-text and programmatic
//! submissions) from `--clients` client threads through a
//! `--workers`-thread daemon, and reports throughput, cache counters
//! and enumeration latency histograms, by what produced each plan.
//!
//! `--deadline-ms` and `--memory-mb` attach a per-request deadline and
//! memory budget: requests that exhaust a strategy's slice degrade
//! down the ladder (DP → SDP → IDP(4) → GOO) instead of failing, and
//! the report gains governor counters (degradations by reason,
//! timeouts, leader retries).
//!
//! `--trace PATH` collects the full structured event stream (request
//! lifecycle, governor transitions, enumeration spans) and writes it
//! as a chrome://tracing-compatible JSON array. `--metrics-json PATH`
//! writes the complete metrics report (counters, governor, latency
//! histograms, allocator watermarks, store counters) as one JSON document;
//! the human-readable report stays on stdout either way. Failed
//! requests are reported through the same trace stream, so each error
//! line carries the query fingerprint and the rung it failed on — and
//! any such error makes the run exit non-zero, even when the client
//! thread itself saw a response.
//!
//! `--store-dir DIR` attaches the durable plan store: fresh plans are
//! persisted (write-behind) into DIR's segment log, a dead-letter
//! queue for ladder-exhausted requests lives alongside it, and the
//! next run over the same DIR warm-starts the cache from the surviving
//! records (same statistics epoch only). The report then carries a
//! `store:` line and a `plan digest:` line — an order-independent fold
//! over every served plan's structural digest, so two runs are
//! plan-for-plan bit-identical iff the digests match.
//!
//! `sdp-service replay --dlq DIR` switches to drain mode: each record
//! in DIR's dead-letter queue is verified against its stored
//! fingerprint and re-optimized without resource limits; records that
//! succeed leave the queue, records that fail again stay.
//!
//! `--queue-cap N` bounds the daemon's admission queue: submissions
//! that find it full are answered immediately (stale-serve or shed)
//! instead of queueing. The overload decisions themselves (bursts,
//! stale-serve, the breaker's trip and probe) are tested through the
//! daemon in `tests/overload_resilience.rs`; the store's crash and warm
//! restart, and dead-letter drains through this binary, in
//! `crates/service/tests/restart_and_drain.rs`.
//!
//! `--flight-dir DIR` attaches the flight recorder: every
//! decision-bearing trace event (request outcome, stale serve, shed,
//! breaker transition, …) is projected into a bounded in-memory ring
//! and written through to DIR's CRC-framed flight log, so `sdp-service
//! inspect --flight DIR` can reconstruct the last decisions even after
//! a crash. The report gains a `flight:` line with the ring depth and
//! the order-independent record digest.
//!
//! `--qerror` appends the cardinality-accuracy battery: the distinct
//! workload is re-optimized against a scaled-down materialized copy of
//! the schema and executed through the instrumented executor, feeding
//! per-plan-node (estimated, actual) row counts into the Q-error
//! observatory. The run prints an `EXPLAIN ANALYZE` with the top-K
//! worst-estimated nodes, per-kind/per-predicate Q-error summaries,
//! and merges the `qerror` histogram family into `--metrics-json` /
//! `--metrics-prom` output.
//!
//! `sdp-service inspect --flight DIR [--last N]` recovers the flight
//! log (torn tails truncated, digests re-verified) and prints the last
//! N records in canonical content order plus their multiset digest —
//! byte-identical from run to run of the same workload.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdp_catalog::Catalog;
use sdp_core::{Algorithm, Governor, Optimizer};
use sdp_engine::{execute_observed, scaled_catalog, Database};
use sdp_metrics::alloc::CountingAllocator;
use sdp_obs::{
    canonical_sort, fold_digest, multiset_digest, FlightLog, FlightRecorder, Observation,
    QErrorObservatory, DEFAULT_FLIGHT_CAPACITY,
};
use sdp_query::canon::stable_hash;
use sdp_query::{Query, QueryGenerator, RelSet, Topology};
use sdp_service::{
    fingerprint_query, Daemon, DaemonConfig, OptimizerService, ServiceConfig, ServiceRequest,
};
use sdp_trace::{chrome_trace, Event, MemorySink, TeeSink, TraceSink, Tracer};

// Count heap traffic so `--metrics-json` reports real allocator
// watermarks, same as the experiment harness.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

struct ReplayArgs {
    shape: String,
    relations: usize,
    distinct: usize,
    requests: usize,
    clients: usize,
    workers: usize,
    capacity: usize,
    ordered: bool,
    seed: u64,
    deadline_ms: Option<u64>,
    /// `--memory-mb`, converted to bytes once at parse.
    memory_bytes: Option<u64>,
    trace: Option<String>,
    metrics_json: Option<String>,
    store_dir: Option<String>,
    dlq: Option<String>,
    queue_cap: Option<usize>,
    flight_dir: Option<String>,
    qerror: bool,
    metrics_prom: Option<String>,
}

impl Default for ReplayArgs {
    fn default() -> Self {
        ReplayArgs {
            shape: "star-chain".into(),
            relations: 9,
            distinct: 8,
            requests: 256,
            clients: 4,
            workers: 4,
            capacity: 1024,
            ordered: false,
            seed: 42,
            deadline_ms: None,
            memory_bytes: None,
            trace: None,
            metrics_json: None,
            store_dir: None,
            dlq: None,
            queue_cap: None,
            flight_dir: None,
            qerror: false,
            metrics_prom: None,
        }
    }
}

fn usage() -> &'static str {
    "usage: sdp-service replay [--shape star|chain|cycle|star-chain] \
     [--relations N] [--distinct N] [--requests N] [--clients N] \
     [--workers N] [--capacity N] [--ordered] \
     [--seed N] [--deadline-ms N] [--memory-mb N] \
     [--trace PATH] [--metrics-json PATH] \
     [--metrics-prom PATH] [--store-dir DIR] [--dlq DIR] [--queue-cap N] \
     [--flight-dir DIR] [--qerror]\n\
     \x20      sdp-service inspect --flight DIR [--last N]"
}

/// Parse `flag`'s value as a number, naming the flag in the error.
fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_replay(args: &[String]) -> Result<ReplayArgs, String> {
    let mut out = ReplayArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut text = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--shape" => out.shape = text()?,
            "--relations" => out.relations = number(flag, text()?)?,
            "--distinct" => out.distinct = number(flag, text()?)?,
            "--requests" => out.requests = number(flag, text()?)?,
            "--clients" => out.clients = number(flag, text()?)?,
            "--workers" => out.workers = number(flag, text()?)?,
            "--capacity" => out.capacity = number(flag, text()?)?,
            "--ordered" => out.ordered = true,
            "--seed" => out.seed = number(flag, text()?)?,
            "--deadline-ms" => out.deadline_ms = Some(number(flag, text()?)?),
            "--memory-mb" => {
                let mb: u64 = number(flag, text()?)?;
                let bytes = mb.checked_mul(1 << 20).ok_or_else(|| {
                    format!(
                        "--memory-mb {mb} overflows a byte count (at most {})",
                        u64::MAX >> 20
                    )
                })?;
                out.memory_bytes = Some(bytes);
            }
            "--queue-cap" => out.queue_cap = Some(number(flag, text()?)?),
            "--trace" => out.trace = Some(text()?),
            "--metrics-json" => out.metrics_json = Some(text()?),
            "--metrics-prom" => out.metrics_prom = Some(text()?),
            "--store-dir" => out.store_dir = Some(text()?),
            "--dlq" => out.dlq = Some(text()?),
            "--flight-dir" => out.flight_dir = Some(text()?),
            "--qerror" => out.qerror = true,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if out.distinct == 0 || out.requests == 0 || out.clients == 0 {
        return Err("--distinct, --requests and --clients must be positive".into());
    }
    if out.queue_cap == Some(0) {
        return Err("--queue-cap must be positive".into());
    }
    Ok(out)
}

fn topology_for(shape: &str, n: usize) -> Result<Topology, String> {
    if n > RelSet::MAX_RELATIONS {
        return Err(format!(
            "--relations {n}: a query joins at most {} relations",
            RelSet::MAX_RELATIONS
        ));
    }
    let least = |min: usize| {
        if n >= min {
            Ok(())
        } else {
            Err(format!("--shape {shape} needs --relations >= {min}"))
        }
    };
    match shape {
        "star" => least(2).map(|()| Topology::Star(n)),
        "chain" => least(2).map(|()| Topology::Chain(n)),
        "cycle" => least(3).map(|()| Topology::Cycle(n)),
        "star-chain" => least(3).map(|()| Topology::star_chain(n)),
        other => Err(format!("unknown shape {other:?}\n{}", usage())),
    }
}

/// Routes per-request failures to stderr as they happen. Replaces the
/// client loop's bare `eprintln!`: the `request_error` events it
/// prints carry the query fingerprint and the rung that failed, which
/// the client-side error alone never knew. Every routed error is
/// counted, and any count > 0 makes the run exit non-zero — a request
/// error must never scroll by on a green exit status.
#[derive(Default)]
struct StderrErrorSink {
    errors: AtomicU64,
}

impl StderrErrorSink {
    fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl TraceSink for StderrErrorSink {
    fn record(&self, event: Event) {
        if event.name == "request_error" {
            self.errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("{}", event.canonical());
        }
    }
}

// The order-independent served-plan digest fold is `sdp_obs::
// fold_digest`, shared with the flight recorder's multiset digest:
// one commutative combining rule for both surfaces, so the "plan
// digest" line stays deterministic under any client/worker
// interleaving.

/// Drain mode (`replay --dlq DIR`): re-optimize every dead-letter
/// record without resource limits and rewrite the queue with only the
/// records that failed again.
fn drain_dlq(args: &ReplayArgs, dir: &str) -> Result<(), String> {
    let catalog = if args.relations + 1 < 25 {
        Catalog::paper()
    } else {
        Catalog::extended(args.relations * 2)
    };
    let (mut dlq, recovery, undecodable) =
        sdp_store::DeadLetterQueue::open(std::path::Path::new(dir))
            .map_err(|e| format!("opening --dlq {dir}: {e}"))?;
    println!(
        "dlq: {} records recovered from {dir} ({} undecodable skipped{})",
        dlq.len(),
        undecodable,
        if recovery.truncated {
            ", torn tail truncated"
        } else {
            ""
        },
    );
    if dlq.is_empty() {
        return Ok(());
    }

    let service = OptimizerService::new(
        catalog.clone(),
        ServiceConfig {
            cache_capacity: args.capacity,
            ..ServiceConfig::default()
        },
    );
    let mut remaining = Vec::new();
    let mut drained = 0usize;
    for record in dlq.records().to_vec() {
        // The queue may hold records from another catalog or schema
        // generation; the fingerprint check catches that before an
        // enumeration can silently answer the wrong question.
        let fp = fingerprint_query(&catalog, &record.query);
        if fp.0 != record.fingerprint {
            eprintln!(
                "dlq: fingerprint mismatch (stored {:032x}, bound {:032x}) — keeping record",
                record.fingerprint, fp.0
            );
            remaining.push(record);
            continue;
        }
        let mut request = ServiceRequest::query(record.query.clone());
        if let Some(algorithm) = record.algorithm {
            request = request.with_algorithm(algorithm);
        }
        match service.get_plan(&request) {
            Ok(resp) => {
                drained += 1;
                println!(
                    "dlq: {:032x} re-optimized via {} — cost {:.3}, digest {:016x} \
                     (was: {})",
                    record.fingerprint,
                    resp.plan.strategy,
                    resp.plan.cost,
                    resp.plan.root.structural_digest(),
                    record.error,
                );
            }
            Err(e) => {
                eprintln!("dlq: {:032x} failed again: {e}", record.fingerprint);
                remaining.push(record);
            }
        }
    }
    let left = remaining.len();
    dlq.rewrite(remaining)
        .map_err(|e| format!("rewriting --dlq {dir}: {e}"))?;
    println!("dlq: drained {drained}, {left} remain");
    if left > 0 {
        return Err(format!("{left} dead-letter records failed again"));
    }
    Ok(())
}

/// The standard replay workload: `--clients` threads issuing seeded
/// picks from the distinct pool, alternating SQL-text and
/// programmatic submissions. Returns (failures, plan-digest fold).
fn run_clients(
    daemon: &Daemon,
    queries: &[Query],
    sql: &[String],
    args: &ReplayArgs,
) -> (u64, u64) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let (seed, requests, clients) = (args.seed, args.requests, args.clients);
                let (deadline_ms, memory_bytes) = (args.deadline_ms, args.memory_bytes);
                scope.spawn(move || {
                    let mut failures = 0u64;
                    let mut digest = 0u64;
                    // Client c issues every request with index ≡ c
                    // (mod clients), drawn pseudo-randomly (seeded)
                    // from the distinct pool, alternating SQL-text and
                    // programmatic submissions.
                    for i in (c..requests).step_by(clients) {
                        let pick =
                            stable_hash(seed ^ 0x72_65_70, &[i as u64]) as usize % queries.len();
                        let mut request = if i % 2 == 0 {
                            ServiceRequest::sql(sql[pick].clone())
                        } else {
                            ServiceRequest::query(queries[pick].clone())
                        };
                        if let Some(ms) = deadline_ms {
                            request = request.with_deadline(Duration::from_millis(ms));
                        }
                        if let Some(bytes) = memory_bytes {
                            request = request.with_memory_budget(bytes);
                        }
                        // Failures surface through the trace stream
                        // (see StderrErrorSink), which knows the
                        // fingerprint and rung; only count them here.
                        match daemon.execute(request) {
                            Ok(resp) => {
                                digest = fold_digest(digest, resp.plan.root.structural_digest());
                            }
                            Err(_) => failures += 1,
                        }
                    }
                    (failures, digest)
                })
            })
            .collect();
        // fold_digest is a wrapping sum of per-plan terms, so client
        // subtotals combine with a wrapping add — commutative, hence
        // independent of the client/worker interleaving.
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, 0u64), |(f, d), (cf, cd)| {
                (f + cf, d.wrapping_add(cd))
            })
    })
}

fn replay(args: ReplayArgs) -> Result<(), String> {
    if let Some(dir) = &args.dlq {
        return drain_dlq(&args, dir);
    }
    let topology = topology_for(&args.shape, args.relations)?;
    let catalog = if args.relations + 1 < 25 {
        Catalog::paper()
    } else {
        Catalog::extended(args.relations * 2)
    };
    let generator = QueryGenerator::new(&catalog, topology, args.seed);
    let queries: Vec<Query> = (0..args.distinct as u64)
        .map(|k| {
            if args.ordered {
                generator.ordered_instance(k)
            } else {
                generator.instance(k)
            }
        })
        .collect();
    let sql: Vec<String> = queries
        .iter()
        .map(|q| sdp_sql::render_sql(&catalog, q))
        .collect();

    // Error reporting always flows through the trace stream; a
    // capturing sink joins the tee only when `--trace` asks for a
    // dump.
    let capture = args
        .trace
        .as_ref()
        .map(|_| Arc::new(MemorySink::unbounded()));
    let errors = Arc::new(StderrErrorSink::default());
    let mut sinks: Vec<Arc<dyn TraceSink>> = vec![Arc::clone(&errors) as Arc<dyn TraceSink>];
    if let Some(capture) = &capture {
        sinks.push(Arc::clone(capture) as Arc<dyn TraceSink>);
    }
    // The flight recorder joins the tee like any other sink: it
    // projects decision events into the ring and writes them through
    // to the CRC-framed log, so a crashed run still leaves its last
    // decisions inspectable.
    let flight = match &args.flight_dir {
        Some(dir) => {
            let (log, recovered, stats) = FlightLog::open(std::path::Path::new(dir))
                .map_err(|e| format!("opening --flight-dir {dir}: {e}"))?;
            println!(
                "flight: {} prior records recovered from {dir}{}",
                recovered.len(),
                if stats.truncated {
                    " (torn tail truncated)"
                } else {
                    ""
                },
            );
            Some(Arc::new(FlightRecorder::with_log(
                DEFAULT_FLIGHT_CAPACITY,
                log,
            )))
        }
        None => None,
    };
    if let Some(recorder) = &flight {
        sinks.push(Arc::clone(recorder) as Arc<dyn TraceSink>);
    }
    let tracer = Tracer::new(Arc::new(TeeSink::new(sinks)));

    let config = ServiceConfig {
        cache_capacity: args.capacity,
        ..ServiceConfig::default()
    };
    let cache_shards = config.cache_shards;
    let mut service = OptimizerService::new(catalog.clone(), config).with_tracer(tracer);
    if let Some(dir) = &args.store_dir {
        let dir = std::path::Path::new(dir);
        service = service
            .with_store(dir)
            .map_err(|e| format!("opening --store-dir: {e}"))?
            .with_dlq(dir)
            .map_err(|e| format!("opening dead-letter queue: {e}"))?;
        let snap = service.store_counters().snapshot();
        println!(
            "store: warm start from {} — {} plans filled, {} stale dropped, \
             {} torn truncations, dlq depth {}",
            dir.display(),
            snap.warm_fills,
            snap.stale_dropped,
            snap.torn_truncations,
            snap.dlq_depth,
        );
    }
    let service = Arc::new(service);
    let daemon = match args.queue_cap {
        Some(cap) => Daemon::with_config(
            Arc::clone(&service),
            DaemonConfig::new(args.workers).with_queue_capacity(cap),
        ),
        None => Daemon::spawn(Arc::clone(&service), args.workers),
    };

    println!(
        "replaying {} requests over {} distinct {}{} queries ({} relations) \
         with {} clients, {} workers, cache {} x{} shards, seed {}",
        args.requests,
        args.distinct,
        if args.ordered { "ordered " } else { "" },
        args.shape,
        args.relations,
        args.clients,
        args.workers,
        args.capacity,
        cache_shards,
        args.seed,
    );

    let started = Instant::now();
    let (failures, plan_digest) = run_clients(&daemon, &queries, &sql, &args);
    let served = args.requests as u64 - failures;
    let elapsed = started.elapsed();

    let snap = service.counters_snapshot();
    let throughput = args.requests as f64 / elapsed.as_secs_f64();
    println!();
    println!(
        "served {} requests in {:.3} s — {:.0} req/s ({} failed)",
        served,
        elapsed.as_secs_f64(),
        throughput,
        failures,
    );
    println!(
        "cache: {} hits, {} misses, {} coalesced ({:.1}% amortized), \
         {} LRU-evicted, {} stale-evicted, {} plans resident",
        snap.hits,
        snap.misses,
        snap.coalesced,
        snap.amortized_rate() * 100.0,
        snap.evicted,
        snap.stale_evicted,
        service.cached_plans(),
    );
    println!(
        "enumerations: {} runs costing {} plans total",
        snap.enumerations, snap.plans_costed
    );
    let gov = service.governor_snapshot();
    println!(
        "governor: {} degradations ({} deadline, {} memory of which {} predicted), \
         {} timeouts, {} leader retries",
        gov.degradations,
        gov.deadline_degradations,
        gov.memory_degradations,
        gov.predicted_descents,
        gov.timeouts,
        gov.leader_retries,
    );
    for (rung, hist) in service.rung_latencies().snapshot() {
        println!(
            "  {rung:<10} {:>4} runs  mean {:>9.3?}  max {:>9.3?}",
            hist.count,
            hist.mean(),
            hist.max
        );
        for (upper, count) in hist.nonzero_buckets() {
            println!("    ≤ {upper:>9.3?}  {count:>4}");
        }
    }

    if args.store_dir.is_some() {
        // Settle the write-behind queue so the counters (and the
        // metrics dump below) reflect every served plan.
        service.flush_store();
        let store = service.store_counters().snapshot();
        println!(
            "store: {} writes ({} errors), {} warm fills, {} warm hits, \
             {} stale dropped, {} compactions",
            store.writes,
            store.write_errors,
            store.warm_fills,
            store.warm_hits,
            store.stale_dropped,
            store.compactions,
        );
        println!(
            "dlq: {} enqueued this run, depth {}",
            store.dlq_enqueued, store.dlq_depth
        );
    }
    println!("plan digest: {plan_digest:016x} over {served} served");

    daemon.shutdown();

    if let Some(recorder) = &flight {
        println!(
            "flight: {} records in ring ({} evicted to log only, {} write errors), \
             digest {:016x}",
            recorder.len(),
            recorder.dropped(),
            recorder.io_errors(),
            recorder.digest(),
        );
    }

    let observatory = if args.qerror {
        Some(run_qerror(&args)?)
    } else {
        None
    };

    if let (Some(path), Some(capture)) = (&args.trace, &capture) {
        let events = capture.snapshot();
        std::fs::write(path, chrome_trace(&events))
            .map_err(|e| format!("writing --trace {path}: {e}"))?;
        println!(
            "trace: {} events ({} dropped) written to {path}",
            events.len(),
            capture.dropped(),
        );
    }
    if args.metrics_json.is_some() || args.metrics_prom.is_some() {
        let mut report = service.metrics_report();
        if let Some(observatory) = &observatory {
            report.qerror = observatory.series();
        }
        if let Some(path) = &args.metrics_json {
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("writing --metrics-json {path}: {e}"))?;
            println!("metrics: report written to {path}");
        }
        if let Some(path) = &args.metrics_prom {
            std::fs::write(path, report.prometheus_text())
                .map_err(|e| format!("writing --metrics-prom {path}: {e}"))?;
            println!("metrics: prometheus exposition written to {path}");
        }
    }

    if failures > 0 {
        return Err(format!("{failures} requests failed"));
    }
    // Belt and braces for the exit status: any request_error routed to
    // stderr fails the run, even if no client saw the failure (e.g. a
    // waiter that recovered by retrying after a leader error).
    let routed = errors.errors();
    if routed != 0 {
        return Err(format!("{routed} request errors reported on stderr"));
    }
    Ok(())
}

/// The cardinality-accuracy battery (`replay --qerror`): re-optimize
/// the distinct workload against a scaled-down *materialized* copy of
/// the schema, execute each plan through the instrumented executor,
/// and aggregate per-plan-node (estimated, actual) row counts into
/// the Q-error observatory. Prints an `EXPLAIN ANALYZE` with the
/// worst-estimated nodes for the first plan and per-series summaries
/// for the rest.
fn run_qerror(args: &ReplayArgs) -> Result<QErrorObservatory, String> {
    // Execution validates estimates; it does not need production
    // cardinalities. Cap the join size so the battery stays a
    // seconds-scale tail on the replay.
    let relations = args.relations.clamp(3, 7);
    let catalog = scaled_catalog(relations + 2, 200, args.seed);
    let db = Database::generate(&catalog, args.seed ^ 0x0b5e);
    let topology = topology_for(&args.shape, relations)?;
    let generator = QueryGenerator::new(&catalog, topology, args.seed);
    let optimizer = Optimizer::new(&catalog);
    let governor = Governor::new();

    let plans = args.distinct.min(6) as u64;
    println!();
    println!(
        "qerror: executing {plans} {} plans over a scaled schema \
         ({relations} relations, materialized)",
        args.shape,
    );
    let mut observatory = QErrorObservatory::new();
    for k in 0..plans {
        let query = generator.instance(k);
        let fingerprint = fingerprint_query(&catalog, &query).0;
        let governed = optimizer
            .optimize_governed(&query, Algorithm::Dp, &governor)
            .map_err(|e| format!("qerror: optimizing instance {k}: {e}"))?;
        let (_rows, nodes) = execute_observed(&governed.plan.root, &query, &catalog, &db)
            .map_err(|e| format!("qerror: executing instance {k}: {e}"))?;
        let observations: Vec<Observation> = nodes
            .iter()
            .map(|n| Observation {
                fingerprint,
                path: n.path.clone(),
                kind: n.kind.clone(),
                detail: n.detail.clone(),
                estimated: n.estimated,
                actual: n.actual,
            })
            .collect();
        observatory.observe_all(&observations);
        if k == 0 {
            // The first plan gets the full EXPLAIN ANALYZE treatment,
            // worst-estimated nodes appended.
            println!();
            print!("{}", sdp_core::explain_analyze(&governed));
            let labelled: Vec<(String, f64, u64)> = nodes
                .iter()
                .map(|n| {
                    let label = if n.detail.is_empty() {
                        format!("{} {}", n.path, n.kind)
                    } else {
                        format!("{} {} [{}]", n.path, n.kind, n.detail)
                    };
                    (label, n.estimated, n.actual)
                })
                .collect();
            println!();
            print!("{}", sdp_core::worst_estimates(&labelled, 5));
        }
    }

    println!();
    println!(
        "qerror: {} node observations across {} series",
        observatory.observed(),
        observatory.series().len(),
    );
    for (label, h) in observatory.series() {
        println!(
            "  {label:<44} count {:>4}  mean {:>9.3}  p95 {:>9.3}  max {:>9.3}",
            h.count,
            h.mean(),
            h.p95(),
            h.max,
        );
    }
    let worst: Vec<(String, f64, u64)> = observatory
        .worst(8)
        .iter()
        .map(|o| {
            let fp = format!("{:032x}", o.fingerprint);
            (
                format!("[{}] {} {}", &fp[..8], o.path, o.kind),
                o.estimated,
                o.actual,
            )
        })
        .collect();
    print!("{}", sdp_core::worst_estimates(&worst, 8));
    Ok(observatory)
}

struct InspectArgs {
    flight: String,
    last: Option<usize>,
}

fn parse_inspect(args: &[String]) -> Result<InspectArgs, String> {
    let mut flight = None;
    let mut last = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--flight" => flight = Some(value("--flight")?.clone()),
            "--last" => {
                last = Some(
                    value("--last")?
                        .parse()
                        .map_err(|e| format!("--last: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(InspectArgs {
        flight: flight.ok_or_else(|| format!("inspect needs --flight DIR\n{}", usage()))?,
        last,
    })
}

/// Post-mortem flight reconstruction (`inspect --flight DIR`): recover
/// the flight log (torn tails truncated, per-record digests
/// re-verified), keep the last N records by write order, and print
/// them in canonical content order with their multiset digest — the
/// byte-identical-from-run-to-run surface the obs smoke diffs.
fn inspect(args: InspectArgs) -> Result<(), String> {
    let dir = std::path::Path::new(&args.flight);
    if !FlightLog::path_in(dir).exists() {
        return Err(format!(
            "no flight log at {}",
            FlightLog::path_in(dir).display()
        ));
    }
    let (_log, records, stats) =
        FlightLog::open(dir).map_err(|e| format!("opening --flight {}: {e}", args.flight))?;
    println!(
        "flight: {} records recovered from {}{}",
        records.len(),
        args.flight,
        if stats.truncated {
            " (torn tail truncated)"
        } else {
            ""
        },
    );
    let keep = args.last.unwrap_or(records.len()).min(records.len());
    let mut window: Vec<_> = records[records.len() - keep..].to_vec();
    let digest = multiset_digest(&window);
    canonical_sort(&mut window);
    for record in &window {
        println!("{}", record.canonical());
    }
    println!("flight digest: {digest:016x} over {keep} records");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("replay") => parse_replay(&args[1..]).and_then(replay),
        Some("inspect") => parse_inspect(&args[1..]).and_then(inspect),
        Some("--help") | Some("-h") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
