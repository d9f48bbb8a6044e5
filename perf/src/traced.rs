//! The traced run: the same workload decomposed layer by layer.
//!
//! End-to-end metrics are measured with nothing attached ([`crate::run`]).
//! This run is separate and slower. After a few untraced passes (the
//! baseline its own overhead is measured against) it makes one pass in
//! which every request is served twice: once by the real
//! `OptimizerService::get_plan`, and once by hand, through the public
//! function of each layer in request order — tokenize, parse, bind,
//! fingerprint, cache probe, and on a miss optimize, cache insert,
//! encode and append — with a span around every call. The service's
//! own stages are private, so the replay's stage times stand in for
//! them; what the real call costs beyond their sum is reported as
//! glue. Spans inside the service are a later change.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sdp_core::{Algorithm, Governor, Optimizer, Rung};
use sdp_metrics::StoreCounters;
use sdp_query::canon::stable_hash;
use sdp_service::{
    fingerprint_query, select, CachedPlan, Daemon, Lookup, OptimizerService, PlanSource, ShardedLru,
};
use sdp_store::codec::{decode_plan, encode_plan};
use sdp_store::{PlanRecord, PlanStore, StoreOptions};
use sdp_trace::{MemorySink, Tracer};

use crate::alloc;
use crate::run::{
    check_passes, clean_up, run_pass, run_passes, service, set_up, undisturbed, Options, Pass,
    Report, SetUp,
};
use crate::span::{durations, self_times, to_json, Recorder, NO_PARENT};
use crate::stats::{median, percentile};
use crate::workload::{Workload, GOVERNED_BUDGET_BYTES};

/// Untraced passes before the traced one, and passes with a trace sink
/// attached after it.
const BASELINE_PASSES: usize = 3;
/// Requests the traced pass replays at most (`warm_hit` would
/// otherwise record a million spans to say what ten thousand say).
const TRACED_REQUESTS: usize = 10_000;
/// Hit requests sent once directly and once through the daemon.
const HOP_REQUESTS: usize = 2_000;
/// Statements optimized at one and at two enumeration threads.
const PAR2_STATEMENTS: usize = 32;
/// Events the attached `MemorySink` keeps (a ring; older ones drop).
const SINK_EVENTS: usize = 1 << 16;

/// What the replayed optimizations add up to.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    sql_bytes: u64,
    optimizations: u64,
    optimize_nanos: u64,
    plans_costed: u64,
    pairs: u64,
    jcrs_created: u64,
    jcrs_pruned: u64,
    partitions: u64,
    survivors: u64,
    order_rescued: u64,
    sort_enforcers: u64,
    degradations: u64,
    abandoned_plans: u64,
    profiled_plans: u64,
    produced_by: [u64; 4],
    alloc_calls: u64,
    alloc_bytes: u64,
    peak_model_bytes: u64,
    payload_bytes: u64,
}

/// The phase label `sdp-core` stamps on the profile rows of a rung.
fn phase_of(rung: Rung) -> &'static str {
    match rung {
        Rung::Dp => "DP",
        Rung::Sdp => "SDP",
        Rung::Idp => "IDP",
        Rung::Goo => "GOO",
    }
}

/// Position of a rung on the ladder, top first.
fn rung_index(rung: Rung) -> usize {
    sdp_core::LADDER
        .iter()
        .position(|r| *r == rung)
        .expect("every rung is on the ladder")
}

/// The request path by hand, over structures of its own.
struct Replayer<'a> {
    set_up: &'a SetUp,
    optimizer: Optimizer<'a>,
    governor: Governor,
    cache: ShardedLru<CachedPlan>,
    store: PlanStore,
    epoch: u64,
}

impl<'a> Replayer<'a> {
    fn new(set_up: &'a SetUp, store_dir: &Path, epoch: u64) -> Result<Self, String> {
        let config = sdp_service::ServiceConfig::default();
        let mut governor = Governor::new();
        if set_up.inputs.workload == Workload::GovernedChurn {
            governor = governor.with_memory_budget(GOVERNED_BUDGET_BYTES);
        }
        let (store, _, _) = PlanStore::open(
            store_dir,
            epoch,
            StoreOptions::default(),
            Arc::new(StoreCounters::default()),
        )
        .map_err(|e| format!("opening replay store: {e}"))?;
        Ok(Replayer {
            set_up,
            optimizer: Optimizer::new(&set_up.catalog).with_parallelism(1),
            governor,
            cache: ShardedLru::new(config.cache_capacity, config.cache_shards),
            store,
            epoch,
        })
    }

    /// Serve statement `statement` as request `request`, recording one
    /// span per layer call under `parent`.
    fn serve(
        &mut self,
        recorder: &mut Recorder,
        tally: &mut Tally,
        parent: u32,
        request: u32,
        statement: u32,
    ) -> Result<(), String> {
        let workload = self.set_up.inputs.workload;
        let catalog = &self.set_up.catalog;
        let sql = self.set_up.inputs.statements[statement as usize]
            .sql
            .as_str();
        tally.requests += 1;
        tally.sql_bytes += sql.len() as u64;

        let tokens = recorder
            .record("sql.tokenize", parent, request, || sdp_sql::tokenize(sql))
            .map_err(|e| e.to_string())?;
        let parsed = recorder
            .record("sql.parse", parent, request, || sdp_sql::parse(&tokens))
            .map_err(|e| e.to_string())?;
        let query = recorder
            .record("sql.bind", parent, request, || {
                sdp_sql::bind(catalog, &parsed)
            })
            .map_err(|e| e.to_string())?;
        let fingerprint = recorder.record("query.fingerprint", parent, request, || {
            fingerprint_query(catalog, &query)
        });
        let (cache, epoch) = (&self.cache, self.epoch);
        let looked_up = recorder.record("cache.get", parent, request, || {
            cache.get(fingerprint.0, epoch)
        });
        if matches!(looked_up, Lookup::Hit(_)) {
            return Ok(());
        }

        let algorithm = workload.pinned().unwrap_or_else(|| select::choose(&query));
        let before = alloc::snapshot();
        let span = recorder.begin("core.optimize", parent, request);
        let governed = self
            .optimizer
            .optimize_governed(&query, algorithm, &self.governor);
        tally.optimize_nanos += recorder.end(span);
        let after = alloc::snapshot();
        let governed = governed.map_err(|e| format!("replayed optimization: {e}"))?;

        let (stats, profile) = (&governed.plan.stats, &governed.plan.profile);
        tally.optimizations += 1;
        tally.alloc_calls += after.calls - before.calls;
        tally.alloc_bytes += after.bytes - before.bytes;
        tally.plans_costed += stats.plans_costed;
        tally.peak_model_bytes += stats.peak_model_bytes;
        tally.degradations += governed.degradations.len() as u64;
        let produced = governed.rung.map(phase_of);
        for row in profile {
            tally.pairs += row.pairs;
            tally.jcrs_created += row.jcrs_created;
            tally.jcrs_pruned += row.jcrs_pruned;
            tally.partitions += row.skyline_partitions;
            tally.survivors += row.skyline_survivors;
            tally.order_rescued += row.order_rescued;
            tally.sort_enforcers += row.sort_enforcers;
            tally.profiled_plans += row.plans_costed;
            if Some(row.phase) != produced {
                tally.abandoned_plans += row.plans_costed;
            }
        }
        if let Some(rung) = governed.rung {
            tally.produced_by[rung_index(rung)] += 1;
        }

        let plan = CachedPlan {
            root: Arc::clone(&governed.plan.root),
            cost: governed.plan.cost,
            rows: governed.plan.rows,
            strategy: governed.rung_label(),
            rung: governed.rung,
            degradations: governed.degradations.len() as u64,
            fingerprint,
            stats_epoch: epoch,
            warm: false,
        };
        let record = PlanRecord {
            fingerprint: fingerprint.0,
            stats_epoch: epoch,
            rung: plan.rung,
            enumerator: self.optimizer.enumerator(),
            algo_repr: format!("{algorithm:?}"),
            strategy: plan.strategy.clone(),
            degradations: plan.degradations,
            cost: plan.cost,
            rows: plan.rows,
            root: Arc::clone(&plan.root),
        };
        recorder.record("cache.insert", parent, request, || {
            cache.insert(fingerprint.0, plan, epoch)
        });
        let payload = recorder.record("store.encode", parent, request, || encode_plan(&record));
        tally.payload_bytes += payload.len() as u64;
        // `PlanStore::append` encodes the record itself, so this span
        // holds a second encode besides the framing and the write.
        let store = &mut self.store;
        recorder
            .record("store.append", parent, request, || store.append(&record))
            .map_err(|e| format!("replay store append: {e}"))?;
        // Decoding is the warm-restart path, not the request path; it
        // is recorded here because here is where a payload exists.
        recorder
            .record("store.decode", parent, request, || decode_plan(&payload))
            .map_err(|e| format!("replay store decode: {e}"))?;
        Ok(())
    }
}

/// Latencies of the traced pass's real `get_plan` calls, by outcome.
#[derive(Debug)]
struct Served {
    hit_nanos: Vec<u64>,
    miss_nanos: Vec<u64>,
    failed: u64,
}

/// The traced pass: each request through the real service and through
/// the replayer, under one root span.
fn traced_pass(
    set_up: &SetUp,
    service: &OptimizerService,
    store_dir: &Path,
    recorder: &mut Recorder,
    tally: &mut Tally,
) -> Result<Served, String> {
    let workload = set_up.inputs.workload;
    let stream = &set_up.inputs.pass[..set_up.inputs.pass.len().min(TRACED_REQUESTS)];
    if workload == Workload::GovernedChurn {
        service.bump_stats_epoch();
    }
    let epoch = service.catalog().stats_epoch();
    let mut replayer = Replayer::new(set_up, store_dir, epoch)?;
    if workload == Workload::WarmHit {
        // The real cache was filled in set-up; fill the replayer's the
        // same way, off the record.
        let (mut scratch, mut unused) = (Recorder::with_capacity(16), Tally::default());
        for statement in 0..set_up.inputs.statements.len() as u32 {
            replayer.serve(&mut scratch, &mut unused, NO_PARENT, 0, statement)?;
        }
    }

    let mut served = Served {
        hit_nanos: Vec::with_capacity(stream.len()),
        miss_nanos: Vec::with_capacity(stream.len()),
        failed: 0,
    };
    for (request, &statement) in stream.iter().enumerate() {
        let request = request as u32;
        let root = recorder.begin("request", NO_PARENT, request);
        let span = recorder.begin("service.get_plan", root, request);
        let reply = service.get_plan(&set_up.requests[statement as usize]);
        let nanos = recorder.end(span);
        match reply.map(|response| response.source) {
            Ok(PlanSource::Cache) => served.hit_nanos.push(nanos),
            Ok(PlanSource::Fresh) => served.miss_nanos.push(nanos),
            _ => served.failed += 1,
        }
        let replay = recorder.begin("replay", root, request);
        replayer.serve(recorder, tally, replay, request, statement)?;
        recorder.end(replay);
        recorder.end(root);
    }
    service.flush_store();

    if workload == Workload::GovernedChurn {
        // What the next pass's epoch bump would do to this cache.
        let cache = &replayer.cache;
        recorder.record("cache.purge", NO_PARENT, stream.len() as u32, || {
            cache.purge_stale(epoch + 1)
        });
    }
    served.hit_nanos.sort_unstable();
    served.miss_nanos.sort_unstable();
    Ok(served)
}

/// Warm-restart cost of what the replayer stored: disk bytes per
/// payload byte, and microseconds per record to open and replay it.
fn replay_store(store_dir: &Path, epoch: u64, payload_bytes: u64) -> Result<(f64, f64), String> {
    let mut disk_bytes = 0;
    for entry in std::fs::read_dir(store_dir).map_err(|e| e.to_string())? {
        disk_bytes += entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
    }
    let started = Instant::now();
    let (_, records, _) = PlanStore::open(
        store_dir,
        epoch,
        StoreOptions::default(),
        Arc::new(StoreCounters::default()),
    )
    .map_err(|e| format!("replaying store: {e}"))?;
    let micros = started.elapsed().as_secs_f64() * 1e6;
    if records.is_empty() || payload_bytes == 0 {
        return Ok((0.0, 0.0));
    }
    Ok((
        disk_bytes as f64 / payload_bytes as f64,
        micros / records.len() as f64,
    ))
}

/// `Daemon::execute` against `get_plan` on the same cached statement:
/// the per-pair difference is the queue hop. Returns (median, p90) in
/// microseconds.
fn daemon_hop(
    set_up: &SetUp,
    service: &Arc<OptimizerService>,
    recorder: &mut Recorder,
) -> (f64, f64) {
    let daemon = Daemon::spawn(Arc::clone(service), 1);
    let mut hops = Vec::with_capacity(HOP_REQUESTS);
    for (pair, &statement) in set_up.inputs.pass.iter().take(HOP_REQUESTS).enumerate() {
        let request = &set_up.requests[statement as usize];
        let id = pair as u32;
        // Make sure both timed calls find the plan cached.
        if service.get_plan(request).is_err() {
            continue;
        }
        let root = recorder.begin("hop", NO_PARENT, id);
        let queued = request.clone();
        let span = recorder.begin("daemon.execute", root, id);
        let through = daemon.execute(queued);
        let through_nanos = recorder.end(span);
        let span = recorder.begin("service.get_plan", root, id);
        let direct = service.get_plan(request);
        let direct_nanos = recorder.end(span);
        recorder.end(root);
        let cached = [&through, &direct]
            .iter()
            .all(|reply| matches!(reply, Ok(r) if r.source == PlanSource::Cache));
        if cached {
            // The hop cannot be negative; a reading below zero is the
            // direct call having been disturbed.
            hops.push(through_nanos.saturating_sub(direct_nanos));
        }
    }
    daemon.shutdown();
    if hops.is_empty() {
        return (0.0, 0.0);
    }
    hops.sort_unstable();
    (
        percentile(&hops, 0.5) as f64 / 1e3,
        percentile(&hops, 0.9) as f64 / 1e3,
    )
}

/// One-thread over two-thread optimization time on the workload's
/// first statements, with its strategy and no budget.
fn par2_speedup(set_up: &SetUp) -> Result<f64, String> {
    let workload = set_up.inputs.workload;
    let mut nanos = [0u128; 2];
    for statement in set_up.inputs.statements.iter().take(PAR2_STATEMENTS) {
        let query =
            sdp_sql::parse_query(&set_up.catalog, &statement.sql).map_err(|e| e.to_string())?;
        let algorithm: Algorithm = workload.pinned().unwrap_or_else(|| select::choose(&query));
        for (slot, threads) in nanos.iter_mut().zip([1, 2]) {
            let optimizer = Optimizer::new(&set_up.catalog).with_parallelism(threads);
            let started = Instant::now();
            let plan = optimizer.optimize(&query, algorithm);
            *slot += started.elapsed().as_nanos();
            black_box(plan.map_err(|e| e.to_string())?);
        }
    }
    Ok(nanos[0] as f64 / nanos[1] as f64)
}

/// Median microseconds of the Option-2 skyline kernel on 256 seeded
/// three-dimensional points (rows, cost, selectivity in the paper).
fn skyline_kernel(seed: u64) -> f64 {
    let coordinate =
        |i: u64| (stable_hash(seed ^ 0x736b_796c, &[i]) >> 11) as f64 / (1u64 << 53) as f64;
    let points: Vec<Vec<f64>> = (0..256)
        .map(|p| (0..3).map(|d| coordinate(3 * p + d)).collect())
        .collect();
    let mut micros = Vec::with_capacity(200);
    for _ in 0..200 {
        let started = Instant::now();
        let survivors = sdp_skyline::pairwise_union_skyline(black_box(&points));
        micros.push(started.elapsed().as_secs_f64() * 1e6);
        black_box(survivors);
    }
    median(&micros)
}

/// Median microseconds to snapshot the service's metrics and render
/// them as Prometheus text and as JSON.
fn metrics_report(service: &OptimizerService) -> f64 {
    let mut micros = Vec::with_capacity(50);
    for _ in 0..50 {
        let started = Instant::now();
        let report = service.metrics_report();
        let (text, json) = (report.prometheus_text(), report.to_json());
        micros.push(started.elapsed().as_secs_f64() * 1e6);
        black_box((text, json));
    }
    median(&micros)
}

/// One pass with an in-memory trace sink attached to the service.
fn sink_pass(set_up: &SetUp, options: &Options) -> Result<Pass, String> {
    let tracer = Tracer::new(Arc::new(MemorySink::with_capacity(SINK_EVENTS)));
    let mut service = service(&set_up.catalog).with_tracer(tracer);
    match set_up.inputs.workload {
        Workload::WarmHit => {
            for request in &set_up.requests {
                service.get_plan(request).map_err(|e| e.to_string())?;
            }
        }
        Workload::GovernedChurn => {
            service = service
                .with_store(&options.work_dir().join("sink-store"))
                .map_err(|e| e.to_string())?;
        }
        Workload::ColdDp | Workload::ColdSdp => {}
    }
    Ok(run_pass(set_up, &service))
}

/// Median of ascending nanoseconds, in microseconds; 0 for none.
fn median_us(nanos: &[u64]) -> f64 {
    if nanos.is_empty() {
        0.0
    } else {
        percentile(nanos, 0.5) as f64 / 1e3
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// One whole traced run; writes `<scratch>/<workload>.spans.json`. The
/// report's metrics are every per-layer metric, in `spec::PER_LAYER`
/// order, 0 where the layer does not run in this workload; `attempted`
/// counts the requests issued to a real service in the baseline, traced
/// and sink passes.
pub fn run(options: &Options) -> Result<Report, String> {
    let workload = options.workload;
    let set_up = set_up(options)?;

    // Baseline: the untraced passes of the end-to-end run.
    let baseline = run_passes(&set_up, 0.0, BASELINE_PASSES);
    let problems = check_passes(&set_up, &baseline);

    // The traced pass, against the long-lived service or a fresh one.
    let traced_service = match &set_up.service {
        Some(service) => Arc::clone(service),
        None => Arc::new(service(&set_up.catalog)),
    };
    let store_dir = options.work_dir().join("replay-store");
    let traced_requests = set_up.inputs.pass.len().min(TRACED_REQUESTS);
    let mut recorder = Recorder::with_capacity(traced_requests * 13 + HOP_REQUESTS * 3 + 1);
    let mut tally = Tally::default();
    let served = traced_pass(
        &set_up,
        &traced_service,
        &store_dir,
        &mut recorder,
        &mut tally,
    )?;
    let epoch = traced_service.catalog().stats_epoch();
    let (disk_per_payload, replay_us) = replay_store(&store_dir, epoch, tally.payload_bytes)?;
    // Counting costs the client thread nothing and any other thread
    // 28 ns an allocation: off, where two threads are compared.
    let (hop_us, hop_p90_us) =
        alloc::uncounted(|| daemon_hop(&set_up, &traced_service, &mut recorder));
    let report_us = metrics_report(&traced_service);
    drop(traced_service);

    let sink = (0..BASELINE_PASSES)
        .map(|_| sink_pass(&set_up, options))
        .collect::<Result<Vec<Pass>, String>>()?;
    let par2 = alloc::uncounted(|| par2_speedup(&set_up))?;
    let union_us = skyline_kernel(options.seed);

    let spans = recorder.spans();
    let own = self_times(spans);
    let stage = |name: &str| median_us(&durations(spans, name));
    let front_end = stage("sql.tokenize")
        + stage("sql.parse")
        + stage("sql.bind")
        + stage("query.fingerprint")
        + stage("cache.get");
    let (hit_us, miss_us) = (median_us(&served.hit_nanos), median_us(&served.miss_nanos));
    let glue = |whole: f64, parts: f64| if whole == 0.0 { 0.0 } else { whole - parts };

    let over = |f: &dyn Fn(&Pass) -> f64| baseline.iter().map(f).collect::<Vec<f64>>();
    let throughputs = over(&Pass::throughput);
    // Both comparisons are against the baseline with the host's
    // disturbances folded out, as the end-to-end run reports it.
    let quiet = undisturbed(&baseline);
    let untraced_us = quiet.percentile_us(0.5);
    // The traced pass's median request is a hit exactly when the
    // untraced pass's is: same stream, same cache.
    let traced_us = {
        let mut all = [served.hit_nanos.as_slice(), served.miss_nanos.as_slice()].concat();
        all.sort_unstable();
        median_us(&all)
    };
    let wall: f64 = baseline.iter().map(|p| p.wall.as_secs_f64()).sum();
    let on_cpu: Option<f64> = baseline
        .iter()
        .map(|p| p.on_cpu.map(|d| d.as_secs_f64()))
        .sum();
    let counts = baseline[0].counts;
    let per_pass = set_up.inputs.pass.len() as u64;

    let t = &tally;
    let mib = (1u64 << 20) as f64;
    let metrics = vec![
        ("sql.tokenize_us", stage("sql.tokenize")),
        ("sql.parse_us", stage("sql.parse")),
        ("sql.bind_us", stage("sql.bind")),
        ("sql.bytes_per_stmt", ratio(t.sql_bytes, t.requests)),
        ("query.fingerprint_us", stage("query.fingerprint")),
        ("cache.get_us", stage("cache.get")),
        ("service.get_plan_hit_us", hit_us),
        ("service.glue_hit_us", glue(hit_us, front_end)),
        ("core.optimize_us", stage("core.optimize")),
        ("core.pairs_per_req", ratio(t.pairs, t.requests)),
        (
            "core.plans_costed_per_req",
            ratio(t.plans_costed, t.requests),
        ),
        (
            "core.jcrs_created_per_req",
            ratio(t.jcrs_created, t.requests),
        ),
        ("core.jcrs_pruned_per_req", ratio(t.jcrs_pruned, t.requests)),
        (
            "core.ns_per_plan_costed",
            ratio(t.optimize_nanos, t.plans_costed),
        ),
        (
            "core.allocs_per_plan_costed",
            ratio(t.alloc_calls, t.plans_costed),
        ),
        (
            "core.alloc_bytes_per_plan_costed",
            ratio(t.alloc_bytes, t.plans_costed),
        ),
        (
            "core.peak_model_mb",
            ratio(t.peak_model_bytes, t.optimizations) / mib,
        ),
        ("core.par2_speedup", par2),
        (
            "skyline.partitions_per_req",
            ratio(t.partitions, t.requests),
        ),
        ("skyline.survivors_per_req", ratio(t.survivors, t.requests)),
        ("skyline.pruned_share", ratio(t.jcrs_pruned, t.jcrs_created)),
        (
            "skyline.order_rescued_per_req",
            ratio(t.order_rescued, t.requests),
        ),
        ("skyline.union_us_n256", union_us),
        (
            "governor.degradations_per_req",
            ratio(t.degradations, t.requests),
        ),
        (
            "governor.wasted_plans_share",
            ratio(t.abandoned_plans, t.profiled_plans),
        ),
        (
            "governor.rung_share_sdp",
            ratio(t.produced_by[rung_index(Rung::Sdp)], t.optimizations),
        ),
        (
            "governor.rung_share_idp",
            ratio(t.produced_by[rung_index(Rung::Idp)], t.optimizations),
        ),
        (
            "governor.rung_share_goo",
            ratio(t.produced_by[rung_index(Rung::Goo)], t.optimizations),
        ),
        (
            "governor.sort_enforcers_per_req",
            ratio(t.sort_enforcers, t.requests),
        ),
        ("cache.insert_us", stage("cache.insert")),
        ("cache.hit_ratio", ratio(counts.hits, per_pass)),
        ("cache.evictions_per_req", ratio(counts.evictions, per_pass)),
        // The last baseline pass's bump purged what a whole pass left.
        (
            "cache.purged_per_bump",
            baseline[BASELINE_PASSES - 1].purged as f64,
        ),
        ("cache.purge_us", stage("cache.purge")),
        ("service.get_plan_miss_us", miss_us),
        (
            "service.glue_miss_us",
            glue(
                miss_us,
                front_end + stage("core.optimize") + stage("cache.insert"),
            ),
        ),
        ("store.encode_us", stage("store.encode")),
        ("store.decode_us", stage("store.decode")),
        ("store.append_us", stage("store.append")),
        (
            "store.bytes_per_plan",
            ratio(t.payload_bytes, t.optimizations),
        ),
        ("store.disk_bytes_per_payload_byte", disk_per_payload),
        ("store.replay_us_per_record", replay_us),
        ("daemon.hop_us", hop_us),
        ("daemon.hop_p90_us", hop_p90_us),
        (
            "service.latency_p99_us",
            median(&over(&|p| p.percentile_us(0.99))),
        ),
        (
            "trace.memsink_us_per_req",
            (undisturbed(&sink).pass_seconds - quiet.pass_seconds) * 1e6 / per_pass as f64,
        ),
        ("trace.overhead_share", traced_us / untraced_us - 1.0),
        ("metrics.report_us", report_us),
        (
            "host.offcpu_share",
            on_cpu.map_or(0.0, |cpu| 1.0 - cpu / wall),
        ),
        (
            "host.pass_spread",
            (throughputs.iter().copied().fold(f64::MIN, f64::max)
                - throughputs.iter().copied().fold(f64::MAX, f64::min))
                / median(&throughputs),
        ),
    ];

    let replay_overhead: Vec<u64> = spans
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.name == "replay")
        .map(|(_, own)| *own)
        .collect();
    let notes = vec![
        format!(
            "{BASELINE_PASSES} untraced passes x {per_pass} requests, then {traced_requests} \
             traced requests ({} hits, {} misses), {} spans",
            served.hit_nanos.len(),
            served.miss_nanos.len(),
            spans.len()
        ),
        format!(
            "median get_plan: untraced {untraced_us:.3} us, traced {traced_us:.3} us; the \
             replay span's own time (recording and glue between layer calls) is {:.3} us a request",
            replay_overhead.iter().sum::<u64>() as f64 / 1e3 / replay_overhead.len().max(1) as f64
        ),
        format!(
            "replayed optimizations: {} (DP {}, SDP {}, IDP {}, GOO {})",
            t.optimizations, t.produced_by[0], t.produced_by[1], t.produced_by[2], t.produced_by[3]
        ),
    ];

    std::fs::create_dir_all(&options.scratch).map_err(|e| e.to_string())?;
    let path = options
        .scratch
        .join(format!("{}.spans.json", workload.name()));
    std::fs::write(
        &path,
        to_json(workload.name(), options.seed, spans, &metrics),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;

    let attempted = baseline
        .iter()
        .chain(&sink)
        .map(|p| p.latencies.len() as u64)
        .sum::<u64>()
        + traced_requests as u64;
    let failed = baseline.iter().chain(&sink).map(|p| p.failed).sum::<u64>() + served.failed;
    drop(set_up);
    clean_up(options);
    Ok(Report {
        workload,
        metrics,
        attempted,
        failed,
        problems,
        notes,
    })
}
