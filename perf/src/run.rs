//! The untraced run: set-up, identical timed passes, the correctness
//! gate and the end-to-end metrics.
//!
//! Load model: closed loop, one client. A single thread hands SQL text
//! to `OptimizerService::get_plan` and waits for the plan. Passes are
//! sized by request count, never by time, so every counter repeats
//! exactly from pass to pass and run to run; `--seconds` only decides
//! how many passes there are (never fewer than [`MIN_PASSES`]).
//!
//! Because the passes are identical request for request, every request
//! is timed once per pass, and its latency is the smallest of those
//! timings ([`undisturbed`]): on a shared host a neighbour only ever
//! adds time, to other requests in every pass.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdp_catalog::Catalog;
use sdp_core::{Optimizer, PlanNode};
use sdp_obs::fold_digest;
use sdp_query::RelSet;
use sdp_service::{OptimizerService, PlanSource, ServiceConfig, ServiceRequest, ServiceResponse};

use crate::alloc;
use crate::stats::{geometric_mean, median, percentile, samples_beyond};
use crate::workload::{generate, Inputs, Workload, REFERENCE_STATEMENTS};

/// Timed passes a run never goes below. A request keeps the smallest
/// of its timings, one per pass: with a neighbour disturbing a third
/// of the requests of every pass, five passes leave 0.4 % of them
/// without one clean timing.
pub const MIN_PASSES: usize = 5;
/// Upper limit on timed passes, for a `--seconds` far above a pass.
const MAX_PASSES: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes to aim for.
    pub seconds: f64,
    /// Request-count multiplier (1.0 unless `--quick`).
    pub scale: f64,
    /// Directory the run may write under (store segments, spans).
    pub scratch: PathBuf,
}

impl Options {
    /// This process's private directory under the scratch directory,
    /// removed again by [`clean_up`].
    pub fn work_dir(&self) -> PathBuf {
        self.scratch
            .join(format!("{}-{}", self.workload.name(), std::process::id()))
    }
}

/// The service every workload measures: defaults, one enumeration
/// thread (two are slower on a two-core host, and their speed-up is a
/// per-layer metric of its own).
pub fn service(catalog: &Catalog) -> OptimizerService {
    OptimizerService::new(
        catalog.clone(),
        ServiceConfig {
            parallelism: Some(1),
            ..ServiceConfig::default()
        },
    )
}

/// Everything that exists before the first timed request.
#[derive(Debug)]
pub struct SetUp {
    /// Generated inputs.
    pub inputs: Inputs,
    /// The catalog statements were generated against.
    pub catalog: Catalog,
    /// One prebuilt request per statement.
    pub requests: Vec<ServiceRequest>,
    /// Reference plan cost of the first [`REFERENCE_STATEMENTS`]
    /// statements, from `Optimizer::optimize` called directly.
    pub reference: Vec<f64>,
    /// The long-lived service (`warm_hit`: cache filled;
    /// `governed_churn`: reopened over the populated store). `None`
    /// where each pass makes its own.
    pub service: Option<Arc<OptimizerService>>,
    /// Plans costed and statements optimized by the `warm_hit` cache
    /// fill — the only optimization that workload ever does.
    pub fill: (u64, u64),
}

fn expect_fresh(reply: Result<ServiceResponse, sdp_service::ServiceError>) -> Result<u64, String> {
    let response = reply.map_err(|e| format!("set-up request failed: {e}"))?;
    if response.source != PlanSource::Fresh {
        return Err(format!("set-up request served from {:?}", response.source));
    }
    Ok(response.plans_costed)
}

/// Build a workload from nothing: catalog, statements, reference plans
/// and the warm-up that leaves the service in its measured state.
pub fn set_up(options: &Options) -> Result<SetUp, String> {
    let workload = options.workload;
    let catalog = Catalog::paper();
    let inputs = generate(workload, &catalog, options.seed, options.scale);
    let requests: Vec<ServiceRequest> = inputs
        .statements
        .iter()
        .map(|s| workload.request(&s.sql))
        .collect();

    let optimizer = Optimizer::new(&catalog).with_parallelism(1);
    let mut reference = Vec::with_capacity(REFERENCE_STATEMENTS);
    for statement in inputs.statements.iter().take(REFERENCE_STATEMENTS) {
        let query = sdp_sql::parse_query(&catalog, &statement.sql)
            .map_err(|e| format!("generated SQL rejected: {e}"))?;
        let plan = optimizer
            .optimize(&query, workload.reference_algorithm())
            .map_err(|e| format!("reference plan: {e}"))?;
        reference.push(plan.cost);
    }

    let mut set_up = SetUp {
        catalog,
        requests,
        reference,
        service: None,
        fill: (0, 0),
        inputs,
    };
    let warm_up = |service: &OptimizerService| -> Result<(), String> {
        for &i in &set_up.inputs.warmup {
            service
                .get_plan(&set_up.requests[i as usize])
                .map_err(|e| format!("warm-up request failed: {e}"))?;
        }
        Ok(())
    };
    match workload {
        Workload::WarmHit => {
            let service = service(&set_up.catalog);
            let mut plans = 0;
            for request in &set_up.requests {
                plans += expect_fresh(service.get_plan(request))?;
            }
            warm_up(&service)?;
            set_up.fill = (plans, set_up.requests.len() as u64);
            set_up.service = Some(Arc::new(service));
        }
        Workload::ColdDp | Workload::ColdSdp => warm_up(&service(&set_up.catalog))?,
        Workload::GovernedChurn => {
            let dir = options.work_dir().join("store");
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            // A first process life populates the store through the
            // write-behind thread; dropping the service drains it.
            {
                let first = service(&set_up.catalog)
                    .with_store(&dir)
                    .map_err(|e| format!("opening store: {e}"))?;
                warm_up(&first)?;
                first.flush_store();
            }
            // The measured service is the warm restart over it.
            let service = service(&set_up.catalog)
                .with_store(&dir)
                .map_err(|e| format!("reopening store: {e}"))?;
            set_up.service = Some(Arc::new(service));
        }
    }
    Ok(set_up)
}

/// Counters that must read the same in every pass of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassCounts {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that enumerated.
    pub misses: u64,
    /// Entries the LRU evicted for capacity.
    pub evictions: u64,
    /// Plans costed by the pass's requests.
    pub plans_costed: u64,
    /// Records the write-behind thread appended.
    pub store_writes: u64,
    /// Order-independent fold of every served plan's structural digest.
    pub digest: u64,
}

/// One timed pass.
#[derive(Debug)]
pub struct Pass {
    /// Per-request `get_plan` latency in nanoseconds, in request order.
    pub latencies: Vec<u64>,
    /// Wall time of the whole pass (epoch bump and flush included).
    pub wall: Duration,
    /// Time the client thread spent on a CPU during the pass, when the
    /// kernel reports it.
    pub on_cpu: Option<Duration>,
    /// Allocator calls and bytes requested during the pass.
    pub allocs: (u64, u64),
    /// The counters that must repeat.
    pub counts: PassCounts,
    /// Entries the epoch bump purged. Not among the counters that must
    /// repeat: the first pass purges what the warm restart filled, the
    /// later ones what the pass before them left.
    pub purged: u64,
    /// Requests that failed the correctness gate.
    pub failed: u64,
    /// Served cost per statement (NaN where never served).
    pub served_cost: Vec<f64>,
}

impl Pass {
    /// Requests per second of wall time, as this pass ran.
    pub fn throughput(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64()
    }

    /// Nearest-rank percentile of this pass alone, in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        percentile(&sorted, p) as f64 / 1e3
    }

    /// Wall time outside the requests' own latencies: the epoch bump,
    /// the store flush and the loop around `get_plan`.
    fn remainder(&self) -> Duration {
        self.wall
            .saturating_sub(Duration::from_nanos(self.latencies.iter().sum()))
    }
}

/// A run's passes folded into one pass with the host's disturbances
/// taken out.
#[derive(Debug)]
pub struct Undisturbed {
    /// Per request, the smallest latency any pass measured for it, in
    /// nanoseconds, ascending.
    pub latencies: Vec<u64>,
    /// Seconds the pass takes undisturbed: those latencies plus the
    /// smallest per-pass remainder.
    pub pass_seconds: f64,
}

impl Undisturbed {
    /// Nearest-rank percentile over requests, in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile(&self.latencies, p) as f64 / 1e3
    }

    /// Requests per second of undisturbed pass time.
    pub fn throughput(&self) -> f64 {
        self.latencies.len() as f64 / self.pass_seconds
    }
}

/// Fold identical passes request by request.
///
/// Measured on the reference host (README.md, "Noise"): over twelve
/// groups of five `warm_hit` passes the median over passes of the
/// per-pass p90 ranged 34.6–51.3 us, while the p90 over requests of
/// each request's smallest timing ranged 30.5–31.0 us — the whole
/// difference was a neighbour's, landing on other requests each pass.
///
/// # Panics
/// Panics on no passes.
pub fn undisturbed(passes: &[Pass]) -> Undisturbed {
    let mut latencies = passes[0].latencies.clone();
    for pass in &passes[1..] {
        for (best, &timed) in latencies.iter_mut().zip(&pass.latencies) {
            *best = (*best).min(timed);
        }
    }
    let remainder = passes
        .iter()
        .map(Pass::remainder)
        .min()
        .expect("at least one pass");
    let pass_seconds = (Duration::from_nanos(latencies.iter().sum()) + remainder).as_secs_f64();
    latencies.sort_unstable();
    Undisturbed {
        latencies,
        pass_seconds,
    }
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_on_cpu() -> Option<Duration> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let nanos = text.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(nanos))
}

/// Holds every distinct plan a pass served until the pass is over, so
/// the checks that walk a plan tree cost the timed loop one pointer
/// comparison per request.
struct Gate<'a> {
    set_up: &'a SetUp,
    /// Per statement: the plan last served and how often.
    held: Vec<Option<(Arc<PlanNode>, u64)>>,
    /// Plans a statement was served before its current one.
    retired: Vec<(u32, Arc<PlanNode>, u64)>,
    served_cost: Vec<f64>,
    plans_costed: u64,
    failed: u64,
}

impl<'a> Gate<'a> {
    fn new(set_up: &'a SetUp) -> Self {
        let n = set_up.inputs.statements.len();
        Gate {
            set_up,
            held: vec![None; n],
            // A statement's plan changes only when it is optimized again
            // within the pass (evicted, then missed): rare, so this
            // seldom grows while requests are timed.
            retired: Vec::with_capacity(n),
            served_cost: vec![f64::NAN; n],
            plans_costed: 0,
            failed: 0,
        }
    }

    fn observe(&mut self, statement: u32, response: ServiceResponse) {
        let expected = self.set_up.inputs.workload.expected_source();
        let source_ok = match response.source {
            PlanSource::Fresh => expected != Some(PlanSource::Cache),
            PlanSource::Cache => expected != Some(PlanSource::Fresh) && response.plans_costed == 0,
            // One client, no admission pressure: nothing to coalesce
            // with and nothing to serve stale.
            PlanSource::Coalesced | PlanSource::Stale => false,
        };
        if !source_ok {
            self.failed += 1;
        }
        self.plans_costed += response.plans_costed;
        self.served_cost[statement as usize] = response.plan.cost;
        let root = response.plan.root;
        match &mut self.held[statement as usize] {
            Some((held, served)) if Arc::ptr_eq(held, &root) => *served += 1,
            slot => {
                if let Some((old, served)) = slot.replace((root, 1)) {
                    self.retired.push((statement, old, served));
                }
            }
        }
    }

    /// Walk every distinct plan served: invariants, coverage of the
    /// statement's relations and (`cold_dp`) bit-equality with the
    /// direct-DP reference, counting the requests each failing plan
    /// answered. Returns the digest fold.
    fn check_plans(&mut self) -> u64 {
        let set_up = self.set_up;
        let mut digest = 0u64;
        let current = std::mem::take(&mut self.held)
            .into_iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|(root, served)| (i as u32, root, served)));
        for (statement, root, served) in current.chain(std::mem::take(&mut self.retired)) {
            let i = statement as usize;
            let relations = set_up.inputs.statements[i].relations;
            let mut ok = root.check_invariants().is_ok() && root.set == RelSet::first_n(relations);
            if set_up.inputs.workload == Workload::ColdDp {
                if let Some(reference) = set_up.reference.get(i) {
                    ok &= root.cost.to_bits() == reference.to_bits();
                }
            }
            if !ok {
                self.failed += served;
            }
            // The repository's commutative fold (`sdp-service replay`
            // prints the same one), once per request the plan answered.
            let plan = root.structural_digest();
            digest = (0..served).fold(digest, |acc, _| fold_digest(acc, plan));
        }
        digest
    }
}

/// Run one timed pass of `set_up`'s request stream against `service`.
pub fn run_pass(set_up: &SetUp, service: &OptimizerService) -> Pass {
    let workload = set_up.inputs.workload;
    let stream = &set_up.inputs.pass;
    let mut gate = Gate::new(set_up);
    let mut latencies = Vec::with_capacity(stream.len());
    let mut errors = 0u64;

    let counters = service.counters_snapshot();
    let store_writes = service.store_counters().snapshot().writes;
    // Reading the scheduler's figures allocates, so it stays outside
    // the allocator window.
    let on_cpu = thread_on_cpu();
    let allocs = alloc::snapshot();
    let started = Instant::now();
    if workload == Workload::GovernedChurn {
        service.bump_stats_epoch();
    }
    for &statement in stream {
        let request = &set_up.requests[statement as usize];
        let sent = Instant::now();
        let reply = service.get_plan(request);
        latencies.push(sent.elapsed().as_nanos() as u64);
        match reply {
            Ok(response) => gate.observe(statement, response),
            Err(_) => errors += 1,
        }
    }
    service.flush_store();
    let wall = started.elapsed();
    let allocs_after = alloc::snapshot();
    let on_cpu = on_cpu.and_then(|before| Some(thread_on_cpu()?.saturating_sub(before)));

    let after = service.counters_snapshot();
    let digest = gate.check_plans();
    Pass {
        latencies,
        wall,
        on_cpu,
        allocs: (
            allocs_after.calls - allocs.calls,
            allocs_after.bytes - allocs.bytes,
        ),
        counts: PassCounts {
            hits: after.hits - counters.hits,
            misses: after.misses - counters.misses,
            evictions: after.evicted - counters.evicted,
            plans_costed: gate.plans_costed,
            store_writes: service.store_counters().snapshot().writes - store_writes,
            digest,
        },
        purged: after.stale_evicted - counters.stale_evicted,
        failed: gate.failed + errors,
        served_cost: gate.served_cost,
    }
}

/// Run timed passes — each against the long-lived service or one of
/// its own — until their total is within half a pass of `seconds`, and
/// never fewer than `min_passes`.
pub fn run_passes(set_up: &SetUp, seconds: f64, min_passes: usize) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed = 0.0;
    loop {
        if passes.len() >= min_passes {
            let mean = timed / passes.len() as f64;
            if timed + mean / 2.0 >= seconds || passes.len() >= MAX_PASSES {
                return passes;
            }
        }
        let pass = match &set_up.service {
            Some(service) => run_pass(set_up, service),
            None => run_pass(set_up, &service(&set_up.catalog)),
        };
        timed += pass.wall.as_secs_f64();
        passes.push(pass);
    }
}

/// What is wrong with a run's passes beyond individual failed
/// requests: counters that differ between passes, or that contradict
/// the workload's definition.
pub fn check_passes(set_up: &SetUp, passes: &[Pass]) -> Vec<String> {
    let workload = set_up.inputs.workload;
    let mut problems = Vec::new();
    let first = passes[0].counts;
    for (k, pass) in passes.iter().enumerate() {
        if pass.counts != first {
            problems.push(format!(
                "pass {k} counters {:?} differ from pass 0 {first:?}",
                pass.counts
            ));
        }
    }
    let requests = set_up.inputs.pass.len() as u64;
    if first.hits + first.misses != requests {
        problems.push(format!(
            "{} hits + {} misses != {requests} requests",
            first.hits, first.misses
        ));
    }
    match workload {
        Workload::WarmHit if first.misses != 0 => problems.push("warm_hit missed".into()),
        Workload::ColdDp | Workload::ColdSdp if first.hits != 0 => {
            problems.push(format!("{} hit the cache", workload.name()))
        }
        _ => {}
    }
    if workload.durable() && first.store_writes != first.misses {
        problems.push(format!(
            "{} misses but {} store appends",
            first.misses, first.store_writes
        ));
    }
    problems
}

/// Geometric mean of served cost over reference cost across the
/// reference statements.
pub fn plan_cost_ratio(set_up: &SetUp, pass: &Pass) -> f64 {
    let ratios: Vec<f64> = set_up
        .reference
        .iter()
        .zip(&pass.served_cost)
        .map(|(reference, served)| served / reference)
        .collect();
    geometric_mean(&ratios)
}

/// The result of one run, untraced or traced.
#[derive(Debug)]
pub struct Report {
    /// Workload measured.
    pub workload: Workload,
    /// Every metric of the run's kind, in its `spec` table's order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Requests issued to a service under measurement.
    pub attempted: u64,
    /// Those that failed the correctness gate.
    pub failed: u64,
    /// Run-level violations (see [`check_passes`]).
    pub problems: Vec<String>,
    /// Human-readable facts behind the numbers (sample counts, the
    /// counters that repeated).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether the run passed the correctness gate.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Remove the run's private directory.
pub fn clean_up(options: &Options) {
    let _ = std::fs::remove_dir_all(options.work_dir());
}

/// One whole untraced run: [`SETUPS`] set-ups, timed passes against
/// the last, the gate, the metrics.
pub fn run(options: &Options) -> Result<Report, String> {
    let workload = options.workload;
    let mut setup_seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // The previous set-up's service goes first: two write-behind
        // threads must not share one store directory.
        drop(last.take());
        let started = Instant::now();
        let set_up = set_up(options)?;
        setup_seconds.push(started.elapsed().as_secs_f64());
        last = Some(set_up);
    }
    let set_up = last.expect("SETUPS > 0");

    alloc::reset_peak();
    let passes = run_passes(&set_up, options.seconds, MIN_PASSES);
    let peak = alloc::snapshot().peak;
    let problems = check_passes(&set_up, &passes);

    let requests: u64 = passes.iter().map(|p| p.latencies.len() as u64).sum();
    let folded = undisturbed(&passes);
    let (calls, bytes) = passes
        .iter()
        .fold((0, 0), |(c, b), p| (c + p.allocs.0, b + p.allocs.1));
    let (plans, optimized) = match passes.iter().map(|p| p.counts.misses).sum::<u64>() {
        0 => set_up.fill,
        misses => (passes.iter().map(|p| p.counts.plans_costed).sum(), misses),
    };
    let metrics = vec![
        ("setup_s", median(&setup_seconds)),
        ("latency_p50_us", folded.percentile_us(0.5)),
        ("latency_p90_us", folded.percentile_us(0.9)),
        ("throughput_rps", folded.throughput()),
        ("allocs_per_req", calls as f64 / requests as f64),
        ("alloc_bytes_per_req", bytes as f64 / requests as f64),
        ("peak_heap_mb", peak as f64 / (1u64 << 20) as f64),
        ("plans_costed_per_opt", plans as f64 / optimized as f64),
        ("plan_cost_ratio", plan_cost_ratio(&set_up, &passes[0])),
    ];

    let per_pass = set_up.inputs.pass.len();
    let counts = passes[0].counts;
    let notes = vec![
        format!(
            "{} passes x {per_pass} requests over {} statements; percentiles over {per_pass} \
             requests (each the smallest of its {} timings), {} beyond p90; passes ran at \
             {:.1}-{:.1} requests/s",
            passes.len(),
            set_up.inputs.statements.len(),
            passes.len(),
            samples_beyond(per_pass, 0.9),
            passes.iter().map(Pass::throughput).fold(f64::MAX, f64::min),
            passes.iter().map(Pass::throughput).fold(f64::MIN, f64::max),
        ),
        format!(
            "every pass: {} hits, {} misses, {} evictions, {} plans costed, {} store appends, \
             digest {:016x}",
            counts.hits,
            counts.misses,
            counts.evictions,
            counts.plans_costed,
            counts.store_writes,
            counts.digest
        ),
        format!(
            "set-ups {:?} s",
            setup_seconds
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
    ];
    drop(set_up);
    clean_up(options);
    Ok(Report {
        workload,
        metrics,
        attempted: requests,
        failed: passes.iter().map(|p| p.failed).sum(),
        problems,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(latencies: &[u64], wall_nanos: u64) -> Pass {
        Pass {
            latencies: latencies.to_vec(),
            wall: Duration::from_nanos(wall_nanos),
            on_cpu: None,
            allocs: (0, 0),
            counts: PassCounts::default(),
            purged: 0,
            failed: 0,
            served_cost: Vec::new(),
        }
    }

    #[test]
    fn a_request_keeps_its_smallest_timing_and_a_pass_its_smallest_remainder() {
        // Three requests; a neighbour hits a different one in each pass,
        // and the second pass's flush is slow.
        let passes = [
            pass(&[30, 90, 500], 630),
            pass(&[70, 40, 510], 700),
            pass(&[31, 41, 900], 985),
        ];
        assert_eq!(passes[0].percentile_us(0.5), 0.09);
        let folded = undisturbed(&passes);
        assert_eq!(folded.latencies, vec![30, 40, 500]);
        // Remainders are 10, 80 and 13 ns.
        assert_eq!(folded.pass_seconds, 580e-9);
        assert_eq!(folded.percentile_us(0.5), 0.04);
        assert_eq!(folded.percentile_us(0.9), 0.5);
        assert_eq!(folded.throughput(), 3.0 / folded.pass_seconds);
        // One pass folds to itself.
        assert_eq!(undisturbed(&passes[..1]).pass_seconds, 630e-9);
    }
}
