#![cfg(feature = "testkit")]
//! Crash, warm restart and dead-letter drain of the durable plan
//! store, end to end and counted exactly.
//!
//! The stream is the one `sdp-service replay --clients 1 --workers 1`
//! issues (seed 42, Star-Chain-7, alternating SQL-text and
//! programmatic requests). One client against one worker makes every
//! count a function of the stream alone: which plans reach the store
//! before the crash, which requests hit them after it, and what each
//! enumeration costs. So every assertion below is `==`.
//!
//! The crash is real: the test binary re-executes itself, filtered to
//! [`crash_child`], against a store armed to abort the process at its
//! third write, and the restarts then recover whatever that abort left
//! on disk. The dead-letter legs drive the `sdp-service` binary itself,
//! since `replay --dlq` is the operator's drain.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use sdp_catalog::Catalog;
use sdp_core::Algorithm;
use sdp_metrics::{CountersSnapshot, StoreSnapshot};
use sdp_obs::fold_digest;
use sdp_query::canon::stable_hash;
use sdp_query::{QueryGenerator, Topology};
use sdp_service::{Daemon, OptimizerService, ServiceConfig, ServiceError, ServiceRequest};
use sdp_testkit::FaultPlan;

/// Names the store directory to the re-executed child; without it
/// [`crash_child`] does nothing.
const CHILD_STORE: &str = "SDP_RESTART_CHILD_STORE";

/// A directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sdp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn arg(&self) -> &str {
        self.0.to_str().expect("temp dir is UTF-8")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one pass of the stream left behind.
#[derive(Debug)]
struct Pass {
    counters: CountersSnapshot,
    store: StoreSnapshot,
    /// `sdp_obs::fold_digest` over every served plan's structural
    /// digest: the binary's `plan digest:` line.
    digest: u64,
}

/// `requests` requests over `distinct` Star-Chain-7 queries through a
/// one-worker daemon whose service warm-starts from (and persists to)
/// the store and dead-letter queue under `dir`, issued from one client
/// exactly as `replay` issues them. `faults` arms the store's crash
/// point before it opens.
fn pass(
    dir: &Path,
    distinct: u64,
    requests: u64,
    ordered: bool,
    faults: Option<FaultPlan>,
) -> Pass {
    const SEED: u64 = 42;
    let catalog = Catalog::paper();
    let generator = QueryGenerator::new(&catalog, Topology::star_chain(7), SEED);
    let queries: Vec<_> = (0..distinct)
        .map(|k| {
            if ordered {
                generator.ordered_instance(k)
            } else {
                generator.instance(k)
            }
        })
        .collect();
    let sql: Vec<_> = queries
        .iter()
        .map(|q| sdp_sql::render_sql(&catalog, q))
        .collect();

    let mut service = OptimizerService::new(catalog, ServiceConfig::default());
    if let Some(faults) = faults {
        service = service.with_store_faults(faults);
    }
    let service = Arc::new(
        service
            .with_store(dir)
            .and_then(|s| s.with_dlq(dir))
            .expect("open store"),
    );
    let daemon = Daemon::spawn(Arc::clone(&service), 1);
    let mut digest = 0;
    for i in 0..requests {
        let pick = stable_hash(SEED ^ 0x72_65_70, &[i]) as usize % queries.len();
        let request = if i % 2 == 0 {
            ServiceRequest::sql(sql[pick].clone())
        } else {
            ServiceRequest::query(queries[pick].clone())
        };
        let response = daemon.execute(request).expect("request served");
        digest = fold_digest(digest, response.plan.root.structural_digest());
    }
    daemon.shutdown();
    service.flush_store();
    Pass {
        counters: service.counters_snapshot(),
        store: service.store_counters().snapshot(),
        digest,
    }
}

/// The half of [`a_crashed_store_warm_starts_two_restarts_exactly`]
/// that runs in a child process: the stream against a store that
/// aborts the process at its third write. A no-op in the parent test
/// run.
#[test]
fn crash_child() {
    let Some(dir) = std::env::var_os(CHILD_STORE) else {
        return;
    };
    let faults = FaultPlan::new().crash_after_store_writes(3);
    pass(Path::new(&dir), 6, 64, false, Some(faults));
    panic!("the stream outlived its crash point");
}

#[test]
fn a_crashed_store_warm_starts_two_restarts_exactly() {
    let store = Scratch::new("restart-store");
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["crash_child", "--exact", "--test-threads=1"])
        .env(CHILD_STORE, store.path())
        .output()
        .expect("re-execute the test binary");
    // Killed by the abort's signal, not a panic's exit 101.
    assert_eq!(child.status.code(), None, "{}", transcript(&child));

    // First restart: the three plans written before the crash fill the
    // cache; the other three are optimized again.
    let first = pass(store.path(), 6, 64, false, None);
    assert_eq!(
        first.counters,
        CountersSnapshot {
            hits: 61,
            misses: 3,
            coalesced: 0,
            enumerations: 3,
            plans_costed: 2489,
            ..CountersSnapshot::default()
        }
    );
    assert_eq!(
        first.store,
        StoreSnapshot {
            writes: 3,
            warm_fills: 3,
            warm_hits: 32,
            ..StoreSnapshot::default()
        }
    );
    assert_eq!(first.digest, 0x67b2_86ae_d3a7_422b);

    // Second restart: all six plans come from the store, bit for bit.
    let second = pass(store.path(), 6, 64, false, None);
    assert_eq!(
        second.counters,
        CountersSnapshot {
            hits: 64,
            ..CountersSnapshot::default()
        }
    );
    assert_eq!(
        second.store,
        StoreSnapshot {
            warm_fills: 6,
            warm_hits: 64,
            ..StoreSnapshot::default()
        }
    );
    assert_eq!(second.digest, first.digest);
}

#[test]
fn ordered_plans_warm_start_exactly() {
    let store = Scratch::new("restart-ordered");
    let cold = pass(store.path(), 4, 32, true, None);
    assert_eq!(
        cold.counters,
        CountersSnapshot {
            hits: 28,
            misses: 4,
            enumerations: 4,
            plans_costed: 4249,
            ..CountersSnapshot::default()
        }
    );
    assert_eq!(
        cold.store,
        StoreSnapshot {
            writes: 4,
            ..StoreSnapshot::default()
        }
    );
    assert_eq!(cold.digest, 0x1a21_ba76_1e71_a4ff);

    let warm = pass(store.path(), 4, 32, true, None);
    assert_eq!(
        warm.counters,
        CountersSnapshot {
            hits: 32,
            ..CountersSnapshot::default()
        }
    );
    assert_eq!(
        warm.store,
        StoreSnapshot {
            warm_fills: 4,
            warm_hits: 32,
            ..StoreSnapshot::default()
        }
    );
    assert_eq!(warm.digest, cold.digest);
}

/// Run the `sdp-service` binary this package builds.
fn sdp_service(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdp-service"))
        .args(args)
        .output()
        .expect("spawn sdp-service")
}

fn transcript(output: &Output) -> String {
    format!(
        "status {}\n--- stdout\n{}--- stderr\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    )
}

/// Drain `dir`'s dead-letter queue through `replay --dlq`, then reopen
/// it: the drain must succeed and leave nothing behind. Returns the
/// drain's stdout.
fn drain_to_zero(dir: &Scratch) -> String {
    let drain = sdp_service(&["replay", "--relations", "7", "--dlq", dir.arg()]);
    assert!(drain.status.success(), "{}", transcript(&drain));
    let again = sdp_service(&["replay", "--relations", "7", "--dlq", dir.arg()]);
    assert!(again.status.success(), "{}", transcript(&again));
    let again = String::from_utf8_lossy(&again.stdout);
    assert!(
        again.starts_with("dlq: 0 records recovered"),
        "drained queue reopened non-empty:\n{again}"
    );
    String::from_utf8_lossy(&drain.stdout).into_owned()
}

fn breaker_open_letters(stdout: &str) -> usize {
    stdout
        .lines()
        .filter(|l| l.ends_with("(was: circuit breaker open (3 consecutive failures))"))
        .count()
}

#[test]
fn ladder_exhaustion_dead_letters_drain_to_zero() {
    let dir = Scratch::new("drain-exhausted");
    // A zero budget fails every rung. Each of the two fingerprints
    // exhausts the ladder three times, which opens its breaker, and its
    // next arrival fails fast: 6 memory and 2 breaker-open letters.
    let exhausted = sdp_service(&[
        "replay",
        "--requests",
        "8",
        "--distinct",
        "2",
        "--relations",
        "7",
        "--clients",
        "1",
        "--memory-mb",
        "0",
        "--store-dir",
        dir.arg(),
    ]);
    assert_eq!(
        exhausted.status.code(),
        Some(1),
        "{}",
        transcript(&exhausted)
    );
    let stdout = String::from_utf8_lossy(&exhausted.stdout);
    assert!(
        stdout.contains("\ndlq: 8 enqueued this run, depth 8\n"),
        "{}",
        transcript(&exhausted)
    );

    let drained = drain_to_zero(&dir);
    assert!(drained.starts_with("dlq: 8 records recovered"), "{drained}");
    assert_eq!(breaker_open_letters(&drained), 2, "{drained}");
    assert!(drained.ends_with("dlq: drained 8, 0 remain\n"), "{drained}");
}

/// The letters a tripped breaker leaves drain like any other: three
/// ladder exhaustions open the breaker on one fingerprint, three
/// arrivals fail fast while it is open, and the fourth is the probe
/// that closes it.
#[test]
fn breaker_open_dead_letters_drain_to_zero() {
    let dir = Scratch::new("drain-breaker");
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(7), 31).instance(0);
    {
        let service = Arc::new(
            OptimizerService::new(catalog, ServiceConfig::default())
                .with_dlq(dir.path())
                .unwrap(),
        );
        let daemon = Daemon::spawn(Arc::clone(&service), 1);
        for _ in 0..3 {
            let poison = ServiceRequest::query(query.clone())
                .with_algorithm(Algorithm::Dp)
                .with_memory_budget(0);
            assert!(matches!(daemon.execute(poison), Err(ServiceError::Opt(_))));
        }
        for _ in 0..3 {
            let err = daemon
                .execute(ServiceRequest::query(query.clone()))
                .unwrap_err();
            assert_eq!(err, ServiceError::BreakerOpen { failures: 3 });
        }
        assert!(daemon.execute(ServiceRequest::query(query.clone())).is_ok());
        assert_eq!(service.dlq_depth(), 6);
        assert_eq!(service.store_counters().snapshot().dlq_enqueued, 6);
        daemon.shutdown();
    }

    let drained = drain_to_zero(&dir);
    assert!(drained.starts_with("dlq: 6 records recovered"), "{drained}");
    assert_eq!(breaker_open_letters(&drained), 3, "{drained}");
    assert!(drained.ends_with("dlq: drained 6, 0 remain\n"), "{drained}");
}
