//! The request lifecycle's trace, byte for byte.
//!
//! One scripted single-client scenario through [`Daemon`] and a
//! [`MemorySink`] visits every outcome the request path reports — hit,
//! fresh, epoch purge → shelf → `served_stale`, both `shed` reasons,
//! breaker trip → reject → probe → close, leader retry and exhausted
//! retry, ladder exhaustion → DLQ, a governed descent, store write —
//! and its canonical dump, closed by the four counter snapshots, is
//! compared with `tests/golden/lifecycle.trace`, captured before the
//! service's emission sites were folded into one `observe` seam.
//! Event names, field order, values, emission sequence and counter
//! totals are all part of the contract (the flight recorder and
//! `inspect` parse the events).
//!
//! Every arrival's queue wait comes from the chaos schedule, so no
//! wall clock reaches a canonical field. The one event the script
//! cannot reach is `cache_stale`: it needs a request in flight across
//! an epoch bump.

#![cfg(feature = "testkit")]

use std::sync::Arc;
use std::time::Duration;

use sdp_catalog::Catalog;
use sdp_core::Algorithm;
use sdp_query::{Query, QueryGenerator, Topology};
use sdp_service::{
    Daemon, DaemonConfig, OptimizerService, PlanSource, ServiceConfig, ServiceError,
    ServiceRequest, ShedReason,
};
use sdp_testkit::{ChaosSchedule, FaultPlan};
use sdp_trace::{canonical_dump, MemorySink, Tracer};

const ARRIVALS: u64 = 14;
/// Arrivals charged a two-minute virtual wait against a one-minute
/// deadline: shed (or stale-served) at dequeue.
const STARVED: [u64; 2] = [2, 3];

fn lifecycle_trace() -> String {
    let dir = std::env::temp_dir().join(format!("sdp-lifecycle-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let catalog = Catalog::paper();
    let gen = QueryGenerator::new(&catalog, Topology::Chain(3), 29);
    let q: Vec<Query> = (0..5).map(|k| gen.instance(k)).collect();
    let plain = |i: usize| ServiceRequest::query(q[i].clone());
    let minute = Duration::from_secs(60);

    let sink = Arc::new(MemorySink::unbounded());
    let service = Arc::new(
        OptimizerService::new(
            catalog.clone(),
            ServiceConfig {
                cache_capacity: 8,
                cache_shards: 1,
                breaker_threshold: 2,
                breaker_probe_every: 2,
                ..ServiceConfig::default()
            },
        )
        .with_tracer(Tracer::new(Arc::clone(&sink) as _))
        .with_store(&dir.join("store"))
        .unwrap()
        .with_dlq(&dir.join("dlq"))
        .unwrap(),
    );
    let mut chaos = ChaosSchedule::new();
    for seq in 0..ARRIVALS {
        let wait = if STARVED.contains(&seq) {
            Duration::from_secs(120)
        } else {
            Duration::from_micros(seq + 1)
        };
        chaos = chaos.with_queue_wait(seq, wait);
    }
    let daemon = Daemon::with_config(
        Arc::clone(&service),
        DaemonConfig::new(1)
            .with_queue_capacity(1)
            .with_chaos(chaos),
    );

    // 0–1: fresh (with its store write), then a hit.
    assert_eq!(daemon.execute(plain(0)).unwrap().source, PlanSource::Fresh);
    assert_eq!(daemon.execute(plain(0)).unwrap().source, PlanSource::Cache);

    // The bump purges q0 onto the stale shelf.
    service.bump_stats_epoch();
    // 2–3: starved at dequeue — the shelved query is served stale,
    // the unknown one is shed.
    let stale = daemon.execute(plain(0).with_deadline(minute)).unwrap();
    assert_eq!(stale.source, PlanSource::Stale);
    assert_eq!(
        daemon.execute(plain(1).with_deadline(minute)).unwrap_err(),
        ServiceError::Shed(ShedReason::DeadlineExpired)
    );
    // 4–6: a full queue at submit — same split, decided on the client
    // thread while the worker is held at the gate.
    daemon.pause();
    let fill = daemon.submit(plain(1));
    assert_eq!(
        daemon.submit(plain(0)).wait().unwrap().source,
        PlanSource::Stale
    );
    assert_eq!(
        daemon.submit(plain(2)).wait().unwrap_err(),
        ServiceError::Shed(ShedReason::QueueFull)
    );
    daemon.resume();
    assert_eq!(fill.wait().unwrap().source, PlanSource::Fresh);

    // 7–10: a zero memory budget exhausts the ladder into the DLQ;
    // the second failure opens the breaker, the next arrival is
    // rejected, the one after probes and closes it.
    let poison = || plain(2).with_algorithm(Algorithm::Dp).with_memory_budget(0);
    for _ in 0..2 {
        let err = daemon.execute(poison()).unwrap_err();
        assert!(matches!(err, ServiceError::Opt(_)), "{err}");
    }
    assert_eq!(
        daemon.execute(plain(2)).unwrap_err(),
        ServiceError::BreakerOpen { failures: 2 }
    );
    assert_eq!(daemon.execute(plain(2)).unwrap().source, PlanSource::Fresh);

    // 11: a panicking DP leader is retried once, one rung cheaper.
    let retried = daemon
        .execute(
            plain(3)
                .with_algorithm(Algorithm::Dp)
                .with_fault_plan(FaultPlan::new().panic_leader_on("DP")),
        )
        .unwrap();
    assert_eq!(retried.plan.strategy, "SDP");
    // 12: a second panic exhausts the retry.
    let err = daemon
        .execute(
            plain(4).with_algorithm(Algorithm::Dp).with_fault_plan(
                FaultPlan::new()
                    .panic_leader_on("DP")
                    .panic_leader_on("SDP"),
            ),
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::LeaderPanicked(_)), "{err}");
    // 13: a budget that trips at DP's second barrier descends one
    // rung; the request carries a deadline and meets it.
    let degraded = daemon
        .execute(
            plain(4)
                .with_algorithm(Algorithm::Dp)
                .with_deadline(minute)
                .with_fault_plan(FaultPlan::new().shrink_memory_at(2, 0)),
        )
        .unwrap();
    assert_eq!(degraded.plan.degradations, 1);

    // Shutdown flushes the write-behind store, so its counters are
    // settled; the four families close the dump.
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    format!(
        "{}{:?}\n{:?}\n{:?}\n{:?}\n",
        canonical_dump(&sink.snapshot()),
        service.counters_snapshot(),
        service.governor_snapshot(),
        service.overload_counters().snapshot(),
        service.store_counters().snapshot(),
    )
}

#[test]
fn lifecycle_trace_matches_the_golden() {
    let actual = lifecycle_trace();
    let golden = include_str!("golden/lifecycle.trace");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "line {} differs from the golden", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "event count differs from the golden"
    );
}
