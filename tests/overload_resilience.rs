//! Overload-resilience battery: bounded admission, deadline-aware
//! shedding, stale-serve degraded mode, and the poison-query circuit
//! breaker — end-to-end through the daemon, plus a differential
//! proptest asserting the whole admit/shed/stale/breaker decision
//! sequence is bit-identical from run to run.
//!
//! Every overload decision in the service is *counted*, never
//! wall-clock: admission reads the queue-depth gauge (released only
//! past the pause gate), queue-wait can be overridden by a chaos
//! schedule keyed on arrival sequence numbers, and the breaker's
//! half-open probe admits every Nth arrival. That discipline is what
//! makes these tests exact (`== 6`, not `>= 1`) and what the final
//! proptest checks differentially.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sdp::prelude::*;
use sdp_testkit::ChaosSchedule;

fn small_service(catalog: &Catalog) -> Arc<OptimizerService> {
    Arc::new(OptimizerService::new(
        catalog.clone(),
        ServiceConfig {
            cache_capacity: 64,
            cache_shards: 2,
            ..ServiceConfig::default()
        },
    ))
}

fn star_queries(catalog: &Catalog, distinct: u64, seed: u64) -> Vec<Query> {
    let gen = QueryGenerator::new(catalog, Topology::Star(7), seed);
    (0..distinct).map(|k| gen.instance(k)).collect()
}

/// Acceptance: a burst of 4·C requests over a queue bounded at C all
/// resolve — exactly C admitted, 3·C shed at submit — and the split
/// is identical at 1 worker and 4 because admission reads the gauge,
/// not worker progress.
#[test]
fn burst_of_four_times_capacity_resolves_every_ticket() {
    let catalog = Catalog::paper();
    let cap = 4usize;
    for workers in [1usize, 4] {
        let service = small_service(&catalog);
        let daemon = Daemon::with_config(
            Arc::clone(&service),
            DaemonConfig::new(workers).with_queue_capacity(cap),
        );
        let queries = star_queries(&catalog, 4, 11);
        daemon.pause();
        let tickets: Vec<_> = (0..4 * cap)
            .map(|i| daemon.submit(ServiceRequest::query(queries[i % queries.len()].clone())))
            .collect();
        daemon.resume();

        let mut admitted = 0usize;
        let mut shed = 0usize;
        for (i, t) in tickets.into_iter().enumerate() {
            match t.wait() {
                Ok(_) => admitted += 1,
                Err(ServiceError::Shed(ShedReason::QueueFull)) => shed += 1,
                Err(e) => panic!("request {i} got unexpected error: {e}"),
            }
        }
        assert_eq!(admitted, cap, "workers={workers}");
        assert_eq!(shed, 3 * cap, "workers={workers}");
        let snap = service.overload_counters().snapshot();
        assert_eq!(snap.shed_queue_full, (3 * cap) as u64);
        assert_eq!(snap.queue_depth_hwm, cap as u64);
        assert_eq!(snap.queue_depth, 0, "gauge fully released");
        daemon.shutdown();
    }
}

/// Acceptance: an admitted request never reaches the optimizer with
/// its deadline already spent on queueing. A chaos schedule charges a
/// virtual two-minute wait against one arrival; that request is shed
/// before the governor ever starts, its neighbours run normally.
#[test]
fn queue_wait_is_charged_against_the_deadline() {
    let catalog = Catalog::paper();
    let service = small_service(&catalog);
    let chaos = ChaosSchedule::new().with_queue_wait(1, Duration::from_secs(120));
    let daemon = Daemon::with_config(Arc::clone(&service), DaemonConfig::new(1).with_chaos(chaos));
    let queries = star_queries(&catalog, 3, 23);

    let deadline = Duration::from_secs(60);
    let ok_before =
        daemon.execute(ServiceRequest::query(queries[0].clone()).with_deadline(deadline));
    let starved = daemon.execute(ServiceRequest::query(queries[1].clone()).with_deadline(deadline));
    let ok_after =
        daemon.execute(ServiceRequest::query(queries[2].clone()).with_deadline(deadline));

    assert!(ok_before.is_ok(), "{ok_before:?}");
    assert_eq!(
        starved.unwrap_err(),
        ServiceError::Shed(ShedReason::DeadlineExpired)
    );
    assert!(ok_after.is_ok(), "{ok_after:?}");

    let snap = service.overload_counters().snapshot();
    assert_eq!(snap.shed_deadline, 1);
    assert_eq!(
        service.governor_snapshot().timeouts,
        0,
        "the shed request never reached the governor"
    );
    daemon.shutdown();
}

/// Acceptance: a poison fingerprint (zero memory budget exhausts the
/// whole degradation ladder) trips its breaker after exactly K
/// consecutive failures, open-breaker arrivals fail fast into the
/// DLQ, and the counted half-open probe recovers it. The DLQ carries
/// both record kinds.
#[test]
fn poison_fingerprint_trips_breaker_and_recovers_through_daemon() {
    let dir = std::env::temp_dir().join(format!("sdp-overload-dlq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let catalog = Catalog::paper();
    let queries = star_queries(&catalog, 1, 31);
    {
        let service = Arc::new(
            OptimizerService::new(catalog.clone(), ServiceConfig::default())
                .with_dlq(&dir)
                .unwrap(),
        );
        // Defaults: threshold 3, probe every 4th open-breaker arrival.
        let daemon = Daemon::spawn(Arc::clone(&service), 1);
        let poison = || {
            ServiceRequest::query(queries[0].clone())
                .with_algorithm(Algorithm::Dp)
                .with_memory_budget(0)
        };

        // K-1 failures leave the breaker closed…
        for _ in 0..2 {
            let err = daemon.execute(poison()).unwrap_err();
            assert!(matches!(err, ServiceError::Opt(_)), "{err}");
        }
        assert_eq!(service.overload_counters().snapshot().breaker_trips, 0);
        // …the Kth opens it.
        let err = daemon.execute(poison()).unwrap_err();
        assert!(matches!(err, ServiceError::Opt(_)), "{err}");
        assert_eq!(service.overload_counters().snapshot().breaker_trips, 1);

        // Open breaker: even healthy requests on the fingerprint fail
        // fast — no optimizer work, straight to the DLQ.
        for _ in 0..3 {
            let err = daemon
                .execute(ServiceRequest::query(queries[0].clone()))
                .unwrap_err();
            assert_eq!(err, ServiceError::BreakerOpen { failures: 3 });
        }

        // The 4th open-breaker arrival is the counted half-open probe;
        // it is healthy, so it closes the breaker.
        let probe = daemon
            .execute(ServiceRequest::query(queries[0].clone()))
            .unwrap();
        assert_eq!(probe.source, PlanSource::Fresh);
        let snap = service.overload_counters().snapshot();
        assert_eq!(snap.breaker_probes, 1);
        assert_eq!(snap.breaker_recoveries, 1);
        assert_eq!(snap.breaker_rejections, 3);

        // Recovered: subsequent arrivals hit the cache like nothing
        // happened.
        let after = daemon
            .execute(ServiceRequest::query(queries[0].clone()))
            .unwrap();
        assert_eq!(after.source, PlanSource::Cache);
        assert_eq!(service.dlq_depth(), 6);
        daemon.shutdown();
    }

    // The DLQ captured both failure classes, durably.
    let (dlq, _, _) = sdp_store::DeadLetterQueue::open(&dir).unwrap();
    let kinds: Vec<_> = dlq.records().iter().map(|r| r.error_kind).collect();
    let memory = kinds
        .iter()
        .filter(|k| **k == sdp_store::DlqErrorKind::Memory)
        .count();
    let rejected = kinds
        .iter()
        .filter(|k| **k == sdp_store::DlqErrorKind::BreakerOpen)
        .count();
    assert_eq!((memory, rejected), (3, 3), "kinds: {kinds:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degraded mode: after a statistics-epoch bump evicts a plan onto
/// the stale shelf, a submission that finds the queue full is served
/// that previous-epoch plan immediately — tagged `Stale`, resolving
/// even while the daemon is paused — instead of being shed.
#[test]
fn epoch_evicted_plans_serve_stale_under_admission_pressure() {
    let catalog = Catalog::paper();
    let service = small_service(&catalog);
    let daemon = Daemon::with_config(
        Arc::clone(&service),
        DaemonConfig::new(1).with_queue_capacity(1),
    );
    let queries = star_queries(&catalog, 2, 47);

    let fresh = daemon
        .execute(ServiceRequest::query(queries[0].clone()))
        .unwrap();
    assert_eq!(fresh.source, PlanSource::Fresh);

    // The bump evicts the cached plan onto the stale shelf.
    service.bump_stats_epoch();

    daemon.pause();
    let fill = daemon.submit(ServiceRequest::query(queries[1].clone()));
    let pressured = daemon.submit(ServiceRequest::query(queries[0].clone()));
    // The stale answer arrives while workers are still paused: the
    // shelf hit happens at submit, queueing nothing.
    let stale = pressured.wait().unwrap();
    assert_eq!(stale.source, PlanSource::Stale);
    assert_eq!(stale.plans_costed, 0, "no enumeration for a shelf hit");
    daemon.resume();
    assert!(fill.wait().is_ok());

    let snap = service.overload_counters().snapshot();
    assert_eq!(snap.served_stale, 1);
    assert_eq!(snap.shed_queue_full, 0, "pressure was absorbed, not shed");
    daemon.shutdown();
}

/// Satellite: shutdown serves every queued ticket — queued work is
/// optimized before workers exit — so no ticket hangs. (The name dates
/// from when enumeration could fan out over threads, and is kept.)
#[test]
fn shutdown_resolves_every_queued_ticket_at_both_thread_counts() {
    let catalog = Catalog::paper();
    let queries = star_queries(&catalog, 4, 5);

    let service = small_service(&catalog);
    let daemon = Daemon::spawn(Arc::clone(&service), 2);
    daemon.pause();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| daemon.submit(ServiceRequest::query(q.clone())))
        .collect();
    daemon.shutdown();
    for t in tickets {
        let reply = t.wait();
        assert!(reply.is_ok(), "{reply:?}");
    }
    assert_eq!(service.overload_counters().snapshot().queue_depth, 0);
}

/// Satellite: a worker that dies mid-request surfaces as the internal
/// `WorkerDied` error, and the remaining workers keep serving.
#[test]
fn killed_worker_surfaces_internal_error_not_shutdown() {
    let catalog = Catalog::paper();
    let service = small_service(&catalog);
    let chaos = ChaosSchedule::new().with_worker_kill(0);
    let daemon = Daemon::with_config(Arc::clone(&service), DaemonConfig::new(2).with_chaos(chaos));
    let queries = star_queries(&catalog, 2, 17);

    let killed = daemon.execute(ServiceRequest::query(queries[0].clone()));
    assert_eq!(killed.unwrap_err(), ServiceError::WorkerDied);
    // The pool is degraded but alive.
    let survivor = daemon.execute(ServiceRequest::query(queries[1].clone()));
    assert!(survivor.is_ok(), "{survivor:?}");
    daemon.shutdown();
    // The dying worker's guard released its in-flight slot on the way
    // down; after the join the gauge must balance.
    assert_eq!(service.overload_counters().snapshot().inflight, 0);

    // A pool of one: once its only worker is dead, nobody is left to
    // dequeue. Later submissions must be answered `WorkerDied` — not
    // panic the submitting client — and must not hold a queue slot.
    let service = small_service(&catalog);
    let chaos = ChaosSchedule::new().with_worker_kill(0);
    let daemon = Daemon::with_config(Arc::clone(&service), DaemonConfig::new(1).with_chaos(chaos));
    for query in queries.iter().chain(&queries) {
        let reply = daemon.execute(ServiceRequest::query(query.clone()));
        assert_eq!(reply.unwrap_err(), ServiceError::WorkerDied);
    }
    daemon.shutdown();
    let snap = service.overload_counters().snapshot();
    assert_eq!((snap.queue_depth, snap.inflight), (0, 0));
}

/// Satellite: bounded admission is one atomic step. Submitters
/// released together by a barrier against a paused daemon can never
/// push the queue past its capacity, and every submission is either
/// admitted or shed.
#[test]
fn concurrent_submitters_never_overshoot_the_queue_capacity() {
    const CAP: usize = 2;
    const SUBMITTERS: usize = 4;
    const ROUNDS: usize = 1500;
    let catalog = Catalog::paper();
    let service = small_service(&catalog);
    let daemon = Daemon::with_config(
        Arc::clone(&service),
        DaemonConfig::new(1).with_queue_capacity(CAP),
    );
    let query = star_queries(&catalog, 1, 3).remove(0);
    let barrier = std::sync::Barrier::new(SUBMITTERS);
    let (mut admitted, mut shed) = (0usize, 0usize);
    for _ in 0..ROUNDS {
        daemon.pause();
        let tickets: Vec<_> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        daemon.submit(ServiceRequest::query(query.clone()))
                    })
                })
                .collect();
            submitters.into_iter().map(|s| s.join().unwrap()).collect()
        });
        daemon.resume();
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => admitted += 1,
                Err(ServiceError::Shed(ShedReason::QueueFull)) => shed += 1,
                Err(e) => panic!("unexpected reply: {e}"),
            }
        }
    }
    daemon.shutdown();
    let snap = service.overload_counters().snapshot();
    assert!(
        snap.queue_depth_hwm <= CAP as u64,
        "queue reached {} past its capacity {CAP}",
        snap.queue_depth_hwm
    );
    assert_eq!(admitted + shed, ROUNDS * SUBMITTERS);
    assert_eq!(shed as u64, snap.shed_queue_full);
    assert_eq!(
        admitted,
        ROUNDS * CAP,
        "every round fills the queue exactly"
    );
    assert_eq!(snap.queue_depth, 0);
}

// ---------------------------------------------------------------
// Differential battery: decision-sequence determinism.
// ---------------------------------------------------------------

/// What one scenario request is.
#[derive(Debug, Clone, Copy)]
enum ReqKind {
    /// Selector-routed optimization, no deadline.
    Plain,
    /// Pinned DP with a zero memory budget: exhausts every rung —
    /// the breaker's food.
    Poison,
    /// Generous deadline, real (tiny) queue wait: always runs.
    Deadline,
    /// Generous deadline but a chaos-charged two-minute queue wait:
    /// always shed (or stale-served) at dequeue.
    Starved,
}

fn req_kind(byte: u8) -> ReqKind {
    match byte % 10 {
        0 | 1 => ReqKind::Poison,
        2 | 3 => ReqKind::Starved,
        4 => ReqKind::Deadline,
        _ => ReqKind::Plain,
    }
}

/// Replay one scenario — paused bursts over a capacity-2 queue, one
/// worker — and record one decision tag per ticket, in submission
/// order. Everything that can influence a tag is counted, so two runs
/// of the same scenario must produce the same string however long
/// their enumerations take.
fn decision_sequence(scenario: &[(bool, Vec<(usize, u8)>)]) -> String {
    let catalog = Catalog::paper();
    let queries = star_queries(&catalog, 3, 71);

    // Chaos queue waits key on global arrival numbers, which count
    // every submission — admitted or shed — in order.
    let mut chaos = ChaosSchedule::new();
    let mut seq = 0u64;
    for (_, burst) in scenario {
        for &(_, kind) in burst {
            if matches!(req_kind(kind), ReqKind::Starved) {
                chaos = chaos.with_queue_wait(seq, Duration::from_secs(120));
            }
            seq += 1;
        }
    }

    let service = small_service(&catalog);
    let daemon = Daemon::with_config(
        Arc::clone(&service),
        DaemonConfig::new(1)
            .with_queue_capacity(2)
            .with_chaos(chaos),
    );

    let mut tags = String::new();
    for (bump, burst) in scenario {
        if *bump {
            service.bump_stats_epoch();
        }
        daemon.pause();
        let tickets: Vec<_> = burst
            .iter()
            .map(|&(pick, kind)| {
                let mut req = ServiceRequest::query(queries[pick % queries.len()].clone());
                match req_kind(kind) {
                    ReqKind::Plain => {}
                    ReqKind::Poison => {
                        req = req.with_algorithm(Algorithm::Dp).with_memory_budget(0);
                    }
                    ReqKind::Deadline | ReqKind::Starved => {
                        req = req.with_deadline(Duration::from_secs(60));
                    }
                }
                daemon.submit(req)
            })
            .collect();
        daemon.resume();
        for t in tickets {
            tags.push(match t.wait() {
                Ok(r) => match r.source {
                    PlanSource::Fresh => 'F',
                    PlanSource::Cache | PlanSource::Coalesced => 'C',
                    PlanSource::Stale => 'S',
                },
                Err(ServiceError::Shed(ShedReason::QueueFull)) => 'Q',
                Err(ServiceError::Shed(ShedReason::DeadlineExpired)) => 'D',
                Err(ServiceError::BreakerOpen { .. }) => 'B',
                Err(ServiceError::Opt(_)) => 'M',
                Err(e) => panic!("unexpected reply: {e}"),
            });
        }
        // Waiting on every ticket drains the queue, so the next
        // burst starts from a deterministic empty daemon.
    }
    daemon.shutdown();
    tags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite: under a fixed chaos schedule, the full
    /// admit/shed/stale-serve/breaker decision sequence is
    /// bit-identical from run to run. Overload policy may not depend on
    /// how fast plans are found. (The name dates from when the two runs
    /// used different enumeration thread counts, and is kept.)
    #[test]
    fn overload_decisions_are_deterministic_across_threads(
        scenario in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0usize..3, any::<u8>()), 2..=8)),
            1..=3,
        ),
    ) {
        prop_assert_eq!(
            decision_sequence(&scenario),
            decision_sequence(&scenario),
            "decision sequence diverged between two runs"
        );
    }
}
