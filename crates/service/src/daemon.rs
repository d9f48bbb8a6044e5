//! The multi-threaded daemon front: a worker pool draining a request
//! queue into the shared [`OptimizerService`], with overload control.
//!
//! Clients [`submit`](Daemon::submit) requests and hold a [`Ticket`]
//! — a one-shot receiver for the response — or call
//! [`execute`](Daemon::execute) to block inline. Workers are plain
//! `std::thread`s sharing one `mpsc` receiver behind a mutex: the
//! queue is the only coordination point, and the expensive part
//! (enumeration) is already deduplicated downstream by the service's
//! single-flight layer, so a fancier queue would buy nothing.
//!
//! # Overload control
//!
//! [`DaemonConfig`] bounds the daemon against bursts:
//!
//! * **Bounded admission** — with a queue capacity set, a submission
//!   that finds the queue full is answered immediately: from the
//!   stale shelf when a previous-epoch plan exists for the query
//!   ([`PlanSource::Stale`](crate::PlanSource::Stale)), else shed
//!   with [`ServiceError::Shed`]`(QueueFull)`. Nothing blocks.
//! * **Deadline-aware shedding** — queue-wait is charged against the
//!   request's deadline when a worker picks it up; if what remains is
//!   at or below the cheapest rung's floor
//!   ([`sdp_core::CHEAPEST_RUNG_FLOOR`]), the run could only time
//!   out, so the worker sheds it (stale-serve first, same as above)
//!   instead of burning the optimizer on a lost cause.
//!
//! Admission decisions are deterministic in *submission order*: the
//! queue-depth gauge is incremented at submit and released only after
//! a dequeued job passes the [`pause`](Daemon::pause) gate, so a
//! paused daemon's admit/shed sequence for a burst depends only on
//! the order of `submit` calls — not on worker count or scheduling.
//! The differential batteries lean on this to compare decision
//! sequences bit-for-bit from run to run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use sdp_core::CHEAPEST_RUNG_FLOOR;

use crate::service::{OptimizerService, ServiceError, ServiceRequest, ServiceResponse, ShedReason};

type Reply = Result<ServiceResponse, ServiceError>;
struct Job {
    /// The job's claim on the admission queue, declared first so it is
    /// released first: a job dropped unserved (in the channel when the
    /// last worker died) frees its slot before its ticket resolves.
    slot: QueueSlot,
    request: ServiceRequest,
    reply: Sender<Reply>,
    /// When the request entered the queue; queue-wait is charged
    /// against the request's deadline before the worker optimizes.
    submitted: Instant,
    /// Arrival sequence number (counts every submission, shed or
    /// admitted) — the logical clock chaos schedules key on.
    seq: u64,
}

/// One occupied slot of the admission queue: taken at submit, released
/// on drop — past the pause gate, or wherever an unserved job dies.
struct QueueSlot(Arc<OptimizerService>);

impl Drop for QueueSlot {
    fn drop(&mut self) {
        self.0.overload_counters().queue_left();
    }
}

/// Admission pressure on arrival `seq`: answer from the stale shelf
/// when possible, else shed for `reason` — the one place a shed is
/// counted and traced (keyed by arrival: nothing is parsed yet).
fn stale_or_shed(
    service: &OptimizerService,
    request: &ServiceRequest,
    seq: u64,
    reason: ShedReason,
) -> Reply {
    if let Some(response) = service.serve_stale(request) {
        return Ok(response);
    }
    let overload = service.overload_counters();
    match reason {
        ShedReason::QueueFull => overload.record_shed_queue_full(),
        ShedReason::DeadlineExpired => overload.record_shed_deadline(),
    }
    service.tracer().emit_with(|| {
        sdp_trace::Event::new("shed")
            .with("seq", seq)
            .with("reason", reason.label())
    });
    Err(ServiceError::Shed(reason))
}

/// Tuning for one [`Daemon`]: worker count plus overload-control
/// policy. [`Daemon::spawn`] uses [`DaemonConfig::new`] defaults —
/// an unbounded queue and deadline shedding at the cheapest rung's
/// floor. Under pressure the daemon always answers from the stale
/// shelf when it can, and sheds only when it cannot.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    workers: usize,
    queue_capacity: Option<usize>,
    #[cfg(feature = "testkit")]
    chaos: Option<sdp_testkit::ChaosSchedule>,
}

impl DaemonConfig {
    /// Config for `workers` threads (floored at 1) with default
    /// overload policy: no queue bound, deadline shedding at
    /// [`CHEAPEST_RUNG_FLOOR`].
    pub fn new(workers: usize) -> Self {
        DaemonConfig {
            workers: workers.max(1),
            queue_capacity: None,
            #[cfg(feature = "testkit")]
            chaos: None,
        }
    }

    /// Bound the admission queue at `capacity` jobs (floored at 1);
    /// submissions beyond it are answered immediately (stale-serve or
    /// shed) instead of queueing.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Install a deterministic chaos schedule: virtual queue-wait
    /// overrides and scripted worker kills, keyed by arrival sequence
    /// number. Test builds only.
    #[cfg(feature = "testkit")]
    pub fn with_chaos(mut self, chaos: sdp_testkit::ChaosSchedule) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// Pause gate shared by every worker.
#[derive(Debug, Default)]
struct Gate {
    paused: Mutex<bool>,
    cond: Condvar,
}

impl Gate {
    /// Block while paused.
    fn wait_until_open(&self) {
        let mut paused = self.paused.lock().expect("daemon gate poisoned");
        while *paused {
            paused = self.cond.wait(paused).expect("daemon gate poisoned");
        }
    }

    fn pause(&self) {
        *self.paused.lock().expect("daemon gate poisoned") = true;
    }

    fn resume(&self) {
        *self.paused.lock().expect("daemon gate poisoned") = false;
        self.cond.notify_all();
    }
}

/// Guarantees every dequeued job gets an answer: if the worker dies
/// (panics) between dequeue and reply, the drop handler sends
/// [`ServiceError::WorkerDied`] — an internal error — and releases
/// the in-flight gauge.
struct ReplyGuard<'a> {
    reply: Option<Sender<Reply>>,
    overload: &'a sdp_metrics::OverloadCounters,
}

impl ReplyGuard<'_> {
    fn complete(mut self, result: Reply) {
        if let Some(reply) = self.reply.take() {
            // A client that dropped its ticket just doesn't hear the
            // answer.
            let _ = reply.send(result);
        }
    }
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            let _ = reply.send(Err(ServiceError::WorkerDied));
        }
        self.overload.job_finished();
    }
}

/// A running optimizer daemon: worker threads over a shared service.
pub struct Daemon {
    service: Arc<OptimizerService>,
    queue: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    gate: Arc<Gate>,
    /// Arrival counter: every submission gets a sequence number,
    /// admitted or not.
    seq: AtomicU64,
    queue_capacity: Option<usize>,
}

/// Claim on a submitted request's eventual response.
#[derive(Debug)]
pub struct Ticket(Receiver<Reply>);

impl Ticket {
    /// Block until the daemon answers. A closed channel *without* an
    /// answer means the serving worker died mid-request and surfaces
    /// as [`ServiceError::WorkerDied`].
    pub fn wait(self) -> Reply {
        self.0.recv().unwrap_or(Err(ServiceError::WorkerDied))
    }
}

impl Daemon {
    /// Start `workers` threads (floored at 1) over the shared service
    /// with default overload policy (see [`DaemonConfig::new`]).
    pub fn spawn(service: Arc<OptimizerService>, workers: usize) -> Self {
        Daemon::with_config(service, DaemonConfig::new(workers))
    }

    /// Start a daemon with explicit overload-control tuning.
    pub fn with_config(service: Arc<OptimizerService>, config: DaemonConfig) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let gate = Arc::new(Gate::default());
        #[cfg(feature = "testkit")]
        let chaos = config.chaos.clone();
        let workers = (0..config.workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                let gate = Arc::clone(&gate);
                #[cfg(feature = "testkit")]
                let chaos = chaos.clone();
                std::thread::Builder::new()
                    .name(format!("sdp-service-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let rx = rx.lock().expect("daemon queue poisoned");
                            rx.recv()
                        };
                        let Ok(mut job) = job else {
                            return; // queue closed: daemon shut down
                        };
                        // Hold dequeued work at the pause gate *before*
                        // releasing its queue slot, so a paused
                        // daemon's admission decisions depend only on
                        // submission order (see module docs).
                        gate.wait_until_open();
                        drop(job.slot);
                        // The deadline is end-to-end: time spent
                        // queued is time the optimizer doesn't get. A
                        // chaos schedule substitutes a virtual wait so
                        // shed decisions replay deterministically.
                        #[allow(unused_mut)]
                        let mut waited = job.submitted.elapsed();
                        #[cfg(feature = "testkit")]
                        if let Some(w) = chaos.as_ref().and_then(|c| c.queue_wait(job.seq)) {
                            waited = w;
                        }
                        job.request.shrink_deadline(waited);
                        service.tracer().emit_with(|| {
                            sdp_trace::Event::new("queue_wait")
                                .with("seq", job.seq)
                                .with("wait_micros", waited.as_micros() as u64)
                        });
                        // Deadline-aware shedding: at or below the
                        // cheapest rung's floor, even GOO can't finish
                        // — answer now instead of timing out later.
                        let remaining = job.request.deadline();
                        if remaining.is_some_and(|left| left <= CHEAPEST_RUNG_FLOOR) {
                            let reason = ShedReason::DeadlineExpired;
                            let answer = stale_or_shed(&service, &job.request, job.seq, reason);
                            let _ = job.reply.send(answer);
                            continue;
                        }
                        let overload = service.overload_counters();
                        overload.job_started();
                        let guard = ReplyGuard {
                            reply: Some(job.reply),
                            overload,
                        };
                        #[cfg(feature = "testkit")]
                        if let Some(c) = &chaos {
                            if c.take_worker_kill(job.seq) {
                                panic!("injected worker kill (seq {})", job.seq);
                            }
                        }
                        guard.complete(service.get_plan(&job.request));
                    })
                    .expect("spawning daemon worker")
            })
            .collect();
        Daemon {
            service,
            queue: Some(tx),
            workers,
            gate,
            seq: AtomicU64::new(0),
            queue_capacity: config.queue_capacity,
        }
    }

    /// The shared service (for counters, statistics updates, …).
    pub fn service(&self) -> &Arc<OptimizerService> {
        &self.service
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Hold workers at the gate: dequeued jobs neither run nor
    /// release their queue slot until [`resume`](Daemon::resume).
    /// Lets tests and burst generators build a queue of known depth
    /// so admission decisions are a pure function of submission
    /// order.
    pub fn pause(&self) {
        self.gate.pause();
    }

    /// Reopen the gate; paused workers proceed.
    pub fn resume(&self) {
        self.gate.resume();
    }

    /// Enqueue a request; the returned [`Ticket`] resolves to its
    /// response. With a bounded queue, a submission that finds it
    /// full is answered immediately — from the stale shelf when
    /// possible, else [`ServiceError::Shed`]`(QueueFull)` — and the
    /// ticket resolves without ever queueing.
    pub fn submit(&self, request: ServiceRequest) -> Ticket {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let overload = self.service.overload_counters();
        let (reply, rx) = channel();
        // Bounded admission checks the depth and takes the slot in one
        // atomic step: concurrent submitters cannot overshoot the cap
        // (an unbounded queue is one whose cap is never reached).
        let cap = self.queue_capacity.map_or(u64::MAX, |cap| cap as u64);
        if !overload.try_enter_queue(cap) {
            let reason = ShedReason::QueueFull;
            let answer = stale_or_shed(&self.service, &request, seq, reason);
            let _ = reply.send(answer);
            return Ticket(rx);
        }
        let job = Job {
            slot: QueueSlot(Arc::clone(&self.service)),
            request,
            reply,
            submitted: Instant::now(),
            seq,
        };
        // A pool whose last worker died has dropped the receiver: the
        // job comes back (or, sent a moment earlier, dies with the
        // channel), and dropping it frees its slot and resolves the
        // ticket to `WorkerDied` — the client is answered, not panicked.
        let _ = self
            .queue
            .as_ref()
            .expect("daemon already shut down")
            .send(job);
        Ticket(rx)
    }

    /// Submit and block for the response.
    pub fn execute(&self, request: ServiceRequest) -> Reply {
        self.submit(request).wait()
    }

    /// Drain the queue, join every worker, and flush the durable
    /// store (if one is attached) so every served plan has reached the
    /// segment log before the process exits. Queued jobs are *served*:
    /// every outstanding [`Ticket`] resolves to a real answer. A
    /// paused daemon is resumed first. Dropping a daemon does the
    /// same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.gate.resume();
        self.queue = None; // close the channel; workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.service.flush_store();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::PlanSource;
    use sdp_catalog::Catalog;
    use sdp_query::{QueryGenerator, Topology};
    use std::time::Duration;

    #[test]
    fn daemon_serves_submissions_across_workers() {
        let catalog = Catalog::paper();
        let service = Arc::new(OptimizerService::with_defaults(catalog.clone()));
        let daemon = Daemon::spawn(service, 3);
        assert_eq!(daemon.workers(), 3);

        let gen = QueryGenerator::new(&catalog, Topology::Chain(4), 5);
        let tickets: Vec<Ticket> = (0..6)
            .map(|k| daemon.submit(ServiceRequest::query(gen.instance(k % 2))))
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(responses.len(), 6);

        // Two distinct queries → exactly two enumerations, however
        // the six requests were interleaved.
        let snap = daemon.service().counters_snapshot();
        assert_eq!(snap.enumerations, 2);
        assert_eq!(snap.requests(), 6);
        daemon.shutdown();
    }

    #[test]
    fn execute_blocks_inline_and_errors_propagate() {
        let service = Arc::new(OptimizerService::with_defaults(Catalog::paper()));
        let daemon = Daemon::spawn(service, 1);
        let ok = daemon
            .execute(ServiceRequest::sql(
                "select * from R1 a, R2 b where a.c0 = b.c1",
            ))
            .unwrap();
        assert_eq!(ok.source, PlanSource::Fresh);
        let err = daemon
            .execute(ServiceRequest::sql("select * from"))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Sql(_)), "{err}");
    }

    #[test]
    fn shutdown_joins_workers() {
        let service = Arc::new(OptimizerService::with_defaults(Catalog::paper()));
        let daemon = Daemon::spawn(service, 2);
        daemon.shutdown(); // must not hang
    }

    #[test]
    fn bounded_queue_sheds_deterministically_when_paused() {
        let catalog = Catalog::paper();
        let service = Arc::new(OptimizerService::with_defaults(catalog.clone()));
        let daemon = Daemon::with_config(
            Arc::clone(&service),
            DaemonConfig::new(1).with_queue_capacity(2),
        );
        daemon.pause();
        let gen = QueryGenerator::new(&catalog, Topology::Chain(4), 5);
        let tickets: Vec<Ticket> = (0..8)
            .map(|k| daemon.submit(ServiceRequest::query(gen.instance(k))))
            .collect();
        daemon.resume();
        let replies: Vec<Reply> = tickets.into_iter().map(Ticket::wait).collect();
        // Exactly the first `capacity` submissions were admitted; the
        // rest shed at submit, whatever the worker was doing.
        for reply in &replies[..2] {
            assert!(reply.is_ok(), "{reply:?}");
        }
        for reply in &replies[2..] {
            assert_eq!(
                reply.as_ref().unwrap_err(),
                &ServiceError::Shed(ShedReason::QueueFull)
            );
        }
        let snap = service.overload_counters().snapshot();
        assert_eq!(snap.shed_queue_full, 6);
        assert_eq!(snap.queue_depth_hwm, 2);
        assert_eq!(snap.queue_depth, 0, "drained");
        daemon.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_not_optimized() {
        let catalog = Catalog::paper();
        let service = Arc::new(OptimizerService::with_defaults(catalog.clone()));
        let daemon = Daemon::spawn(Arc::clone(&service), 1);
        let q = QueryGenerator::new(&catalog, Topology::Chain(4), 5).instance(0);
        // A zero deadline is below the cheapest rung's floor by the
        // time any worker sees it: deterministic shed.
        let err = daemon
            .execute(ServiceRequest::query(q).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, ServiceError::Shed(ShedReason::DeadlineExpired));
        let snap = service.overload_counters().snapshot();
        assert_eq!(snap.shed_deadline, 1);
        assert_eq!(
            service.governor_snapshot().timeouts,
            0,
            "the optimizer never ran"
        );
        daemon.shutdown();
    }

    #[test]
    fn graceful_shutdown_serves_queued_work() {
        let catalog = Catalog::paper();
        let service = Arc::new(OptimizerService::with_defaults(catalog.clone()));
        let daemon = Daemon::spawn(Arc::clone(&service), 1);
        daemon.pause();
        let gen = QueryGenerator::new(&catalog, Topology::Chain(4), 5);
        let tickets: Vec<Ticket> = (0..4)
            .map(|k| daemon.submit(ServiceRequest::query(gen.instance(k % 2))))
            .collect();
        daemon.shutdown(); // resumes, drains, joins
        for t in tickets {
            let reply = t.wait();
            assert!(reply.is_ok(), "{reply:?}");
        }
        assert_eq!(service.overload_counters().snapshot().queue_depth, 0);
    }
}
