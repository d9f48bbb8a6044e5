//! Service-side observability: cache/coalescing counters and
//! per-rung latency histograms for the resident optimizer daemon.
//!
//! Everything here is `Send + Sync` and lock-light — counters are
//! relaxed atomics bumped on every request, latencies a mutex-guarded
//! map touched only on cache misses (an actual enumeration ran, so the
//! lock is noise against its cost).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use crate::table::metric_family;

metric_family! {
    /// Monotonic counters for one service instance.
    live ServiceCounters;
    /// Point-in-time copy of [`ServiceCounters`].
    snapshot CountersSnapshot;
    hits: counter "sdp_cache_hits_total" "Requests served from the plan cache." => record_hit;
    misses: counter "sdp_cache_misses_total" "Requests that led an enumeration." => record_miss;
    coalesced: counter "sdp_coalesced_total" "Requests coalesced onto an in-flight enumeration." => record_coalesced;
    evicted: counter "sdp_cache_evicted_total" "Cache entries evicted by LRU capacity pressure.";
    stale_evicted: counter "sdp_cache_stale_evicted_total" "Cache entries invalidated by statistics-epoch changes.";
    enumerations: counter "sdp_enumerations_total" "Optimizer enumerations actually run.";
    plans_costed: counter "sdp_plans_costed_total" "Plan alternatives costed across all enumerations.";
}

impl ServiceCounters {
    /// `n` entries were evicted by LRU capacity pressure.
    pub fn add_evicted(&self, n: u64) {
        self.evicted.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` entries were invalidated by a statistics-epoch change.
    pub fn add_stale_evicted(&self, n: u64) {
        self.stale_evicted.fetch_add(n, Ordering::Relaxed);
    }

    /// An actual optimizer enumeration ran, costing `plans` plan
    /// alternatives.
    pub fn record_enumeration(&self, plans: u64) {
        self.enumerations.fetch_add(1, Ordering::Relaxed);
        self.plans_costed.fetch_add(plans, Ordering::Relaxed);
    }
}

impl CountersSnapshot {
    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// Fraction of requests that avoided running an enumeration
    /// themselves (hits + coalesced); 0 when no requests were seen.
    pub fn amortized_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }
}

metric_family! {
    /// Monotonic counters for the resource governor's degradation
    /// ladder: how often requests descended, why, and how the daemon's
    /// leader retry policy behaved.
    live GovernorCounters;
    /// Point-in-time copy of [`GovernorCounters`].
    snapshot GovernorSnapshot;
    degradations: counter "sdp_degradations_total" "Governor ladder descents taken.";
    deadline_degradations: counter "sdp_degradations_deadline_total" "Descents caused by an expired deadline slice.";
    memory_degradations: counter "sdp_degradations_memory_total" "Descents caused by the memory budget.";
    predicted_descents: counter "sdp_degradations_predicted_total" "Memory descents past a rung the feasibility oracle proved infeasible, so it was never run." => record_predicted_descent;
    timeouts: counter "sdp_timeouts_total" "Requests that failed outright on a deadline error." => record_timeout;
    leader_retries: counter "sdp_leader_retries_total" "Panicking single-flight leaders retried on a cheaper rung." => record_leader_retry;
}

/// Why a governed run left a rung — the breakdown
/// [`GovernorCounters::record_descent`] counts by. Mirrors
/// `sdp_core::DegradeReason` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescentReason {
    /// The rung's deadline slice expired.
    Deadline,
    /// The memory budget tripped, or the feasibility oracle proved it
    /// would.
    Memory,
}

impl GovernorCounters {
    /// One ladder descent: the total, its reason's breakdown counter
    /// and — when the feasibility oracle `predicted` it, so the rung
    /// was never run — `predicted_descents` *beside* them, not instead.
    pub fn record_descent(&self, reason: DescentReason, predicted: bool) {
        self.degradations.fetch_add(1, Ordering::Relaxed);
        let by_reason = match reason {
            DescentReason::Deadline => &self.deadline_degradations,
            DescentReason::Memory => &self.memory_degradations,
        };
        by_reason.fetch_add(1, Ordering::Relaxed);
        if predicted {
            self.record_predicted_descent();
        }
    }
}

metric_family! {
    /// Monotonic counters and gauges for the daemon's overload-control
    /// layer: bounded-admission sheds, stale serves, the
    /// per-fingerprint circuit breaker, and queue-depth / in-flight
    /// occupancy (current value plus high-water mark).
    ///
    /// The gauges are updated through paired enter/leave methods so the
    /// high-water marks are exact regardless of interleaving: the mark
    /// is folded in with `fetch_max` at every increment.
    live OverloadCounters;
    /// Point-in-time copy of [`OverloadCounters`].
    snapshot OverloadSnapshot;
    shed_queue_full: counter "sdp_shed_queue_full_total" "Requests rejected at submit because the admission queue was full." => record_shed_queue_full;
    shed_deadline: counter "sdp_shed_deadline_total" "Dequeued requests dropped for an already-expired deadline." => record_shed_deadline;
    served_stale: counter "sdp_served_stale_total" "Requests answered with an epoch-stale plan under admission pressure." => record_served_stale;
    breaker_trips: counter "sdp_breaker_trips_total" "Per-fingerprint circuit breakers opened." => record_breaker_trip;
    breaker_rejections: counter "sdp_breaker_rejections_total" "Arrivals rejected fast by an open circuit breaker." => record_breaker_rejection;
    breaker_probes: counter "sdp_breaker_probes_total" "Arrivals admitted through an open breaker as half-open probes." => record_breaker_probe;
    breaker_recoveries: counter "sdp_breaker_recoveries_total" "Half-open probes that succeeded and closed their breaker." => record_breaker_recovery;
    queue_depth: gauge "sdp_queue_depth" "Requests currently waiting in the admission queue.";
    queue_depth_hwm: gauge "sdp_queue_depth_high_water" "High-water admission-queue depth.";
    inflight: gauge "sdp_inflight" "Requests currently being optimized by workers.";
    inflight_hwm: gauge "sdp_inflight_high_water" "High-water in-flight request count.";
}

impl OverloadCounters {
    /// Bounded admission in one step: enter the queue unless it
    /// already holds `cap` requests. The depth check and the increment
    /// are one `fetch_update`, so concurrent submitters can never
    /// overshoot `cap`; the high-water mark moves on success only.
    pub fn try_enter_queue(&self, cap: u64) -> bool {
        let entered =
            self.queue_depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                    (depth < cap).then_some(depth + 1)
                });
        if let Ok(before) = entered {
            self.queue_depth_hwm
                .fetch_max(before + 1, Ordering::Relaxed);
        }
        entered.is_ok()
    }

    /// A request left the admission queue (dequeued past the gate, or
    /// answered at submit).
    pub fn queue_left(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// A worker started optimizing a request.
    pub fn job_started(&self) {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_hwm.fetch_max(now, Ordering::Relaxed);
    }

    /// A worker finished (successfully or not) a request it started.
    pub fn job_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl OverloadSnapshot {
    /// Total requests shed (either at submit or at dequeue).
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline
    }
}

pub use crate::histogram::{LatencyHistogram, HISTOGRAM_BUCKETS};

/// Per-rung latency histograms: each fresh enumeration's wall-clock
/// time, keyed by the label of what produced the plan after any
/// governed descent — the rung (`"DP"`, `"SDP"`, `"IDP(4)"`, `"GOO"`),
/// or the pinned configuration a request asked for and got (`"IDP(7)"`).
#[derive(Debug, Default)]
pub struct RungLatencies {
    inner: Mutex<BTreeMap<String, LatencyHistogram>>,
}

impl RungLatencies {
    /// Fresh empty table.
    pub fn new() -> Self {
        RungLatencies::default()
    }

    /// Record one governed enumeration's wall-clock time under the
    /// label of what produced its plan; only a label the table has not
    /// seen yet allocates its key.
    pub fn record(&self, rung: &str, sample: Duration) {
        let mut inner = self.inner.lock().expect("rung latency table poisoned");
        match inner.get_mut(rung) {
            Some(histogram) => histogram.record(sample),
            None => inner.entry(rung.to_owned()).or_default().record(sample),
        }
    }

    /// Copy of the table, ordered by rung label.
    pub fn snapshot(&self) -> BTreeMap<String, LatencyHistogram> {
        self.inner
            .lock()
            .expect("rung latency table poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ServiceCounters::new();
        c.record_miss();
        c.record_enumeration(120);
        c.record_hit();
        c.record_hit();
        c.record_coalesced();
        c.add_evicted(3);
        c.add_stale_evicted(2);
        let s = c.snapshot();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.evicted, 3);
        assert_eq!(s.stale_evicted, 2);
        assert_eq!(s.enumerations, 1);
        assert_eq!(s.plans_costed, 120);
        assert_eq!(s.requests(), 4);
        assert!((s.amortized_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_has_zero_rate() {
        let s = ServiceCounters::new().snapshot();
        assert_eq!(s.requests(), 0);
        assert_eq!(s.amortized_rate(), 0.0);
    }

    #[test]
    fn means_survive_counts_past_u32() {
        // `Duration` divides by `u32` only: a count cast down to it
        // divides by zero at exactly 2³² and by the wrong number past
        // it.
        for count in [1u64 << 32, (1 << 32) + 1] {
            let total = Duration::from_micros(3 * count);
            let h = LatencyHistogram {
                count,
                total,
                ..LatencyHistogram::default()
            };
            assert_eq!(h.mean(), Duration::from_micros(3));
        }
    }

    #[test]
    fn latency_table_is_keyed_by_label() {
        let t = RungLatencies::new();
        t.record("SDP", Duration::from_millis(5));
        t.record("SDP", Duration::from_millis(7));
        t.record("DP", Duration::from_millis(50));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["SDP"].count, 2);
        assert_eq!(snap["DP"].count, 1);
    }

    #[test]
    fn governor_counters_break_down_by_reason() {
        let g = GovernorCounters::new();
        g.record_descent(DescentReason::Deadline, false);
        g.record_descent(DescentReason::Deadline, false);
        g.record_descent(DescentReason::Memory, false);
        g.record_descent(DescentReason::Memory, true);
        g.record_timeout();
        g.record_leader_retry();
        let s = g.snapshot();
        assert_eq!(s.degradations, 4);
        assert_eq!(s.deadline_degradations, 2);
        assert_eq!(s.memory_degradations, 2);
        assert_eq!(s.predicted_descents, 1, "beside its descent, not a fifth");
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.leader_retries, 1);
    }

    #[test]
    fn histogram_buckets_are_log2_microseconds() {
        assert_eq!(LatencyHistogram::bucket_for(Duration::ZERO), 0);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(1)), 0);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(2)), 1);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(3)), 1);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(4)), 2);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_millis(1)), 9);
        assert_eq!(
            LatencyHistogram::bucket_for(Duration::from_secs(1 << 40)),
            HISTOGRAM_BUCKETS - 1,
            "outliers clamp into the last bucket"
        );
        assert_eq!(
            LatencyHistogram::bucket_upper_bound(9),
            Duration::from_micros(1023)
        );
    }

    #[test]
    fn histogram_records_and_reports_nonzero_buckets() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(1));
        assert_eq!(h.count, 3);
        assert_eq!(h.max, Duration::from_millis(1));
        let nz = h.nonzero_buckets();
        assert_eq!(nz.len(), 2);
        assert_eq!(nz[0], (Duration::from_micros(3), 2));
        assert_eq!(nz[1].1, 1);
        assert!(h.mean() > Duration::from_micros(300));
    }

    #[test]
    fn histogram_bucket_edges_split_powers_of_two() {
        // 2^i µs is the first sample of bucket i; 2^i − 1 µs is the
        // last sample of bucket i−1 — exactly the upper-bound value.
        for i in 1..20 {
            let edge = 1u64 << i;
            assert_eq!(
                LatencyHistogram::bucket_for(Duration::from_micros(edge)),
                i,
                "2^{i} µs opens bucket {i}"
            );
            assert_eq!(
                LatencyHistogram::bucket_for(Duration::from_micros(edge - 1)),
                i - 1,
                "2^{i} − 1 µs closes bucket {}",
                i - 1
            );
            assert_eq!(
                LatencyHistogram::bucket_upper_bound(i - 1),
                Duration::from_micros(edge - 1)
            );
        }
    }

    #[test]
    fn histogram_quantiles_walk_the_distribution() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), Duration::ZERO, "empty histogram");
        // 90 fast samples in bucket 3 (8–15 µs), 9 in bucket 9
        // (512–1023 µs), 1 slow outlier in bucket 13 (8192–16383 µs).
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..9 {
            h.record(Duration::from_micros(600));
        }
        h.record(Duration::from_micros(9000));
        assert_eq!(h.p50(), LatencyHistogram::bucket_upper_bound(3));
        assert_eq!(h.p95(), LatencyHistogram::bucket_upper_bound(9));
        assert_eq!(h.p99(), LatencyHistogram::bucket_upper_bound(9));
        // p100 clamps to the observed max, not the bucket's upper edge.
        assert_eq!(h.quantile(1.0), Duration::from_micros(9000));
    }

    #[test]
    fn histogram_quantile_clamps_to_observed_max() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(8200));
        // The single sample sits in bucket 13 (upper bound 16383 µs);
        // the estimate must not exceed what was actually observed.
        assert_eq!(h.p50(), Duration::from_micros(8200));
    }

    #[test]
    fn histogram_merge_is_bucketwise_sum() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for _ in 0..50 {
            a.record(Duration::from_micros(10));
        }
        for _ in 0..50 {
            b.record(Duration::from_micros(600));
        }
        b.record(Duration::from_micros(9000));

        // Reference: one histogram fed every sample directly.
        let mut whole = LatencyHistogram::default();
        for _ in 0..50 {
            whole.record(Duration::from_micros(10));
        }
        for _ in 0..50 {
            whole.record(Duration::from_micros(600));
        }
        whole.record(Duration::from_micros(9000));

        a.merge(&b);
        assert_eq!(a, whole, "merge must equal recording the union");
        assert_eq!(a.count, 101);
        assert_eq!(a.max, Duration::from_micros(9000));
        assert_eq!(a.p50(), LatencyHistogram::bucket_upper_bound(9));
    }

    #[test]
    fn rung_table_is_keyed_by_label() {
        let t = RungLatencies::new();
        t.record("GOO", Duration::from_micros(80));
        t.record("GOO", Duration::from_micros(90));
        t.record("SDP", Duration::from_millis(4));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["GOO"].count, 2);
        assert_eq!(snap["SDP"].count, 1);
    }

    #[test]
    fn overload_counters_track_decisions_and_high_water_gauges() {
        let o = OverloadCounters::new();
        assert!(o.try_enter_queue(8));
        assert!(o.try_enter_queue(8));
        o.queue_left();
        assert_eq!(o.queue_depth(), 1);
        assert!(o.try_enter_queue(8));
        assert_eq!(o.queue_depth(), 2, "depth refills below the mark");
        o.queue_left();
        o.queue_left();
        o.job_started();
        o.job_started();
        o.job_finished();
        o.record_shed_queue_full();
        o.record_shed_queue_full();
        o.record_shed_deadline();
        o.record_served_stale();
        o.record_breaker_trip();
        o.record_breaker_rejection();
        o.record_breaker_probe();
        o.record_breaker_recovery();
        let s = o.snapshot();
        assert_eq!(s.shed_queue_full, 2);
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.sheds(), 3);
        assert_eq!(s.served_stale, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_rejections, 1);
        assert_eq!(s.breaker_probes, 1);
        assert_eq!(s.breaker_recoveries, 1);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.queue_depth_hwm, 2, "high-water survives the drain");
        assert_eq!(s.inflight, 1);
        assert_eq!(s.inflight_hwm, 2);
    }

    #[test]
    fn bounded_entry_never_overshoots_the_cap() {
        let o = OverloadCounters::new();
        assert!(o.try_enter_queue(2));
        assert!(o.try_enter_queue(2));
        assert!(!o.try_enter_queue(2), "full at the cap");
        assert!(!o.try_enter_queue(0), "a zero cap admits nothing");
        o.queue_left();
        assert!(o.try_enter_queue(2), "a freed slot is reusable");
        let s = o.snapshot();
        assert_eq!((s.queue_depth, s.queue_depth_hwm), (2, 2));
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let c = std::sync::Arc::new(ServiceCounters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record_hit();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().hits, 4000);
    }
}
