//! Durable-store observability: counters for the write-behind plan
//! store, epoch-checked warm restart, and the dead-letter queue.
//!
//! Same discipline as [`crate::service`]: relaxed atomics bumped off
//! the request hot path (store writes happen on the write-behind
//! thread, DLQ writes on a failure path that just lost an entire
//! enumeration, warm fills at startup). `dlq_depth` is a gauge — it
//! moves both ways as records are enqueued and drained.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters (plus the `dlq_depth` gauge) for one durable
/// plan store.
#[derive(Debug, Default)]
pub struct StoreCounters {
    writes: AtomicU64,
    write_errors: AtomicU64,
    warm_fills: AtomicU64,
    warm_hits: AtomicU64,
    stale_dropped: AtomicU64,
    epoch_adoptions: AtomicU64,
    stale_rejected: AtomicU64,
    torn_truncations: AtomicU64,
    compactions: AtomicU64,
    dlq_enqueued: AtomicU64,
    dlq_drained: AtomicU64,
    dlq_depth: AtomicU64,
}

impl StoreCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        StoreCounters::default()
    }

    /// A plan record was appended to the segment log.
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// A segment append failed (I/O error); the plan stays cached in
    /// memory but is lost to the persistent tier.
    pub fn record_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A recovered record pre-populated the in-memory cache at
    /// startup.
    pub fn record_warm_fill(&self) {
        self.warm_fills.fetch_add(1, Ordering::Relaxed);
    }

    /// A request hit a cache entry that came from the persistent tier
    /// rather than an enumeration in this process lifetime.
    pub fn record_warm_hit(&self) {
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A recovered record was dropped because its statistics epoch no
    /// longer matches the catalog.
    pub fn record_stale_dropped(&self) {
        self.stale_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// The open store moved to a newer statistics epoch (the catalog
    /// was bumped under it), retiring its previous live generation.
    pub fn record_epoch_adopted(&self) {
        self.epoch_adoptions.fetch_add(1, Ordering::Relaxed);
    }

    /// An append was refused because the record's statistics epoch is
    /// older than the one the store has already adopted.
    pub fn record_stale_rejected(&self) {
        self.stale_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A torn tail (partial or corrupt trailing record) was truncated
    /// during recovery.
    pub fn record_torn_truncation(&self) {
        self.torn_truncations.fetch_add(1, Ordering::Relaxed);
    }

    /// A segment compaction ran (live records rewritten, old segments
    /// deleted).
    pub fn record_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// A failed request was serialized into the dead-letter queue.
    pub fn record_dlq_enqueued(&self) {
        self.dlq_enqueued.fetch_add(1, Ordering::Relaxed);
        self.dlq_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` dead-letter records were drained (re-optimized and
    /// removed).
    pub fn add_dlq_drained(&self, n: u64) {
        self.dlq_drained.fetch_add(n, Ordering::Relaxed);
        let mut depth = self.dlq_depth.load(Ordering::Relaxed);
        loop {
            let next = depth.saturating_sub(n);
            match self.dlq_depth.compare_exchange_weak(
                depth,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => depth = observed,
            }
        }
    }

    /// Set the `dlq_depth` gauge outright (recovery knows the exact
    /// number of live records).
    pub fn set_dlq_depth(&self, depth: u64) {
        self.dlq_depth.store(depth, Ordering::Relaxed);
    }

    /// Current dead-letter queue depth.
    pub fn dlq_depth(&self) -> u64 {
        self.dlq_depth.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot of all counters (each counter is
    /// read atomically; the set is not a single atomic transaction).
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            warm_fills: self.warm_fills.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            stale_dropped: self.stale_dropped.load(Ordering::Relaxed),
            epoch_adoptions: self.epoch_adoptions.load(Ordering::Relaxed),
            stale_rejected: self.stale_rejected.load(Ordering::Relaxed),
            torn_truncations: self.torn_truncations.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            dlq_enqueued: self.dlq_enqueued.load(Ordering::Relaxed),
            dlq_drained: self.dlq_drained.load(Ordering::Relaxed),
            dlq_depth: self.dlq_depth.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`StoreCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Plan records appended to the segment log.
    pub writes: u64,
    /// Segment appends that failed with an I/O error.
    pub write_errors: u64,
    /// Recovered records that pre-populated the cache at startup.
    pub warm_fills: u64,
    /// Cache hits served by entries from the persistent tier.
    pub warm_hits: u64,
    /// Recovered records dropped for a stale statistics epoch.
    pub stale_dropped: u64,
    /// Times the open store adopted a newer statistics epoch.
    pub epoch_adoptions: u64,
    /// Appends refused for an epoch older than the store's.
    pub stale_rejected: u64,
    /// Torn tails truncated during recovery.
    pub torn_truncations: u64,
    /// Segment compactions run.
    pub compactions: u64,
    /// Requests serialized into the dead-letter queue.
    pub dlq_enqueued: u64,
    /// Dead-letter records drained.
    pub dlq_drained: u64,
    /// Dead-letter records currently live (gauge).
    pub dlq_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = StoreCounters::new();
        c.record_write();
        c.record_write();
        c.record_warm_fill();
        c.record_warm_hit();
        c.record_stale_dropped();
        c.record_epoch_adopted();
        c.record_stale_rejected();
        c.record_torn_truncation();
        c.record_compaction();
        let snap = c.snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.warm_fills, 1);
        assert_eq!(snap.warm_hits, 1);
        assert_eq!(snap.stale_dropped, 1);
        assert_eq!(snap.epoch_adoptions, 1);
        assert_eq!(snap.stale_rejected, 1);
        assert_eq!(snap.torn_truncations, 1);
        assert_eq!(snap.compactions, 1);
    }

    #[test]
    fn dlq_depth_moves_both_ways_and_saturates() {
        let c = StoreCounters::new();
        c.record_dlq_enqueued();
        c.record_dlq_enqueued();
        assert_eq!(c.dlq_depth(), 2);
        c.add_dlq_drained(1);
        assert_eq!(c.dlq_depth(), 1);
        c.add_dlq_drained(5);
        assert_eq!(c.dlq_depth(), 0, "depth saturates at zero");
        let snap = c.snapshot();
        assert_eq!(snap.dlq_enqueued, 2);
        assert_eq!(snap.dlq_drained, 6);
    }

    #[test]
    fn set_depth_overrides_the_gauge() {
        let c = StoreCounters::new();
        c.set_dlq_depth(7);
        assert_eq!(c.dlq_depth(), 7);
    }
}
