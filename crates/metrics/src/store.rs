//! Durable-store observability: counters for the write-behind plan
//! store, epoch-checked warm restart, and the dead-letter queue.
//!
//! Same discipline as [`crate::service`]: relaxed atomics bumped off
//! the request hot path (store writes happen on the write-behind
//! thread, DLQ writes on a failure path that just lost an entire
//! enumeration, warm fills at startup). `dlq_depth` is a gauge —
//! recovery sets it to the live record count and each enqueue raises
//! it.

use std::sync::atomic::Ordering;

use crate::table::metric_family;

metric_family! {
    /// Monotonic counters (plus the `dlq_depth` gauge) for one durable
    /// plan store.
    live StoreCounters;
    /// Point-in-time copy of [`StoreCounters`].
    snapshot StoreSnapshot;
    writes: counter "sdp_store_writes_total" "Plan records appended to the durable store." => record_write;
    write_errors: counter "sdp_store_write_errors_total" "Durable-store appends that failed with an I/O error." => record_write_error;
    warm_fills: counter "sdp_store_warm_fills_total" "Recovered records that pre-populated the cache at startup." => record_warm_fill;
    warm_hits: counter "sdp_store_warm_hits_total" "Cache hits served by entries from the persistent tier." => record_warm_hit;
    stale_dropped: counter "sdp_store_stale_dropped_total" "Recovered records dropped for a stale statistics epoch." => record_stale_dropped;
    epoch_adoptions: counter "sdp_store_epoch_adoptions_total" "Times the open store adopted a newer statistics epoch." => record_epoch_adopted;
    stale_rejected: counter "sdp_store_stale_rejected_total" "Appends refused for an epoch older than the store's." => record_stale_rejected;
    torn_truncations: counter "sdp_store_torn_truncations_total" "Torn segment tails truncated during recovery." => record_torn_truncation;
    compactions: counter "sdp_store_compactions_total" "Segment compactions run." => record_compaction;
    dlq_enqueued: counter "sdp_dlq_enqueued_total" "Failed requests serialized into the dead-letter queue.";
    dlq_depth: gauge "sdp_dlq_depth" "Dead-letter records currently live.";
}

impl StoreCounters {
    /// A failed request was serialized into the dead-letter queue.
    pub fn record_dlq_enqueued(&self) {
        self.dlq_enqueued.fetch_add(1, Ordering::Relaxed);
        self.dlq_depth.fetch_add(1, Ordering::Relaxed);
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
    fn an_enqueue_raises_the_dlq_depth() {
        let c = StoreCounters::new();
        c.record_dlq_enqueued();
        c.record_dlq_enqueued();
        assert_eq!(c.dlq_depth(), 2);
        let snap = c.snapshot();
        assert_eq!(snap.dlq_enqueued, 2);
        assert_eq!(snap.dlq_depth, 2);
    }

    #[test]
    fn set_depth_overrides_the_gauge() {
        let c = StoreCounters::new();
        c.set_dlq_depth(7);
        assert_eq!(c.dlq_depth(), 7);
    }
}
