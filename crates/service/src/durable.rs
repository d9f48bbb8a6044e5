//! Durability glue between the request path and `sdp-store`: the
//! write-behind thread that drains fresh plans into the segment log.
//!
//! The request path never does storage I/O. A fresh plan is cloned
//! into a [`PlanRecord`] and sent down an unbounded channel; one
//! writer thread owns the [`PlanStore`] and applies appends, rotation
//! and compaction in arrival order. Losing a write to a crash is
//! acceptable by design (the store is a cache, the source of truth is
//! re-optimization); blocking an optimization on `fsync` is not.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use sdp_metrics::StoreCounters;
use sdp_store::{PlanRecord, PlanStore, StoreError};

pub(crate) enum StoreMsg {
    Write(Box<PlanRecord>),
    /// Barrier: acked once every message enqueued before it has been
    /// applied to the log.
    Flush(Sender<()>),
}

/// Handle to the write-behind thread. Dropping it closes the channel,
/// drains the queue, and joins the thread — daemon shutdown is a
/// clean flush by construction.
pub(crate) struct StoreHandle {
    tx: Option<Sender<StoreMsg>>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle").finish_non_exhaustive()
    }
}

impl StoreHandle {
    pub(crate) fn spawn(mut store: PlanStore, counters: Arc<StoreCounters>) -> Self {
        let (tx, rx) = channel::<StoreMsg>();
        let thread = std::thread::Builder::new()
            .name("sdp-store-writer".to_string())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        StoreMsg::Write(record) => match store.append(&record) {
                            // A record that straddled an epoch bump is
                            // refused and counted by the store itself.
                            Ok(()) | Err(StoreError::StaleEpoch { .. }) => {}
                            // The durable tier is best-effort; the
                            // plan stays served from memory.
                            Err(_) => counters.record_write_error(),
                        },
                        StoreMsg::Flush(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
            })
            .expect("spawning store writer");
        StoreHandle {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    pub(crate) fn write(&self, record: PlanRecord) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(StoreMsg::Write(Box::new(record)));
        }
    }

    /// Block until every previously enqueued write has hit the log.
    pub(crate) fn flush(&self) {
        if let Some(tx) = &self.tx {
            let (ack, done) = channel();
            if tx.send(StoreMsg::Flush(ack)).is_ok() {
                let _ = done.recv();
            }
        }
    }
}

impl Drop for StoreHandle {
    fn drop(&mut self) {
        self.tx.take(); // close the channel; the writer drains and exits
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
