//! The dead-letter queue: failed requests persisted for offline
//! replay.
//!
//! A DLQ is one kind-2 framed log (`dlq.log`) inside its directory.
//! Enqueues append; draining decodes every record, re-optimizes, and
//! calls [`DeadLetterQueue::rewrite`] with whatever still fails — the
//! rewrite goes through a temp file plus atomic rename, so a crash
//! mid-drain leaves either the old queue or the new one, never a
//! half-written file.

use std::path::{Path, PathBuf};

use crate::codec::{decode_dlq, encode_dlq, DlqRecord};
use crate::log::{FramedLog, RecoveryStats};
use crate::StoreError;

/// Log-kind tag for dead-letter queues.
pub const DLQ_LOG_KIND: u32 = 2;

/// File name of the queue inside its directory.
pub const DLQ_FILE: &str = "dlq.log";

/// An open dead-letter queue.
#[derive(Debug)]
pub struct DeadLetterQueue {
    dir: PathBuf,
    log: FramedLog,
    records: Vec<DlqRecord>,
}

impl DeadLetterQueue {
    /// Open (creating if needed) the queue under `dir`. Returns the
    /// queue, per-file recovery stats, and the count of records that
    /// frame-checked but failed to decode (skipped).
    pub fn open(dir: &Path) -> Result<(Self, RecoveryStats, u64), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        let path = dir.join(DLQ_FILE);
        let (log, payloads, recovery) = FramedLog::open(&path, DLQ_LOG_KIND)?;
        let mut records = Vec::with_capacity(payloads.len());
        let mut undecodable = 0u64;
        for payload in payloads {
            match decode_dlq(&payload) {
                Ok(record) => records.push(record),
                Err(StoreError::Codec(_)) => undecodable += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((
            DeadLetterQueue {
                dir: dir.to_path_buf(),
                log,
                records,
            },
            recovery,
            undecodable,
        ))
    }

    /// Records currently in the queue, oldest first.
    pub fn records(&self) -> &[DlqRecord] {
        &self.records
    }

    /// Queue depth.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append one failed request.
    pub fn enqueue(&mut self, record: DlqRecord) -> Result<(), StoreError> {
        self.log.append(&encode_dlq(&record)?)?;
        self.records.push(record);
        Ok(())
    }

    /// Replace the queue's contents with `remaining` (the records that
    /// failed again during a drain). Atomic: written to a temp file
    /// and renamed over the live queue.
    pub fn rewrite(&mut self, remaining: Vec<DlqRecord>) -> Result<(), StoreError> {
        let tmp = self.dir.join("dlq.log.tmp");
        let _ = std::fs::remove_file(&tmp);
        {
            let (mut log, _, _) = FramedLog::open(&tmp, DLQ_LOG_KIND)?;
            for record in &remaining {
                log.append(&encode_dlq(record)?)?;
            }
        }
        let live = self.dir.join(DLQ_FILE);
        std::fs::rename(&tmp, &live).map_err(|e| StoreError::io(&live, e))?;
        let (log, _, _) = FramedLog::open(&live, DLQ_LOG_KIND)?;
        self.log = log;
        self.records = remaining;
        Ok(())
    }

    /// The directory this queue lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use sdp_catalog::{ColId, RelId};
    use sdp_query::{ColRef, JoinEdge, JoinGraph, Query};

    use crate::codec::DlqErrorKind;

    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdp-store-dlq-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(fingerprint: u128) -> DlqRecord {
        let graph = JoinGraph::new(
            vec![RelId(0), RelId(1)],
            vec![JoinEdge::new(
                ColRef::new(0, ColId(0)),
                ColRef::new(1, ColId(0)),
            )],
        );
        DlqRecord {
            fingerprint,
            stats_epoch: 1,
            algorithm: None,
            error_kind: DlqErrorKind::Timeout,
            error: "deadline expired at GOO".to_string(),
            degradations: vec![],
            deadline_ms: Some(1),
            memory_bytes: None,
            sql: "SELECT ...".to_string(),
            query: Query::new(graph),
        }
    }

    #[test]
    fn enqueue_survives_reopen_and_rewrite_drains() {
        let dir = temp_dir("roundtrip");
        {
            let (mut dlq, _, _) = DeadLetterQueue::open(&dir).unwrap();
            dlq.enqueue(sample(1)).unwrap();
            dlq.enqueue(sample(2)).unwrap();
            assert_eq!(dlq.len(), 2);
        }
        let (mut dlq, recovery, undecodable) = DeadLetterQueue::open(&dir).unwrap();
        assert_eq!(dlq.len(), 2);
        assert_eq!(recovery.records, 2);
        assert_eq!(undecodable, 0);
        assert_eq!(dlq.records()[0].fingerprint, 1);

        // Drain: record 2 "failed again", record 1 succeeded.
        let keep: Vec<_> = dlq
            .records()
            .iter()
            .filter(|r| r.fingerprint == 2)
            .cloned()
            .collect();
        dlq.rewrite(keep).unwrap();
        assert_eq!(dlq.len(), 1);

        let (dlq, _, _) = DeadLetterQueue::open(&dir).unwrap();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq.records()[0].fingerprint, 2);
    }

    #[test]
    fn rewrite_to_empty_leaves_an_empty_queue() {
        let dir = temp_dir("empty");
        let (mut dlq, _, _) = DeadLetterQueue::open(&dir).unwrap();
        dlq.enqueue(sample(9)).unwrap();
        dlq.rewrite(Vec::new()).unwrap();
        assert!(dlq.is_empty());
        drop(dlq);
        let (dlq, _, _) = DeadLetterQueue::open(&dir).unwrap();
        assert!(dlq.is_empty());
    }
}
