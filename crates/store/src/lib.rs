//! # sdp-store — durable plan store with warm restart and a DLQ
//!
//! The persistence tier under the resident optimizer service. Three
//! layers, bottom up:
//!
//! * [`log`] — CRC-framed append-only log files with torn-tail
//!   recovery, the shared durability primitive;
//! * [`codec`] — the versioned, deterministic binary codec for
//!   optimized plans ([`codec::PlanRecord`]) and failed requests
//!   ([`codec::DlqRecord`]); `decode(encode(p))` is bit-identical for
//!   costing and explain, enforced by an embedded structural digest;
//! * [`store`] / [`dlq`] — the write-behind plan segment store (epoch
//!   checked, size-triggered compaction) and the dead-letter queue of
//!   requests that exhausted the degradation ladder.
//!
//! The service layer owns policy: *what* to persist (fresh optimized
//! plans keyed like the in-memory cache), *when* (from a write-behind
//! thread off the request path), and *how* to warm-start (replaying
//! live records into the slab-LRU before serving). This crate owns
//! mechanism only, so every piece is testable against plain
//! directories without standing up a daemon.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod codec;
pub mod dlq;
pub mod log;
pub mod store;

pub use codec::{
    DlqDegradation, DlqErrorKind, DlqRecord, PlanRecord, CODEC_VERSION, MIN_CODEC_VERSION,
};
pub use dlq::DeadLetterQueue;
pub use log::{crc32, FramedLog, RecoveryStats, LOG_MAGIC, MAX_RECORD_BYTES};
pub use store::{OpenStats, PlanStore, RecordKey, StoreOptions};

/// Errors surfaced by the store.
///
/// Recovery-time data problems (torn tails, CRC failures) are *not*
/// errors — they are expected after a crash and handled by
/// truncation, reported via [`RecoveryStats`]. `StoreError` covers the
/// cases the store cannot self-heal: filesystem failures, files that
/// are not sdp-store logs at all, and payloads that frame-check but do
/// not decode.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A file exists but is not the expected kind of sdp-store log.
    Format(String),
    /// A record payload passed its CRC but failed to decode (version
    /// skew, unknown tags, digest mismatch).
    Codec(String),
    /// A record to encode holds a string or a count longer than the
    /// `u16` prefix it is written behind: refused before anything is
    /// written, never wrapped.
    TooLong {
        /// The record field.
        field: &'static str,
        /// Its length.
        len: usize,
    },
    /// A plan record stamped with a statistics epoch older than the
    /// one the store has already moved to: its cost is a lie under the
    /// current statistics, so it is refused, not persisted.
    StaleEpoch {
        /// Epoch the record was optimized under.
        record: u64,
        /// Epoch the store is at.
        store: u64,
    },
}

impl StoreError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> Self {
        StoreError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            StoreError::Format(msg) => write!(f, "log format error: {msg}"),
            StoreError::Codec(msg) => write!(f, "record codec error: {msg}"),
            StoreError::TooLong { field, len } => write!(
                f,
                "record field {field} of length {len} exceeds the codec's limit of {}",
                u16::MAX
            ),
            StoreError::StaleEpoch { record, store } => {
                write!(f, "record of stats epoch {record} refused at epoch {store}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
