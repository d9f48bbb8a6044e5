//! The flight recorder: a bounded ring of per-request decision
//! records, fed by the service's trace events and persisted
//! write-through into a CRC-framed `sdp-store` log.
//!
//! A [`FlightRecorder`] is a [`TraceSink`]: hang it off the service's
//! tee and it projects the decision-bearing events (`request`,
//! `served_stale`, `shed`, breaker transitions, …) into
//! [`FlightRecord`]s — fingerprint, rung, degradation
//! count, cache outcome, plan structural digest, deadline attainment —
//! while everything wall-clock (queue-wait microseconds) is quarantined
//! in a non-canonical field, exactly like [`Event::wall_micros`].
//!
//! Determinism contract: the *canonical* surface — sorted
//! [`FlightRecord::canonical`] lines and the commutative
//! [`multiset_digest`] — is bit-identical from run to run of the same
//! workload, because record contents come from the
//! deterministic optimizer (plans, rungs, digests, counters) and the
//! canonical ordering is content-based rather than arrival-based.
//! Arrival order is still kept (the `seq` counter) for timeline
//! reading, it just carries no weight in comparisons.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use sdp_store::codec::{Reader, Writer};
use sdp_store::{FramedLog, RecoveryStats, StoreError};
use sdp_trace::{Event, TraceSink};

/// Log-kind tag for flight-recorder logs (plan segments are 1, the
/// DLQ is 2).
pub const FLIGHT_LOG_KIND: u32 = 3;

/// File name of the flight log inside its directory.
pub const FLIGHT_FILE: &str = "flight.log";

/// Flight-record codec version.
const FLIGHT_VERSION: u8 = 1;

/// Default ring capacity: the last N decisions a post-mortem can
/// reconstruct.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Event names the recorder projects into flight records. Everything
/// else (optimizer-internal `level` events and the like) passes
/// through untouched — the recorder is about *decisions*, not search.
pub const FLIGHT_EVENTS: &[&str] = &[
    "request",
    "served_stale",
    "cache_stale",
    "shed",
    "queue_wait",
    "breaker_open",
    "breaker_close",
    "breaker_probe",
    "breaker_reject",
    "dlq_enqueue",
    "request_error",
    "leader_retry",
    "warm_start",
    "store_write",
];

/// Field keys holding wall-clock measurements. Their values are
/// captured into [`FlightRecord::wait_micros`] instead of the
/// canonical tag list, so timing noise can never perturb the
/// deterministic surface.
const NON_CANONICAL_KEYS: &[&str] = &["wait_micros"];

/// The commutative digest fold shared with `sdp-service replay`:
/// order-independent by construction, so per-record digests can be
/// folded in arrival order on any thread schedule and still match.
pub fn fold_digest(acc: u64, digest: u64) -> u64 {
    acc.wrapping_add(digest.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15)
}

/// Order-independent digest of a whole record set: [`fold_digest`]
/// over every record's [`FlightRecord::digest`].
pub fn multiset_digest(records: &[FlightRecord]) -> u64 {
    records
        .iter()
        .fold(0, |acc, r| fold_digest(acc, r.digest()))
}

/// One recorded decision, projected from a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Arrival sequence number within this recorder — timeline
    /// ordering only, excluded from the canonical form (arrival order
    /// races across client threads).
    pub seq: u64,
    /// Decision kind: the originating event name (`request`, `shed`,
    /// `breaker_open`, …).
    pub kind: String,
    /// Canonical key/value tags in event-field order: fingerprint,
    /// outcome, rung, plan digest, degradations, deadline
    /// attainment, shed reason — whatever the event carried.
    pub tags: Vec<(String, String)>,
    /// Wall-clock queue-wait in microseconds (zero when the event had
    /// none). Non-canonical, like [`Event::wall_micros`].
    pub wait_micros: u64,
}

impl FlightRecord {
    /// Project a trace event into a record under the given arrival
    /// sequence number.
    pub fn from_event(seq: u64, event: &Event) -> FlightRecord {
        let mut tags = Vec::with_capacity(event.fields.len());
        let mut wait_micros = 0;
        for (key, value) in &event.fields {
            if NON_CANONICAL_KEYS.contains(key) {
                wait_micros = value.as_u64().unwrap_or(0);
            } else {
                tags.push(((*key).to_string(), value.to_string()));
            }
        }
        FlightRecord {
            seq,
            kind: event.name.to_string(),
            tags,
            wait_micros,
        }
    }

    /// The first tag recorded under `key`, if any.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Deterministic one-line rendering, `kind key=value key=value` —
    /// excludes `seq` and `wait_micros`, so it is byte-identical
    /// from run to run of the same workload.
    pub fn canonical(&self) -> String {
        let mut line = self.kind.clone();
        for (key, value) in &self.tags {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            line.push_str(value);
        }
        line
    }

    /// FNV-1a over the canonical rendering: a per-record content
    /// digest for the [`multiset_digest`] fold and the codec's
    /// integrity check.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.canonical().as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Encode one record for the framed log. Layout: version, seq,
/// wait_micros, kind, tag count, (key, value) pairs, then the content
/// digest — re-checked on decode like the plan codec's structural
/// digest.
pub fn encode_flight(record: &FlightRecord) -> Vec<u8> {
    // A record is projected from one of the service's own events: its
    // strings are event names, field names, labels, numbers and error
    // messages, and its tags the event's few fields — never request
    // text, never near a `u16` prefix's limit.
    let fits = "a flight record fits its length prefixes";
    let mut w = Writer::new();
    w.u8(FLIGHT_VERSION);
    w.u64(record.seq);
    w.u64(record.wait_micros);
    w.str("kind", &record.kind).expect(fits);
    w.len_u16("tags", record.tags.len()).expect(fits);
    for (key, value) in &record.tags {
        w.str("tag key", key).expect(fits);
        w.str("tag value", value).expect(fits);
    }
    w.u64(record.digest());
    w.finish()
}

/// Decode one framed-log payload back into a record, verifying the
/// embedded content digest.
pub fn decode_flight(payload: &[u8]) -> Result<FlightRecord, StoreError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != FLIGHT_VERSION {
        return Err(StoreError::Codec(format!(
            "flight record version {version}, expected {FLIGHT_VERSION}"
        )));
    }
    let seq = r.u64()?;
    let wait_micros = r.u64()?;
    let kind = r.str()?;
    let ntags = r.u16()? as usize;
    let mut tags = Vec::with_capacity(ntags);
    for _ in 0..ntags {
        let key = r.str()?;
        let value = r.str()?;
        tags.push((key, value));
    }
    let digest = r.u64()?;
    r.finish()?;
    let record = FlightRecord {
        seq,
        kind,
        tags,
        wait_micros,
    };
    if record.digest() != digest {
        return Err(StoreError::Codec(format!(
            "flight record digest mismatch: stored {digest:016x}, recomputed {:016x}",
            record.digest()
        )));
    }
    Ok(record)
}

/// An open flight log: one CRC-framed file inside a directory, with
/// the usual torn-tail recovery.
#[derive(Debug)]
pub struct FlightLog {
    log: FramedLog,
}

impl FlightLog {
    /// Path of the flight log file inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(FLIGHT_FILE)
    }

    /// Open (creating if absent) the flight log in `dir`, recovering
    /// every intact record in write order and truncating any torn
    /// tail left by a crash mid-append.
    pub fn open(dir: &Path) -> Result<(FlightLog, Vec<FlightRecord>, RecoveryStats), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        let (log, payloads, stats) = FramedLog::open(&Self::path_in(dir), FLIGHT_LOG_KIND)?;
        let mut records = Vec::with_capacity(payloads.len());
        for payload in &payloads {
            records.push(decode_flight(payload)?);
        }
        Ok((FlightLog { log }, records, stats))
    }

    /// Append one record, flushed before returning.
    pub fn append(&mut self, record: &FlightRecord) -> Result<(), StoreError> {
        self.log.append(&encode_flight(record)).map(|_| ())
    }
}

#[derive(Debug)]
struct RecorderInner {
    ring: VecDeque<FlightRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    log: Option<FlightLog>,
    io_errors: u64,
}

/// The recorder itself: a [`TraceSink`] holding the bounded ring,
/// optionally writing every record through to a [`FlightLog`]. Hang
/// it off the service tracer's tee next to the stderr and chrome
/// sinks.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
}

impl FlightRecorder {
    /// Memory-only recorder holding the last `capacity` decisions.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(RecorderInner {
                ring: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
                log: None,
                io_errors: 0,
            }),
        }
    }

    /// Recorder that also appends every record to `log` before it can
    /// be evicted from the ring — what makes post-crash `inspect
    /// --flight` possible.
    pub fn with_log(capacity: usize, log: FlightLog) -> FlightRecorder {
        let recorder = FlightRecorder::new(capacity);
        recorder.inner.lock().unwrap().log = Some(log);
        recorder
    }

    /// Copy of the ring in arrival order.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Copy of the ring in canonical (content) order — the
    /// deterministic surface.
    pub fn canonical_records(&self) -> Vec<FlightRecord> {
        let mut records = self.snapshot();
        canonical_sort(&mut records);
        records
    }

    /// Canonical dump: sorted canonical lines, newline-separated, with
    /// a trailing newline when non-empty. Byte-identical from run to
    /// run of the same workload.
    pub fn canonical_dump(&self) -> String {
        let mut out = String::new();
        for record in self.canonical_records() {
            out.push_str(&record.canonical());
            out.push('\n');
        }
        out
    }

    /// Order-independent digest of the ring's contents.
    pub fn digest(&self) -> u64 {
        multiset_digest(&self.snapshot())
    }

    /// Records currently in the ring.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from the ring so far (they remain in the log).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Write-through appends that failed with an I/O error. The
    /// recorder never fails the request path: persistence errors are
    /// counted and the ring keeps recording.
    pub fn io_errors(&self) -> u64 {
        self.inner.lock().unwrap().io_errors
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, event: Event) {
        if !FLIGHT_EVENTS.contains(&event.name) {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let record = FlightRecord::from_event(seq, &event);
        if let Some(log) = inner.log.as_mut() {
            if log.append(&record).is_err() {
                inner.io_errors += 1;
            }
        }
        if inner.ring.len() >= inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(record);
    }
}

/// Sort records into canonical (content) order: by canonical line,
/// then by wait-stripped residual fields so fully identical records
/// stay adjacent. This is the ordering `inspect --flight` prints and
/// the obs smoke compares from run to run.
pub fn canonical_sort(records: &mut [FlightRecord]) {
    records.sort_by_key(|r| r.canonical());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdp-obs-flight-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request_event(fp: &str, outcome: &str) -> Event {
        Event::new("request")
            .with("fingerprint", fp)
            .with("outcome", outcome)
            .with("rung", "SDP")
    }

    #[test]
    fn recorder_filters_and_rings() {
        let recorder = FlightRecorder::new(2);
        recorder.record(Event::new("level").with("n", 3u64)); // not a decision
        recorder.record(request_event("aa", "fresh"));
        recorder.record(request_event("bb", "fresh"));
        recorder.record(request_event("cc", "hit"));
        assert_eq!(recorder.len(), 2);
        assert_eq!(recorder.dropped(), 1);
        let records = recorder.snapshot();
        assert_eq!(records[0].tag("fingerprint"), Some("bb"));
        assert_eq!(records[1].tag("outcome"), Some("hit"));
        // Sequence numbers keep counting across evictions.
        assert_eq!(records[1].seq, 2);
    }

    #[test]
    fn canonical_form_excludes_seq_and_wait() {
        let a = FlightRecord::from_event(
            0,
            &Event::new("queue_wait")
                .with("seq", 7u64)
                .with("wait_micros", 1234u64),
        );
        let b = FlightRecord::from_event(
            9,
            &Event::new("queue_wait")
                .with("seq", 7u64)
                .with("wait_micros", 9999u64),
        );
        assert_eq!(a.canonical(), "queue_wait seq=7");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.wait_micros, 1234);
    }

    #[test]
    fn multiset_digest_is_order_independent() {
        let records: Vec<FlightRecord> = [("aa", "fresh"), ("bb", "hit"), ("cc", "fresh")]
            .iter()
            .enumerate()
            .map(|(i, (fp, outcome))| {
                FlightRecord::from_event(i as u64, &request_event(fp, outcome))
            })
            .collect();
        let mut reversed = records.clone();
        reversed.reverse();
        assert_eq!(multiset_digest(&records), multiset_digest(&reversed));
    }

    #[test]
    fn codec_round_trips_and_checks_digest() {
        let record = FlightRecord::from_event(
            42,
            &Event::new("shed")
                .with("seq", 8u64)
                .with("reason", "queue-full"),
        );
        let payload = encode_flight(&record);
        let decoded = decode_flight(&payload).unwrap();
        assert_eq!(decoded, record);
        // Flip a tag byte: the embedded digest catches it.
        let mut torn = payload.clone();
        let n = torn.len();
        torn[n - 12] ^= 0x01;
        assert!(decode_flight(&torn).is_err());
    }

    #[test]
    fn log_persists_across_reopen_and_survives_torn_tail() {
        let dir = temp_dir("reopen");
        let (log, recovered, _) = FlightLog::open(&dir).unwrap();
        assert!(recovered.is_empty());
        let recorder = FlightRecorder::with_log(8, log);
        recorder.record(request_event("aa", "fresh"));
        recorder.record(request_event("bb", "hit"));
        let digest = recorder.digest();
        drop(recorder);

        // Simulate a crash mid-append: garbage tail bytes.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(FlightLog::path_in(&dir))
                .unwrap();
            f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        }

        let (_log, recovered, stats) = FlightLog::open(&dir).unwrap();
        assert_eq!(recovered.len(), 2);
        assert!(stats.truncated);
        assert_eq!(multiset_digest(&recovered), digest);
        assert_eq!(recovered[0].tag("fingerprint"), Some("aa"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
