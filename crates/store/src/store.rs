//! The write-behind plan segment store.
//!
//! A store directory holds numbered segments `seg-NNNNNN.log` (kind-1
//! framed logs of encoded [`PlanRecord`]s). Appends go to the
//! highest-numbered segment; when it crosses the size threshold the
//! store *rotates* to a fresh segment, and once enough sealed segments
//! pile up it *compacts*: the live view (latest record per key at the
//! current stats epoch) is rewritten into one new segment and every
//! older file is deleted. The live view holds no plan bytes, only where
//! each record's frame sits on disk, so compaction is a disk-to-disk
//! copy through one buffer. A crash anywhere in that sequence is safe —
//! replay is latest-wins in `(segment, offset)` order, so duplicate
//! records left by an interrupted compaction dedup to the same view,
//! and a torn tail in any segment truncates to the last intact frame.
//!
//! Epoch discipline: records are stamped with the stats epoch they
//! were optimized under. On open, records from other epochs are
//! dropped (counted as `stale_dropped`) — a plan costed against old
//! statistics is not merely suboptimal, its cached cost is a lie.
//! An open store follows the catalog forward: the first record of a
//! newer epoch makes it adopt that epoch ([`PlanStore::adopt_epoch`]),
//! which drops the previous generation from the live view (counted
//! as `epoch_adoptions`), and a record older than the store's epoch is
//! refused ([`StoreError::StaleEpoch`], counted as `stale_rejected`).
//! Stale records don't survive the next compaction, so an epoch bump
//! physically garbage-collects the old generation over time.

use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sdp_metrics::StoreCounters;

use crate::codec::{decode_plan, encode_plan, PlanRecord};
use crate::log::{self, FramedLog, RecoveryStats};
use crate::StoreError;

/// Log-kind tag for plan segments.
pub const PLAN_LOG_KIND: u32 = 1;

/// Identity of a persisted plan: what the service folds into its
/// in-memory cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecordKey {
    /// WL fingerprint of the query.
    pub fingerprint: u128,
    /// `Debug` rendering of the requested strategy.
    pub algo_repr: String,
}

impl RecordKey {
    /// The key under which `record` is stored.
    pub fn of(record: &PlanRecord) -> Self {
        RecordKey {
            fingerprint: record.fingerprint,
            algo_repr: record.algo_repr.clone(),
        }
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub max_segment_bytes: u64,
    /// Compact once this many sealed segments have accumulated.
    pub compact_after_segments: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            max_segment_bytes: 4 << 20,
            compact_after_segments: 4,
        }
    }
}

/// What opening a store directory found.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenStats {
    /// Per-file recovery outcomes, merged.
    pub recovery: RecoveryStats,
    /// Records dropped because their stats epoch is not current.
    pub stale_dropped: u64,
    /// Records whose payload frame-checked but failed to decode
    /// (version skew from an older/newer build); skipped, not fatal.
    pub undecodable: u64,
    /// Live records handed back for the warm fill.
    pub live: u64,
}

/// The plan segment store, positioned for appends.
///
/// Not internally synchronized: the intended owner is a single
/// write-behind thread (plus the startup replay before that thread
/// exists).
#[derive(Debug)]
pub struct PlanStore {
    dir: PathBuf,
    epoch: u64,
    options: StoreOptions,
    counters: Arc<StoreCounters>,
    active: FramedLog,
    active_index: u64,
    sealed: Vec<(u64, PathBuf)>,
    /// Where the latest record per key at the current epoch sits on
    /// disk — the compaction source. A reference, not the payload: the
    /// bytes are already in a segment, and compaction copies them from
    /// there as they are (bit-stability: no re-encode).
    live: HashMap<RecordKey, FrameRef>,
    #[cfg(feature = "testkit")]
    faults: Option<sdp_testkit::FaultPlan>,
}

/// Position of one record's frame: segment number and byte offset of
/// the frame's length word within that segment's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FrameRef {
    segment: u64,
    offset: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(index) = stem.parse::<u64>() {
                segments.push((index, entry.path()));
            }
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

impl PlanStore {
    /// Open (creating if needed) the store under `dir`, replay every
    /// segment, and return the store plus the live records — latest
    /// per key, current epoch only — for the warm fill.
    ///
    /// Counter effects: `torn_truncations` and `stale_dropped` are
    /// recorded here; `warm_fills` / `warm_hits` belong to the cache
    /// layer that consumes the returned records.
    pub fn open(
        dir: &Path,
        epoch: u64,
        options: StoreOptions,
        counters: Arc<StoreCounters>,
    ) -> Result<(Self, Vec<PlanRecord>, OpenStats), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        let mut stats = OpenStats::default();
        let mut live: HashMap<RecordKey, (FrameRef, usize)> = HashMap::new();
        // The warm fill in first-insertion order of its keys, so it is
        // deterministic (HashMap iteration order is not); a slot is
        // emptied when a stale record shadows its key.
        let mut fill: Vec<Option<PlanRecord>> = Vec::new();

        let segments = list_segments(dir)?;
        let mut last_index = 0u64;
        for (index, path) in &segments {
            last_index = *index;
            let (_log, payloads, recovery) = FramedLog::open(path, PLAN_LOG_KIND)?;
            if recovery.truncated {
                counters.record_torn_truncation();
            }
            stats.recovery.merge(recovery);
            // Replay returns the intact frames in file order: their
            // offsets follow from their lengths.
            let mut offset = log::HEADER_BYTES;
            for payload in payloads {
                let frame = FrameRef {
                    segment: *index,
                    offset,
                };
                offset += log::frame_len(payload.len());
                let record = match decode_plan(&payload) {
                    Ok(record) => record,
                    Err(StoreError::Codec(_)) => {
                        stats.undecodable += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                let key = RecordKey::of(&record);
                if record.stats_epoch != epoch {
                    stats.stale_dropped += 1;
                    counters.record_stale_dropped();
                    // A stale record shadows an older live one for the
                    // same key: the plan was re-optimized under a
                    // different epoch, so neither version is current.
                    if let Some((_, slot)) = live.remove(&key) {
                        fill[slot] = None;
                    }
                    continue;
                }
                match live.get_mut(&key) {
                    Some((latest, slot)) => {
                        *latest = frame;
                        fill[*slot] = Some(record);
                    }
                    None => {
                        live.insert(key, (frame, fill.len()));
                        fill.push(Some(record));
                    }
                }
            }
        }

        // Append to the highest existing segment (recovery left it
        // clean) or start segment 0.
        let active_index = if segments.is_empty() { 0 } else { last_index };
        let active_path = segment_path(dir, active_index);
        let (active, _, _) = FramedLog::open(&active_path, PLAN_LOG_KIND)?;
        let sealed = segments
            .into_iter()
            .filter(|(index, _)| *index != active_index)
            .collect();

        let records: Vec<PlanRecord> = fill.into_iter().flatten().collect();
        stats.live = records.len() as u64;

        Ok((
            PlanStore {
                dir: dir.to_path_buf(),
                epoch,
                options,
                counters,
                active,
                active_index,
                sealed,
                live: live
                    .into_iter()
                    .map(|(key, (frame, _))| (key, frame))
                    .collect(),
                #[cfg(feature = "testkit")]
                faults: None,
            },
            records,
            stats,
        ))
    }

    /// Arm deterministic crash-point injection: the process aborts
    /// (leaving whatever tail the OS got) once the fault plan's
    /// store-write countdown fires.
    #[cfg(feature = "testkit")]
    pub fn inject_faults(&mut self, faults: sdp_testkit::FaultPlan) {
        self.faults = Some(faults);
    }

    /// Persist one plan record. Rotates and compacts as thresholds
    /// dictate; on I/O failure the record is dropped from the durable
    /// tier (counted) but the in-memory cache above is unaffected.
    ///
    /// The writer stamps each record with the catalog epoch it was
    /// optimized under, and the catalog moves on without telling the
    /// store: a record of a newer epoch first moves the store to it
    /// ([`PlanStore::adopt_epoch`]); one of an older epoch (an
    /// optimization that straddled the bump) is refused with
    /// [`StoreError::StaleEpoch`] and counted as `stale_rejected`.
    pub fn append(&mut self, record: &PlanRecord) -> Result<(), StoreError> {
        if record.stats_epoch < self.epoch {
            self.counters.record_stale_rejected();
            return Err(StoreError::StaleEpoch {
                record: record.stats_epoch,
                store: self.epoch,
            });
        }
        self.adopt_epoch(record.stats_epoch);
        let frame = FrameRef {
            segment: self.active_index,
            offset: self.active.len_bytes(),
        };
        self.active.append(&encode_plan(record))?;
        self.counters.record_write();
        self.live.insert(RecordKey::of(record), frame);

        #[cfg(feature = "testkit")]
        if let Some(faults) = &self.faults {
            if faults.take_store_crash() {
                // Simulated power loss at an append boundary; the
                // recovery path must cope with whatever hit the disk.
                std::process::abort();
            }
        }

        if self.active.len_bytes() > self.options.max_segment_bytes {
            self.rotate()?;
        }
        if self.sealed.len() >= self.options.compact_after_segments {
            self.compact()?;
        }
        Ok(())
    }

    /// Move the store to a newer stats epoch (counted as
    /// `epoch_adoptions`): every live record is of the previous
    /// generation, so all leave the live view and the next compaction
    /// stops carrying them. A no-op unless `epoch` is newer than the
    /// store's.
    pub fn adopt_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.live.clear();
            self.counters.record_epoch_adopted();
        }
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        let sealed_path = self.active.path().to_path_buf();
        self.sealed.push((self.active_index, sealed_path));
        self.active_index += 1;
        let path = segment_path(&self.dir, self.active_index);
        let (active, _, _) = FramedLog::open(&path, PLAN_LOG_KIND)?;
        self.active = active;
        Ok(())
    }

    /// Rewrite the live view into one fresh segment and delete every
    /// older file. Crash-safe without a rename dance: the new segment
    /// is written before anything is deleted, and replay is
    /// latest-wins, so an interruption leaves duplicates, not loss.
    fn compact(&mut self) -> Result<(), StoreError> {
        let index = self.active_index + 1;
        let path = segment_path(&self.dir, index);
        let (mut target, _, _) = FramedLog::open(&path, PLAN_LOG_KIND)?;
        if let Err(e) = self.copy_live_frames(&mut target, index) {
            // The next rotation will want this segment number: a
            // half-copied view left under it would replay *after*
            // (so win over) records appended in the meantime.
            drop(target);
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
        let old_active = std::mem::replace(&mut self.active, target);
        self.active_index = index;
        for (_, path) in self.sealed.drain(..) {
            std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
        }
        let old_active = old_active.path();
        std::fs::remove_file(old_active).map_err(|e| StoreError::io(old_active, e))?;
        self.counters.record_compaction();
        Ok(())
    }

    /// Copy every live record's frame into `target` (segment number
    /// `index`) and repoint the live view there — disk to disk: frames
    /// are read back in (file, offset) order, one sequential pass per
    /// source segment, through one reused buffer, CRC-checked, and
    /// appended as they are. A frame that no longer checks out has
    /// rotted on disk: its record leaves the live view (counted as a
    /// write error — a plan lost to the persistent tier, that counter's
    /// meaning) and the rest is carried over. On error the view is
    /// untouched: it is repointed only once every frame is in `target`.
    fn copy_live_frames(&mut self, target: &mut FramedLog, index: u64) -> Result<(), StoreError> {
        const LOST: u64 = u64::MAX;
        let mut frames: Vec<&mut FrameRef> = self.live.values_mut().collect();
        frames.sort_unstable();
        let mut moved: Vec<u64> = Vec::with_capacity(frames.len());
        let mut source: Option<(u64, PathBuf, File)> = None;
        let mut payload = Vec::new();
        for frame in &frames {
            if source.as_ref().map(|(segment, ..)| *segment) != Some(frame.segment) {
                let path = segment_path(&self.dir, frame.segment);
                let file = File::open(&path).map_err(|e| StoreError::io(&path, e))?;
                source = Some((frame.segment, path, file));
            }
            let (_, path, file) = source.as_mut().expect("opened above");
            match log::read_frame(file, path, frame.offset, &mut payload) {
                Ok(()) => {
                    moved.push(target.len_bytes());
                    target.append(&payload)?;
                }
                Err(StoreError::Format(_)) => {
                    self.counters.record_write_error();
                    moved.push(LOST);
                }
                Err(e) => return Err(e),
            }
        }
        for (frame, offset) in frames.into_iter().zip(moved) {
            *frame = FrameRef {
                segment: index,
                offset,
            };
        }
        self.live.retain(|_, frame| frame.offset != LOST);
        Ok(())
    }

    /// Number of live records (latest per key, current epoch).
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Number of sealed (rotation-closed) segments awaiting
    /// compaction.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stats epoch the store is at: the one it was opened under,
    /// or the newest it has adopted since.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sdp_catalog::RelId;
    use sdp_core::{EnumeratorKind, PlanNode, PlanOp, Rung};
    use sdp_query::RelSet;

    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdp-store-seg-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(fingerprint: u128, epoch: u64, cost: f64) -> PlanRecord {
        let op = PlanOp::SeqScan {
            rel: RelId(0),
            node: 0,
        };
        let root = PlanNode::new(op, RelSet::single(0), 10.0, cost, None);
        PlanRecord {
            fingerprint,
            stats_epoch: epoch,
            rung: Some(Rung::Dp),
            enumerator: EnumeratorKind::LevelScan,
            algo_repr: "auto".to_string(),
            strategy: "DP".to_string(),
            degradations: 0,
            cost,
            rows: 10.0,
            root,
        }
    }

    fn open(
        dir: &Path,
        epoch: u64,
        options: StoreOptions,
    ) -> (PlanStore, Vec<PlanRecord>, OpenStats) {
        PlanStore::open(dir, epoch, options, Arc::new(StoreCounters::default())).unwrap()
    }

    #[test]
    fn replay_is_latest_wins_and_epoch_checked() {
        let dir = temp_dir("latest-wins");
        {
            let (mut store, _, _) = open(&dir, 1, StoreOptions::default());
            store.append(&record(1, 1, 5.0)).unwrap();
            store.append(&record(2, 1, 7.0)).unwrap();
            store.append(&record(1, 1, 3.0)).unwrap(); // re-optimized
        }
        let (store, records, stats) = open(&dir, 1, StoreOptions::default());
        assert_eq!(stats.live, 2);
        assert_eq!(store.live_len(), 2);
        let fp1 = records.iter().find(|r| r.fingerprint == 1).unwrap();
        assert_eq!(fp1.cost, 3.0);
        drop(store);

        // Same directory, bumped epoch: everything is stale.
        let (_, records, stats) = open(&dir, 2, StoreOptions::default());
        assert!(records.is_empty());
        assert_eq!(stats.stale_dropped, 3);
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn rotation_and_compaction_preserve_the_live_view() {
        let dir = temp_dir("compact");
        let options = StoreOptions {
            max_segment_bytes: 256, // force a rotation every couple of records
            compact_after_segments: 2,
        };
        let counters = Arc::new(StoreCounters::default());
        {
            let (mut store, _, _) =
                PlanStore::open(&dir, 1, options, Arc::clone(&counters)).unwrap();
            for i in 0..20u128 {
                store.append(&record(i % 5, 1, i as f64)).unwrap();
            }
            assert!(counters.snapshot().compactions > 0, "compaction never ran");
        }
        // Fewer files than one per rotation — compaction deleted them.
        let files = list_segments(&dir).unwrap();
        assert!(
            files.len() <= 3,
            "expected compacted store, found {files:?}"
        );

        let (_, records, _) = open(&dir, 1, options);
        assert_eq!(records.len(), 5);
        for r in &records {
            // Latest write for key k was iteration 15 + k.
            assert_eq!(r.cost, 15.0 + r.fingerprint as f64);
        }
    }

    #[test]
    fn compaction_copies_the_live_view_byte_for_byte_from_disk() {
        let dir = temp_dir("compact-bytes");
        let options = StoreOptions {
            max_segment_bytes: 256,
            compact_after_segments: 3,
        };
        let counters = Arc::new(StoreCounters::default());
        let (mut store, _, _) = PlanStore::open(&dir, 1, options, Arc::clone(&counters)).unwrap();
        // What the view must hold: the bytes of the latest append per
        // key — the store itself keeps none of them.
        let mut expected: HashMap<u128, Vec<u8>> = HashMap::new();
        let mut i = 0u128;
        while counters.snapshot().compactions == 0 {
            let r = record(i % 7, 1, i as f64);
            expected.insert(r.fingerprint, encode_plan(&r));
            store.append(&r).unwrap();
            i += 1;
        }
        assert!(i > 7, "every key was overwritten before the compaction");
        assert_eq!(store.sealed_segments(), 0);
        assert_eq!(store.live_len(), 7);

        // One file is left: the compacted view, then nothing (the
        // append that triggered the compaction is part of the view).
        let files = list_segments(&dir).unwrap();
        assert_eq!(files.len(), 1, "{files:?}");
        let (_, mut on_disk, _) = FramedLog::open(&files[0].1, PLAN_LOG_KIND).unwrap();
        let mut wanted: Vec<Vec<u8>> = expected.values().cloned().collect();
        on_disk.sort();
        wanted.sort();
        assert_eq!(on_disk, wanted);

        // The view was repointed at the new segment: a second round of
        // rotations and a compaction copies from there.
        while counters.snapshot().compactions == 1 {
            let r = record(100 + i % 3, 1, i as f64);
            expected.insert(r.fingerprint, encode_plan(&r));
            store.append(&r).unwrap();
            i += 1;
        }
        assert_eq!(counters.snapshot().write_errors, 0);
        drop(store);
        let (_, records, stats) = open(&dir, 1, options);
        assert_eq!(stats.live, 10);
        for r in &records {
            assert_eq!(encode_plan(r), expected[&r.fingerprint]);
        }
    }

    #[test]
    fn a_rotted_sealed_frame_is_a_counted_drop_not_a_bad_plan() {
        let dir = temp_dir("rot");
        let options = StoreOptions {
            max_segment_bytes: 256,
            compact_after_segments: 3,
        };
        let counters = Arc::new(StoreCounters::default());
        let (mut store, _, _) = PlanStore::open(&dir, 1, options, Arc::clone(&counters)).unwrap();
        // Distinct keys, so every frame stays live; stop once the first
        // segment is sealed.
        let mut i = 0u128;
        while store.sealed_segments() == 0 {
            store.append(&record(i, 1, i as f64)).unwrap();
            i += 1;
        }
        // Flip one payload byte of the sealed segment's last frame.
        let sealed = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&sealed).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&sealed, &bytes).unwrap();

        while counters.snapshot().compactions == 0 {
            store.append(&record(i, 1, i as f64)).unwrap();
            i += 1;
        }
        let snap = counters.snapshot();
        assert_eq!(snap.write_errors, 1, "the rotted record is counted");
        assert_eq!(store.live_len() as u128, i - 1, "and only it is dropped");
        drop(store);
        let (_, records, stats) = open(&dir, 1, options);
        assert_eq!(records.len() as u128, i - 1);
        assert!(!stats.recovery.truncated, "nothing rotten was carried over");
    }

    #[test]
    fn mixed_epoch_log_drops_only_stale_records() {
        let dir = temp_dir("mixed-epoch");
        {
            let (mut store, _, _) = open(&dir, 1, StoreOptions::default());
            store.append(&record(1, 1, 5.0)).unwrap();
        }
        {
            let (mut store, _, _) = open(&dir, 2, StoreOptions::default());
            store.append(&record(2, 2, 6.0)).unwrap();
        }
        let (_, records, stats) = open(&dir, 2, StoreOptions::default());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fingerprint, 2);
        assert_eq!(stats.stale_dropped, 1);
    }

    #[test]
    fn open_store_follows_the_epoch_forward_and_refuses_older_records() {
        let dir = temp_dir("adopt");
        let options = StoreOptions {
            max_segment_bytes: 256,
            compact_after_segments: 2,
        };
        let counters = Arc::new(StoreCounters::default());
        {
            let (mut store, _, _) =
                PlanStore::open(&dir, 1, options, Arc::clone(&counters)).unwrap();
            store.append(&record(1, 1, 5.0)).unwrap();
            store.append(&record(2, 1, 6.0)).unwrap();
            // The catalog moved on: the first epoch-2 record takes the
            // store with it and retires the epoch-1 generation.
            store.append(&record(1, 2, 7.0)).unwrap();
            assert_eq!(store.epoch(), 2);
            assert_eq!(store.live_len(), 1);
            assert_eq!(counters.snapshot().epoch_adoptions, 1);
            // An optimization that straddled the bump arrives late.
            assert!(matches!(
                store.append(&record(3, 1, 8.0)),
                Err(StoreError::StaleEpoch {
                    record: 1,
                    store: 2
                })
            ));
            assert_eq!(counters.snapshot().stale_rejected, 1);
            assert_eq!(counters.snapshot().writes, 3);
            // Enough epoch-2 traffic to compact: the retired
            // generation must not be carried along.
            for i in 0..20u128 {
                store.append(&record(10 + i % 3, 2, i as f64)).unwrap();
            }
            assert!(counters.snapshot().compactions > 0, "compaction never ran");
            assert_eq!(store.live_len(), 4);
        }
        let (_, records, stats) = open(&dir, 2, options);
        assert_eq!(records.len(), 4);
        assert_eq!(stats.stale_dropped, 0, "compaction carried stale records");
    }

    #[test]
    fn stale_record_shadows_older_live_one_for_same_key() {
        let dir = temp_dir("shadow");
        {
            let (mut store, _, _) = open(&dir, 1, StoreOptions::default());
            store.append(&record(1, 1, 5.0)).unwrap();
        }
        {
            // Same key re-optimized under epoch 2: the epoch-1 record
            // must not resurface when reopening at epoch 1.
            let (mut store, _, _) = open(&dir, 2, StoreOptions::default());
            store.append(&record(1, 2, 6.0)).unwrap();
        }
        let (_, records, _) = open(&dir, 1, StoreOptions::default());
        assert!(records.is_empty(), "epoch-1 plan resurfaced: {records:?}");
    }
}
