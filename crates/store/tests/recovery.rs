//! Crash-safety integration tests for the persistent tier (ISSUE 7,
//! satellite 3): a torn tail — the half-written record a crash leaves
//! behind — must cost exactly the torn record, never the segment.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdp_catalog::Catalog;
use sdp_core::governor::Rung;
use sdp_core::{Algorithm, DegradeReason, EnumeratorKind, Optimizer};
use sdp_metrics::StoreCounters;
use sdp_query::{QueryGenerator, Topology};
use sdp_store::codec::{decode_dlq, decode_plan, encode_dlq, encode_plan};
use sdp_store::dlq::{DLQ_FILE, DLQ_LOG_KIND};
use sdp_store::{
    DeadLetterQueue, DlqDegradation, DlqErrorKind, DlqRecord, FramedLog, PlanRecord, PlanStore,
    StoreError, StoreOptions,
};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sdp-store-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real optimized plan, so recovery exercises the full codec.
fn record(k: u64, epoch: u64) -> PlanRecord {
    let catalog = Catalog::paper();
    let gen = QueryGenerator::new(&catalog, Topology::Chain(5), 7);
    let query = gen.instance(k);
    let plan = Optimizer::new(&catalog)
        .optimize(&query, Algorithm::Goo)
        .unwrap();
    PlanRecord {
        fingerprint: u128::from(k) << 64 | 0xfeed,
        stats_epoch: epoch,
        rung: Some(Rung::Goo),
        enumerator: EnumeratorKind::LevelScan,
        algo_repr: "Goo".into(),
        strategy: "GOO".into(),
        degradations: 0,
        cost: plan.cost,
        rows: plan.rows,
        root: plan.root,
    }
}

/// A dead-letter record for a request that asked for `algorithm`.
fn dead_letter(fingerprint: u128, algorithm: Algorithm) -> DlqRecord {
    DlqRecord {
        fingerprint,
        stats_epoch: 5,
        algorithm: Some(algorithm),
        error_kind: DlqErrorKind::Memory,
        error: "memory exhausted at GOO".into(),
        degradations: vec![],
        deadline_ms: None,
        memory_bytes: Some(1 << 20),
        sql: "SELECT ...".into(),
        query: QueryGenerator::new(&Catalog::paper(), Topology::Chain(3), 1).instance(0),
    }
}

fn open(
    dir: &Path,
    epoch: u64,
) -> (
    PlanStore,
    Vec<PlanRecord>,
    sdp_store::OpenStats,
    Arc<StoreCounters>,
) {
    let counters = Arc::new(StoreCounters::default());
    let (store, warm, stats) =
        PlanStore::open(dir, epoch, StoreOptions::default(), Arc::clone(&counters)).unwrap();
    (store, warm, stats, counters)
}

#[test]
fn torn_tail_is_truncated_and_intact_records_survive() {
    let dir = temp_dir("torn");
    {
        let (mut store, _, _, _) = open(&dir, 1);
        for k in 0..4 {
            store.append(&record(k, 1)).unwrap();
        }
    }

    // Simulate a crash mid-write: append half a frame to the active
    // segment — a plausible length prefix with no payload behind it.
    let seg = dir.join("seg-000000.log");
    let before = std::fs::metadata(&seg).unwrap().len();
    let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&64u32.to_le_bytes()).unwrap();
    f.write_all(&0xdead_beefu32.to_le_bytes()).unwrap();
    f.write_all(&[0xab; 17]).unwrap(); // 17 of the promised 64 bytes
    f.sync_all().unwrap();
    drop(f);
    assert!(std::fs::metadata(&seg).unwrap().len() > before);

    let (store, warm, stats, counters) = open(&dir, 1);
    assert_eq!(warm.len(), 4, "all intact records recovered");
    assert!(stats.recovery.truncated, "one torn tail cut");
    assert_eq!(stats.undecodable, 0);
    assert_eq!(store.live_len(), 4);
    assert_eq!(counters.snapshot().torn_truncations, 1);
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        before,
        "the file was physically truncated back to the last intact frame"
    );

    // Recovered fingerprints are exactly the ones written.
    let mut fps: Vec<u128> = warm.iter().map(|r| r.fingerprint).collect();
    fps.sort_unstable();
    let expect: Vec<u128> = (0..4u64).map(|k| u128::from(k) << 64 | 0xfeed).collect();
    assert_eq!(fps, expect);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_stays_writable_after_torn_tail_recovery() {
    let dir = temp_dir("rewrite");
    {
        let (mut store, _, _, _) = open(&dir, 9);
        store.append(&record(0, 9)).unwrap();
        store.append(&record(1, 9)).unwrap();
    }
    // Tear the tail with garbage that can't even frame.
    let seg = dir.join("seg-000000.log");
    let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&[0xff; 7]).unwrap();
    drop(f);

    // Reopen, write more, reopen again: nothing written after
    // recovery may be lost, and no tear may be reported twice.
    {
        let (mut store, warm, stats, _) = open(&dir, 9);
        assert_eq!(warm.len(), 2);
        assert!(stats.recovery.truncated);
        store.append(&record(2, 9)).unwrap();
    }
    let (_, warm, stats, _) = open(&dir, 9);
    assert_eq!(warm.len(), 3, "post-recovery append survived");
    assert!(
        !stats.recovery.truncated,
        "truncation is physical, so the second open sees a clean log"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_payload_with_valid_frame_is_skipped_not_fatal() {
    let dir = temp_dir("corrupt");
    {
        let (mut store, _, _, _) = open(&dir, 2);
        store.append(&record(0, 2)).unwrap();
        store.append(&record(1, 2)).unwrap();
    }
    // Append a frame whose CRC is valid but whose payload claims an
    // unknown codec version: replay must skip and count it.
    let seg = dir.join("seg-000000.log");
    let payload = [200u8, 1, 2, 3]; // version 200 is from the future
    append_frame(&seg, &payload);

    let (store, warm, stats, _) = open(&dir, 2);
    assert_eq!(warm.len(), 2, "real records unaffected");
    assert_eq!(stats.undecodable, 1, "future-version record skipped");
    assert!(!stats.recovery.truncated);
    assert_eq!(store.live_len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Append one CRC-valid frame to a framed log file.
fn append_frame(path: &Path, payload: &[u8]) {
    let mut f = OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    f.write_all(&sdp_store::crc32(payload).to_le_bytes())
        .unwrap();
    f.write_all(payload).unwrap();
}

#[test]
fn retired_enumerator_tags_are_skipped_and_counted_never_served() {
    // Tags 2 (dpccp) and 3 (the single-tree surrogate prototype) were
    // written by pair generation that no longer exists. A
    // current-version record carrying one is intact on disk but must
    // not decode — replay skips and counts it like any other
    // undecodable payload. So must a dead letter asking for a retired
    // strategy: algorithm tags 4 (standard IDP1), 6 (Iterative
    // Improvement) and 7 (Simulated Annealing) — or carrying a caller
    // cancellation, which left the optimizer: error-kind tag 3 and
    // degradation-reason tag 3.
    let dir = temp_dir("retired-plan");
    {
        let (mut store, _, _, _) = open(&dir, 5);
        store.append(&record(0, 5)).unwrap();
        store.append(&record(1, 5)).unwrap();
    }
    // version, fingerprint, stats epoch, rung — then the tag.
    const PLAN_TAG_AT: usize = 1 + 16 + 8 + 1;
    for (k, tag) in [(2, 2u8), (3, 3u8)] {
        let mut payload = encode_plan(&record(k, 5));
        assert_eq!(payload[PLAN_TAG_AT], 1, "levelscan is tag 1");
        payload[PLAN_TAG_AT] = tag;
        let err = decode_plan(&payload).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
        append_frame(&dir.join("seg-000000.log"), &payload);
    }
    let (store, warm, stats, _) = open(&dir, 5);
    assert_eq!(stats.undecodable, 2, "both retired-tag records counted");
    assert!(!stats.recovery.truncated, "their frames are intact");
    assert_eq!(store.live_len(), 2);
    let mut fps: Vec<u128> = warm.iter().map(|r| r.fingerprint >> 64).collect();
    fps.sort_unstable();
    assert_eq!(fps, [0, 1], "only the levelscan records are served");
    std::fs::remove_dir_all(&dir).ok();

    let dir = temp_dir("retired-dlq");
    {
        let (mut dlq, _, _) = DeadLetterQueue::open(&dir).unwrap();
        dlq.enqueue(dead_letter(7, Algorithm::Dp)).unwrap();
    }
    // version, fingerprint, stats epoch — then the tag.
    const DLQ_TAG_AT: usize = 1 + 16 + 8;
    for tag in [2u8, 3] {
        let mut payload = encode_dlq(&dead_letter(8, Algorithm::Dp)).unwrap();
        assert_eq!(payload[DLQ_TAG_AT], 1);
        payload[DLQ_TAG_AT] = tag;
        let err = decode_dlq(&payload).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
        append_frame(&dir.join("dlq.log"), &payload);
    }
    // The algorithm tag follows the enumerator tag, its parameter after
    // it. Each record is what the retired strategy wrote: standard
    // IDP1 its block size, II and SA a zero.
    const ALGORITHM_TAG_AT: usize = DLQ_TAG_AT + 1;
    for (tag, written_as, live_tag) in [
        (4u8, Algorithm::Idp { k: 4 }, 3u8),
        (6, Algorithm::Dp, 1),
        (7, Algorithm::Dp, 1),
    ] {
        let mut payload = encode_dlq(&dead_letter(9, written_as)).unwrap();
        assert_eq!(payload[ALGORITHM_TAG_AT], live_tag);
        payload[ALGORITHM_TAG_AT] = tag;
        let err = decode_dlq(&payload).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "tag {tag}: {err}");
        append_frame(&dir.join("dlq.log"), &payload);
    }
    // The error kind follows the algorithm's tag and parameter; one
    // degradation's (from, to, reason) bytes follow the error string
    // and the degradation count.
    const ERROR_KIND_AT: usize = ALGORITHM_TAG_AT + 1 + 8;
    let mut cancelled = dead_letter(10, Algorithm::Dp);
    cancelled.degradations = vec![DlqDegradation {
        from: Rung::Dp,
        to: Rung::Sdp,
        reason: DegradeReason::Memory,
    }];
    let reason_at = ERROR_KIND_AT + 1 + 2 + cancelled.error.len() + 2 + 2;
    let payload = encode_dlq(&cancelled).unwrap();
    assert_eq!(payload[ERROR_KIND_AT], 2, "memory is error kind 2");
    assert_eq!(payload[reason_at], 2, "memory is reason 2");
    for at in [ERROR_KIND_AT, reason_at] {
        let mut payload = payload.clone();
        payload[at] = 3;
        let err = decode_dlq(&payload).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "tag 3 at {at}: {err}");
        append_frame(&dir.join("dlq.log"), &payload);
    }
    let (dlq, recovery, undecodable) = DeadLetterQueue::open(&dir).unwrap();
    assert_eq!(
        undecodable, 7,
        "two enumerator, three algorithm, one error-kind and one reason tag"
    );
    assert!(!recovery.truncated);
    assert_eq!(dlq.len(), 1);
    assert_eq!(dlq.records()[0].fingerprint, 7);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_letters_with_an_idp_block_below_two_are_skipped_and_counted() {
    // IDP's block size must be at least 2: `k = 1` divides by `k − 1`
    // before the rung starts and `k = 0` trips IDP's assertion, so
    // replaying such a record would panic its leader. It must not
    // decode.
    let dir = temp_dir("idp-block");
    {
        let (mut log, _, _) = FramedLog::open(&dir.join(DLQ_FILE), DLQ_LOG_KIND).unwrap();
        for (fingerprint, k) in [(1, 0), (2, 1), (3, 2)] {
            log.append(&encode_dlq(&dead_letter(fingerprint, Algorithm::Idp { k })).unwrap())
                .unwrap();
        }
    }
    let (dlq, recovery, undecodable) = DeadLetterQueue::open(&dir).unwrap();
    assert_eq!(recovery.records, 3, "every frame is intact");
    assert_eq!(undecodable, 2, "k = 0 and k = 1 are skipped and counted");
    assert_eq!(dlq.len(), 1);
    assert_eq!(dlq.records()[0].fingerprint, 3);
    assert!(matches!(
        dlq.records()[0].algorithm,
        Some(Algorithm::Idp { k: 2 })
    ));
    std::fs::remove_dir_all(&dir).ok();
}
