//! Property tests for the plan codec (ISSUE 7, satellite 3).
//!
//! Random governed plans — star / chain / clique topologies, every
//! ladder rung — must survive
//! `decode(encode(p))` bit-identically: same structural digest, same
//! cost and row *bits*, same rung and enumerator tags, same strategy
//! identity. Any drift here would poison the warm-restart path, which
//! trusts decoded records enough to hand them straight to the plan
//! cache. Dead-letter records are held to the same rule under
//! corruption: a mutated payload decodes to exactly what it encodes, or
//! fails to decode — it never panics the queue that opens it.

use std::sync::Arc;

use proptest::prelude::*;
use sdp_catalog::{Catalog, ColId, RelId};
use sdp_core::governor::{DegradeReason, Rung};
use sdp_core::sdp::SdpConfig;
use sdp_core::{Algorithm, EnumeratorKind, Optimizer};
use sdp_query::{ColRef, JoinEdge, JoinGraph, PredOp, Predicate, Query, QueryGenerator, Topology};
use sdp_store::codec::{decode_dlq, decode_plan, encode_dlq, encode_plan};
use sdp_store::dlq::{DLQ_FILE, DLQ_LOG_KIND};
use sdp_store::{DeadLetterQueue, DlqDegradation, DlqErrorKind, DlqRecord, FramedLog, PlanRecord};

/// The rung under test and the algorithm that produces plans for it.
fn rung_algorithm(rung: Rung) -> Algorithm {
    match rung {
        Rung::Dp => Algorithm::Dp,
        Rung::Sdp => Algorithm::Sdp(SdpConfig::paper()),
        Rung::Idp => Algorithm::Idp { k: 4 },
        Rung::Goo => Algorithm::Goo,
    }
}

fn topology(shape: u8, n: usize) -> Topology {
    match shape % 3 {
        0 => Topology::Star(n),
        1 => Topology::Chain(n),
        _ => Topology::Clique(n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// decode(encode(p)) is bit-identical for costing and explain
    /// across topologies and rungs.
    #[test]
    fn plan_codec_round_trips_bit_identically(
        shape in 0u8..3,
        n in 4usize..9,
        seed in 0u64..1_000,
        k in 0u64..50,
        rung_idx in 0usize..4,
        epoch in 0u64..u64::MAX,
        fp_hi in any::<u64>(),
        fp_lo in any::<u64>(),
    ) {
        let rung = sdp_core::governor::LADDER[rung_idx];
        let algorithm = rung_algorithm(rung);

        let catalog = Catalog::paper();
        let gen = QueryGenerator::new(&catalog, topology(shape, n), seed);
        let query = gen.instance(k);
        let optimizer = Optimizer::new(&catalog);
        let plan = optimizer
            .optimize(&query, algorithm)
            .expect("generated queries are connected");

        let record = PlanRecord {
            fingerprint: (u128::from(fp_hi) << 64) | u128::from(fp_lo),
            stats_epoch: epoch,
            rung: Some(rung),
            enumerator: EnumeratorKind::LevelScan,
            algo_repr: format!("{algorithm:?}"),
            strategy: algorithm.label(),
            degradations: rung_idx as u64,
            cost: plan.cost,
            rows: plan.rows,
            root: Arc::clone(&plan.root),
        };

        let payload = encode_plan(&record);
        let decoded = decode_plan(&payload).expect("fresh payload decodes");

        // Identity of the key tuple.
        prop_assert_eq!(decoded.fingerprint, record.fingerprint);
        prop_assert_eq!(decoded.stats_epoch, record.stats_epoch);
        prop_assert_eq!(decoded.rung, record.rung);
        prop_assert_eq!(decoded.enumerator, record.enumerator);
        prop_assert_eq!(&decoded.algo_repr, &record.algo_repr);
        prop_assert_eq!(&decoded.strategy, &record.strategy);
        prop_assert_eq!(decoded.degradations, record.degradations);

        // Bit-identical costing: compare f64 *bits*, not values.
        prop_assert_eq!(decoded.cost.to_bits(), record.cost.to_bits());
        prop_assert_eq!(decoded.rows.to_bits(), record.rows.to_bits());
        prop_assert_eq!(decoded.root.cost.to_bits(), record.root.cost.to_bits());
        prop_assert_eq!(decoded.root.rows.to_bits(), record.root.rows.to_bits());

        // Bit-identical structure: the WL-style digest hashes the
        // whole operator tree (ops, join methods, relation sets,
        // orderings), so equality here is tree equality.
        prop_assert_eq!(
            decoded.root.structural_digest(),
            record.root.structural_digest()
        );

        // And the codec is deterministic: re-encoding the decoded
        // record reproduces the original byte string.
        prop_assert_eq!(encode_plan(&decoded), payload);
    }

    /// Flipping any single payload byte never yields a silently wrong
    /// record: decode either fails or reproduces the original bytes.
    #[test]
    fn corrupted_payloads_never_decode_silently_wrong(
        seed in 0u64..200,
        pos in any::<usize>(),
        xor in any::<u8>(),
    ) {
        let catalog = Catalog::paper();
        let gen = QueryGenerator::new(&catalog, Topology::Star(6), seed);
        let query = gen.instance(seed);
        let optimizer = Optimizer::new(&catalog);
        let plan = optimizer
            .optimize(&query, Algorithm::Goo)
            .expect("star queries are connected");
        let record = PlanRecord {
            fingerprint: seed as u128,
            stats_epoch: 3,
            rung: Some(Rung::Goo),
            enumerator: EnumeratorKind::LevelScan,
            algo_repr: "Goo".into(),
            strategy: "GOO".into(),
            degradations: 0,
            cost: plan.cost,
            rows: plan.rows,
            root: Arc::clone(&plan.root),
        };
        let mut payload = encode_plan(&record);
        let idx = pos % payload.len();
        let bit = xor | 1; // guarantee a real change
        payload[idx] ^= bit;

        // Rejecting loudly is the desired outcome; a decode that
        // still succeeds must have lost nothing — re-encoding must
        // reproduce the mutated bytes exactly.
        if let Ok(decoded) = decode_plan(&payload) {
            prop_assert_eq!(encode_plan(&decoded), payload);
        }
    }
}

/// A dead-letter record over a three-relation chain with two filters
/// and an ORDER BY; `variant` picks which optional fields are present.
fn dlq_record(variant: u64, right_of_first_edge: usize) -> DlqRecord {
    let col = |node, col| ColRef::new(node, ColId(col));
    let mut graph = JoinGraph::new(
        vec![RelId(3), RelId(5), RelId(8)],
        vec![
            JoinEdge::new(col(0, 1), col(right_of_first_edge, 2)),
            JoinEdge::new(col(1, 3), col(2, 0)),
        ],
    );
    graph.add_filter(Predicate::new(col(0, 4), PredOp::Lt, 500));
    graph.add_filter(Predicate::new(col(2, 1), PredOp::Eq, -7));
    DlqRecord {
        fingerprint: u128::from(variant) << 64 | 0xfeed,
        stats_epoch: variant,
        algorithm: [None, Some(Algorithm::Dp), Some(Algorithm::Idp { k: 4 })][variant as usize % 3],
        error_kind: DlqErrorKind::Memory,
        error: "exhausted".into(),
        degradations: vec![DlqDegradation {
            from: Rung::Dp,
            to: Rung::Sdp,
            reason: DegradeReason::Memory,
        }],
        deadline_ms: variant.is_multiple_of(2).then_some(250),
        memory_bytes: (variant % 4 < 2).then_some(1 << 20),
        sql: "SELECT 1".into(),
        query: Query::new(graph).with_order_by(col(1, 2)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The dead-letter twin of `corrupted_payloads_never_decode_silently_wrong`:
    /// flipping any single payload byte — a node index of an edge, a
    /// filter or the ORDER BY included — never panics and never yields a
    /// silently wrong record.
    #[test]
    fn corrupted_dlq_payloads_never_decode_silently_wrong(
        variant in 0u64..12,
        pos in any::<usize>(),
        xor in any::<u8>(),
    ) {
        let mut payload = encode_dlq(&dlq_record(variant, 1)).unwrap();
        prop_assert!(decode_dlq(&payload).is_ok(), "the pristine payload decodes");
        let idx = pos % payload.len();
        payload[idx] ^= xor | 1; // guarantee a real change
        if let Ok(decoded) = decode_dlq(&payload) {
            prop_assert_eq!(encode_dlq(&decoded).unwrap(), payload);
        }
    }
}

/// A CRC-valid dead-letter record whose first edge names the same node
/// twice, or a node past the relation count, is skipped and counted as
/// undecodable when the queue opens — the records beside it survive.
#[test]
fn a_dlq_record_with_a_bad_edge_node_is_skipped_when_the_queue_opens() {
    // The first byte the two encodings differ in is the low byte of
    // the first edge's right node.
    let (good, other) = (
        encode_dlq(&dlq_record(0, 1)).unwrap(),
        encode_dlq(&dlq_record(0, 2)).unwrap(),
    );
    let at = (0..good.len()).find(|&i| good[i] != other[i]).unwrap();
    assert_eq!((good[at], other[at]), (1, 2));

    for bad_node in [0u8, 9] {
        let dir = std::env::temp_dir().join(format!(
            "sdp-store-bad-edge-{}-{bad_node}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut bad = good.clone();
        bad[at] = bad_node;
        assert!(decode_dlq(&bad).is_err(), "edge to node {bad_node}");
        {
            let (mut log, _, _) = FramedLog::open(&dir.join(DLQ_FILE), DLQ_LOG_KIND).unwrap();
            log.append(&good).unwrap();
            log.append(&bad).unwrap();
            log.append(&good).unwrap();
        }
        let (dlq, recovery, undecodable) = DeadLetterQueue::open(&dir).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!((dlq.len(), undecodable), (2, 1), "edge to node {bad_node}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
