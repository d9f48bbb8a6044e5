//! Property tests for the plan codec (ISSUE 7, satellite 3).
//!
//! Random governed plans — star / chain / clique topologies, every
//! ladder rung — must survive
//! `decode(encode(p))` bit-identically: same structural digest, same
//! cost and row *bits*, same rung and enumerator tags, same strategy
//! identity. Any drift here would poison the warm-restart path, which
//! trusts decoded records enough to hand them straight to the plan
//! cache.

use std::sync::Arc;

use proptest::prelude::*;
use sdp_catalog::Catalog;
use sdp_core::governor::Rung;
use sdp_core::sdp::SdpConfig;
use sdp_core::{Algorithm, EnumeratorKind, Optimizer};
use sdp_query::{QueryGenerator, Topology};
use sdp_store::codec::{decode_plan, encode_plan};
use sdp_store::PlanRecord;

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
