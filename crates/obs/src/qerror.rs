//! The Q-error observatory: cardinality-accuracy aggregation over the
//! instrumented executor's per-plan-node (estimated, actual) row
//! counts.
//!
//! The source paper judges heuristics by plan-quality deviation, and
//! plan quality lives or dies on cardinality estimates — the
//! observatory measures exactly where the cost model lies. Two
//! surfaces:
//!
//! * per-node-kind and per-predicate [`QErrorHistogram`]s (the same
//!   log2 bucket machinery as the latency histograms, over ratio
//!   ticks), exported into the `qerror` family of the Prometheus/JSON
//!   report;
//! * a bounded worst-estimated-nodes table with a total, content-based
//!   order, so top-K extraction is independent of observation order
//!   and thread schedule.
//!
//! Everything here is a plain value with commutative merge, so
//! aggregates are bit-identical regardless of interleaving — enforced
//! by a proptest over random shard schedules.

use std::collections::BTreeMap;

use sdp_metrics::QErrorHistogram;

/// Worst-node candidates retained by the observatory. Top-K queries
/// are answered from this bounded set; keeping it a few multiples of
/// any sensible K makes retention order-invariant (the set is the
/// exact top of the observation multiset under a total order).
const WORST_CAP: usize = 64;

/// The Q-error of an estimate: `max(est/actual, actual/est)` with both
/// sides floored at one row, so zero-row estimates and empty results
/// stay defined, finite, and symmetric (`q_error(a, b) == q_error(b,
/// a)`, and a perfect estimate scores exactly 1).
pub fn q_error(estimated: f64, actual: f64) -> f64 {
    let e = estimated.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// One per-plan-node cardinality observation from an instrumented
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// WL fingerprint of the query the plan served.
    pub fingerprint: u128,
    /// Root-to-node path of child indices, rendered `"0.1.0"` (`""`
    /// for the root).
    pub path: String,
    /// Node kind label, e.g. `SeqScan` or `Join(Hash)`.
    pub kind: String,
    /// Human-readable predicate / join-edge / sort-class detail, empty
    /// when the node carries none.
    pub detail: String,
    /// Optimizer cardinality estimate for the node's output.
    pub estimated: f64,
    /// Rows the node actually produced.
    pub actual: u64,
}

impl Observation {
    /// The observation's Q-error.
    pub fn q_error(&self) -> f64 {
        q_error(self.estimated, self.actual as f64)
    }
}

/// Total, content-based order on observations: worst Q-error first,
/// then every identifying field — so sorting any permutation of the
/// same multiset yields identical bytes.
fn worst_order(a: &Observation, b: &Observation) -> std::cmp::Ordering {
    b.q_error()
        .total_cmp(&a.q_error())
        .then_with(|| a.kind.cmp(&b.kind))
        .then_with(|| a.detail.cmp(&b.detail))
        .then_with(|| a.path.cmp(&b.path))
        .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        .then_with(|| a.estimated.total_cmp(&b.estimated))
        .then_with(|| a.actual.cmp(&b.actual))
}

/// The aggregation surface: histograms keyed by node kind and by
/// predicate, plus the bounded worst-nodes table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QErrorObservatory {
    by_kind: BTreeMap<String, QErrorHistogram>,
    by_predicate: BTreeMap<String, QErrorHistogram>,
    worst: Vec<Observation>,
    observed: u64,
}

impl QErrorObservatory {
    /// Fresh, empty observatory.
    pub fn new() -> QErrorObservatory {
        QErrorObservatory::default()
    }

    /// Fold in one observation.
    pub fn observe(&mut self, obs: &Observation) {
        let q = obs.q_error();
        self.by_kind.entry(obs.kind.clone()).or_default().record(q);
        if !obs.detail.is_empty() {
            self.by_predicate
                .entry(obs.detail.clone())
                .or_default()
                .record(q);
        }
        self.worst.push(obs.clone());
        self.worst.sort_by(worst_order);
        self.worst.truncate(WORST_CAP);
        self.observed += 1;
    }

    /// Fold in a batch of observations.
    pub fn observe_all<'a>(&mut self, all: impl IntoIterator<Item = &'a Observation>) {
        for obs in all {
            self.observe(obs);
        }
    }

    /// Merge another observatory into this one. Commutative and
    /// associative up to the bounded worst-table's cap, which retains
    /// the exact top of the combined multiset either way.
    pub fn merge(&mut self, other: &QErrorObservatory) {
        for (kind, h) in &other.by_kind {
            self.by_kind.entry(kind.clone()).or_default().merge(h);
        }
        for (pred, h) in &other.by_predicate {
            self.by_predicate.entry(pred.clone()).or_default().merge(h);
        }
        self.worst.extend(other.worst.iter().cloned());
        self.worst.sort_by(worst_order);
        self.worst.truncate(WORST_CAP);
        self.observed += other.observed;
    }

    /// Per-node-kind histograms, keyed by kind label.
    pub fn by_kind(&self) -> &BTreeMap<String, QErrorHistogram> {
        &self.by_kind
    }

    /// Per-predicate histograms, keyed by predicate display form.
    pub fn by_predicate(&self) -> &BTreeMap<String, QErrorHistogram> {
        &self.by_predicate
    }

    /// Total observations folded in.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The `k` worst-estimated nodes, worst first, under the total
    /// content order (`k` is clamped to the retained candidate set).
    pub fn worst(&self, k: usize) -> &[Observation] {
        &self.worst[..k.min(self.worst.len())]
    }

    /// Both histogram families flattened under prefixed series labels
    /// (`node:<kind>`, `pred:<display>`) — the shape
    /// `MetricsReport.qerror` carries into the Prometheus/JSON report.
    pub fn series(&self) -> BTreeMap<String, QErrorHistogram> {
        let mut out = BTreeMap::new();
        for (kind, h) in &self.by_kind {
            out.insert(format!("node:{kind}"), h.clone());
        }
        for (pred, h) in &self.by_predicate {
            out.insert(format!("pred:{pred}"), h.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(kind: &str, detail: &str, est: f64, actual: u64) -> Observation {
        Observation {
            fingerprint: 7,
            path: "0".to_string(),
            kind: kind.to_string(),
            detail: detail.to_string(),
            estimated: est,
            actual,
        }
    }

    #[test]
    fn q_error_edge_cases_are_defined_finite_symmetric() {
        // actual = 0, est = 0, both = 0: all floored to one row.
        for (e, a) in [(0.0, 0.0), (0.0, 10.0), (10.0, 0.0), (1e12, 0.0)] {
            let q = q_error(e, a);
            assert!(q.is_finite(), "q_error({e}, {a}) not finite");
            assert!(q >= 1.0, "q_error({e}, {a}) below 1");
            assert_eq!(q, q_error(a, e), "q_error({e}, {a}) asymmetric");
        }
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(0.0, 1.0), 1.0);
        assert_eq!(q_error(0.001, 1.0), 1.0);
        assert_eq!(q_error(0.0, 10.0), 10.0);
        assert_eq!(q_error(50.0, 5.0), 10.0);
        assert_eq!(q_error(5.0, 50.0), 10.0);
    }

    #[test]
    fn observatory_aggregates_by_kind_and_predicate() {
        let mut o = QErrorObservatory::new();
        o.observe(&obs("SeqScan", "n0.c0 = 5", 100.0, 10));
        o.observe(&obs("SeqScan", "n1.c0 < 3", 10.0, 10));
        o.observe(&obs("Join(Hash)", "n0.c0 = n1.c0", 1000.0, 1));
        assert_eq!(o.observed(), 3);
        assert_eq!(o.by_kind()["SeqScan"].count, 2);
        assert_eq!(o.by_kind()["Join(Hash)"].count, 1);
        assert_eq!(o.by_predicate().len(), 3);
        let worst = o.worst(2);
        assert_eq!(worst[0].kind, "Join(Hash)");
        assert!((worst[0].q_error() - 1000.0).abs() < 1e-9);
        assert_eq!(worst[1].detail, "n0.c0 = 5");
        let series = o.series();
        assert!(series.contains_key("node:SeqScan"));
        assert!(series.contains_key("pred:n0.c0 = n1.c0"));
    }

    #[test]
    fn nodes_without_detail_skip_the_predicate_family() {
        let mut o = QErrorObservatory::new();
        o.observe(&obs("Sort", "", 10.0, 10));
        assert_eq!(o.by_kind()["Sort"].count, 1);
        assert!(o.by_predicate().is_empty());
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let all: Vec<Observation> = (0..20)
            .map(|i| obs("SeqScan", "n0.c0 = 1", (i as f64 + 1.0) * 3.0, 7))
            .collect();
        let mut sequential = QErrorObservatory::new();
        sequential.observe_all(&all);
        let mut left = QErrorObservatory::new();
        left.observe_all(&all[..9]);
        let mut right = QErrorObservatory::new();
        right.observe_all(&all[9..]);
        let mut merged = right.clone();
        merged.merge(&left);
        assert_eq!(merged, sequential);
        let mut other_way = left.clone();
        other_way.merge(&right);
        assert_eq!(other_way, sequential);
    }
}
