//! Cardinality and selectivity estimation.
//!
//! The classical System-R / PostgreSQL estimation stack:
//!
//! * equi-join selectivity `sel(a = b) = 1 / max(ndv(a), ndv(b))`,
//!   corrected upward for skewed columns;
//! * result size of a join-composite `S`:
//!   `|S| = Π |R_i| · Π sel(e)` over base relations and internal
//!   edges, under attribute-value independence;
//! * the paper's JCR *Selectivity* feature,
//!   `sel(S) = |S| / Π |R_i| = Π sel(e)` — exactly the Figure 2.3
//!   definition ("the output selectivity of the JCR relative to the
//!   product of the sizes of its base relations").
//!
//! All products are accumulated in natural-log space: a 45-way join of
//! 2.5 M-row relations overflows `f64` multiplication, but its log is
//! a modest number.

use sdp_catalog::Catalog;
use sdp_query::{JoinEdge, JoinGraph, PredOp, Predicate, RelSet};

/// Floor applied to estimated row counts (PostgreSQL clamps to 1).
const MIN_ROWS: f64 = 1.0;
/// Ceiling guarding against `exp` overflow in pathological graphs.
const MAX_LN_ROWS: f64 = 690.0; // exp(690) ≈ 1e299

/// Cardinality estimator bound to a catalog.
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    catalog: &'a Catalog,
}

impl<'a> Estimator<'a> {
    /// Create an estimator over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Estimator { catalog }
    }

    /// The catalog this estimator reads statistics from.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Estimated selectivity of a single equi-join edge.
    ///
    /// `1 / max(ndv_left, ndv_right)`, multiplied by the geometric
    /// mean of the two sides' skew factors, clamped to `(0, 1]`.
    pub fn edge_selectivity(&self, graph: &JoinGraph, edge: &JoinEdge) -> f64 {
        let stat = |node: usize, col| {
            let rel = graph.relation(node);
            self.catalog
                .stats(rel)
                .expect("graph bindings are valid")
                .column(col)
                .expect("edge columns are valid")
                .to_owned()
        };
        let l = stat(edge.left.node, edge.left.col);
        let r = stat(edge.right.node, edge.right.col);
        let ndv = l.n_distinct.max(r.n_distinct).max(1.0);
        let skew = (l.skew_factor * r.skew_factor).sqrt();
        (skew / ndv).clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Natural log of the product of base-relation cardinalities of
    /// `set`.
    pub fn ln_base_product(&self, graph: &JoinGraph, set: RelSet) -> f64 {
        set.iter()
            .map(|node| {
                let rel = graph.relation(node);
                (self
                    .catalog
                    .relation(rel)
                    .expect("graph bindings are valid")
                    .cardinality as f64)
                    .max(1.0)
                    .ln()
            })
            .sum()
    }

    /// Natural log of the joint selectivity of all edges internal to
    /// `set` (0.0 for singletons).
    pub fn ln_internal_selectivity(&self, graph: &JoinGraph, set: RelSet) -> f64 {
        graph
            .internal_edges(set)
            .map(|e| self.edge_selectivity(graph, e).ln())
            .sum()
    }

    /// Estimated selectivity of a single local selection predicate.
    ///
    /// Equality uses the per-column distinct count (with skew
    /// correction); range predicates use the column's equi-depth
    /// histogram (PostgreSQL style), falling back to the analytic
    /// distribution CDF for columns without one.
    pub fn predicate_selectivity(&self, graph: &JoinGraph, pred: &Predicate) -> f64 {
        let rel = graph.relation(pred.column.node);
        let relation = self.catalog.relation(rel).expect("valid binding");
        let column = relation.column(pred.column.col).expect("valid column");
        let analyzed = self.catalog.stats(rel).expect("valid binding");
        let stats = analyzed.column(pred.column.col).expect("valid column");
        let fraction_below = |v: i64| -> f64 {
            match analyzed.histogram(pred.column.col) {
                Some(h) => h.fraction_below(v),
                None => {
                    let domain = column.domain_size.max(1) as f64;
                    column.distribution.cdf((v as f64 / domain).clamp(0.0, 1.0))
                }
            }
        };
        let sel = match pred.op {
            PredOp::Eq => stats.eq_selectivity(),
            PredOp::Lt => fraction_below(pred.value),
            PredOp::Le => fraction_below(pred.value) + stats.eq_selectivity(),
            PredOp::Gt => 1.0 - fraction_below(pred.value) - stats.eq_selectivity(),
            PredOp::Ge => 1.0 - fraction_below(pred.value),
        };
        sel.clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Natural log of the joint selectivity of all local predicates on
    /// nodes of `set` (independence assumption; 0.0 when none).
    pub fn ln_filter_selectivity(&self, graph: &JoinGraph, set: RelSet) -> f64 {
        graph
            .filters()
            .iter()
            .filter(|f| set.contains(f.column.node))
            .map(|f| self.predicate_selectivity(graph, f).ln())
            .sum()
    }

    /// Estimated output rows of the join-composite `set`, local
    /// predicates included.
    /// Reference code for the harness and the optimizer's oracles, which
    /// sums its ln terms from per-run tables and matches it bit for bit.
    pub fn rows_for_set(&self, graph: &JoinGraph, set: RelSet) -> f64 {
        self.rows_from_ln(
            self.ln_base_product(graph, set)
                + self.ln_internal_selectivity(graph, set)
                + self.ln_filter_selectivity(graph, set),
        )
    }

    /// Clamp and exponentiate a natural-log row estimate — the exact
    /// final step of [`Estimator::rows_for_set`], exposed for callers
    /// that accumulate the ln terms incrementally (per-vertex base
    /// products plus per-edge selectivities) instead of recomputing
    /// them per set.
    pub fn rows_from_ln(&self, ln: f64) -> f64 {
        ln.min(MAX_LN_ROWS).exp().max(MIN_ROWS)
    }

    /// Exponentiate and clamp a natural-log selectivity to `(0, 1]` —
    /// the exact final step of [`Estimator::selectivity_for_set`] and
    /// [`Estimator::crossing_selectivity`], exposed like
    /// [`Estimator::rows_from_ln`] for callers that sum the ln terms
    /// themselves.
    pub fn selectivity_from_ln(&self, ln: f64) -> f64 {
        ln.exp().clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// The paper's JCR *Selectivity* feature: output rows relative to
    /// the product of base cardinalities (`Π sel` over internal edges
    /// and local predicates; 1.0 for unfiltered singletons).
    /// Reference code, like [`Estimator::rows_for_set`].
    pub fn selectivity_for_set(&self, graph: &JoinGraph, set: RelSet) -> f64 {
        self.selectivity_from_ln(
            self.ln_internal_selectivity(graph, set) + self.ln_filter_selectivity(graph, set),
        )
    }

    /// Joint selectivity of the edges crossing between disjoint sets
    /// `a` and `b` — the factor a join of the two applies on top of
    /// the input cardinalities.
    /// Reference code, like [`Estimator::rows_for_set`].
    pub fn crossing_selectivity(&self, graph: &JoinGraph, a: RelSet, b: RelSet) -> f64 {
        let ln: f64 = graph
            .crossing_edges(a, b)
            .map(|e| self.edge_selectivity(graph, e).ln())
            .sum();
        self.selectivity_from_ln(ln)
    }

    /// Estimated average tuple width (bytes) of the composite —
    /// the sum of the participating relations' tuple widths, as a
    /// PostgreSQL-style projection-free upper bound.
    pub fn width_for_set(&self, graph: &JoinGraph, set: RelSet) -> f64 {
        set.iter()
            .map(|node| {
                self.catalog
                    .relation(graph.relation(node))
                    .expect("graph bindings are valid")
                    .tuple_width_bytes() as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;
    use sdp_query::{QueryGenerator, Topology};

    fn chain_query(n: usize) -> (Catalog, sdp_query::Query) {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Chain(n), 7).instance(0);
        (cat, q)
    }

    #[test]
    fn singleton_rows_match_catalog() {
        let (cat, q) = chain_query(3);
        let est = Estimator::new(&cat);
        for node in 0..3 {
            let rows = est.rows_for_set(&q.graph, RelSet::single(node));
            let card = cat.relation(q.graph.relation(node)).unwrap().cardinality as f64;
            assert!((rows - card).abs() < 1e-6);
            assert_eq!(est.selectivity_for_set(&q.graph, RelSet::single(node)), 1.0);
        }
    }

    #[test]
    fn join_rows_below_cross_product() {
        let (cat, q) = chain_query(4);
        let est = Estimator::new(&cat);
        let pair = RelSet::from_indices([0, 1]);
        let rows = est.rows_for_set(&q.graph, pair);
        let cross = est.ln_base_product(&q.graph, pair).exp();
        assert!(rows <= cross);
        assert!(rows >= 1.0);
    }

    #[test]
    fn selectivity_matches_rows_over_base_product() {
        let (cat, q) = chain_query(5);
        let est = Estimator::new(&cat);
        let set = RelSet::from_indices([0, 1, 2]);
        let rows = est.rows_for_set(&q.graph, set);
        let sel = est.selectivity_for_set(&q.graph, set);
        let base = est.ln_base_product(&q.graph, set).exp();
        let ratio = rows / (sel * base);
        assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn estimates_monotone_under_edge_addition() {
        // Adding an edge (extra predicate) can only shrink the result.
        let (cat, q) = chain_query(4);
        let est = Estimator::new(&cat);
        let set = RelSet::from_indices([0, 1, 2, 3]);
        let before = est.rows_for_set(&q.graph, set);
        let mut g2 = q.graph.clone();
        g2.add_edge(sdp_query::JoinEdge::new(
            sdp_query::ColRef::new(0, sdp_catalog::ColId(5)),
            sdp_query::ColRef::new(3, sdp_catalog::ColId(5)),
        ));
        let after = est.rows_for_set(&g2, set);
        assert!(after <= before);
    }

    #[test]
    fn large_star_does_not_overflow() {
        let cat = Catalog::extended(50);
        let q = QueryGenerator::new(&cat, Topology::Star(45), 3).instance(0);
        let est = Estimator::new(&cat);
        let all = q.graph.all_nodes();
        let rows = est.rows_for_set(&q.graph, all);
        assert!(rows.is_finite());
        assert!(rows >= 1.0);
        let sel = est.selectivity_for_set(&q.graph, all);
        assert!(sel > 0.0 && sel <= 1.0);
    }

    #[test]
    fn crossing_selectivity_composes_with_inputs() {
        let (cat, q) = chain_query(4);
        let est = Estimator::new(&cat);
        let a = RelSet::from_indices([0, 1]);
        let b = RelSet::from_indices([2, 3]);
        let joined = est.rows_for_set(&q.graph, a | b);
        let composed = est.rows_for_set(&q.graph, a)
            * est.rows_for_set(&q.graph, b)
            * est.crossing_selectivity(&q.graph, a, b);
        let rel_err = (joined - composed).abs() / joined.max(1.0);
        assert!(rel_err < 1e-6, "rel_err {rel_err}");
    }

    #[test]
    fn skewed_catalog_raises_selectivity() {
        let uni = Catalog::paper();
        let skw = Catalog::paper_skewed();
        // Average edge selectivity over some instances should be
        // higher (more matches) under skew.
        let avg = |cat: &Catalog| -> f64 {
            let gen = QueryGenerator::new(cat, Topology::Chain(6), 5);
            let est = Estimator::new(cat);
            let mut sum = 0.0;
            let mut n = 0;
            for q in gen.instances(10) {
                for e in q.graph.edges() {
                    sum += est.edge_selectivity(&q.graph, e).ln();
                    n += 1;
                }
            }
            (sum / n as f64).exp()
        };
        assert!(avg(&skw) > avg(&uni));
    }

    #[test]
    fn predicate_selectivities_partition_the_domain() {
        use sdp_query::{ColRef, PredOp, Predicate};
        let (cat, q) = chain_query(2);
        let est = Estimator::new(&cat);
        let col = ColRef::new(0, sdp_catalog::ColId(3));
        let rel = cat.relation(q.graph.relation(0)).unwrap();
        let mid = (rel.column(col.col).unwrap().domain_size / 2) as i64;
        let lt = est.predicate_selectivity(&q.graph, &Predicate::new(col, PredOp::Lt, mid));
        let ge = est.predicate_selectivity(&q.graph, &Predicate::new(col, PredOp::Ge, mid));
        // `< v` and `>= v` partition the domain.
        assert!((lt + ge - 1.0).abs() < 1e-9, "lt {lt} + ge {ge}");
        let eq = est.predicate_selectivity(&q.graph, &Predicate::new(col, PredOp::Eq, mid));
        assert!(eq > 0.0 && eq < lt);
        // Uniform: midpoint splits ~50/50.
        assert!((lt - 0.5).abs() < 0.01, "lt {lt}");
    }

    #[test]
    fn filters_shrink_row_estimates() {
        use sdp_query::{ColRef, PredOp, Predicate};
        let (cat, q) = chain_query(3);
        let est = Estimator::new(&cat);
        let set = RelSet::from_indices([0, 1, 2]);
        let before = est.rows_for_set(&q.graph, set);
        let mut g = q.graph.clone();
        let col = ColRef::new(1, sdp_catalog::ColId(7));
        let rel = cat.relation(g.relation(1)).unwrap();
        let quarter = (rel.column(col.col).unwrap().domain_size / 4) as i64;
        g.add_filter(Predicate::new(col, PredOp::Lt, quarter));
        let after = est.rows_for_set(&g, set);
        assert!(after < before * 0.5, "before {before}, after {after}");
        // Selectivity feature shrinks too.
        assert!(est.selectivity_for_set(&g, set) < est.selectivity_for_set(&q.graph, set));
        // Filters on nodes outside the set do not apply.
        assert_eq!(est.ln_filter_selectivity(&g, RelSet::single(0)), 0.0);
    }

    #[test]
    fn width_sums_participants() {
        let (cat, q) = chain_query(3);
        let est = Estimator::new(&cat);
        let w1 = est.width_for_set(&q.graph, RelSet::single(0));
        let w2 = est.width_for_set(&q.graph, RelSet::from_indices([0, 1]));
        assert!(w2 > w1);
        assert_eq!(w1, 24.0 * 8.0);
    }
}
