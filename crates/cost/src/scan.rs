//! Access-path costing for base relations.

use sdp_catalog::{Catalog, ColId, RelId};
use sdp_query::JoinGraph;

use crate::estimate::Estimator;
use crate::params::CostParams;

/// The physical access method of a base-relation scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanKind {
    /// Sequential heap scan — cheapest way to read everything,
    /// produces no ordering.
    Seq,
    /// Full scan in index order — more expensive (random heap
    /// fetches), but emits tuples sorted by the indexed column,
    /// which later merge joins or `ORDER BY` can exploit.
    IndexFull,
    /// Selective index scan driven by a local predicate on the
    /// indexed column: touches only the matching fraction of the
    /// relation (and still emits index order).
    IndexRange,
}

/// A costed access path for one base relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPath {
    /// Access method.
    pub kind: ScanKind,
    /// Total cost of producing all tuples.
    pub cost: f64,
    /// Column whose order the output carries, if any.
    pub ordering_col: Option<ColId>,
}

/// The access paths of one relation or query node, held inline: a
/// sequential scan, a full index scan and — where a filter on the
/// indexed column drives it — a range index scan, in that order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPaths {
    paths: [ScanPath; 3],
    len: usize,
}

impl ScanPaths {
    fn push(&mut self, path: ScanPath) {
        self.paths[self.len] = path;
        self.len += 1;
    }
}

impl std::ops::Deref for ScanPaths {
    type Target = [ScanPath];

    fn deref(&self) -> &[ScanPath] {
        &self.paths[..self.len]
    }
}

impl<'a> IntoIterator for &'a ScanPaths {
    type Item = &'a ScanPath;
    type IntoIter = std::slice::Iter<'a, ScanPath>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Cost all access paths available for `rel`.
///
/// Mirrors PostgreSQL: a sequential scan is always available; a full
/// index scan is available on the relation's (single) indexed column.
/// The index scan charges `cpu_index_tuple_cost` per entry plus
/// random-page heap fetches discounted by an assumed 70 % physical
/// correlation — expensive enough that it never wins on raw cost, and
/// survives in the memo only through its interesting order, exactly
/// the dynamic interesting-order handling needs.
pub fn scan_paths(catalog: &Catalog, rel: RelId, params: &CostParams) -> ScanPaths {
    let stats = catalog.stats(rel).expect("relation exists").relation;
    let relation = catalog.relation(rel).expect("relation exists");
    let tuples = stats.tuples;
    let pages = stats.pages;

    let seq = ScanPath {
        kind: ScanKind::Seq,
        cost: pages * params.seq_page_cost + tuples * params.cpu_tuple_cost,
        ordering_col: None,
    };

    // Random heap page fetches for an unclustered full index scan,
    // discounted toward sequential by assumed correlation.
    let correlation_discount = 0.3;
    let heap_io = pages * params.seq_page_cost
        + pages * (params.random_page_cost - params.seq_page_cost) * correlation_discount;
    let index = ScanPath {
        kind: ScanKind::IndexFull,
        cost: heap_io
            + tuples * (params.cpu_index_tuple_cost + params.cpu_tuple_cost)
            + (pages.log2().max(1.0)) * params.random_page_cost,
        ordering_col: Some(relation.indexed_column),
    };

    ScanPaths {
        paths: [seq, index, seq],
        len: 2,
    }
}

/// Cost all access paths for query node `node` of `graph`, local
/// predicates included (pushed into the scan, PostgreSQL style):
///
/// * the sequential scan pays a `cpu_operator_cost` per tuple per
///   predicate on top of the unfiltered scan;
/// * the full index scan likewise (still useful for its order);
/// * when a predicate filters the *indexed* column, a selective
///   [`ScanKind::IndexRange`] path touches only the matching fraction
///   of the heap — the classical reason selective queries flip from
///   seq scans to index scans.
pub fn scan_paths_for_node(
    catalog: &Catalog,
    graph: &JoinGraph,
    node: usize,
    params: &CostParams,
) -> ScanPaths {
    let rel = graph.relation(node);
    let stats = catalog.stats(rel).expect("relation exists").relation;
    let relation = catalog.relation(rel).expect("relation exists");
    let nfilters = graph.filters_on(node).count() as f64;
    let filter_cpu = stats.tuples * nfilters * params.cpu_operator_cost;

    let mut paths = scan_paths(catalog, rel, params);
    for p in &mut paths.paths[..paths.len] {
        p.cost += filter_cpu;
    }

    // Selective index scan when the indexed column is filtered.
    let est = Estimator::new(catalog);
    let ln_indexed_sel: f64 = graph
        .filters_on(node)
        .filter(|f| f.column.col == relation.indexed_column)
        .map(|f| est.predicate_selectivity(graph, f).ln())
        .sum();
    if ln_indexed_sel < 0.0 {
        let matched = (stats.tuples * ln_indexed_sel.exp()).max(1.0);
        let residual_filters = graph
            .filters_on(node)
            .filter(|f| f.column.col != relation.indexed_column)
            .count() as f64;
        let cost = index_probe_cost(stats.tuples, stats.pages, matched, params)
            + matched * residual_filters * params.cpu_operator_cost;
        paths.push(ScanPath {
            kind: ScanKind::IndexRange,
            cost,
            ordering_col: Some(relation.indexed_column),
        });
    }
    paths
}

/// One relation's index as an index nested-loop probes it, with the
/// part of a probe's cost that depends only on the relation — the
/// B-tree descent and its `log2` — computed once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexProbe {
    descent: f64,
    pages: f64,
}

impl IndexProbe {
    /// Probe costing for an index over `inner_tuples` tuples stored on
    /// `inner_pages` heap pages.
    pub fn new(inner_tuples: f64, inner_pages: f64, params: &CostParams) -> Self {
        IndexProbe {
            // Amortized upper-page caching: a quarter of a random fetch.
            descent: inner_tuples.max(2.0).log2() * params.cpu_operator_cost
                + params.random_page_cost * 0.25,
            pages: inner_pages,
        }
    }

    /// Cost of one probe returning `matched_rows` tuples.
    pub fn cost(&self, matched_rows: f64, params: &CostParams) -> f64 {
        // Heap fetches: one random page per matched row, capped by the
        // relation size.
        let heap = params.random_page_cost * matched_rows.min(self.pages).max(0.0);
        let cpu = matched_rows * (params.cpu_index_tuple_cost + params.cpu_tuple_cost);
        self.descent + heap + cpu
    }
}

/// Cost of an index *probe* returning `matched_rows` of the inner
/// relation for one outer tuple — the inner side of an index
/// nested-loop join.
pub fn index_probe_cost(
    inner_tuples: f64,
    inner_pages: f64,
    matched_rows: f64,
    params: &CostParams,
) -> f64 {
    IndexProbe::new(inner_tuples, inner_pages, params).cost(matched_rows, params)
}

/// Cost of sorting `rows` tuples of `width` bytes (PostgreSQL-style:
/// comparison CPU plus external-merge I/O when the data exceeds
/// `work_mem`).
pub fn sort_cost(rows: f64, width: f64, params: &CostParams) -> f64 {
    let rows = rows.max(2.0);
    let cmp = 2.0 * rows * rows.log2() * params.cpu_operator_cost;
    let bytes = rows * width.max(1.0);
    if bytes <= params.work_mem_bytes {
        cmp
    } else {
        let pages = bytes / sdp_catalog::PAGE_SIZE_BYTES as f64;
        let merge_passes = (bytes / params.work_mem_bytes).log2().ceil().max(1.0);
        cmp + 2.0 * pages * params.seq_page_cost * merge_passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;

    #[test]
    fn seq_scan_is_cheaper_than_index_scan() {
        let cat = Catalog::paper();
        let params = CostParams::default();
        for r in cat.relations() {
            let paths = scan_paths(&cat, r.id, &params);
            let seq = paths.iter().find(|p| p.kind == ScanKind::Seq).unwrap();
            let idx = paths
                .iter()
                .find(|p| p.kind == ScanKind::IndexFull)
                .unwrap();
            assert!(seq.cost < idx.cost, "relation {}", r.name);
            assert!(seq.ordering_col.is_none());
            assert_eq!(idx.ordering_col, Some(r.indexed_column));
        }
    }

    #[test]
    fn scan_cost_grows_with_cardinality() {
        let cat = Catalog::paper();
        let params = CostParams::default();
        let costs: Vec<f64> = cat
            .relations()
            .iter()
            .map(|r| scan_paths(&cat, r.id, &params)[0].cost)
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn probe_cost_grows_with_matches() {
        let p = CostParams::default();
        let a = index_probe_cost(1e6, 1e4, 1.0, &p);
        let b = index_probe_cost(1e6, 1e4, 100.0, &p);
        assert!(b > a);
        // Heap fetches are capped at the relation size.
        let c = index_probe_cost(1e6, 10.0, 1e9, &p);
        assert!(c.is_finite());
    }

    #[test]
    fn probe_beats_rescan_for_selective_joins() {
        // One selective probe must be far cheaper than re-scanning a
        // million-row relation — otherwise index NLJ never wins and
        // star queries lose their structure.
        let cat = Catalog::paper();
        let p = CostParams::default();
        let big = cat.relations().last().unwrap();
        let stats = cat.stats(big.id).unwrap().relation;
        let probe = index_probe_cost(stats.tuples, stats.pages, 2.0, &p);
        let seq = scan_paths(&cat, big.id, &p)[0].cost;
        assert!(probe * 100.0 < seq);
    }

    #[test]
    fn sort_cost_superlinear_and_spills() {
        let p = CostParams::default();
        let small = sort_cost(1_000.0, 100.0, &p);
        let large = sort_cost(100_000.0, 100.0, &p);
        assert!(large > 100.0 * small); // superlinear
                                        // Spilling version strictly exceeds in-memory CPU-only bound.
        let rows: f64 = 1e6;
        let cmp_only = 2.0 * rows * rows.log2() * p.cpu_operator_cost;
        assert!(sort_cost(rows, 100.0, &p) > cmp_only);
    }

    #[test]
    fn selective_filter_on_indexed_column_beats_seq_scan() {
        use sdp_query::{ColRef, PredOp, Predicate, QueryGenerator, Topology};
        let cat = Catalog::paper();
        let params = CostParams::default();
        let q = QueryGenerator::new(&cat, Topology::Chain(2), 3).instance(0);
        // Filter node 0 on its indexed column with a tight range.
        let rel = cat.relation(q.graph.relation(0)).unwrap();
        let mut g = q.graph.clone();
        let narrow = (rel.column(rel.indexed_column).unwrap().domain_size / 100).max(1) as i64;
        g.add_filter(Predicate::new(
            ColRef::new(0, rel.indexed_column),
            PredOp::Lt,
            narrow,
        ));
        let paths = scan_paths_for_node(&cat, &g, 0, &params);
        let seq = paths.iter().find(|p| p.kind == ScanKind::Seq).unwrap();
        let range = paths
            .iter()
            .find(|p| p.kind == ScanKind::IndexRange)
            .expect("range path exists");
        assert!(
            range.cost < seq.cost,
            "1% index range ({}) should beat seq scan ({})",
            range.cost,
            seq.cost
        );
        assert_eq!(range.ordering_col, Some(rel.indexed_column));
    }

    #[test]
    fn filters_on_other_columns_only_add_cpu() {
        use sdp_query::{ColRef, PredOp, Predicate, QueryGenerator, Topology};
        let cat = Catalog::paper();
        let params = CostParams::default();
        let q = QueryGenerator::new(&cat, Topology::Chain(2), 3).instance(0);
        let rel = cat.relation(q.graph.relation(0)).unwrap();
        let other = sdp_catalog::ColId(if rel.indexed_column.0 == 0 { 1 } else { 0 });
        let mut g = q.graph.clone();
        g.add_filter(Predicate::new(ColRef::new(0, other), PredOp::Gt, 5));
        let plain = scan_paths(&cat, rel.id, &params);
        let filtered = scan_paths_for_node(&cat, &g, 0, &params);
        // No IndexRange path (indexed column unfiltered)…
        assert!(filtered.iter().all(|p| p.kind != ScanKind::IndexRange));
        // …and every path gained exactly the per-tuple filter CPU.
        for (a, b) in plain.iter().zip(&filtered) {
            assert!(b.cost > a.cost);
        }
    }

    #[test]
    fn sort_cost_handles_degenerate_inputs() {
        let p = CostParams::default();
        assert!(sort_cost(0.0, 0.0, &p).is_finite());
        assert!(sort_cost(1.0, 8.0, &p) >= 0.0);
    }
}
