//! A small Volcano-style (operator-at-a-time) executor for the
//! optimizer's physical plans.
//!
//! Joins are executed with the algorithm the plan prescribes — literal
//! nested loops, hash build/probe, sort-merge, and index nested-loops
//! probing the relation's real B+-tree ([`crate::BTreeIndex`]) — so
//! correctness tests cover each operator implementation, not just one
//! shared join kernel.

use std::collections::HashMap;

use sdp_catalog::Catalog;
use sdp_core::{PlanNode, PlanOp};
use sdp_cost::JoinMethod;
use sdp_query::{ColRef, Query, RelSet};

use crate::datagen::Database;

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The plan references state the executor cannot resolve.
    BadPlan(String),
    /// A (mis-estimated) intermediate result exceeded the safety cap.
    ResultTooLarge {
        /// Rows produced when the cap tripped.
        rows: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadPlan(m) => write!(f, "bad plan: {m}"),
            ExecError::ResultTooLarge { rows } => {
                write!(f, "intermediate result too large ({rows} rows)")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Safety cap on intermediate result sizes.
const MAX_ROWS: usize = 5_000_000;

/// An intermediate result: rows over the base relations of `layout`
/// (in production order — children of a join simply concatenate, so
/// the layout is plan-shape-dependent).
struct Chunk {
    layout: Vec<usize>,
    rows: Vec<Vec<i64>>,
}

/// One executed plan node's cardinality outcome: the optimizer's
/// estimate next to the row count the operator actually produced.
/// This is the raw feed for the Q-error observatory — the executor
/// stays ignorant of histograms and only reports what it saw.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeObservation {
    /// Position in the plan tree: `r` for the root, then child
    /// indices joined by dots (`r.0.1` = root's first child's second
    /// child). Stable across runs for a fixed plan shape.
    pub path: String,
    /// Operator kind label (`SeqScan`, `IndexScan`, `Sort`, or a join
    /// method label such as `HashJoin`).
    pub kind: String,
    /// The predicate the node evaluates, rendered canonically: the
    /// conjunction of base filters for scans, the crossing equi-join
    /// condition for joins, the sort class for sorts. Empty when the
    /// node filters nothing.
    pub detail: String,
    /// The optimizer's estimated output rows for this node.
    pub estimated: f64,
    /// Rows the operator actually produced.
    pub actual: u64,
}

fn path_string(path: &[usize]) -> String {
    let mut s = String::from("r");
    for p in path {
        s.push('.');
        s.push_str(&p.to_string());
    }
    s
}

/// Execute `plan` for `query` against `db`, returning the result rows
/// in canonical column order (base relations ascending by node index,
/// each contributing its full column list).
pub fn execute(
    plan: &PlanNode,
    query: &Query,
    catalog: &Catalog,
    db: &Database,
) -> Result<Vec<Vec<i64>>, ExecError> {
    let ctx = ExecCtx {
        query,
        db,
        ncols: (0..query.graph.len())
            .map(|n| {
                catalog
                    .relation(query.graph.relation(n))
                    .expect("valid binding")
                    .columns
                    .len()
            })
            .collect(),
        indexed_col: (0..query.graph.len())
            .map(|n| {
                catalog
                    .relation(query.graph.relation(n))
                    .ok()
                    .map(|r| r.indexed_column.0 as usize)
            })
            .collect(),
    };
    let chunk = ctx.run(plan)?;
    Ok(ctx.canonicalize(chunk))
}

/// Execute `plan` like [`execute`], additionally collecting one
/// [`NodeObservation`] per plan node (post-order: children before
/// parents). The plain [`execute`] path pays nothing for this — the
/// collector is threaded as an `Option` and skipped entirely when
/// absent.
pub fn execute_observed(
    plan: &PlanNode,
    query: &Query,
    catalog: &Catalog,
    db: &Database,
) -> Result<(Vec<Vec<i64>>, Vec<NodeObservation>), ExecError> {
    let ctx = ExecCtx {
        query,
        db,
        ncols: (0..query.graph.len())
            .map(|n| {
                catalog
                    .relation(query.graph.relation(n))
                    .expect("valid binding")
                    .columns
                    .len()
            })
            .collect(),
        indexed_col: (0..query.graph.len())
            .map(|n| {
                catalog
                    .relation(query.graph.relation(n))
                    .ok()
                    .map(|r| r.indexed_column.0 as usize)
            })
            .collect(),
    };
    let mut observations = Vec::new();
    let chunk = ctx.run_observed(plan, &mut Vec::new(), &mut Some(&mut observations))?;
    Ok((ctx.canonicalize(chunk), observations))
}

struct ExecCtx<'a> {
    query: &'a Query,
    db: &'a Database,
    ncols: Vec<usize>,
    /// Per node: the relation's indexed column, as a column offset.
    indexed_col: Vec<Option<usize>>,
}

impl ExecCtx<'_> {
    fn offset_of(&self, layout: &[usize], node: usize) -> Result<usize, ExecError> {
        let mut off = 0;
        for &n in layout {
            if n == node {
                return Ok(off);
            }
            off += self.ncols[n];
        }
        Err(ExecError::BadPlan(format!("node {node} not in layout")))
    }

    fn col_index(&self, layout: &[usize], c: ColRef) -> Result<usize, ExecError> {
        Ok(self.offset_of(layout, c.node)? + c.col.0 as usize)
    }

    /// Resolve the equi-join key column indices for a join of `left`
    /// and `right` chunks: `(left_keys, right_keys)`.
    fn join_keys(
        &self,
        left: &Chunk,
        right: &Chunk,
        lset: RelSet,
        rset: RelSet,
    ) -> Result<(Vec<usize>, Vec<usize>), ExecError> {
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        for e in self.query.graph.crossing_edges(lset, rset) {
            let (a, b) = if lset.contains(e.left.node) {
                (e.left, e.right)
            } else {
                (e.right, e.left)
            };
            lk.push(self.col_index(&left.layout, a)?);
            rk.push(self.col_index(&right.layout, b)?);
        }
        if lk.is_empty() {
            return Err(ExecError::BadPlan("cartesian join".into()));
        }
        Ok((lk, rk))
    }

    fn scan(&self, node: usize, sort_col: Option<usize>) -> Chunk {
        let rel = self.query.graph.relation(node);
        let table = self.db.table(rel);
        let width = self.ncols[node];
        let filters: Vec<_> = self.query.graph.filters_on(node).collect();
        let indexed = self.indexed_col[node];

        // Row visit order: the B+-tree provides index order directly
        // when the requested sort column is the indexed one.
        let row_order: Vec<usize> = match sort_col {
            Some(c) if Some(c) == indexed => self.db.btree_index(rel).scan_all(),
            _ => (0..table.rows).collect(),
        };
        let mut rows: Vec<Vec<i64>> = row_order
            .into_iter()
            .filter(|&r| {
                filters
                    .iter()
                    .all(|f| f.matches(table.value(r, f.column.col.0 as usize)))
            })
            .map(|r| (0..width).map(|c| table.value(r, c)).collect())
            .collect();
        if let Some(c) = sort_col {
            if Some(c) != indexed {
                rows.sort_by_key(|row| row[c]);
            }
        }
        Chunk {
            layout: vec![node],
            rows,
        }
    }

    /// Index nested-loop: probe the inner base relation's B+-tree per
    /// outer row. Applicable when the plan's inner child is a base
    /// scan and one crossing edge lands on its indexed column.
    fn index_nested_loop(
        &self,
        outer: &Chunk,
        inner_node: usize,
        oset: RelSet,
        iset: RelSet,
    ) -> Result<Option<Vec<Vec<i64>>>, ExecError> {
        let rel = self.query.graph.relation(inner_node);
        let indexed = match self.indexed_col[inner_node] {
            Some(c) => c,
            None => return Ok(None),
        };
        // Find the crossing edge on the indexed column; collect the
        // rest as residual predicates.
        let mut probe: Option<(usize, usize)> = None; // (outer col, inner col)
        let mut residual: Vec<(usize, usize)> = Vec::new();
        for e in self.query.graph.crossing_edges(oset, iset) {
            let (o, i) = if oset.contains(e.left.node) {
                (e.left, e.right)
            } else {
                (e.right, e.left)
            };
            let ocol = self.col_index(&outer.layout, o)?;
            let icol = i.col.0 as usize;
            if icol == indexed && probe.is_none() {
                probe = Some((ocol, icol));
            } else {
                residual.push((ocol, icol));
            }
        }
        let Some((probe_ocol, _)) = probe else {
            return Ok(None);
        };

        let table = self.db.table(rel);
        let index = self.db.btree_index(rel);
        let filters: Vec<_> = self.query.graph.filters_on(inner_node).collect();
        let width = self.ncols[inner_node];
        let mut out = Vec::new();
        for orow in &outer.rows {
            for r in index.lookup(orow[probe_ocol]) {
                let residual_ok = residual
                    .iter()
                    .all(|&(oc, ic)| orow[oc] == table.value(r, ic))
                    && filters
                        .iter()
                        .all(|f| f.matches(table.value(r, f.column.col.0 as usize)));
                if residual_ok {
                    let mut row = orow.clone();
                    row.extend((0..width).map(|c| table.value(r, c)));
                    out.push(row);
                    check_cap(out.len())?;
                }
            }
        }
        Ok(Some(out))
    }

    fn run(&self, plan: &PlanNode) -> Result<Chunk, ExecError> {
        self.run_observed(plan, &mut Vec::new(), &mut None)
    }

    /// Render the predicate a plan node evaluates — the canonical
    /// `detail` string of its [`NodeObservation`].
    fn node_detail(&self, plan: &PlanNode) -> String {
        match &plan.op {
            PlanOp::SeqScan { node, .. } | PlanOp::IndexScan { node, .. } => {
                let parts: Vec<String> = self
                    .query
                    .graph
                    .filters_on(usize::from(*node))
                    .map(|f| f.to_string())
                    .collect();
                parts.join(" AND ")
            }
            PlanOp::Sort { class, .. } => format!("class {class}"),
            PlanOp::Join {
                inputs: [outer, inner],
                ..
            } => {
                let (lset, rset) = (outer.set, inner.set);
                let parts: Vec<String> = self
                    .query
                    .graph
                    .crossing_edges(lset, rset)
                    .map(|e| {
                        let (a, b) = if lset.contains(e.left.node) {
                            (e.left, e.right)
                        } else {
                            (e.right, e.left)
                        };
                        format!("n{}.{} = n{}.{}", a.node, a.col, b.node, b.col)
                    })
                    .collect();
                parts.join(" AND ")
            }
        }
    }

    fn run_observed(
        &self,
        plan: &PlanNode,
        path: &mut Vec<usize>,
        obs: &mut Option<&mut Vec<NodeObservation>>,
    ) -> Result<Chunk, ExecError> {
        let chunk = self.run_node(plan, path, obs)?;
        if let Some(out) = obs.as_deref_mut() {
            let kind = match &plan.op {
                PlanOp::SeqScan { .. } => "SeqScan".to_string(),
                PlanOp::IndexScan { .. } => "IndexScan".to_string(),
                PlanOp::Sort { .. } => "Sort".to_string(),
                PlanOp::Join { method, .. } => method.label().to_string(),
            };
            out.push(NodeObservation {
                path: path_string(path),
                kind,
                detail: self.node_detail(plan),
                estimated: plan.rows,
                actual: chunk.rows.len() as u64,
            });
        }
        Ok(chunk)
    }

    fn run_node(
        &self,
        plan: &PlanNode,
        path: &mut Vec<usize>,
        obs: &mut Option<&mut Vec<NodeObservation>>,
    ) -> Result<Chunk, ExecError> {
        match &plan.op {
            PlanOp::SeqScan { node, .. } => Ok(self.scan(usize::from(*node), None)),
            PlanOp::IndexScan { node, col, .. } => {
                Ok(self.scan(usize::from(*node), Some(col.0 as usize)))
            }
            PlanOp::Sort {
                class,
                input: [input],
            } => {
                path.push(0);
                let child = self.run_observed(input, path, obs)?;
                path.pop();
                // Sort by any member column of the class inside the set.
                let classes = self.query.equiv_classes();
                let member = classes
                    .members(*class)
                    .iter()
                    .find(|m| plan.set.contains(m.node))
                    .copied()
                    .ok_or_else(|| ExecError::BadPlan("sort class not in set".into()))?;
                let key = self.col_index(&child.layout, member)?;
                let mut rows = child.rows;
                rows.sort_by_key(|row| row[key]);
                Ok(Chunk {
                    layout: child.layout,
                    rows,
                })
            }
            PlanOp::Join {
                method,
                inputs: [outer, inner],
            } => {
                path.push(0);
                let left = self.run_observed(outer, path, obs)?;
                path.pop();
                path.push(1);
                let right = self.run_observed(inner, path, obs)?;
                path.pop();
                let (lset, rset) = (outer.set, inner.set);
                let (lk, rk) = self.join_keys(&left, &right, lset, rset)?;
                let rows = match method {
                    JoinMethod::NestedLoop => nested_loop(&left.rows, &right.rows, &lk, &rk)?,
                    JoinMethod::IndexNestedLoop => {
                        // Probe the real B+-tree when the inner child
                        // is a base scan on its indexed join column.
                        let inner_scan_node = match &inner.op {
                            PlanOp::SeqScan { node, .. } | PlanOp::IndexScan { node, .. } => {
                                Some(usize::from(*node))
                            }
                            _ => None,
                        };
                        match inner_scan_node
                            .map(|n| self.index_nested_loop(&left, n, lset, rset))
                            .transpose()?
                            .flatten()
                        {
                            Some(rows) => rows,
                            None => hash_join(&left.rows, &right.rows, &lk, &rk)?,
                        }
                    }
                    JoinMethod::Hash => hash_join(&left.rows, &right.rows, &lk, &rk)?,
                    JoinMethod::Merge => merge_join(left.rows, right.rows, &lk, &rk)?,
                };
                let mut layout = left.layout;
                layout.extend(right.layout);
                Ok(Chunk { layout, rows })
            }
        }
    }

    /// Reorder a chunk's columns into canonical node-ascending order.
    fn canonicalize(&self, chunk: Chunk) -> Vec<Vec<i64>> {
        let mut nodes = chunk.layout.clone();
        nodes.sort_unstable();
        let mut perm: Vec<usize> = Vec::new();
        for &n in &nodes {
            let off = self
                .offset_of(&chunk.layout, n)
                .expect("node is in its own layout");
            perm.extend(off..off + self.ncols[n]);
        }
        chunk
            .rows
            .into_iter()
            .map(|row| perm.iter().map(|&i| row[i]).collect())
            .collect()
    }
}

fn check_cap(n: usize) -> Result<(), ExecError> {
    if n > MAX_ROWS {
        Err(ExecError::ResultTooLarge { rows: n })
    } else {
        Ok(())
    }
}

fn concat(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut v = Vec::with_capacity(a.len() + b.len());
    v.extend_from_slice(a);
    v.extend_from_slice(b);
    v
}

fn keys_match(l: &[i64], r: &[i64], lk: &[usize], rk: &[usize]) -> bool {
    lk.iter().zip(rk).all(|(&a, &b)| l[a] == r[b])
}

fn nested_loop(
    left: &[Vec<i64>],
    right: &[Vec<i64>],
    lk: &[usize],
    rk: &[usize],
) -> Result<Vec<Vec<i64>>, ExecError> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if keys_match(l, r, lk, rk) {
                out.push(concat(l, r));
                check_cap(out.len())?;
            }
        }
    }
    Ok(out)
}

fn hash_join(
    left: &[Vec<i64>],
    right: &[Vec<i64>],
    lk: &[usize],
    rk: &[usize],
) -> Result<Vec<Vec<i64>>, ExecError> {
    // Build on the right (the optimizer's inner side).
    let mut build: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
    for (i, r) in right.iter().enumerate() {
        let key: Vec<i64> = rk.iter().map(|&c| r[c]).collect();
        build.entry(key).or_default().push(i);
    }
    let mut out = Vec::new();
    for l in left {
        let key: Vec<i64> = lk.iter().map(|&c| l[c]).collect();
        if let Some(matches) = build.get(&key) {
            for &i in matches {
                out.push(concat(l, &right[i]));
                check_cap(out.len())?;
            }
        }
    }
    Ok(out)
}

fn merge_join(
    mut left: Vec<Vec<i64>>,
    mut right: Vec<Vec<i64>>,
    lk: &[usize],
    rk: &[usize],
) -> Result<Vec<Vec<i64>>, ExecError> {
    // Sort on the first key; residual keys filter within groups.
    let (k0l, k0r) = (lk[0], rk[0]);
    left.sort_by_key(|r| r[k0l]);
    right.sort_by_key(|r| r[k0r]);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let (a, b) = (left[i][k0l], right[j][k0r]);
        if a < b {
            i += 1;
        } else if a > b {
            j += 1;
        } else {
            // Equal group: advance both group ends.
            let ie = (i..left.len())
                .find(|&x| left[x][k0l] != a)
                .unwrap_or(left.len());
            let je = (j..right.len())
                .find(|&x| right[x][k0r] != b)
                .unwrap_or(right.len());
            for l in &left[i..ie] {
                for r in &right[j..je] {
                    if keys_match(l, r, lk, rk) {
                        out.push(concat(l, r));
                        check_cap(out.len())?;
                    }
                }
            }
            i = ie;
            j = je;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::scaled_catalog;
    use sdp_core::{Algorithm, Optimizer, SdpConfig};
    use sdp_query::{QueryGenerator, Topology};

    fn sorted(mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
        rows.sort();
        rows
    }

    #[test]
    fn join_kernels_agree() {
        // Two random row sets with a single key column each.
        let left: Vec<Vec<i64>> = (0..60).map(|i| vec![i % 7, i]).collect();
        let right: Vec<Vec<i64>> = (0..40).map(|i| vec![i, i % 5]).collect();
        let nl = nested_loop(&left, &right, &[0], &[1]).unwrap();
        let hj = hash_join(&left, &right, &[0], &[1]).unwrap();
        let mj = merge_join(left.clone(), right.clone(), &[0], &[1]).unwrap();
        assert_eq!(sorted(nl.clone()), sorted(hj));
        assert_eq!(sorted(nl), sorted(mj));
    }

    #[test]
    fn multi_key_residual_predicates_apply() {
        let left = vec![vec![1, 2], vec![1, 3]];
        let right = vec![vec![1, 2], vec![1, 9]];
        // Join on both columns: only the exact (1,2) pair matches.
        let nl = nested_loop(&left, &right, &[0, 1], &[0, 1]).unwrap();
        assert_eq!(nl.len(), 1);
        let mj = merge_join(left, right, &[0, 1], &[0, 1]).unwrap();
        assert_eq!(mj.len(), 1);
    }

    #[test]
    fn every_optimizer_plan_yields_identical_results() {
        let cat = scaled_catalog(8, 300, 11);
        let db = Database::generate(&cat, 17);
        for topo in [
            Topology::Chain(5),
            Topology::Star(5),
            Topology::star_chain(6),
        ] {
            let q = QueryGenerator::new(&cat, topo, 3).instance(0);
            let opt = Optimizer::new(&cat);
            let mut results = Vec::new();
            for alg in [
                Algorithm::Dp,
                Algorithm::Sdp(SdpConfig::paper()),
                Algorithm::Goo,
                Algorithm::Idp { k: 4 },
            ] {
                let plan = opt.optimize(&q, alg).unwrap();
                let rows = execute(&plan.root, &q, &cat, &db).unwrap();
                results.push(sorted(rows));
            }
            for r in &results[1..] {
                assert_eq!(results[0].len(), r.len(), "{topo}: row counts differ");
                assert_eq!(&results[0], r, "{topo}: results differ");
            }
        }
    }

    #[test]
    fn ordered_plan_output_is_sorted() {
        let cat = scaled_catalog(8, 300, 13);
        let db = Database::generate(&cat, 19);
        let q = QueryGenerator::new(&cat, Topology::Chain(4), 5).ordered_instance(0);
        let opt = Optimizer::new(&cat);
        let plan = opt.optimize(&q, Algorithm::Dp).unwrap();
        assert!(plan.root.ordering.is_some());

        // Execute and verify sortedness on the ORDER BY column.
        let rows = execute(&plan.root, &q, &cat, &db).unwrap();
        let target = q.order_by.unwrap().column;
        // Canonical layout: nodes ascending, each with its column
        // block.
        let mut off = 0;
        for n in 0..target.node {
            off += cat.relation(q.graph.relation(n)).unwrap().columns.len();
        }
        let col = off + target.col.0 as usize;
        for w in rows.windows(2) {
            assert!(w[0][col] <= w[1][col], "output not sorted");
        }
    }

    #[test]
    fn executor_matches_brute_force_on_two_tables() {
        let cat = scaled_catalog(4, 100, 23);
        let db = Database::generate(&cat, 29);
        let q = QueryGenerator::new(&cat, Topology::Chain(2), 7).instance(0);
        let opt = Optimizer::new(&cat);
        let plan = opt.optimize(&q, Algorithm::Dp).unwrap();
        let got = sorted(execute(&plan.root, &q, &cat, &db).unwrap());

        // Brute force over the raw tables.
        let e = q.graph.edges()[0];
        let (t0, t1) = (db.table(q.graph.relation(0)), db.table(q.graph.relation(1)));
        let (c0, c1) = (e.left.col.0 as usize, e.right.col.0 as usize);
        let mut expected = Vec::new();
        for r0 in 0..t0.rows {
            for r1 in 0..t1.rows {
                if t0.value(r0, c0) == t1.value(r1, c1) {
                    let mut row: Vec<i64> =
                        (0..t0.columns.len()).map(|c| t0.value(r0, c)).collect();
                    row.extend((0..t1.columns.len()).map(|c| t1.value(r1, c)));
                    expected.push(row);
                }
            }
        }
        assert_eq!(got, sorted(expected));
    }

    #[test]
    fn observed_execution_matches_plain_and_covers_every_node() {
        let cat = scaled_catalog(8, 300, 11);
        let db = Database::generate(&cat, 17);
        let q = QueryGenerator::new(&cat, Topology::star_chain(6), 3).instance(0);
        let opt = Optimizer::new(&cat);
        let plan = opt
            .optimize(&q, Algorithm::Sdp(SdpConfig::paper()))
            .unwrap();

        let plain = execute(&plan.root, &q, &cat, &db).unwrap();
        let (observed, obs) = execute_observed(&plan.root, &q, &cat, &db).unwrap();
        assert_eq!(plain, observed, "observation must not perturb results");

        // One observation per plan node, with unique paths and a root.
        assert_eq!(obs.len(), plan.root.node_count());
        let mut paths: Vec<&str> = obs.iter().map(|o| o.path.as_str()).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), obs.len(), "paths must be unique");
        let root = obs.iter().find(|o| o.path == "r").expect("root observed");
        assert_eq!(root.actual as usize, plain.len());
        assert_eq!(root.estimated, plan.root.rows);
        // Joins carry their equi-join condition as detail.
        assert!(obs
            .iter()
            .filter(|o| o.kind.contains("Join") || o.kind.contains("Loop"))
            .all(|o| o.detail.contains(" = ")));
    }

    #[test]
    fn observed_paths_follow_tree_structure() {
        let cat = scaled_catalog(6, 200, 7);
        let db = Database::generate(&cat, 13);
        let q = QueryGenerator::new(&cat, Topology::Chain(3), 2).instance(0);
        let opt = Optimizer::new(&cat);
        let plan = opt.optimize(&q, Algorithm::Dp).unwrap();
        let (_, obs) = execute_observed(&plan.root, &q, &cat, &db).unwrap();
        // Every non-root path's parent prefix must itself be observed.
        for o in &obs {
            if let Some((parent, _)) = o.path.rsplit_once('.') {
                assert!(
                    obs.iter().any(|p| p.path == parent),
                    "dangling path {}",
                    o.path
                );
            }
        }
    }

    #[test]
    fn result_cap_guards_blowups() {
        let left: Vec<Vec<i64>> = (0..3000).map(|_| vec![1]).collect();
        let right = left.clone();
        // 9M-row cross-ish join trips the cap.
        assert!(matches!(
            hash_join(&left, &right, &[0], &[0]),
            Err(ExecError::ResultTooLarge { .. })
        ));
    }
}
