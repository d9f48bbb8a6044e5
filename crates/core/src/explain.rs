//! Plan pretty-printing, in the spirit of `EXPLAIN`, plus the
//! provenance-carrying `EXPLAIN ANALYZE` report for governed plans.

use std::fmt::Write as _;

use crate::governor::GovernedPlan;
use crate::plan::{PlanNode, PlanOp};

/// Render a plan tree as an indented `EXPLAIN`-style listing.
pub fn explain(plan: &PlanNode) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

fn render(node: &PlanNode, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let label = match &node.op {
        PlanOp::SeqScan { rel, node } => format!("Seq Scan on {rel} (n{node})"),
        PlanOp::IndexScan { rel, node, col } => {
            format!("Index Scan on {rel}.{col} (n{node})")
        }
        PlanOp::Join { method } => method.label().to_string(),
        PlanOp::Sort { class } => format!("Sort (class {class})"),
    };
    let ordering = match node.ordering {
        Some(c) => format!(" order=c{c}"),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "{label}  (rows={:.0} cost={:.2}{ordering})",
        node.rows, node.cost
    );
    for child in &node.children {
        render(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::context::EnumContext;
    use crate::dp::optimize_complete;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn explain_renders_every_node() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(4), 3).instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_complete(&mut ctx).unwrap();
        let text = explain(&plan);
        assert_eq!(text.lines().count(), plan.node_count());
        assert!(text.contains("Scan"));
        assert!(text.contains("rows="));
    }

    #[test]
    fn explain_indents_children() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(3), 1).instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_complete(&mut ctx).unwrap();
        let text = explain(&plan);
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[0].starts_with(' '));
        assert!(lines[1].starts_with("  "));
    }
}

/// Render a governed optimization as an `EXPLAIN ANALYZE`-style
/// report carrying plan provenance: a header naming the requested and
/// producing strategies plus the governor's descent history (and, when
/// exhaustive DP ran, the first and the last incumbent bound it pruned
/// against and the plan alternatives they ruled out uncosted), the plan
/// tree annotated per node with cumulative and self cost and the rung
/// that produced it, and the per-level enumeration profile (pairs
/// considered, plans costed, pruning counters, skyline partitions and
/// survivors, interesting-order rescues, memo footprint).
pub fn explain_analyze(governed: &GovernedPlan) -> String {
    let plan = &governed.plan;
    let stats = &plan.stats;
    let rung = governed.rung_label();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "requested={}  produced={}{}",
        governed.requested.label(),
        rung,
        if governed.degraded() {
            "  (degraded)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "cost={:.2}  rows={:.0}  plans_costed={}  jcrs_processed={}  jcrs_pruned={}  peak_model_bytes={}",
        plan.cost,
        plan.rows,
        stats.plans_costed,
        stats.jcrs_processed,
        stats.jcrs_pruned,
        stats.peak_model_bytes,
    );
    if let Some(incumbent) = stats.incumbent {
        let _ = writeln!(
            out,
            "incumbent bound={:.2} -> {:.2}  plans_costed={}  ruled_out={}",
            incumbent.first, incumbent.last, incumbent.plans_costed, stats.ruled_out
        );
    }
    for d in &governed.degradations {
        let _ = write!(
            out,
            "degraded {} -> {}  reason={:?}  after={:.1}ms",
            d.from.label(),
            d.to.label(),
            d.reason,
            d.elapsed.as_secs_f64() * 1e3
        );
        if let Some(bound) = d.predicted {
            let _ = write!(
                out,
                "  (predicted, needs ≥ {:.1} MB)",
                bound as f64 / 1048576.0
            );
        }
        out.push('\n');
    }
    out.push('\n');
    render_analyze(&plan.root, 0, &rung, &mut out);
    if !plan.profile.is_empty() {
        out.push('\n');
        out.push_str("levels:\n");
        for row in &plan.profile {
            let _ = writeln!(
                out,
                "  [{}] level {}: pairs={} costed={} created={} uncosted={} pruned={} retained={} \
                 skyline_partitions={} skyline_survivors={} order_rescued={} sort_enforcers={} \
                 memo={} model_bytes={} contractions={}",
                row.phase,
                row.level,
                row.pairs,
                row.plans_costed,
                row.jcrs_created,
                row.jcrs_uncosted,
                row.jcrs_pruned,
                row.jcrs_retained,
                row.skyline_partitions,
                row.skyline_survivors,
                row.order_rescued,
                row.sort_enforcers,
                row.memo_groups,
                row.model_bytes,
                row.contractions
            );
        }
    }
    out
}

// Per-node line of the `EXPLAIN ANALYZE` tree: the `EXPLAIN` label
// plus a self-cost breakdown (`cost` is cumulative, `self` is the
// node's own contribution) and the rung that produced the node.
fn render_analyze(node: &PlanNode, depth: usize, rung: &str, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let label = match &node.op {
        PlanOp::SeqScan { rel, node } => format!("Seq Scan on {rel} (n{node})"),
        PlanOp::IndexScan { rel, node, col } => {
            format!("Index Scan on {rel}.{col} (n{node})")
        }
        PlanOp::Join { method } => method.label().to_string(),
        PlanOp::Sort { class } => format!("Sort (class {class})"),
    };
    let ordering = match node.ordering {
        Some(c) => format!(" order=c{c}"),
        None => String::new(),
    };
    let child_cost: f64 = node.children.iter().map(|c| c.cost).sum();
    let self_cost = (node.cost - child_cost).max(0.0);
    let _ = writeln!(
        out,
        "{label}  (rows={:.0} cost={:.2} self={:.2}{ordering}) [rung={rung}]",
        node.rows, node.cost, self_cost
    );
    for child in &node.children {
        render_analyze(child, depth + 1, rung, out);
    }
}

#[cfg(test)]
mod analyze_tests {
    use super::*;
    use crate::governor::Governor;
    use crate::optimizer::{Algorithm, Optimizer};
    use sdp_catalog::Catalog;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn explain_analyze_reports_rung_and_levels() {
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(6), 3).instance(0);
        let governed = Optimizer::new(&cat)
            .optimize_governed(&q, Algorithm::Dp, &Governor::new())
            .unwrap();
        let text = explain_analyze(&governed);
        assert!(text.contains("requested=DP"));
        assert!(text.contains("produced="));
        assert!(text.contains("[rung="));
        assert!(text.contains("levels:"));
        assert!(text.contains("skyline_partitions="));
        assert!(text.contains("contractions="));
        assert!(text.contains("self="));
        let stats = &governed.plan.stats;
        let incumbent = stats.incumbent.unwrap();
        assert!(incumbent.first >= incumbent.last && incumbent.last >= governed.plan.cost);
        assert!(stats.ruled_out > 0, "the bound rules plan pairs out");
        assert!(text.contains(&format!(
            "incumbent bound={:.2} -> {:.2}  plans_costed={}  ruled_out={}\n",
            incumbent.first, incumbent.last, incumbent.plans_costed, stats.ruled_out
        )));
        // One tree line per plan node, all tagged with the rung.
        assert_eq!(
            text.matches("[rung=").count(),
            governed.plan.root.node_count()
        );
    }

    #[test]
    fn explain_analyze_marks_a_predicted_descent() {
        // Star-13 under 1 MB: DP is provably doomed (room for 113
        // one-plan groups), so it is descended past, not run.
        let cat = Catalog::paper();
        let q = QueryGenerator::new(&cat, Topology::Star(13), 5).instance(0);
        let governed = Optimizer::new(&cat)
            .optimize_governed(
                &q,
                Algorithm::Dp,
                &Governor::new().with_memory_budget(1 << 20),
            )
            .unwrap();
        let text = explain_analyze(&governed);
        let line = text.lines().find(|l| l.starts_with("degraded")).unwrap();
        assert!(
            line.starts_with("degraded DP -> SDP  reason=Memory"),
            "{line}"
        );
        assert!(line.ends_with("(predicted, needs ≥ 1.0 MB)"), "{line}");
        assert!(!text.contains("[DP] level"), "no DP level was run");
        assert!(!text.contains("incumbent"), "nor its incumbent computed");
    }
}

/// Render a "worst estimates" section: the top-`k` entries by Q-error
/// from caller-supplied `(label, estimated_rows, actual_rows)` tuples
/// — typically one per executed plan node, labelled with its tree
/// path and operator. The Q-error is the symmetric ratio
/// `max(est/actual, actual/est)` with both sides floored at one row,
/// so empty results stay finite. Ties break on the label, keeping the
/// listing deterministic. Returns an empty string when `nodes` is
/// empty or `k` is zero.
pub fn worst_estimates(nodes: &[(String, f64, u64)], k: usize) -> String {
    if nodes.is_empty() || k == 0 {
        return String::new();
    }
    let q_of = |est: f64, actual: u64| -> f64 {
        let e = est.max(1.0);
        let a = (actual as f64).max(1.0);
        (e / a).max(a / e)
    };
    let mut ranked: Vec<(f64, &(String, f64, u64))> =
        nodes.iter().map(|n| (q_of(n.1, n.2), n)).collect();
    ranked.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1 .0.cmp(&b.1 .0))
            .then_with(|| a.1 .1.total_cmp(&b.1 .1))
            .then_with(|| a.1 .2.cmp(&b.1 .2))
    });
    let mut out = String::from("worst estimates:\n");
    for (q, (label, est, actual)) in ranked.into_iter().take(k) {
        let _ = writeln!(out, "  q={q:.2}  est={est:.0}  actual={actual}  {label}");
    }
    out
}

#[cfg(test)]
mod worst_tests {
    use super::*;

    #[test]
    fn worst_estimates_ranks_by_q_error() {
        let nodes = vec![
            ("r SeqScan".to_string(), 100.0, 100),
            ("r.0 HashJoin".to_string(), 10.0, 500),
            ("r.1 SeqScan".to_string(), 40.0, 10),
        ];
        let text = worst_estimates(&nodes, 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "worst estimates:");
        assert!(lines[1].contains("q=50.00") && lines[1].contains("r.0 HashJoin"));
        assert!(lines[2].contains("q=4.00") && lines[2].contains("r.1 SeqScan"));
        assert_eq!(lines.len(), 3, "k=2 caps the listing");
    }

    #[test]
    fn worst_estimates_is_defined_for_zero_rows() {
        // est=0 and actual=0 both floor at one row: finite, symmetric.
        let nodes = vec![
            ("a".to_string(), 0.0, 10),
            ("b".to_string(), 10.0, 0),
            ("c".to_string(), 0.0, 0),
        ];
        let text = worst_estimates(&nodes, 10);
        assert_eq!(text.matches("q=10.00").count(), 2);
        assert!(text.contains("q=1.00"));
        assert!(text.lines().count() == 4);
    }

    #[test]
    fn worst_estimates_empty_inputs_render_nothing() {
        assert_eq!(worst_estimates(&[], 5), "");
        assert_eq!(worst_estimates(&[("a".to_string(), 1.0, 1)], 0), "");
    }
}

/// Render a plan tree as a Graphviz `digraph`: operators as boxes,
/// data flow bottom-up, estimated rows on the edges.
pub fn plan_to_dot(plan: &PlanNode, name: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=BT; node [shape=box];");
    let mut counter = 0usize;
    fn walk(node: &PlanNode, counter: &mut usize, out: &mut String) -> usize {
        use std::fmt::Write as _;
        let id = *counter;
        *counter += 1;
        let label = match &node.op {
            PlanOp::SeqScan { rel, .. } => format!("Seq Scan {rel}"),
            PlanOp::IndexScan { rel, col, .. } => format!("Index Scan {rel}.{col}"),
            PlanOp::Join { method } => method.label().to_string(),
            PlanOp::Sort { class } => format!("Sort c{class}"),
        };
        let _ = writeln!(out, "  p{id} [label=\"{label}\\ncost {:.0}\"];", node.cost);
        for child in &node.children {
            let cid = walk(child, counter, out);
            let _ = writeln!(out, "  p{cid} -> p{id} [label=\"{:.0}\"];", child.rows);
        }
        id
    }
    walk(plan, &mut counter, &mut out);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::budget::Budget;
    use crate::context::EnumContext;
    use crate::dp::optimize_complete;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn plan_dot_has_one_box_per_operator() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(5), 2).instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_complete(&mut ctx).unwrap();
        let dot = plan_to_dot(&plan, "plan");
        assert_eq!(dot.matches("\\ncost ").count(), plan.node_count());
        // n - 1 joins + scans: each non-root node has one outgoing edge.
        assert_eq!(dot.matches(" -> ").count(), plan.node_count() - 1);
    }
}
