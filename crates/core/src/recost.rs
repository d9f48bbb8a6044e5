//! Re-costing a fixed plan under a (possibly different) cost model.
//!
//! Used by the statistics-robustness experiments: optimize under
//! *noisy* (sampled) statistics, then ask what the chosen plan costs
//! under the *true* model. Under the model the plan was built with,
//! `recost` reproduces the optimizer's own cost — which doubles as a
//! strong internal-consistency test of the whole costing stack.

use sdp_cost::{CostModel, InnerIndex, JoinInput, ScanKind};
use sdp_query::{ClassId, EquivClasses, JoinGraph, RelSet};

use crate::plan::{PlanNode, PlanOp};

/// Recomputed properties of a subtree.
#[derive(Debug, Clone, Copy)]
struct Recosted {
    rows: f64,
    cost: f64,
    width: f64,
    ordering: Option<ClassId>,
}

/// Total cost of `plan` under `model` (with `graph` supplying
/// cardinalities and `classes` the order-class structure).
///
/// # Panics
/// Panics if the plan's shape is inconsistent with the graph (wrong
/// children counts); such plans cannot come out of the enumerators.
pub fn recost(
    plan: &PlanNode,
    model: &CostModel<'_>,
    graph: &JoinGraph,
    classes: &EquivClasses,
) -> f64 {
    walk(plan, model, graph, classes).cost
}

fn walk(
    node: &PlanNode,
    model: &CostModel<'_>,
    graph: &JoinGraph,
    classes: &EquivClasses,
) -> Recosted {
    let est = model.estimator();
    match &node.op {
        PlanOp::SeqScan { node: n, .. } | PlanOp::IndexScan { node: n, .. } => {
            let set = RelSet::single(*n);
            let rows = est.rows_for_set(graph, set);
            let width = est.width_for_set(graph, set);
            let wanted = match node.op {
                PlanOp::SeqScan { .. } => ScanKind::Seq,
                _ => ScanKind::IndexFull,
            };
            let paths = model.scan_paths_for_node(graph, *n);
            let path = paths
                .iter()
                .find(|p| {
                    p.kind == wanted
                        || (wanted == ScanKind::IndexFull && p.kind == ScanKind::IndexRange)
                })
                .or_else(|| paths.first())
                .expect("scan paths are never empty");
            Recosted {
                rows,
                cost: path.cost,
                width,
                ordering: node.ordering,
            }
        }
        PlanOp::Sort { class } => {
            let child = walk(&node.children[0], model, graph, classes);
            Recosted {
                rows: child.rows,
                cost: child.cost + model.sort_cost(child.rows, child.width),
                width: child.width,
                ordering: Some(*class),
            }
        }
        PlanOp::Join { method } => {
            let outer = walk(&node.children[0], model, graph, classes);
            let inner = walk(&node.children[1], model, graph, classes);
            let (oset, iset) = (node.children[0].set, node.children[1].set);
            let crossing = est.crossing_selectivity(graph, oset, iset);
            let out_rows = est.rows_for_set(graph, oset | iset);

            // Inner-index availability, mirroring the enumerator.
            let inner_index: Option<InnerIndex> = iset.min_index().and_then(|n| {
                if iset.len() != 1 {
                    return None;
                }
                let rel = graph.relation(n);
                let relation = model.catalog().relation(rel).expect("valid binding");
                let usable = graph.crossing_edges(oset, iset).any(|e| {
                    let i = if e.left.node == n { e.left } else { e.right };
                    i.node == n && relation.has_index_on(i.col)
                });
                usable.then(|| {
                    let s = model.catalog().stats(rel).expect("valid binding");
                    InnerIndex {
                        tuples: s.relation.tuples,
                        pages: s.relation.pages,
                    }
                })
            });
            // The merge class is the plan node's recorded ordering (if
            // merge), else any crossing class.
            let class = node.ordering.or_else(|| {
                graph
                    .crossing_edges(oset, iset)
                    .find_map(|e| classes.class_of(e.left))
            });
            let outer_in = JoinInput {
                rows: outer.rows,
                cost: outer.cost,
                width: outer.width,
                ordering: outer.ordering,
            };
            let inner_in = JoinInput {
                rows: inner.rows,
                cost: inner.cost,
                width: inner.width,
                ordering: inner.ordering,
            };
            let cands =
                model.join_candidates(&outer_in, &inner_in, crossing, out_rows, class, inner_index);
            let cost = cands
                .iter()
                .find(|c| c.method == *method)
                .map(|c| c.cost)
                // A plan built under different statistics may pick a
                // method inapplicable here (e.g. INL without a usable
                // index under the true catalog); charge the plain
                // nested loop in that case.
                .unwrap_or_else(|| {
                    cands
                        .iter()
                        .find(|c| c.method == sdp_cost::JoinMethod::NestedLoop)
                        .expect("nested loop always applies")
                        .cost
                });
            Recosted {
                rows: out_rows,
                cost,
                width: outer.width + inner.width,
                ordering: node.ordering,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::context::EnumContext;
    use crate::optimizer::{Algorithm, Optimizer};
    use crate::sdp::SdpConfig;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{infer_transitive_edges, QueryGenerator, Topology};

    #[test]
    fn recost_under_the_same_model_reproduces_the_cost() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        for topo in [
            Topology::Chain(6),
            Topology::Star(7),
            Topology::star_chain(8),
        ] {
            for seed in 0..3 {
                let mut q = QueryGenerator::new(&cat, topo, seed)
                    .with_filter_probability(0.3)
                    .instance(0);
                infer_transitive_edges(&mut q.graph);
                let classes = q.equiv_classes();
                let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
                let plan = crate::dp::optimize_complete(&mut ctx, None).unwrap();
                let re = recost(&plan, &model, &q.graph, &classes);
                let rel = (re - plan.cost).abs() / plan.cost;
                assert!(
                    rel < 1e-9,
                    "{topo} seed {seed}: optimizer {} vs recost {re}",
                    plan.cost
                );
            }
        }
    }

    #[test]
    fn recost_is_consistent_for_every_algorithm() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::star_chain(9), 2).ordered_instance(0);
        let optimizer = Optimizer::new(&cat);
        for alg in [
            Algorithm::Dp,
            Algorithm::Sdp(SdpConfig::paper()),
            Algorithm::Idp { k: 4 },
            Algorithm::Goo,
        ] {
            let plan = optimizer.optimize(&q, alg).unwrap();
            // The optimizer rewrites the graph (closure) before
            // planning; recost against the same rewritten graph.
            let mut rewritten = q.clone();
            infer_transitive_edges(&mut rewritten.graph);
            let classes = rewritten.equiv_classes();
            let re = recost(&plan.root, &model, &rewritten.graph, &classes);
            let rel = (re - plan.cost).abs() / plan.cost;
            assert!(rel < 1e-9, "{}: {} vs {re}", alg.label(), plan.cost);
        }
    }

    #[test]
    fn recost_under_different_statistics_differs() {
        use sdp_catalog::SchemaSpec;
        let cat = Catalog::paper();
        // A second catalog with the same shape but different RNG seed
        // (different index placement, domains).
        let other = sdp_catalog::SchemaBuilder::new(SchemaSpec {
            seed: 999,
            ..SchemaSpec::paper()
        })
        .build()
        .unwrap();
        let q = QueryGenerator::new(&cat, Topology::Star(6), 3).instance(0);
        let plan = Optimizer::new(&cat).optimize(&q, Algorithm::Dp).unwrap();
        let mut rewritten = q.clone();
        infer_transitive_edges(&mut rewritten.graph);
        let classes = rewritten.equiv_classes();
        let other_model = CostModel::with_defaults(&other);
        let re = recost(&plan.root, &other_model, &rewritten.graph, &classes);
        assert!(re.is_finite() && re > 0.0);
        assert!(
            (re - plan.cost).abs() / plan.cost > 1e-6,
            "different statistics should change the cost"
        );
    }
}
