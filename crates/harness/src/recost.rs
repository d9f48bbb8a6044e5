//! Re-costing a fixed plan under a (possibly different) cost model.
//!
//! Used by the statistics-robustness experiment (`extra-robustness`):
//! optimize under *noisy* (sampled) statistics, then ask what the
//! chosen plan costs under the *true* model. Under the model the plan
//! was built with, `recost` reproduces the optimizer's own cost — which
//! doubles as a strong internal-consistency test of the whole costing
//! stack.
//!
//! Joins are costed through [`JoinTerms`], the formula every optimizer
//! strategy uses, so a re-costed join is bit for bit the join the
//! optimizer costed.

use sdp_core::{PlanNode, PlanOp};
use sdp_cost::{CostModel, IndexProbe, JoinMethod, JoinSide, JoinTerms, ScanKind};
use sdp_query::{ClassId, EquivClasses, JoinGraph, RelSet};

/// The properties of a (sub)plan a join over it is costed from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Subplan {
    pub rows: f64,
    pub cost: f64,
    pub width: f64,
    pub ordering: Option<ClassId>,
}

/// Every join method applicable to `outer ⋈ inner`, in the order the
/// optimizer offers them (nested loop, index nested loop, hash, merge
/// on `class`), with its cost and the ordering of its output; `None`
/// where a method does not apply. `crossing_sel` is the joint
/// selectivity of the connecting edges, `out_rows` the output
/// cardinality and `inner_index` the probe costing of the inner's index
/// (see [`inner_probe`]).
pub(crate) fn join_alternatives(
    model: &CostModel<'_>,
    outer: &Subplan,
    inner: &Subplan,
    crossing_sel: f64,
    out_rows: f64,
    class: Option<ClassId>,
    inner_index: Option<IndexProbe>,
) -> [Option<(JoinMethod, f64, Option<ClassId>)>; 4] {
    let params = model.params();
    let terms = JoinTerms::new(
        &JoinSide::new(outer.rows, outer.width, params),
        &JoinSide::new(inner.rows, inner.width, params),
        crossing_sel,
        out_rows,
        inner_index,
        params,
    );
    let (o, i) = (outer.cost, inner.cost);
    [
        Some((
            JoinMethod::NestedLoop,
            terms.nested_loop(o, i),
            outer.ordering,
        )),
        terms
            .index_nested_loop(o)
            .map(|cost| (JoinMethod::IndexNestedLoop, cost, outer.ordering)),
        Some((JoinMethod::Hash, terms.hash(o, i), None)),
        class.map(|c| {
            let ordered = |side: &Subplan| side.ordering == Some(c);
            let cost = terms.merge(o, i, ordered(outer), ordered(inner));
            (JoinMethod::Merge, cost, Some(c))
        }),
    ]
}

/// Probe costing of `inner`'s index when an index nested loop can use
/// it, as the optimizer decides: `inner` is one base relation, indexed
/// on its column of an edge crossing from `outer`.
pub(crate) fn inner_probe(
    model: &CostModel<'_>,
    graph: &JoinGraph,
    outer: RelSet,
    inner: RelSet,
) -> Option<IndexProbe> {
    let n = inner.min_index().filter(|_| inner.len() == 1)?;
    let rel = graph.relation(n);
    let relation = model.catalog().relation(rel).expect("valid binding");
    let usable = graph.crossing_edges(outer, inner).any(|e| {
        let side = if e.left.node == n { e.left } else { e.right };
        relation.has_index_on(side.col)
    });
    usable.then(|| {
        let stats = model.catalog().stats(rel).expect("valid binding").relation;
        IndexProbe::new(stats.tuples, stats.pages, model.params())
    })
}

/// Total cost of `plan` under `model` (with `graph` supplying
/// cardinalities and `classes` the order-class structure).
///
/// # Panics
/// Panics if the plan's shape is inconsistent with the graph (wrong
/// children counts); such plans cannot come out of the optimizer.
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
) -> Subplan {
    let est = model.estimator();
    match &node.op {
        PlanOp::SeqScan { node: n, .. } | PlanOp::IndexScan { node: n, .. } => {
            let n = usize::from(*n);
            let set = RelSet::single(n);
            let wanted = match node.op {
                PlanOp::SeqScan { .. } => ScanKind::Seq,
                _ => ScanKind::IndexFull,
            };
            let paths = model.scan_paths_for_node(graph, n);
            let path = paths
                .iter()
                .find(|p| {
                    p.kind == wanted
                        || (wanted == ScanKind::IndexFull && p.kind == ScanKind::IndexRange)
                })
                .or_else(|| paths.first())
                .expect("scan paths are never empty");
            Subplan {
                rows: est.rows_for_set(graph, set),
                cost: path.cost,
                width: est.width_for_set(graph, set),
                ordering: node.ordering,
            }
        }
        PlanOp::Sort {
            class,
            input: [input],
        } => {
            let child = walk(input, model, graph, classes);
            Subplan {
                cost: child.cost + model.sort_cost(child.rows, child.width),
                ordering: Some(*class),
                ..child
            }
        }
        PlanOp::Join {
            method,
            inputs: [outer_node, inner_node],
        } => {
            let outer = walk(outer_node, model, graph, classes);
            let inner = walk(inner_node, model, graph, classes);
            let (oset, iset) = (outer_node.set, inner_node.set);
            let out_rows = est.rows_for_set(graph, oset | iset);
            // The merge class is the plan node's recorded ordering (if
            // merge), else any crossing class.
            let class = node.ordering.or_else(|| {
                graph
                    .crossing_edges(oset, iset)
                    .find_map(|e| classes.class_of(e.left))
            });
            let alternatives = join_alternatives(
                model,
                &outer,
                &inner,
                est.crossing_selectivity(graph, oset, iset),
                out_rows,
                class,
                inner_probe(model, graph, oset, iset),
            );
            let cost_of = |wanted: JoinMethod| {
                alternatives
                    .iter()
                    .flatten()
                    .find(|(m, _, _)| *m == wanted)
                    .map(|&(_, cost, _)| cost)
            };
            // A plan built under different statistics may pick a method
            // inapplicable here (e.g. INL without a usable index under
            // the true catalog); charge the plain nested loop then.
            let cost = cost_of(*method)
                .or_else(|| cost_of(JoinMethod::NestedLoop))
                .expect("nested loop always applies");
            Subplan {
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
    use sdp_catalog::Catalog;
    use sdp_core::{Algorithm, Budget, EnumContext, Optimizer, SdpConfig};
    use sdp_engine::{analyze_database, scaled_catalog, Database};
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
                let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
                let plan = sdp_core::dp::optimize_complete(&mut ctx).unwrap();
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

    /// `extra-robustness` instance 0: each algorithm's plan under the
    /// sampled statistics, re-costed under the sampled model (the
    /// plan's own cost) and under the true one (what the experiment
    /// reports), bit for bit as before re-costing moved onto
    /// `JoinTerms`.
    #[test]
    fn extra_robustness_instance_zero_recosts_to_the_pinned_bits() {
        let analytic = scaled_catalog(12, 2000, 7);
        let db = Database::generate(&analytic, 42);
        let mut sampled = analytic.clone();
        sampled.replace_stats(analyze_database(&analytic, &db, 150, 99));
        let true_model = CostModel::with_defaults(&analytic);
        let sampled_model = CostModel::with_defaults(&sampled);
        let q = QueryGenerator::new(&analytic, Topology::star_chain(10), 0x5d9_2007)
            .with_filter_probability(0.8)
            .instance(0);
        let mut rewritten = q.clone();
        infer_transitive_edges(&mut rewritten.graph);
        let classes = rewritten.equiv_classes();
        for (alg, plan_bits, true_bits) in [
            (Algorithm::Dp, 0x405dd445bec2b9ca, 0x405d97b29478e1fd),
            (
                Algorithm::Idp { k: 4 },
                0x405dd660fa85c0d9,
                0x405da039d717ee2a,
            ),
            (
                Algorithm::Sdp(SdpConfig::paper()),
                0x405dda21c80ec66a,
                0x405da1500c09537b,
            ),
            (Algorithm::Goo, 0x405de766d958047f, 0x405da19a9c6634dc),
        ] {
            let plan = Optimizer::new(&sampled).optimize(&q, alg).unwrap();
            assert_eq!(plan.cost.to_bits(), plan_bits, "{}", alg.label());
            let under = |model| recost(&plan.root, model, &rewritten.graph, &classes).to_bits();
            assert_eq!(under(&sampled_model), plan_bits, "{}", alg.label());
            assert_eq!(under(&true_model), true_bits, "{}", alg.label());
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
