//! Cross-crate integration: catalog → workload → optimizer → plan,
//! for every algorithm and topology combination.

use std::sync::{Arc, Weak};

use sdp::prelude::*;

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Dp,
        Algorithm::Idp { k: 4 },
        Algorithm::Idp { k: 7 },
        Algorithm::Sdp(SdpConfig::paper()),
        Algorithm::Sdp(SdpConfig {
            partitioning: Partitioning::Global,
            skyline: SkylineOption::PairwiseUnion,
        }),
        Algorithm::Sdp(SdpConfig {
            partitioning: Partitioning::RootHub,
            skyline: SkylineOption::FullVector,
        }),
        Algorithm::Goo,
    ]
}

#[test]
fn every_algorithm_handles_every_topology() {
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    for topology in [
        Topology::Chain(7),
        Topology::Star(7),
        Topology::Cycle(7),
        Topology::Clique(6),
        Topology::star_chain(8),
    ] {
        let query = QueryGenerator::new(&catalog, topology, 5).instance(0);
        for alg in all_algorithms() {
            let plan = optimizer
                .optimize(&query, alg)
                .unwrap_or_else(|e| panic!("{topology} / {}: {e}", alg.label()));
            assert_eq!(plan.root.set, query.graph.all_nodes(), "{topology}");
            assert_eq!(
                plan.root.join_count(),
                query.num_relations() - 1,
                "{topology} / {}",
                alg.label()
            );
            plan.root.check_invariants().unwrap();
            assert!(plan.cost.is_finite() && plan.cost > 0.0);
        }
    }
}

#[test]
fn dp_lower_bounds_every_heuristic() {
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    for seed in 0..3 {
        let query = QueryGenerator::new(&catalog, Topology::star_chain(9), seed).instance(0);
        let dp = optimizer.optimize(&query, Algorithm::Dp).unwrap();
        for alg in all_algorithms() {
            let plan = optimizer.optimize(&query, alg).unwrap();
            assert!(
                plan.cost >= dp.cost * (1.0 - 1e-9),
                "{} beat DP: {} < {}",
                alg.label(),
                plan.cost,
                dp.cost
            );
        }
    }
}

#[test]
fn optimization_is_deterministic() {
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    let query = QueryGenerator::new(&catalog, Topology::star_chain(9), 11).instance(3);
    for alg in all_algorithms() {
        let a = optimizer.optimize(&query, alg).unwrap();
        let b = optimizer.optimize(&query, alg).unwrap();
        assert_eq!(a.cost, b.cost, "{}", alg.label());
        assert_eq!(
            a.stats.plans_costed,
            b.stats.plans_costed,
            "{}",
            alg.label()
        );
        assert_eq!(
            a.stats.jcrs_processed,
            b.stats.jcrs_processed,
            "{}",
            alg.label()
        );
    }
}

#[test]
fn ordered_queries_enforce_the_requested_order() {
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    for seed in 0..3 {
        let query = QueryGenerator::new(&catalog, Topology::Star(7), seed).ordered_instance(0);
        assert!(query.order_on_join_column());
        for alg in all_algorithms() {
            let plan = optimizer.optimize(&query, alg).unwrap();
            assert!(
                plan.root.ordering.is_some(),
                "{}: unordered root for ordered query",
                alg.label()
            );
        }
    }
}

#[test]
fn skewed_catalog_full_pipeline() {
    let catalog = Catalog::paper_skewed();
    let optimizer = Optimizer::new(&catalog);
    let query = QueryGenerator::new(&catalog, Topology::star_chain(9), 2).instance(0);
    let dp = optimizer.optimize(&query, Algorithm::Dp).unwrap();
    let sdp = optimizer
        .optimize(&query, Algorithm::Sdp(SdpConfig::paper()))
        .unwrap();
    assert!(sdp.cost / dp.cost < 2.0, "SDP not good on skewed data");
}

/// Weak handles to every node of a plan tree.
fn weak_nodes(node: &Arc<sdp::core::PlanNode>, out: &mut Vec<Weak<sdp::core::PlanNode>>) {
    out.push(Arc::downgrade(node));
    node.children().iter().for_each(|c| weak_nodes(c, out));
}

#[test]
fn plan_memory_is_reclaimed_after_runs() {
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    let generator = QueryGenerator::new(&catalog, Topology::Star(8), 4);
    let mut served = Vec::new();
    // Ordered too, so that some plans have a root sort no memo held.
    for query in [generator.instance(0), generator.ordered_instance(0)] {
        for algorithm in [
            Algorithm::Dp,
            Algorithm::Sdp(SdpConfig::paper()),
            Algorithm::Idp { k: 4 },
            Algorithm::Goo,
        ] {
            let plan = optimizer.optimize(&query, algorithm).unwrap();
            served.push((algorithm.label(), plan.root));
        }
    }
    // A governed handoff: DP under a budget it cannot meet hands its
    // base groups down the ladder.
    let generator = QueryGenerator::new(&catalog, Topology::star_chain(7), 0xBEEF);
    let governor = Governor::new().with_memory_budget(192 << 10);
    let governed = (0..8)
        .map(|k| {
            let query = generator.instance(k);
            optimizer.optimize_governed(&query, Algorithm::Dp, &governor)
        })
        .map(Result::unwrap)
        .find(GovernedPlan::degraded)
        .expect("a run descends the ladder");
    served.push(("governed".to_string(), governed.plan.root));

    // The run is over and holds nothing: once the served tree is
    // dropped, every node of it is gone.
    for (label, root) in served {
        let mut weak = Vec::new();
        weak_nodes(&root, &mut weak);
        assert_eq!(weak.len(), root.node_count());
        drop(root);
        assert!(
            weak.iter().all(|w| w.upgrade().is_none()),
            "{label}: plan nodes leaked after dropping the result"
        );
    }
}
