//! Property-based integration tests over randomized topologies,
//! seeds and configurations.

use proptest::prelude::*;
use sdp::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (4usize..9).prop_map(Topology::Chain),
        (4usize..9).prop_map(Topology::Star),
        (4usize..9).prop_map(Topology::Cycle),
        (4usize..7).prop_map(Topology::Clique),
        (5usize..10).prop_map(Topology::star_chain),
    ]
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Dp),
        (2usize..8).prop_map(|k| Algorithm::Idp { k }),
        Just(Algorithm::Sdp(SdpConfig::paper())),
        Just(Algorithm::Sdp(SdpConfig {
            partitioning: Partitioning::Global,
            skyline: SkylineOption::FullVector,
        })),
        Just(Algorithm::Goo),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (topology, seed, algorithm, orderedness) combination yields
    /// a structurally valid complete plan with sane statistics.
    #[test]
    fn optimizer_total_function(
        topo in arb_topology(),
        seed in 0u64..1000,
        alg in arb_algorithm(),
        ordered in any::<bool>(),
    ) {
        let catalog = Catalog::paper();
        let generator = QueryGenerator::new(&catalog, topo, seed);
        let query = if ordered {
            generator.ordered_instance(0)
        } else {
            generator.instance(0)
        };
        let plan = Optimizer::new(&catalog).optimize(&query, alg).unwrap();
        prop_assert_eq!(plan.root.set, query.graph.all_nodes());
        plan.root.check_invariants().unwrap();
        prop_assert!(plan.cost.is_finite() && plan.cost > 0.0);
        prop_assert!(plan.rows >= 1.0);
        prop_assert!(plan.stats.plans_costed > 0);
    }

    /// Heuristics never undercut the DP optimum (they search a subset
    /// of DP's space under the same cost model).
    #[test]
    fn dp_is_a_lower_bound(
        topo in arb_topology(),
        seed in 0u64..500,
        alg in arb_algorithm(),
    ) {
        let catalog = Catalog::paper();
        let query = QueryGenerator::new(&catalog, topo, seed).instance(0);
        let optimizer = Optimizer::new(&catalog);
        let dp = optimizer.optimize(&query, Algorithm::Dp).unwrap();
        let other = optimizer.optimize(&query, alg).unwrap();
        prop_assert!(
            other.cost >= dp.cost * (1.0 - 1e-9),
            "{} found {} below DP's {}", alg.label(), other.cost, dp.cost
        );
    }

    /// All algorithms agree on the estimated cardinality of the full
    /// result — estimates are a property of the query, not the plan.
    #[test]
    fn result_cardinality_is_plan_independent(
        topo in arb_topology(),
        seed in 0u64..500,
        alg in arb_algorithm(),
    ) {
        let catalog = Catalog::paper();
        let query = QueryGenerator::new(&catalog, topo, seed).instance(0);
        let optimizer = Optimizer::new(&catalog);
        let dp = optimizer.optimize(&query, Algorithm::Dp).unwrap();
        let other = optimizer.optimize(&query, alg).unwrap();
        let rel = (dp.rows - other.rows).abs() / dp.rows.max(1.0);
        prop_assert!(rel < 1e-6, "rows {} vs {}", dp.rows, other.rows);
    }

    /// Chains and cycles are never pruned by paper-config SDP,
    /// whatever the seed.
    #[test]
    fn no_pruning_without_hubs(n in 4usize..10, seed in 0u64..500, cycle in any::<bool>()) {
        let catalog = Catalog::paper();
        let topo = if cycle { Topology::Cycle(n) } else { Topology::Chain(n) };
        let query = QueryGenerator::new(&catalog, topo, seed).instance(0);
        let plan = Optimizer::new(&catalog)
            .optimize(&query, Algorithm::Sdp(SdpConfig::paper()))
            .unwrap();
        prop_assert_eq!(plan.stats.jcrs_pruned, 0);
    }
}
