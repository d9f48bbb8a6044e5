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
            partitioning: Partitioning::ParentHub,
            skyline: SkylineOption::PairwiseUnion,
        })),
        Just(Algorithm::Sdp(SdpConfig {
            partitioning: Partitioning::Global,
            skyline: SkylineOption::FullVector,
        })),
        (2usize..4).prop_map(|k| Algorithm::Sdp(SdpConfig {
            partitioning: Partitioning::RootHub,
            skyline: SkylineOption::KDominant(k),
        })),
        Just(Algorithm::Goo),
    ]
}

/// Raw material for a random connected join graph of `n ≤ 12` nodes:
/// a relation-shuffle seed, spanning-tree parent choices (node `i + 1`
/// attaches to `parents[i] % (i + 1)`), and extra edge candidates.
#[allow(clippy::type_complexity)]
fn arb_connected_graph_parts() -> impl Strategy<Value = (usize, u64, Vec<u64>, Vec<(u64, u64)>)> {
    (
        4usize..=12,
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 11usize),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=12),
    )
}

/// Materialize the parts into a query: `n` distinct paper-catalog
/// relations (seeded shuffle), a spanning tree, then deduplicated
/// extra edges. Each edge endpoint takes the node's next unused column
/// (the paper catalog has 24 per relation, more than any node's
/// possible degree here), so no join columns are accidentally shared.
fn random_connected_query(
    n: usize,
    rel_seed: u64,
    parents: &[u64],
    extras: &[(u64, u64)],
) -> Query {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rels: Vec<usize> = (0..25).collect();
    rels.shuffle(&mut rand::rngs::StdRng::seed_from_u64(rel_seed));
    let bindings: Vec<RelId> = rels[..n].iter().map(|&r| RelId(r as u32)).collect();
    let mut col_next = vec![0u16; n];
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    let add = |u: usize, v: usize, col_next: &mut Vec<u16>, edges: &mut Vec<JoinEdge>| {
        let (cu, cv) = (col_next[u], col_next[v]);
        col_next[u] += 1;
        col_next[v] += 1;
        edges.push(JoinEdge::new(
            ColRef::new(u, ColId(cu)),
            ColRef::new(v, ColId(cv)),
        ));
    };
    for (i, &p) in parents.iter().enumerate() {
        let (u, v) = ((p as usize) % (i + 1), i + 1);
        seen.insert((u.min(v), u.max(v)));
        add(u, v, &mut col_next, &mut edges);
    }
    for &(a, b) in extras {
        let (u, v) = ((a as usize) % n, (b as usize) % n);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            add(u, v, &mut col_next, &mut edges);
        }
    }
    Query::new(JoinGraph::new(bindings, edges))
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

    /// Parallel enumeration is invisible: for any topology, seed and
    /// enumeration algorithm, running with 1 worker thread and with
    /// several produces the identical chosen plan — bit-identical
    /// cost and the same join order — and identical effort counters.
    #[test]
    fn parallelism_is_deterministic(
        topo in prop_oneof![
            (5usize..10).prop_map(Topology::Star),
            (5usize..9).prop_map(Topology::Chain),
            (6usize..11).prop_map(Topology::star_chain),
        ],
        seed in 0u64..500,
        alg in prop_oneof![
            Just(Algorithm::Dp),
            Just(Algorithm::Sdp(SdpConfig::paper())),
            (3usize..6).prop_map(|k| Algorithm::Idp { k }),
        ],
        threads in 2usize..5,
    ) {
        fn join_order(p: &sdp::core::PlanNode, out: &mut Vec<(Vec<usize>, String)>) {
            out.push((p.set.iter().collect(), format!("{:?}", p.op)));
            for c in &p.children {
                join_order(c, out);
            }
        }
        let catalog = Catalog::paper();
        let query = QueryGenerator::new(&catalog, topo, seed).instance(0);
        let run = |n: usize| {
            Optimizer::new(&catalog)
                .with_parallelism(n)
                .optimize(&query, alg)
                .unwrap()
        };
        let (seq, par) = (run(1), run(threads));
        prop_assert_eq!(seq.cost.to_bits(), par.cost.to_bits());
        prop_assert_eq!(seq.stats.plans_costed, par.stats.plans_costed);
        prop_assert_eq!(seq.stats.jcrs_processed, par.stats.jcrs_processed);
        prop_assert_eq!(seq.stats.jcrs_pruned, par.stats.jcrs_pruned);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        join_order(&seq.root, &mut a);
        join_order(&par.root, &mut b);
        prop_assert_eq!(a, b, "join order differs at {} threads", threads);
    }

    /// On arbitrary connected join graphs (not just the named
    /// topologies): DPccp emits the same multiset of joinable
    /// (csg, cmp) pairs as the level scan at every level of the
    /// exhaustive table, and both strategies produce bit-identical
    /// optimal plans under DP and under SDP.
    #[test]
    fn dpccp_equals_levelscan_on_random_graphs(
        (n, rel_seed, parents, extras) in arb_connected_graph_parts(),
    ) {
        use sdp::core::dp::run_levels_with;
        use sdp::core::enumerate::normalized_pair_multiset;
        use sdp::core::{EnumContext, LevelScan, PairEnumerator};

        let extras: Vec<(u64, u64)> = extras.into_iter().take(n).collect();
        let query = random_connected_query(n, rel_seed, &parents[..n - 1], &extras);
        let catalog = Catalog::paper();
        prop_assert!(query.graph.is_connected(query.graph.all_nodes()));

        // Pair streams over the exhaustive survivor table.
        let model = CostModel::with_defaults(&catalog);
        let mut ctx =
            EnumContext::new(&query, &model, Budget::unlimited(), 1, EnumeratorKind::from_env());
        for i in 0..n {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
        let mut scan = LevelScan::default();
        let table = run_levels_with(&mut ctx, &atoms, n, None, &mut scan).unwrap();
        let mut ccp = EnumeratorKind::Dpccp.build();
        ccp.prepare(&ctx, &atoms, n);
        for s in 2..=n {
            let a = normalized_pair_multiset(&scan.level_pairs(&ctx, &table, s));
            let b = normalized_pair_multiset(&ccp.level_pairs(&ctx, &table, s));
            prop_assert_eq!(a, b, "pair multiset diverges at level {}", s);
        }

        // Bit-identical chosen plans, end to end.
        for alg in [Algorithm::Dp, Algorithm::Sdp(SdpConfig::paper())] {
            let run = |kind: EnumeratorKind| {
                Optimizer::new(&catalog)
                    .with_enumerator(kind)
                    .optimize(&query, alg)
                    .unwrap()
            };
            let (scan, ccp) = (run(EnumeratorKind::LevelScan), run(EnumeratorKind::Dpccp));
            prop_assert_eq!(scan.cost.to_bits(), ccp.cost.to_bits(), "{}", alg.label());
            prop_assert_eq!(scan.rows.to_bits(), ccp.rows.to_bits(), "{}", alg.label());
            prop_assert_eq!(scan.stats.plans_costed, ccp.stats.plans_costed, "{}", alg.label());
            prop_assert_eq!(scan.stats.jcrs_processed, ccp.stats.jcrs_processed, "{}", alg.label());
        }
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
