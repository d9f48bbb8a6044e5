//! Seeded workload generation: instantiating topology templates
//! against a catalog.
//!
//! The paper creates query instances "through a combinatorial
//! enumeration of the relational choices — for example, with the
//! 15-relation pure-star query, the hub relation was chosen to be the
//! largest, as is usually the case in data warehousing applications,
//! and ≈ 2 M query instances were created through selection of 14 of
//! the 24 remaining relations". We sample that combinatorial space
//! with a seeded RNG so experiments are reproducible.
//!
//! Join-column placement follows Section 3.1: "In the star-component
//! of the queries, the join of the spoke relations with the hub
//! relations is on indexed columns, while in the chain-component of
//! the query, each relation in the chain joins on an indexed column
//! with its left neighbor." Ordered variants "request ordered output
//! on a randomly chosen join column".

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sdp_catalog::{Catalog, ColId, RelId};

use crate::graph::{ColRef, JoinEdge, JoinGraph};
use crate::predicate::{PredOp, Predicate};
use crate::query::Query;
use crate::topology::Topology;

/// Which order clause (if any) an instance carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderMode {
    None,
    OrderBy,
    GroupBy,
}

/// Generates reproducible query instances of one topology over a
/// catalog.
#[derive(Debug, Clone)]
pub struct QueryGenerator<'a> {
    catalog: &'a Catalog,
    topology: Topology,
    seed: u64,
    filter_probability: f64,
}

impl<'a> QueryGenerator<'a> {
    /// Create a generator. `seed` scopes the whole instance stream.
    pub fn new(catalog: &'a Catalog, topology: Topology, seed: u64) -> Self {
        assert!(
            topology.n() <= catalog.len(),
            "topology needs {} relations but catalog has {}",
            topology.n(),
            catalog.len()
        );
        QueryGenerator {
            catalog,
            topology,
            seed,
            filter_probability: 0.0,
        }
    }

    /// Attach a random local predicate to each relation with the given
    /// probability (an extension beyond the paper's pure-join
    /// workloads; 0 reproduces the paper exactly).
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_filter_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        self.filter_probability = p;
        self
    }

    /// The topology being instantiated.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Deterministically build instance number `k` (unordered).
    pub fn instance(&self, k: u64) -> Query {
        self.build(k, OrderMode::None)
    }

    /// Deterministically build the ordered variant of instance `k`
    /// (`ORDER BY` a randomly chosen join column).
    pub fn ordered_instance(&self, k: u64) -> Query {
        self.build(k, OrderMode::OrderBy)
    }

    /// Deterministically build the grouped variant of instance `k`
    /// (`GROUP BY` a randomly chosen join column — the same column the
    /// ordered variant would have picked, so ordered/grouped variants
    /// of one instance share their interesting order).
    pub fn grouped_instance(&self, k: u64) -> Query {
        self.build(k, OrderMode::GroupBy)
    }

    fn build(&self, k: u64, mode: OrderMode) -> Query {
        let mut rng = StdRng::seed_from_u64(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = self.topology.n();
        let bindings = self.choose_relations(n, &mut rng);
        let edges = self.assign_join_columns(&bindings, &mut rng);
        let mut graph = JoinGraph::new(bindings, edges);
        self.attach_filters(&mut graph, &mut rng);
        let query = Query::new(graph);
        match mode {
            OrderMode::None => query,
            OrderMode::OrderBy | OrderMode::GroupBy => {
                let edges = query.graph.edges();
                let e = edges[rng.gen_range(0..edges.len())];
                let column = if rng.gen::<bool>() { e.left } else { e.right };
                if matches!(mode, OrderMode::OrderBy) {
                    query.with_order_by(column)
                } else {
                    query.with_group_by(column)
                }
            }
        }
    }

    /// Choose the catalog relations bound to nodes `0..n`. For
    /// hub-bearing topologies the hub (node 0) is the largest
    /// relation, as in the paper.
    fn choose_relations(&self, n: usize, rng: &mut StdRng) -> Vec<RelId> {
        let hub_first = matches!(
            self.topology,
            Topology::Star(_) | Topology::StarChain { .. }
        );
        let largest = self.catalog.largest_relation();
        let mut pool: Vec<RelId> = self
            .catalog
            .relations()
            .iter()
            .map(|r| r.id)
            .filter(|&id| !hub_first || id != largest)
            .collect();
        pool.shuffle(rng);
        let mut bindings = Vec::with_capacity(n);
        if hub_first {
            bindings.push(largest);
            bindings.extend(pool.into_iter().take(n - 1));
        } else {
            bindings.extend(pool.into_iter().take(n));
        }
        assert_eq!(bindings.len(), n, "catalog too small for topology");
        bindings
    }

    /// Assign join columns to each topology edge.
    ///
    /// * Star edges `(0, s)`: the spoke side uses its indexed column,
    ///   the hub side a fresh (per-edge) column, so the pure-star
    ///   graphs have no shared join columns unless the topology itself
    ///   introduces them.
    /// * Chain edges `(i, i+1)`: the right node joins "on an indexed
    ///   column with its left neighbor"; the left side uses a fresh
    ///   column.
    /// * Other edges (cycle closers, clique fill): indexed column on
    ///   the higher-numbered side when still unused, otherwise a fresh
    ///   column.
    fn assign_join_columns(&self, bindings: &[RelId], rng: &mut StdRng) -> Vec<JoinEdge> {
        let n = bindings.len();
        let cols_per_rel = self
            .catalog
            .relation(bindings[0])
            .expect("binding valid")
            .columns
            .len();
        // Track columns already used per node to avoid accidentally
        // creating shared join columns.
        let mut used: Vec<Vec<bool>> = vec![vec![false; cols_per_rel]; n];

        let fresh_col = |node: usize, used: &mut Vec<Vec<bool>>, rng: &mut StdRng| -> ColId {
            let free: Vec<usize> = (0..cols_per_rel).filter(|&c| !used[node][c]).collect();
            let c = if free.is_empty() {
                rng.gen_range(0..cols_per_rel)
            } else {
                free[rng.gen_range(0..free.len())]
            };
            used[node][c] = true;
            ColId(c as u16)
        };
        let indexed_or_fresh =
            |node: usize, used: &mut Vec<Vec<bool>>, rng: &mut StdRng| -> ColId {
                let idx = self
                    .catalog
                    .relation(bindings[node])
                    .expect("binding valid")
                    .indexed_column;
                if !used[node][idx.0 as usize] {
                    used[node][idx.0 as usize] = true;
                    idx
                } else {
                    fresh_col(node, used, rng)
                }
            };

        let star_spokes = match self.topology {
            Topology::Star(n) => n - 1,
            Topology::StarChain { spokes, .. } => spokes,
            _ => 0,
        };

        self.topology
            .edge_pairs()
            .into_iter()
            .map(|(a, b)| {
                let (ca, cb) = if a == 0 && b <= star_spokes && star_spokes > 0 {
                    // Star edge: spoke side indexed, hub side fresh.
                    let cb = indexed_or_fresh(b, &mut used, rng);
                    let ca = fresh_col(a, &mut used, rng);
                    (ca, cb)
                } else {
                    // Chain-style edge: right side indexed, left fresh.
                    let cb = indexed_or_fresh(b, &mut used, rng);
                    let ca = fresh_col(a, &mut used, rng);
                    (ca, cb)
                };
                JoinEdge::new(ColRef::new(a, ca), ColRef::new(b, cb))
            })
            .collect()
    }
}

impl QueryGenerator<'_> {
    /// Attach random predicates per `filter_probability`: a random
    /// comparison against a random domain value, on a column not used
    /// by any join edge of the node (so join selectivities stay
    /// independent of the filter draw).
    fn attach_filters(&self, graph: &mut JoinGraph, rng: &mut StdRng) {
        if self.filter_probability <= 0.0 {
            return;
        }
        for node in 0..graph.len() {
            if rng.gen::<f64>() >= self.filter_probability {
                continue;
            }
            let rel = self
                .catalog
                .relation(graph.relation(node))
                .expect("binding valid");
            let join_cols: Vec<ColId> = graph
                .edges()
                .iter()
                .flat_map(|e| [e.left, e.right])
                .filter(|c| c.node == node)
                .map(|c| c.col)
                .collect();
            let free: Vec<usize> = (0..rel.columns.len())
                .filter(|&c| !join_cols.contains(&ColId(c as u16)))
                .collect();
            if free.is_empty() {
                continue;
            }
            let col = ColId(free[rng.gen_range(0..free.len())] as u16);
            let domain = rel.column(col).expect("valid column").domain_size.max(2);
            let op = match rng.gen_range(0..4) {
                0 => PredOp::Eq,
                1 => PredOp::Lt,
                2 => PredOp::Ge,
                _ => PredOp::Le,
            };
            let value = rng.gen_range(1..domain) as i64;
            graph.add_filter(Predicate::new(ColRef::new(node, col), op, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubs;

    #[test]
    fn star_hub_is_largest_relation() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::Star(15), 1);
        for q in (0..5).map(|k| gen.instance(k)) {
            assert_eq!(q.graph.relation(0), cat.largest_relation());
            assert_eq!(q.num_relations(), 15);
        }
    }

    #[test]
    fn star_spokes_join_on_their_indexed_columns() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::Star(8), 7);
        let q = gen.instance(0);
        for e in q.graph.edges() {
            // Spoke side is the right (higher) node; its column must
            // be the relation's indexed column.
            let spoke = e.right;
            let rel = cat.relation(q.graph.relation(spoke.node)).unwrap();
            assert!(rel.has_index_on(spoke.col));
        }
    }

    #[test]
    fn chain_right_neighbours_join_on_indexed_columns() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::Chain(10), 3);
        let q = gen.instance(0);
        for e in q.graph.edges() {
            let rel = cat.relation(q.graph.relation(e.right.node)).unwrap();
            assert!(rel.has_index_on(e.right.col));
        }
    }

    #[test]
    fn instances_are_deterministic_but_distinct() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::star_chain(15), 42);
        let a0 = gen.instance(0);
        let b0 = gen.instance(0);
        assert_eq!(a0.graph.relations(), b0.graph.relations());
        let a1 = gen.instance(1);
        assert_ne!(a0.graph.relations(), a1.graph.relations());
    }

    #[test]
    fn distinct_relations_within_an_instance() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::Clique(12), 9);
        let q = gen.instance(4);
        let mut ids: Vec<RelId> = q.graph.relations().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn star_chain_instance_has_one_root_hub() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::star_chain(15), 11);
        let q = gen.instance(0);
        assert_eq!(hubs::root_hubs(&q.graph).len(), 1);
        assert!(hubs::is_root_hub(&q.graph, 0));
    }

    #[test]
    fn ordered_instance_orders_on_a_join_column() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::Star(10), 5);
        for k in 0..5 {
            let q = gen.ordered_instance(k);
            assert!(q.order_by.is_some());
            assert!(q.order_on_join_column());
        }
    }

    #[test]
    fn grouped_instance_groups_on_the_same_column_as_ordered() {
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::Chain(8), 5);
        for k in 0..5 {
            let ordered = gen.ordered_instance(k);
            let grouped = gen.grouped_instance(k);
            assert!(grouped.order_by.is_none());
            assert!(grouped.group_by.is_some());
            assert!(grouped.order_on_join_column());
            // Same interesting order: an ordered and a grouped variant
            // of one instance target the same column.
            assert_eq!(
                ordered.interesting_order().unwrap().column,
                grouped.interesting_order().unwrap().column
            );
            assert_eq!(ordered.graph.edges(), grouped.graph.edges());
        }
    }

    #[test]
    fn no_shared_join_columns_in_pure_star() {
        // Each hub-side column must be unique, or the rewriter would
        // add clique edges to a "pure" star.
        let cat = Catalog::paper();
        let gen = QueryGenerator::new(&cat, Topology::Star(15), 2);
        let q = gen.instance(3);
        let mut hub_cols: Vec<ColId> = q.graph.edges().iter().map(|e| e.left.col).collect();
        hub_cols.sort_unstable();
        let len = hub_cols.len();
        hub_cols.dedup();
        assert_eq!(hub_cols.len(), len, "hub columns reused");
    }

    #[test]
    fn filter_probability_controls_predicates() {
        let cat = Catalog::paper();
        let none = QueryGenerator::new(&cat, Topology::Chain(8), 3).instance(0);
        assert!(none.graph.filters().is_empty());

        let always = QueryGenerator::new(&cat, Topology::Chain(8), 3).with_filter_probability(1.0);
        let q = always.instance(0);
        assert_eq!(q.graph.filters().len(), 8);
        // Filters avoid join columns.
        for f in q.graph.filters() {
            for e in q.graph.edges() {
                assert_ne!(f.column, e.left);
                assert_ne!(f.column, e.right);
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_filter_probability_rejected() {
        let cat = Catalog::paper();
        let _ = QueryGenerator::new(&cat, Topology::Chain(4), 0).with_filter_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "catalog has")]
    fn topology_larger_than_catalog_rejected() {
        let cat = Catalog::paper();
        let _ = QueryGenerator::new(&cat, Topology::Star(26), 0);
    }

    #[test]
    fn extended_catalog_supports_large_stars() {
        let cat = Catalog::extended(50);
        let gen = QueryGenerator::new(&cat, Topology::Star(45), 0);
        let q = gen.instance(0);
        assert_eq!(q.num_relations(), 45);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::relset::RelSet;
    use proptest::prelude::*;

    fn arb_topology() -> impl Strategy<Value = Topology> {
        prop_oneof![
            (2usize..16).prop_map(Topology::Chain),
            (2usize..16).prop_map(Topology::Star),
            (3usize..16).prop_map(Topology::Cycle),
            (2usize..9).prop_map(Topology::Clique),
            (3usize..16).prop_map(Topology::star_chain),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every generated instance is structurally sound: right node
        /// count, distinct relations, connected graph, edges matching
        /// the topology's edge count, and (for the paper's workloads)
        /// no accidental shared join columns within a node.
        #[test]
        fn instances_are_structurally_sound(
            topo in arb_topology(),
            seed in 0u64..100_000,
            k in 0u64..50,
        ) {
            let cat = Catalog::paper();
            let q = QueryGenerator::new(&cat, topo, seed).instance(k);
            prop_assert_eq!(q.num_relations(), topo.n());
            prop_assert_eq!(q.graph.edges().len(), topo.edge_count());
            prop_assert!(q.graph.is_connected(q.graph.all_nodes()));

            let mut rels: Vec<RelId> = q.graph.relations().to_vec();
            rels.sort_unstable();
            let before = rels.len();
            rels.dedup();
            prop_assert_eq!(rels.len(), before, "duplicate relations");

            // No column participates in two edges of the same node
            // (pure topologies stay pure after closure inference).
            let mut used: Vec<ColRef> = q
                .graph
                .edges()
                .iter()
                .flat_map(|e| [e.left, e.right])
                .collect();
            let n_refs = used.len();
            used.sort_unstable();
            used.dedup();
            prop_assert_eq!(used.len(), n_refs, "shared join column generated");
        }

        /// Hub structure matches the topology: stars and star-chains
        /// have node 0 as their unique root hub; chains and cycles
        /// have none.
        #[test]
        fn hubs_match_topology(topo in arb_topology(), seed in 0u64..10_000) {
            let cat = Catalog::paper();
            let q = QueryGenerator::new(&cat, topo, seed).instance(0);
            let hubs = crate::hubs::root_hubs(&q.graph);
            match topo {
                Topology::Chain(_) | Topology::Cycle(_) => {
                    prop_assert!(hubs.is_empty())
                }
                Topology::Star(n) if n >= 4 => {
                    prop_assert_eq!(hubs, RelSet::single(0))
                }
                Topology::StarChain { spokes, .. } if spokes >= 3 => {
                    prop_assert!(hubs.contains(0))
                }
                Topology::Clique(n) if n >= 4 => {
                    prop_assert_eq!(hubs.len(), n)
                }
                _ => {}
            }
        }

        /// Ordered variants always order on a join column, and the
        /// underlying graph matches the unordered instance.
        #[test]
        fn ordered_variants_share_structure(seed in 0u64..10_000, k in 0u64..20) {
            let cat = Catalog::paper();
            let gen = QueryGenerator::new(&cat, Topology::star_chain(9), seed);
            let plain = gen.instance(k);
            let ordered = gen.ordered_instance(k);
            prop_assert!(ordered.order_on_join_column());
            prop_assert_eq!(plain.graph.relations(), ordered.graph.relations());
            prop_assert_eq!(plain.graph.edges(), ordered.graph.edges());
        }
    }
}
