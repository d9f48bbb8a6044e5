//! Join-column equivalence classes and transitive edge inference.
//!
//! "The presence of `R.a ⋈ S.b` and `R.a ⋈ T.c` in the join-graph …
//! directly implies `S.b ⋈ T.c`. In most industrial-strength query
//! optimizers, including PostgreSQL, the optimizer rewriter itself
//! performs the inclusion of these additional edges." We reproduce the
//! rewriter here: equi-joined columns are grouped into equivalence
//! classes (union-find), and every missing edge among members of a
//! class is added to the graph. The classes double as the *order
//! classes* used for interesting-order bookkeeping: a sort on any
//! column of a class satisfies an order requirement on the class.

use sdp_catalog::ColId;

use crate::graph::{ColRef, JoinEdge, JoinGraph};

/// Identifier of a join-column equivalence class.
pub type ClassId = u32;

/// Equivalence classes of join columns, computed from a graph's edges.
///
/// Three flat buffers, whatever the number of columns and classes: the
/// join columns, ascending, each beside its class (so a column's class
/// is a binary search); the classes' members back to back; and where
/// each class's run of members ends. Classes are numbered by their
/// least column, members listed in ascending order.
#[derive(Debug, Clone)]
pub struct EquivClasses {
    /// Every column of an edge, ascending, each once, with its class.
    columns: Vec<(ColRef, ClassId)>,
    /// The members of class `c`: `members[ends[c - 1] .. ends[c]]`.
    members: Vec<ColRef>,
    /// The end of each class's run in `members`.
    ends: Vec<u32>,
}

impl EquivClasses {
    /// Compute classes from a join graph.
    pub fn new(graph: &JoinGraph) -> Self {
        let edges = graph.edges();
        let mut columns: Vec<(ColRef, ClassId)> = Vec::with_capacity(2 * edges.len());
        columns.extend(edges.iter().flat_map(|e| [(e.left, 0), (e.right, 0)]));
        columns.sort_unstable_by_key(|&(c, _)| c);
        columns.dedup_by_key(|&mut (c, _)| c);

        // Union-find over the columns' positions, held in the class
        // slots: a root is the least position of its set, so every
        // position's parent is at or before it.
        let n = columns.len();
        let at = |columns: &[(ColRef, ClassId)], c: ColRef| {
            columns
                .binary_search_by_key(&c, |&(c, _)| c)
                .expect("an edge's column is listed") as ClassId
        };
        for (i, column) in columns.iter_mut().enumerate() {
            column.1 = i as ClassId;
        }
        fn find(columns: &mut [(ColRef, ClassId)], mut x: ClassId) -> ClassId {
            while columns[x as usize].1 != x {
                let grandparent = columns[columns[x as usize].1 as usize].1;
                columns[x as usize].1 = grandparent; // path halving
                x = grandparent;
            }
            x
        }
        for e in edges {
            let (a, b) = (at(&columns, e.left), at(&columns, e.right));
            let (ra, rb) = (find(&mut columns, a), find(&mut columns, b));
            columns[ra.max(rb) as usize].1 = ra.min(rb);
        }

        // Dense class ids in the order of each class's least column: in
        // ascending position, a root opens the next class and any other
        // position takes its parent's, which is already a class id.
        let mut classes = 0;
        for i in 0..n {
            let parent = columns[i].1 as usize;
            debug_assert!(parent <= i, "a parent is at or before its child");
            columns[i].1 = if parent == i {
                classes += 1;
                classes - 1
            } else {
                columns[parent].1
            };
        }

        // The members, by a counting sort on the class.
        let mut ends = vec![0u32; classes as usize];
        for &(_, class) in &columns {
            ends[class as usize] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            (start, *end) = (start + *end, start);
        }
        let mut members = vec![ColRef::new(0, ColId(0)); n];
        for &(c, class) in &columns {
            let end = &mut ends[class as usize];
            members[*end as usize] = c;
            *end += 1;
        }
        debug_assert_eq!(
            ends.last().map_or(0, |&end| end as usize),
            n,
            "every column placed"
        );
        EquivClasses {
            columns,
            members,
            ends,
        }
    }

    /// The class of a column reference, if it participates in a join.
    pub fn class_of(&self, c: ColRef) -> Option<ClassId> {
        let at = self.columns.binary_search_by_key(&c, |&(c, _)| c).ok()?;
        Some(self.columns[at].1)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no classes (graph without edges).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Members of one class.
    pub fn members(&self, class: ClassId) -> &[ColRef] {
        let class = class as usize;
        let start = class.checked_sub(1).map_or(0, |c| self.ends[c]);
        &self.members[start as usize..self.ends[class] as usize]
    }

    /// Iterate over `(class id, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &[ColRef])> {
        (0..self.len() as ClassId).map(|c| (c, self.members(c)))
    }

    /// All classes touching the given node.
    pub fn classes_of_node(&self, node: usize) -> Vec<ClassId> {
        let mut v: Vec<ClassId> = self
            .columns
            .iter()
            .filter(|(c, _)| c.node == node)
            .map(|&(_, class)| class)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Add to `graph` every edge it lacks between two members of a
    /// class on different relations, class by class and in member
    /// order; returns the number added. `graph` is the one the classes
    /// were computed from — or one with the same classes, which the
    /// added edges leave it: each joins two members of one class.
    pub fn close(&self, graph: &mut JoinGraph) -> usize {
        let before = graph.edges().len();
        for (_, members) in self.iter() {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    if a.node != b.node {
                        graph.add_edge(JoinEdge::new(a, b));
                    }
                }
            }
        }
        graph.edges().len() - before
    }
}

/// Apply the rewriter's transitive closure: add every implied edge
/// between members of the same equivalence class that is not already
/// present. Returns the number of edges added.
///
/// "The presence of the extra edges has the potential to create new
/// hubs, and therefore provides additional opportunity for SDP."
pub fn infer_transitive_edges(graph: &mut JoinGraph) -> usize {
    EquivClasses::new(graph).close(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::RelId;

    /// R0.a ⋈ R1.b and R0.a ⋈ R2.c — shared join column on R0.
    fn shared_column_graph() -> JoinGraph {
        let rels = (0..3).map(RelId).collect();
        let a = ColRef::new(0, ColId(0));
        let b = ColRef::new(1, ColId(1));
        let c = ColRef::new(2, ColId(2));
        JoinGraph::new(rels, vec![JoinEdge::new(a, b), JoinEdge::new(a, c)])
    }

    #[test]
    fn shared_column_forms_single_class() {
        let g = shared_column_graph();
        let cl = EquivClasses::new(&g);
        assert_eq!(cl.len(), 1);
        assert_eq!(cl.members(0).len(), 3);
        let a = cl.class_of(ColRef::new(0, ColId(0)));
        let b = cl.class_of(ColRef::new(1, ColId(1)));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_join_columns_form_distinct_classes() {
        // Chain where each edge uses fresh columns: R0.c0=R1.c1,
        // R1.c2=R2.c3 — two classes.
        let rels = (0..3).map(RelId).collect();
        let g = JoinGraph::new(
            rels,
            vec![
                JoinEdge::new(ColRef::new(0, ColId(0)), ColRef::new(1, ColId(1))),
                JoinEdge::new(ColRef::new(1, ColId(2)), ColRef::new(2, ColId(3))),
            ],
        );
        let cl = EquivClasses::new(&g);
        assert_eq!(cl.len(), 2);
    }

    #[test]
    fn transitive_closure_adds_the_paper_edge() {
        // R.a ⋈ S.b ∧ R.a ⋈ T.c ⇒ S.b ⋈ T.c
        let mut g = shared_column_graph();
        let added = infer_transitive_edges(&mut g);
        assert_eq!(added, 1);
        assert!(g
            .edges()
            .iter()
            .any(|e| e.left.node == 1 && e.right.node == 2));
        // Idempotent.
        assert_eq!(infer_transitive_edges(&mut g), 0);
    }

    #[test]
    fn closure_can_create_new_hubs() {
        // Star of shared columns: R0.a joins R1, R2, R3 on the same
        // column — closure turns the spokes into a clique, making every
        // node a hub.
        let rels = (0..4).map(RelId).collect();
        let a = ColRef::new(0, ColId(0));
        let edges = (1..4)
            .map(|i| JoinEdge::new(a, ColRef::new(i, ColId(0))))
            .collect();
        let mut g = JoinGraph::new(rels, edges);
        assert_eq!(crate::hubs::root_hubs(&g).len(), 1);
        infer_transitive_edges(&mut g);
        assert_eq!(crate::hubs::root_hubs(&g).len(), 4);
    }

    #[test]
    fn classes_of_node_lists_participations() {
        let g = shared_column_graph();
        let cl = EquivClasses::new(&g);
        assert_eq!(cl.classes_of_node(0), vec![0]);
        assert_eq!(cl.classes_of_node(1), vec![0]);
        assert!(!cl.is_empty());
    }

    #[test]
    fn class_numbering_is_deterministic() {
        let g = shared_column_graph();
        let a = EquivClasses::new(&g);
        let b = EquivClasses::new(&g);
        for &(c, id) in &a.columns {
            assert_eq!(b.class_of(c), Some(id));
        }
    }

    #[test]
    fn edgeless_graph_has_no_classes() {
        let g = JoinGraph::new(vec![RelId(0)], vec![]);
        let cl = EquivClasses::new(&g);
        assert!(cl.is_empty());
        assert_eq!(cl.class_of(ColRef::new(0, ColId(0))), None);
    }

    /// The union-find over hash maps the flat classes replaced, kept as
    /// their oracle: classes numbered by their least column, members
    /// ascending.
    mod oracle {
        use std::collections::HashMap;

        use super::*;

        pub(super) struct Classes {
            pub class_of: HashMap<ColRef, ClassId>,
            pub members: Vec<Vec<ColRef>>,
        }

        impl Classes {
            pub fn new(graph: &JoinGraph) -> Self {
                let mut ids: HashMap<ColRef, usize> = HashMap::new();
                let mut parent: Vec<usize> = Vec::new();
                let mut intern = |c: ColRef, parent: &mut Vec<usize>| -> usize {
                    *ids.entry(c).or_insert_with(|| {
                        let id = parent.len();
                        parent.push(id);
                        id
                    })
                };
                fn find(parent: &mut [usize], mut x: usize) -> usize {
                    while parent[x] != x {
                        parent[x] = parent[parent[x]];
                        x = parent[x];
                    }
                    x
                }
                for e in graph.edges() {
                    let a = intern(e.left, &mut parent);
                    let b = intern(e.right, &mut parent);
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
                let mut root_to_class: HashMap<usize, ClassId> = HashMap::new();
                let mut class_of: HashMap<ColRef, ClassId> = HashMap::new();
                let mut members: Vec<Vec<ColRef>> = Vec::new();
                let mut refs: Vec<ColRef> = ids.keys().copied().collect();
                refs.sort_unstable();
                for c in refs {
                    let root = find(&mut parent, ids[&c]);
                    let class = *root_to_class.entry(root).or_insert_with(|| {
                        members.push(Vec::new());
                        (members.len() - 1) as ClassId
                    });
                    class_of.insert(c, class);
                    members[class as usize].push(c);
                }
                Classes { class_of, members }
            }

            /// The closure as the rewriter ran it over these classes.
            pub fn close(&self, graph: &mut JoinGraph) {
                for members in &self.members {
                    for i in 0..members.len() {
                        for j in i + 1..members.len() {
                            if members[i].node != members[j].node {
                                graph.add_edge(JoinEdge::new(members[i], members[j]));
                            }
                        }
                    }
                }
            }
        }
    }

    mod flat_against_the_oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random join graphs of up to 20 relations and 120 edges
            /// drawn over four columns a relation, so that columns are
            /// shared, edges repeat and graphs pass 64 edges: the flat
            /// classes are the oracle's — count, ids, members in order,
            /// every column's class — and the closure adds the oracle's
            /// edges in the oracle's order.
            #[test]
            fn flat_classes_are_the_union_find_classes(
                n in 2usize..=20,
                picks in prop::collection::vec((any::<u64>(), 0u16..4, any::<u64>(), 0u16..4), 0usize..=120),
            ) {
                let edges: Vec<JoinEdge> = picks
                    .iter()
                    .map(|&(a, ca, b, cb)| {
                        let a = (a % n as u64) as usize;
                        let b = (a + 1 + (b % (n as u64 - 1)) as usize) % n;
                        JoinEdge::new(ColRef::new(a, ColId(ca)), ColRef::new(b, ColId(cb)))
                    })
                    .collect();
                let graph = JoinGraph::new((0..n as u32).map(RelId).collect(), edges);
                let (flat, oracle) = (EquivClasses::new(&graph), oracle::Classes::new(&graph));
                prop_assert_eq!(flat.len(), oracle.members.len());
                prop_assert_eq!(flat.is_empty(), oracle.members.is_empty());
                for (class, members) in flat.iter() {
                    prop_assert_eq!(members, &oracle.members[class as usize][..]);
                    prop_assert_eq!(flat.members(class), members);
                }
                for node in 0..n {
                    for col in 0..5 {
                        let c = ColRef::new(node, ColId(col));
                        prop_assert_eq!(flat.class_of(c), oracle.class_of.get(&c).copied());
                    }
                }
                let (mut closed, mut expected) = (graph.clone(), graph.clone());
                let added = flat.close(&mut closed);
                oracle.close(&mut expected);
                prop_assert_eq!(closed.edges(), expected.edges());
                prop_assert_eq!(added, expected.edges().len() - graph.edges().len());
                // The closure leaves the classes as they were.
                let reclassed = EquivClasses::new(&closed);
                prop_assert_eq!(&reclassed.columns, &flat.columns);
                prop_assert_eq!(&reclassed.members, &flat.members);
                prop_assert_eq!(&reclassed.ends, &flat.ends);
                let mut inferred = graph.clone();
                prop_assert_eq!(infer_transitive_edges(&mut inferred), added);
                prop_assert_eq!(inferred.edges(), expected.edges());
            }
        }
    }
}
