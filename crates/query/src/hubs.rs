//! Hub identification — the trigger for SDP's localized pruning.
//!
//! The paper defines a **hub relation** as "any relation that joins
//! with three or more relations in the join graph". Hubs found in the
//! original join graph are *root hubs*: SDP partitions each level it
//! prunes by them (Root-Hub partitioning, the variant the paper
//! evaluates). Composites that acquire degree ≥ 3 at intermediate
//! levels — for example the composite `12` in the paper's Figure 2.1,
//! which has edges to relations 3, 4 and 5 — are *composite hubs*, the
//! paper's notion behind that figure; [`is_composite_hub`] tests one.

use crate::graph::JoinGraph;
use crate::relset::RelSet;

/// Degree threshold above which a (composite) relation is a hub.
pub const HUB_DEGREE: usize = 3;

/// Whether a single base relation is a hub of the original join graph
/// (a *root hub*).
pub fn is_root_hub(graph: &JoinGraph, node: usize) -> bool {
    graph.adjacent(node).len() >= HUB_DEGREE
}

/// All root hubs of the original join graph.
pub fn root_hubs(graph: &JoinGraph) -> RelSet {
    RelSet::from_indices((0..graph.len()).filter(|&i| is_root_hub(graph, i)))
}

/// Whether the composite `set` is a hub in the *contracted* join graph
/// in which `set` is treated as a single relation: it must join with
/// at least [`HUB_DEGREE`] external relations.
pub fn is_composite_hub(graph: &JoinGraph, set: RelSet) -> bool {
    graph.degree(set) >= HUB_DEGREE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ColRef, JoinEdge};
    use sdp_catalog::{ColId, RelId};

    /// The paper's Figure 2.1 example: nine relations where 1 and 7
    /// are hubs. We reconstruct a compatible shape (0-based):
    /// node 0 joins 1,2,3,4 (hub); node 6 joins 5,7,8 (hub);
    /// chain 4-5 links the two halves.
    fn figure_2_1() -> JoinGraph {
        let rels = (0..9).map(RelId).collect();
        let mut edges = Vec::new();
        let mut edge = |a: usize, b: usize| {
            edges.push(JoinEdge::new(
                ColRef::new(a, ColId(0)),
                ColRef::new(b, ColId(0)),
            ));
        };
        edge(0, 1);
        edge(0, 2);
        edge(0, 3);
        edge(0, 4);
        edge(4, 5);
        edge(5, 6);
        edge(6, 7);
        edge(6, 8);
        JoinGraph::new(rels, edges)
    }

    #[test]
    fn root_hubs_of_figure_2_1() {
        let g = figure_2_1();
        assert_eq!(root_hubs(&g), RelSet::from_indices([0, 6]));
        assert!(is_root_hub(&g, 0));
        assert!(is_root_hub(&g, 6));
        assert!(!is_root_hub(&g, 4));
    }

    #[test]
    fn composite_becomes_hub_like_paper_example() {
        // Paper: "if after the first iteration, a combination 12 is
        // retained ... it turns out to be a hub relation since it has
        // 3 join edges". Our nodes 0+1 behave the same: {0,1} still
        // joins 2, 3, 4.
        let g = figure_2_1();
        assert!(is_composite_hub(&g, RelSet::from_indices([0, 1])));
        // A pure chain composite is not a hub.
        assert!(!is_composite_hub(&g, RelSet::from_indices([4, 5])));
    }

    #[test]
    fn chain_graph_has_no_hubs() {
        let rels = (0..6).map(RelId).collect();
        let edges = (0..5)
            .map(|i| JoinEdge::new(ColRef::new(i, ColId(0)), ColRef::new(i + 1, ColId(0))))
            .collect();
        let g = JoinGraph::new(rels, edges);
        assert!(root_hubs(&g).is_empty());
        // No composite of a chain ever reaches degree 3 either.
        for a in 0..5 {
            assert!(!is_composite_hub(&g, RelSet::from_indices([a, a + 1])));
        }
    }

    #[test]
    fn whole_graph_is_never_a_hub() {
        let g = figure_2_1();
        assert!(!is_composite_hub(&g, g.all_nodes()));
    }
}
