//! Physical plan trees.
//!
//! Plans are immutable `Arc` trees: subplans are shared between every
//! tree that contains them. `Arc` (rather than `Rc`) makes plans
//! `Send + Sync`, so finished plans cross threads freely. A node is
//! its operator, which holds its inputs — none for a scan, one for a
//! sort, two for a join, so the type enforces the arity — and the
//! estimates the optimizer derived for it: 56 bytes, 72 with the
//! `Arc`'s counts (DESIGN.md, "What a cached plan costs").
//!
//! The optimizer does not keep its plans in this form. While it runs, a
//! retained plan is a record in its memo group (see [`crate::memo`]);
//! nodes exist for access paths, and for the plans that
//! `EnumContext::extract` builds from records: the one an optimization
//! returns, the blocks IDP contracts. A JCR that SDP prunes — most of
//! them, SDP's whole point —, a plan that a cheaper one evicts and a
//! plan that is kept but not served are never allocated at all.
//!
//! The run's memo counts how many plan nodes an optimizer holding every
//! retained plan as a node would have alive at any instant — its
//! records are counted one each, and the nodes the run holds are
//! counted by the one table that holds them
//! ([`crate::memo::BuiltNodes`]) — which is what makes the
//! memory-overhead measurements (paper Tables 1.2, 1.4, 2.1, 3.2, 3.3)
//! meaningful; [`crate::budget::MemoryModel`] converts that count (plus
//! the group count) into paper-equivalent megabytes. A node does not
//! know its run: the table charges a node when it takes one, and when
//! it lets one go, releases the nodes that go with it — none while a
//! served plan or another node still holds it. So a plan outlives its
//! run with nothing of the run attached.

use std::sync::Arc;

use sdp_catalog::{ColId, RelId};
use sdp_cost::JoinMethod;
use sdp_query::{ClassId, RelSet};

/// The operator at a plan node, with its inputs.
#[derive(Debug, Clone)]
pub enum PlanOp {
    // Variant tags below (see `stable_tag`) are part of the persisted
    // plan format and the structural digest — never renumber.
    /// Sequential scan of a base relation.
    SeqScan {
        /// Catalog relation scanned.
        rel: RelId,
        /// Query-local node index (below `RelSet::MAX_RELATIONS`).
        node: u16,
    },
    /// Full index-order scan of a base relation.
    IndexScan {
        /// Catalog relation scanned.
        rel: RelId,
        /// Query-local node index (below `RelSet::MAX_RELATIONS`).
        node: u16,
        /// Indexed column providing the output order.
        col: ColId,
    },
    /// Binary join.
    Join {
        /// Physical join algorithm.
        method: JoinMethod,
        /// `[outer, inner]`.
        inputs: [Arc<PlanNode>; 2],
    },
    /// Explicit sort enforcing an output order.
    Sort {
        /// Order class enforced.
        class: ClassId,
        /// `[input]`.
        input: [Arc<PlanNode>; 1],
    },
}

impl PlanOp {
    /// Stable numeric tag identifying the operator kind, shared by
    /// [`PlanNode::structural_digest`] and the `sdp-store` binary
    /// codec so a decoded plan digests identically to the original.
    pub fn stable_tag(&self) -> u8 {
        match self {
            PlanOp::SeqScan { .. } => 1,
            PlanOp::IndexScan { .. } => 2,
            PlanOp::Join { .. } => 3,
            PlanOp::Sort { .. } => 4,
        }
    }
}

/// One node of a physical plan tree, annotated with the estimated
/// properties the optimizer derived for it.
#[derive(Debug)]
pub struct PlanNode {
    /// Operator and inputs.
    pub op: PlanOp,
    /// Base relations covered by this subtree.
    pub set: RelSet,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost.
    pub cost: f64,
    /// Order class of the output, if any.
    pub ordering: Option<ClassId>,
}

impl PlanNode {
    /// Construct a node.
    pub fn new(
        op: PlanOp,
        set: RelSet,
        rows: f64,
        cost: f64,
        ordering: Option<ClassId>,
    ) -> Arc<Self> {
        debug_assert!(rows.is_finite() && rows >= 0.0, "rows = {rows}");
        debug_assert!(cost.is_finite() && cost >= 0.0, "cost = {cost}");
        Arc::new(PlanNode {
            op,
            set,
            rows,
            cost,
            ordering,
        })
    }

    /// The node's inputs: empty for scans, `[outer, inner]` for joins,
    /// `[input]` for sorts.
    pub fn children(&self) -> &[Arc<PlanNode>] {
        match &self.op {
            PlanOp::SeqScan { .. } | PlanOp::IndexScan { .. } => &[],
            PlanOp::Join { inputs, .. } => inputs,
            PlanOp::Sort { input, .. } => input,
        }
    }

    /// Number of nodes in this subtree.
    pub fn node_count(&self) -> usize {
        (self.children().iter()).fold(1, |n, c| n + c.node_count())
    }

    /// Depth of the tree (a scan has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Number of join operators in the subtree.
    pub fn join_count(&self) -> usize {
        let own = usize::from(matches!(self.op, PlanOp::Join { .. }));
        (self.children().iter()).fold(own, |n, c| n + c.join_count())
    }

    /// Whether the tree is *bushy* — some join has two composite
    /// (non-scan) children.
    pub fn is_bushy(&self) -> bool {
        let here = matches!(self.op, PlanOp::Join { .. })
            && self.children().iter().all(|c| c.set.len() >= 2);
        here || self.children().iter().any(|c| c.is_bushy())
    }

    /// Stable structural digest of the plan tree: operator identity,
    /// relation sets, estimated rows/cost (as exact bit patterns) and
    /// orderings, folded bottom-up with a platform-independent hash.
    /// Two plans digest equal iff a recursive field-by-field
    /// comparison would find them identical, so the service layer and
    /// the determinism tests use it to assert "bit-identical plan"
    /// without walking two trees in lockstep.
    pub fn structural_digest(&self) -> u64 {
        let tag = self.op.stable_tag() as u64;
        let op_words: [u64; 4] = match self.op {
            PlanOp::SeqScan { rel, node } => [tag, rel.0 as u64, node as u64, 0],
            PlanOp::IndexScan { rel, node, col } => [tag, rel.0 as u64, node as u64, col.0 as u64],
            PlanOp::Join { method, .. } => [tag, method.stable_tag() as u64, 0, 0],
            PlanOp::Sort { class, .. } => [tag, class as u64, 0, 0],
        };
        let mut h = sdp_query::canon::StableHasher::new(0x70_6c_61_6e);
        for w in op_words {
            h.write_u64(w);
        }
        h.write_u64(self.set.0);
        h.write_u64(self.rows.to_bits());
        h.write_u64(self.cost.to_bits());
        h.write_u64(match self.ordering {
            None => u64::MAX,
            Some(c) => c as u64,
        });
        let children = self.children();
        h.write_u64(children.len() as u64);
        for c in children {
            h.write_u64(c.structural_digest());
        }
        h.finish()
    }

    /// Validate structural invariants of the subtree; returns a
    /// description of the first violation. Used by integration tests,
    /// debug assertions and the plan decoder.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.op {
            PlanOp::SeqScan { node, .. } | PlanOp::IndexScan { node, .. } => {
                let node = usize::from(*node);
                if node >= RelSet::MAX_RELATIONS {
                    return Err(format!("scan of node {node}, past the relation limit"));
                }
                if self.set != RelSet::single(node) {
                    return Err(format!("scan set {:?} != node {node}", self.set));
                }
            }
            PlanOp::Join {
                method,
                inputs: [l, r],
            } => {
                if !l.set.is_disjoint(r.set) {
                    return Err(format!("overlapping join inputs {:?} {:?}", l.set, r.set));
                }
                if (l.set | r.set) != self.set {
                    return Err("join set != union of children".into());
                }
                // An index nested-loop replaces the inner child's scan
                // with per-tuple index probes, so only the outer
                // child's cost is necessarily included.
                let floor = if *method == JoinMethod::IndexNestedLoop {
                    l.cost
                } else {
                    l.cost + r.cost
                };
                if self.cost + 1e-6 < floor {
                    return Err(format!(
                        "join cost {} below input cost floor {floor}",
                        self.cost
                    ));
                }
            }
            PlanOp::Sort {
                class,
                input: [input],
            } => {
                if self.ordering != Some(*class) {
                    return Err("sort not ordered by its class".into());
                }
                if self.set != input.set {
                    return Err("sort changes relation set".into());
                }
            }
        }
        for c in self.children() {
            c.check_invariants()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(node: u16, cost: f64) -> Arc<PlanNode> {
        PlanNode::new(
            PlanOp::SeqScan {
                rel: RelId(u32::from(node)),
                node,
            },
            RelSet::single(usize::from(node)),
            100.0,
            cost,
            None,
        )
    }

    fn join(l: Arc<PlanNode>, r: Arc<PlanNode>) -> Arc<PlanNode> {
        join_as(JoinMethod::Hash, l.set | r.set, l.cost + r.cost + 1.0, l, r)
    }

    fn join_as(
        method: JoinMethod,
        set: RelSet,
        cost: f64,
        l: Arc<PlanNode>,
        r: Arc<PlanNode>,
    ) -> Arc<PlanNode> {
        let inputs = [l, r];
        PlanNode::new(PlanOp::Join { method, inputs }, set, 50.0, cost, None)
    }

    #[test]
    fn children_follow_the_operator() {
        let t = join(scan(0, 1.0), scan(1, 2.0));
        assert_eq!(t.children().len(), 2);
        assert_eq!(t.children()[1].cost, 2.0);
        assert!(t.children()[0].children().is_empty());
        let sorted = PlanNode::new(
            PlanOp::Sort {
                class: 3,
                input: [t.clone()],
            },
            t.set,
            t.rows,
            t.cost + 1.0,
            Some(3),
        );
        assert!(Arc::ptr_eq(&sorted.children()[0], &t));
        sorted.check_invariants().unwrap();
    }

    #[test]
    fn tree_shape_metrics() {
        let left = join(scan(0, 1.0), scan(1, 1.0));
        let right = join(scan(2, 1.0), scan(3, 1.0));
        let bushy = join(left, right);
        assert_eq!(bushy.node_count(), 7);
        assert_eq!(bushy.join_count(), 3);
        assert_eq!(bushy.depth(), 3);
        assert!(bushy.is_bushy());

        let ld = join(join(scan(0, 1.0), scan(1, 1.0)), scan(2, 1.0));
        assert!(!ld.is_bushy());
    }

    #[test]
    fn invariants_accept_valid_trees() {
        let t = join(scan(0, 1.0), scan(1, 2.0));
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn invariants_reject_overlapping_join() {
        let a = scan(0, 1.0);
        let bad = join_as(JoinMethod::Hash, RelSet::single(0), 10.0, a.clone(), a);
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn invariants_reject_a_scan_past_the_relation_limit() {
        let bad = PlanNode::new(
            PlanOp::SeqScan {
                rel: RelId(0),
                node: 64,
            },
            RelSet::EMPTY,
            1.0,
            1.0,
            None,
        );
        assert!(bad.check_invariants().unwrap_err().contains("node 64"));
    }

    #[test]
    fn structural_digest_separates_equal_from_different() {
        let a = join(scan(0, 1.0), scan(1, 2.0));
        let b = join(scan(0, 1.0), scan(1, 2.0));
        assert_eq!(a.structural_digest(), b.structural_digest());

        // A different child cost propagates into the root digest.
        let costlier = join(scan(0, 1.0), scan(1, 3.0));
        assert_ne!(a.structural_digest(), costlier.structural_digest());

        // A different join method changes the digest even with
        // identical sets, rows and costs.
        let merge = join_as(JoinMethod::Merge, a.set, a.cost, scan(0, 1.0), scan(1, 2.0));
        assert_ne!(a.structural_digest(), merge.structural_digest());

        // Child order matters (join inputs are positional).
        let swapped = join(scan(1, 2.0), scan(0, 1.0));
        assert_ne!(a.structural_digest(), swapped.structural_digest());
    }

    #[test]
    fn invariants_reject_cost_regression() {
        let set = RelSet::from_indices([0, 1]);
        // Cheaper than its inputs: impossible.
        let bad = join_as(JoinMethod::Hash, set, 5.0, scan(0, 10.0), scan(1, 10.0));
        assert!(bad.check_invariants().is_err());
    }
}
