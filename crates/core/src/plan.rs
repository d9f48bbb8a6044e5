//! Physical plan trees.
//!
//! Plans are immutable `Arc` trees: subplans are shared between every
//! tree that contains them. `Arc` (rather than `Rc`) makes plans
//! `Send + Sync`, so finished plans cross threads freely.
//!
//! The optimizer does not keep its plans in this form. While it runs, a
//! retained plan is a record in its memo group (see [`crate::memo`]);
//! nodes exist for access paths, and for the plans that
//! `EnumContext::extract` builds from records: the one an optimization
//! returns, the blocks IDP contracts. A JCR that SDP prunes — most of
//! them, SDP's whole point —, a plan that a cheaper one evicts and a
//! plan that is kept but not served are never allocated at all.
//!
//! A per-run [`NodeCounter`] tracks how many plan nodes an optimizer
//! holding every retained plan as a node would have alive at any
//! instant — nodes count themselves, and the memo's records are counted
//! one each on their behalf — which is what makes the memory-overhead
//! measurements (paper Tables 1.2, 1.4, 2.1, 3.2, 3.3) meaningful;
//! [`crate::budget::MemoryModel`] converts it (plus the group count)
//! into paper-equivalent megabytes. The counter is a shared atomic, so
//! records retained on worker threads charge the same budget as nodes
//! created on the coordinating thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdp_catalog::{ColId, RelId};
use sdp_cost::JoinMethod;
use sdp_query::{ClassId, RelSet};

/// Shared live-node counter for one optimization run.
///
/// Every [`PlanNode`] holds a handle to the counter it was created
/// under and decrements it on drop, so the count is exact regardless
/// of which thread allocates or frees a node. Cloning the handle
/// shares the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct NodeCounter(Arc<AtomicU64>);

impl NodeCounter {
    /// A fresh counter starting at zero.
    pub fn new() -> Self {
        NodeCounter::default()
    }

    /// Number of plan nodes currently alive under this counter.
    pub fn live(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Count `n` more nodes alive: a node being built, or plan records
    /// retained, which stand for the nodes they may become.
    pub(crate) fn charge(&self, n: usize) {
        self.0.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Count `n` nodes gone: a node dropped, or plan records evicted,
    /// pruned, rolled back, dropped with their run, or built into
    /// nodes (which charge themselves).
    pub(crate) fn release(&self, n: usize) {
        self.0.fetch_sub(n as u64, Ordering::Relaxed);
    }
}

/// The operator at a plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    // Variant tags below (see `stable_tag`) are part of the persisted
    // plan format and the structural digest — never renumber.
    /// Sequential scan of a base relation.
    SeqScan {
        /// Catalog relation scanned.
        rel: RelId,
        /// Query-local node index.
        node: usize,
    },
    /// Full index-order scan of a base relation.
    IndexScan {
        /// Catalog relation scanned.
        rel: RelId,
        /// Query-local node index.
        node: usize,
        /// Indexed column providing the output order.
        col: ColId,
    },
    /// Binary join (children: outer, inner).
    Join {
        /// Physical join algorithm.
        method: JoinMethod,
    },
    /// Explicit sort enforcing an output order (child: input).
    Sort {
        /// Order class enforced.
        class: ClassId,
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

/// The children of a plan node, held inline (no operator has more
/// than two), so a retained plan costs one allocation. Reads as a
/// `[Arc<PlanNode>]` slice.
#[derive(Debug, Clone)]
pub enum Children {
    /// A scan.
    Leaf,
    /// A sort: `[input]`.
    Unary([Arc<PlanNode>; 1]),
    /// A join: `[outer, inner]`.
    Binary([Arc<PlanNode>; 2]),
}

impl std::ops::Deref for Children {
    type Target = [Arc<PlanNode>];

    fn deref(&self) -> &[Arc<PlanNode>] {
        match self {
            Children::Leaf => &[],
            Children::Unary(c) => c,
            Children::Binary(c) => c,
        }
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a Arc<PlanNode>;
    type IntoIter = std::slice::Iter<'a, Arc<PlanNode>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One node of a physical plan tree, annotated with the estimated
/// properties the optimizer derived for it.
#[derive(Debug)]
pub struct PlanNode {
    /// Operator.
    pub op: PlanOp,
    /// Base relations covered by this subtree.
    pub set: RelSet,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost.
    pub cost: f64,
    /// Order class of the output, if any.
    pub ordering: Option<ClassId>,
    /// Children (empty for scans, `[outer, inner]` for joins,
    /// `[input]` for sorts).
    pub children: Children,
    counter: NodeCounter,
}

impl PlanNode {
    /// Construct a node (increments `counter`; the node decrements it
    /// again when dropped).
    pub fn new(
        counter: &NodeCounter,
        op: PlanOp,
        set: RelSet,
        rows: f64,
        cost: f64,
        ordering: Option<ClassId>,
        children: Children,
    ) -> Arc<Self> {
        debug_assert!(rows.is_finite() && rows >= 0.0, "rows = {rows}");
        debug_assert!(cost.is_finite() && cost >= 0.0, "cost = {cost}");
        counter.charge(1);
        Arc::new(PlanNode {
            op,
            set,
            rows,
            cost,
            ordering,
            children,
            counter: counter.clone(),
        })
    }

    /// The live-node counter this node charges. Useful for asserting
    /// that a run's plans were fully reclaimed: clone the handle, drop
    /// the plan, and check [`NodeCounter::live`] returns to zero.
    pub fn counter(&self) -> NodeCounter {
        self.counter.clone()
    }

    /// Number of nodes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Depth of the tree (a scan has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Number of join operators in the subtree.
    pub fn join_count(&self) -> usize {
        let own = usize::from(matches!(self.op, PlanOp::Join { .. }));
        own + self.children.iter().map(|c| c.join_count()).sum::<usize>()
    }

    /// Whether the tree is *bushy* — some join has two composite
    /// (non-scan) children.
    pub fn is_bushy(&self) -> bool {
        let here = matches!(self.op, PlanOp::Join { .. })
            && self.children.iter().all(|c| c.set.len() >= 2);
        here || self.children.iter().any(|c| c.is_bushy())
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
            PlanOp::Join { method } => [tag, method.stable_tag() as u64, 0, 0],
            PlanOp::Sort { class } => [tag, class as u64, 0, 0],
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
        h.write_u64(self.children.len() as u64);
        for c in &self.children {
            h.write_u64(c.structural_digest());
        }
        h.finish()
    }

    /// Validate structural invariants of the subtree; returns a
    /// description of the first violation. Used by integration tests
    /// and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.op {
            PlanOp::SeqScan { node, .. } | PlanOp::IndexScan { node, .. } => {
                if self.set != RelSet::single(*node) {
                    return Err(format!("scan set {:?} != node {node}", self.set));
                }
                if !self.children.is_empty() {
                    return Err("scan with children".into());
                }
            }
            PlanOp::Join { method } => {
                if self.children.len() != 2 {
                    return Err("join without two children".into());
                }
                let (l, r) = (&self.children[0], &self.children[1]);
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
            PlanOp::Sort { class } => {
                if self.children.len() != 1 {
                    return Err("sort without single child".into());
                }
                if self.ordering != Some(*class) {
                    return Err("sort not ordered by its class".into());
                }
                if self.set != self.children[0].set {
                    return Err("sort changes relation set".into());
                }
            }
        }
        for c in &self.children {
            c.check_invariants()?;
        }
        Ok(())
    }
}

impl Drop for PlanNode {
    fn drop(&mut self) {
        self.counter.release(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(counter: &NodeCounter, node: usize, cost: f64) -> Arc<PlanNode> {
        PlanNode::new(
            counter,
            PlanOp::SeqScan {
                rel: RelId(node as u32),
                node,
            },
            RelSet::single(node),
            100.0,
            cost,
            None,
            Children::Leaf,
        )
    }

    fn join(counter: &NodeCounter, l: Arc<PlanNode>, r: Arc<PlanNode>) -> Arc<PlanNode> {
        let set = l.set | r.set;
        let cost = l.cost + r.cost + 1.0;
        PlanNode::new(
            counter,
            PlanOp::Join {
                method: JoinMethod::Hash,
            },
            set,
            50.0,
            cost,
            None,
            Children::Binary([l, r]),
        )
    }

    #[test]
    fn live_counter_tracks_creation_and_drop() {
        let counter = NodeCounter::new();
        {
            let a = scan(&counter, 0, 1.0);
            let b = scan(&counter, 1, 1.0);
            let j = join(&counter, a, b);
            assert_eq!(counter.live(), 3);
            drop(j); // drops all three (children moved into the join)
        }
        assert_eq!(counter.live(), 0);
    }

    #[test]
    fn shared_subplans_freed_only_when_unreachable() {
        let counter = NodeCounter::new();
        let shared = scan(&counter, 0, 1.0);
        let j1 = join(&counter, shared.clone(), scan(&counter, 1, 1.0));
        let j2 = join(&counter, shared.clone(), scan(&counter, 2, 1.0));
        drop(shared);
        assert_eq!(counter.live(), 5);
        drop(j1);
        assert_eq!(counter.live(), 3); // shared survives via j2
        drop(j2);
        assert_eq!(counter.live(), 0);
    }

    #[test]
    fn counter_is_shared_across_threads() {
        let counter = NodeCounter::new();
        let plans: Vec<Arc<PlanNode>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let counter = &counter;
                    scope.spawn(move || scan(counter, t, 1.0))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counter.live(), 4);
        drop(plans);
        assert_eq!(counter.live(), 0);
    }

    #[test]
    fn tree_shape_metrics() {
        let c = NodeCounter::new();
        let left = join(&c, scan(&c, 0, 1.0), scan(&c, 1, 1.0));
        let right = join(&c, scan(&c, 2, 1.0), scan(&c, 3, 1.0));
        let bushy = join(&c, left, right);
        assert_eq!(bushy.node_count(), 7);
        assert_eq!(bushy.join_count(), 3);
        assert_eq!(bushy.depth(), 3);
        assert!(bushy.is_bushy());

        let ld = join(
            &c,
            join(&c, scan(&c, 0, 1.0), scan(&c, 1, 1.0)),
            scan(&c, 2, 1.0),
        );
        assert!(!ld.is_bushy());
    }

    #[test]
    fn invariants_accept_valid_trees() {
        let c = NodeCounter::new();
        let t = join(&c, scan(&c, 0, 1.0), scan(&c, 1, 2.0));
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn invariants_reject_overlapping_join() {
        let c = NodeCounter::new();
        let a = scan(&c, 0, 1.0);
        let bad = PlanNode::new(
            &c,
            PlanOp::Join {
                method: JoinMethod::Hash,
            },
            RelSet::single(0),
            1.0,
            10.0,
            None,
            Children::Binary([a.clone(), a]),
        );
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn structural_digest_separates_equal_from_different() {
        let c = NodeCounter::new();
        let a = join(&c, scan(&c, 0, 1.0), scan(&c, 1, 2.0));
        let b = join(&c, scan(&c, 0, 1.0), scan(&c, 1, 2.0));
        assert_eq!(a.structural_digest(), b.structural_digest());

        // A different child cost propagates into the root digest.
        let costlier = join(&c, scan(&c, 0, 1.0), scan(&c, 1, 3.0));
        assert_ne!(a.structural_digest(), costlier.structural_digest());

        // A different join method changes the digest even with
        // identical sets, rows and costs.
        let merge = PlanNode::new(
            &c,
            PlanOp::Join {
                method: JoinMethod::Merge,
            },
            a.set,
            a.rows,
            a.cost,
            None,
            Children::Binary([scan(&c, 0, 1.0), scan(&c, 1, 2.0)]),
        );
        assert_ne!(a.structural_digest(), merge.structural_digest());

        // Child order matters (join inputs are positional).
        let swapped = join(&c, scan(&c, 1, 2.0), scan(&c, 0, 1.0));
        assert_ne!(a.structural_digest(), swapped.structural_digest());
    }

    #[test]
    fn invariants_reject_cost_regression() {
        let c = NodeCounter::new();
        let a = scan(&c, 0, 10.0);
        let b = scan(&c, 1, 10.0);
        let bad = PlanNode::new(
            &c,
            PlanOp::Join {
                method: JoinMethod::Hash,
            },
            RelSet::from_indices([0, 1]),
            1.0,
            5.0, // cheaper than its inputs: impossible
            None,
            Children::Binary([a, b]),
        );
        assert!(bad.check_invariants().is_err());
    }
}
