//! The memo: per-JCR groups of Pareto-optimal plans.
//!
//! A *Join-Composite-Relation* (JCR) in the paper is "any group of
//! relations that are joined together during the optimization
//! process … associated with a set of plans — the lowest cost plan …
//! and also the incomparable plans that produce interesting orders".
//! [`Group`] is exactly that: the cheapest plan per output ordering,
//! kept under a dominance rule (a plan is dominated if another is no
//! more expensive *and* provides an ordering at least as useful).
//!
//! The group also carries the JCR feature vector
//! `[Rows, Cost, Selectivity]` that SDP's skyline pruning consumes
//! (paper Figure 2.3).

use std::collections::hash_map::Entry;
use std::sync::Arc;

use sdp_query::{ClassId, RelSet};

use crate::fx::FxHashMap;
use crate::plan::PlanNode;

/// All Pareto-optimal plans for one JCR, plus its estimated
/// properties.
#[derive(Debug, Clone)]
pub struct Group {
    /// The base relations this JCR covers.
    pub set: RelSet,
    /// Estimated output rows (identical for every plan of the group).
    pub rows: f64,
    /// The paper's JCR selectivity: `rows / Π |base relations|`.
    pub selectivity: f64,
    /// Estimated tuple width in bytes.
    pub width: f64,
    /// Cached external neighbourhood in the join graph.
    pub neighbors: RelSet,
    entries: Vec<Arc<PlanNode>>,
}

impl Group {
    /// Create an empty group with known estimated properties.
    pub fn new(set: RelSet, rows: f64, selectivity: f64, width: f64, neighbors: RelSet) -> Self {
        Group {
            set,
            rows,
            selectivity,
            width,
            neighbors,
            entries: Vec::with_capacity(2),
        }
    }

    /// Move the retained plans out into a group of the same
    /// properties, leaving this one empty in place (no allocation
    /// either way). The enumerator costs into the taken group while
    /// reading the memo, then puts it back.
    pub(crate) fn take(&mut self) -> Group {
        Group {
            entries: std::mem::take(&mut self.entries),
            ..*self
        }
    }

    /// Whether `a` makes `b` redundant: no more expensive, and
    /// provides an ordering at least as useful (`b` unordered, or the
    /// same ordering).
    fn entry_dominates(a: &PlanNode, b: &PlanNode) -> bool {
        a.cost <= b.cost && (b.ordering.is_none() || a.ordering == b.ordering)
    }

    /// Offer a plan to the group. Returns `true` if it was retained
    /// (and any newly-dominated entries were evicted).
    pub fn add_plan(&mut self, plan: Arc<PlanNode>) -> bool {
        debug_assert_eq!(plan.set, self.set, "plan covers a different JCR");
        if self.entries.iter().any(|e| Self::entry_dominates(e, &plan)) {
            return false;
        }
        self.entries.retain(|e| !Self::entry_dominates(&plan, e));
        self.entries.push(plan);
        true
    }

    /// Whether a plan with the given cost and ordering would be
    /// retained if offered — the dominance test of [`Group::add_plan`]
    /// without constructing the node. The enumerator uses this to skip
    /// allocating candidates that are already dominated.
    pub fn would_retain(&self, cost: f64, ordering: Option<ClassId>) -> bool {
        !self
            .entries
            .iter()
            .any(|e| e.cost <= cost && (ordering.is_none() || e.ordering == ordering))
    }

    /// The cheapest plan in the group.
    ///
    /// # Panics
    /// Panics if the group is empty (groups are always populated
    /// before being published to the memo).
    pub fn best(&self) -> &Arc<PlanNode> {
        self.entries
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .expect("group has at least one plan")
    }

    /// Cost of the cheapest plan.
    pub fn best_cost(&self) -> f64 {
        self.best().cost
    }

    /// Cheapest plan whose output carries the given order class.
    pub fn best_for_order(&self, class: ClassId) -> Option<&Arc<PlanNode>> {
        self.entries
            .iter()
            .filter(|e| e.ordering == Some(class))
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
    }

    /// All retained plans.
    pub fn entries(&self) -> &[Arc<PlanNode>] {
        &self.entries
    }

    /// Whether no plan has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The SDP feature vector `[Rows, Cost, Selectivity]` of
    /// Figure 2.3.
    pub fn feature_vector(&self) -> [f64; 3] {
        [self.rows, self.best_cost(), self.selectivity]
    }
}

/// The memo table: JCR set → group.
#[derive(Debug, Default)]
pub struct Memo {
    groups: FxHashMap<RelSet, Group>,
    /// Total number of distinct JCRs ever materialized (the paper's
    /// "JCRs processed" metric, Table 2.3).
    created: u64,
}

impl Memo {
    /// Empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Number of live groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total JCRs ever created (not reduced by pruning).
    pub fn jcrs_created(&self) -> u64 {
        self.created
    }

    /// Fetch a group.
    pub fn get(&self, set: RelSet) -> Option<&Group> {
        self.groups.get(&set)
    }

    /// Fetch a group mutably.
    pub fn get_mut(&mut self, set: RelSet) -> Option<&mut Group> {
        self.groups.get_mut(&set)
    }

    /// Insert a new group. Returns `false` (and keeps the old group)
    /// if the set is already present.
    pub fn insert(&mut self, group: Group) -> bool {
        match self.groups.entry(group.set) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                self.created += 1;
                slot.insert(group);
                true
            }
        }
    }

    /// Remove a group (SDP pruning), returning it if present.
    pub fn remove(&mut self, set: RelSet) -> Option<Group> {
        self.groups.remove(&set)
    }

    /// Drop every group, e.g. between IDP iterations.
    pub fn clear(&mut self) {
        self.groups.clear();
    }

    /// Iterate over the live JCR sets (arbitrary order).
    pub fn sets(&self) -> impl Iterator<Item = RelSet> + '_ {
        self.groups.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Children, NodeCounter, PlanOp};
    use sdp_catalog::RelId;

    fn plan(set: RelSet, cost: f64, ordering: Option<ClassId>) -> Arc<PlanNode> {
        PlanNode::new(
            &NodeCounter::new(),
            PlanOp::SeqScan {
                rel: RelId(0),
                node: set.min_index().unwrap(),
            },
            set,
            10.0,
            cost,
            ordering,
            Children::Leaf,
        )
    }

    fn group() -> Group {
        Group::new(RelSet::single(0), 10.0, 1.0, 100.0, RelSet::EMPTY)
    }

    #[test]
    fn cheapest_unordered_plan_wins() {
        let mut g = group();
        assert!(g.add_plan(plan(g.set, 10.0, None)));
        assert!(!g.add_plan(plan(g.set, 20.0, None))); // dominated
        assert!(g.add_plan(plan(g.set, 5.0, None))); // evicts
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.best_cost(), 5.0);
    }

    #[test]
    fn ordered_plans_survive_despite_higher_cost() {
        let mut g = group();
        g.add_plan(plan(g.set, 10.0, None));
        assert!(g.add_plan(plan(g.set, 15.0, Some(3))));
        assert_eq!(g.entries().len(), 2);
        assert_eq!(g.best_cost(), 10.0);
        assert_eq!(g.best_for_order(3).unwrap().cost, 15.0);
        assert!(g.best_for_order(4).is_none());
    }

    #[test]
    fn cheap_ordered_plan_dominates_unordered() {
        let mut g = group();
        g.add_plan(plan(g.set, 10.0, None));
        assert!(g.add_plan(plan(g.set, 8.0, Some(1))));
        // The ordered plan is cheaper AND ordered: unordered evicted.
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.best().ordering, Some(1));
    }

    #[test]
    fn distinct_orders_coexist() {
        let mut g = group();
        g.add_plan(plan(g.set, 10.0, Some(1)));
        g.add_plan(plan(g.set, 10.0, Some(2)));
        assert_eq!(g.entries().len(), 2);
    }

    #[test]
    fn feature_vector_matches_definition() {
        let mut g = Group::new(RelSet::single(0), 184_736.0, 2.54e-10, 64.0, RelSet::EMPTY);
        g.add_plan(plan(g.set, 57_726.0, None));
        let fv = g.feature_vector();
        assert_eq!(fv, [184_736.0, 57_726.0, 2.54e-10]);
    }

    #[test]
    fn memo_insert_get_remove() {
        let mut m = Memo::new();
        let mut g = group();
        g.add_plan(plan(g.set, 1.0, None));
        assert!(m.insert(g.clone()));
        assert!(!m.insert(g)); // duplicate rejected
        assert_eq!(m.len(), 1);
        assert_eq!(m.jcrs_created(), 1);
        assert!(m.get(RelSet::single(0)).is_some());
        assert!(m.remove(RelSet::single(0)).is_some());
        assert!(m.is_empty());
        // Created counter is not decremented by pruning.
        assert_eq!(m.jcrs_created(), 1);
    }

    #[test]
    fn memo_clear_resets_groups_not_counter() {
        let mut m = Memo::new();
        let mut g = group();
        g.add_plan(plan(g.set, 1.0, None));
        m.insert(g);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.jcrs_created(), 1);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::plan::{Children, NodeCounter, PlanOp};
    use proptest::prelude::*;
    use sdp_catalog::RelId;

    fn plan(cost: f64, ordering: Option<ClassId>) -> Arc<PlanNode> {
        PlanNode::new(
            &NodeCounter::new(),
            PlanOp::SeqScan {
                rel: RelId(0),
                node: 0,
            },
            RelSet::single(0),
            10.0,
            cost,
            ordering,
            Children::Leaf,
        )
    }

    proptest! {
        /// After any insertion sequence, the group is a Pareto set:
        /// no retained entry dominates another, and the cheapest
        /// offered plan for each ordering class is retained with its
        /// exact cost.
        #[test]
        fn group_maintains_pareto_invariants(
            offers in prop::collection::vec((1.0f64..1000.0, prop::option::of(0u32..3)), 1..60)
        ) {
            let mut g = Group::new(RelSet::single(0), 10.0, 1.0, 80.0, RelSet::EMPTY);
            for (cost, ordering) in &offers {
                g.add_plan(plan(*cost, *ordering));
            }
            // (1) mutual non-dominance among retained entries
            for a in g.entries() {
                for b in g.entries() {
                    if Arc::ptr_eq(a, b) {
                        continue;
                    }
                    let dominates = a.cost <= b.cost
                        && (b.ordering.is_none() || a.ordering == b.ordering);
                    prop_assert!(!dominates, "{:?} dominates {:?}", a.cost, b.cost);
                }
            }
            // (2) best overall == cheapest offer
            let min_offer = offers.iter().map(|(c, _)| *c).fold(f64::MAX, f64::min);
            prop_assert!((g.best_cost() - min_offer).abs() < 1e-12);
            // (3) per-class minimum is available at no worse a cost
            for class in 0u32..3 {
                let best_offer = offers
                    .iter()
                    .filter(|(_, o)| *o == Some(class))
                    .map(|(c, _)| *c)
                    .fold(f64::MAX, f64::min);
                if best_offer < f64::MAX {
                    // Either retained exactly, or a cheaper same-class
                    // entry exists (duplicates collapse).
                    let got = g.best_for_order(class).map(|p| p.cost);
                    if let Some(got) = got {
                        prop_assert!(got <= best_offer + 1e-12);
                    } else {
                        // Only prunable if some retained entry with the
                        // class's usefulness dominated it — impossible
                        // unless an equal-or-cheaper same-class entry
                        // was kept; a cheaper unordered entry does NOT
                        // dominate an ordered one.
                        prop_assert!(false, "class {class} lost entirely");
                    }
                }
            }
        }

        /// Insertion order never changes the retained cost frontier.
        #[test]
        fn group_is_order_insensitive(
            mut offers in prop::collection::vec((1.0f64..1000.0, prop::option::of(0u32..3)), 1..30)
        ) {
            let build = |offers: &[(f64, Option<u32>)]| {
                let mut g = Group::new(RelSet::single(0), 10.0, 1.0, 80.0, RelSet::EMPTY);
                for (cost, ordering) in offers {
                    g.add_plan(plan(*cost, *ordering));
                }
                let mut frontier: Vec<(Option<u32>, u64)> = g
                    .entries()
                    .iter()
                    .map(|e| (e.ordering, e.cost.to_bits()))
                    .collect();
                frontier.sort();
                frontier
            };
            let forward = build(&offers);
            offers.reverse();
            let backward = build(&offers);
            prop_assert_eq!(forward, backward);
        }
    }
}
