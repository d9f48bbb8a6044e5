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
//!
//! While the enumerator is still costing into a JCR it is a
//! `StagedJcr`: the same properties and the same dominance rule, but
//! over `Candidate` records instead of plan nodes. Only what is still
//! retained when the JCR has survived its level barrier is built into
//! `Arc<PlanNode>`s (`StagedJcr::materialize`).

use std::collections::hash_map::Entry;
use std::sync::Arc;

use sdp_cost::JoinMethod;
use sdp_query::{ClassId, RelSet};

use crate::fx::FxHashMap;
use crate::plan::{Children, NodeCounter, PlanNode, PlanOp};

/// Whether plan `a` makes plan `b` redundant: no more expensive, and
/// provides an ordering at least as useful (`b` unordered, or the
/// same ordering).
#[inline]
fn dominates(
    a_cost: f64,
    a_ordering: Option<ClassId>,
    b_cost: f64,
    b_ordering: Option<ClassId>,
) -> bool {
    a_cost <= b_cost && (b_ordering.is_none() || a_ordering == b_ordering)
}

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
    /// Create an empty group with known estimated properties. Does
    /// not allocate: a JCR's plans are sized when it materializes.
    pub fn new(set: RelSet, rows: f64, selectivity: f64, width: f64, neighbors: RelSet) -> Self {
        Group {
            set,
            rows,
            selectivity,
            width,
            neighbors,
            entries: Vec::new(),
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

    /// Offer a plan to the group. Returns `true` if it was retained
    /// (and any newly-dominated entries were evicted).
    pub fn add_plan(&mut self, plan: Arc<PlanNode>) -> bool {
        debug_assert_eq!(plan.set, self.set, "plan covers a different JCR");
        if !self.would_retain(plan.cost, plan.ordering) {
            return false;
        }
        self.evict_dominated(plan.cost, plan.ordering);
        self.entries.push(plan);
        true
    }

    /// Whether a plan with the given cost and ordering would be
    /// retained if offered — the dominance test of [`Group::add_plan`]
    /// without constructing the node.
    pub fn would_retain(&self, cost: f64, ordering: Option<ClassId>) -> bool {
        !self
            .entries
            .iter()
            .any(|e| dominates(e.cost, e.ordering, cost, ordering))
    }

    /// Drop every plan that one of the given cost and ordering makes
    /// redundant.
    fn evict_dominated(&mut self, cost: f64, ordering: Option<ClassId>) {
        self.entries
            .retain(|e| !dominates(cost, ordering, e.cost, e.ordering));
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

/// A costed join alternative that has not been built into a plan node:
/// what [`Group::add_plan`]'s dominance rule reads (cost, ordering),
/// plus where its two inputs sit in the memo. The inner input covers
/// the JCR's set minus `outer`; the entry indices stay valid because
/// the groups of a pair's inputs do not change between the pair's
/// costing and its JCR's materialization (lower levels are immutable
/// while a level runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    /// Total (cumulative) cost including both inputs.
    pub cost: f64,
    /// Relations of the outer input.
    pub outer: RelSet,
    /// Useful order class of the output, if any.
    pub ordering: Option<ClassId>,
    /// Index of the outer plan among its group's entries.
    pub outer_entry: u16,
    /// Index of the inner plan among its group's entries.
    pub inner_entry: u16,
    /// Algorithm used.
    pub method: JoinMethod,
}

/// A JCR the enumerator is still costing into: a [`Group`] whose new
/// plans are held as [`Candidate`]s under the group's own dominance
/// rule, in the group's own insertion order. The group's built entries
/// (none for a JCR its level created; the plans so far when
/// [`EnumContext::join_pair`](crate::context::EnumContext::join_pair)
/// refines a group of the memo) take part in the rule on equal terms.
///
/// The run's [`NodeCounter`] counts a staged candidate like the node
/// it may become; whoever stages, evicts or drops candidates settles
/// the count (`EnumContext::cost_pair` and friends), and
/// [`StagedJcr::materialize`] hands it over to the nodes it builds.
#[derive(Debug)]
pub(crate) struct StagedJcr {
    group: Group,
    candidates: Vec<Candidate>,
    /// The set already has a group in the memo — one retained from an
    /// earlier rung of a governed descent. This record then only holds
    /// the level's offers until the barrier folds them into that group.
    pub in_memo: bool,
}

impl StagedJcr {
    /// Start staging into `group` (which is not in the memo).
    pub fn new(group: Group) -> Self {
        StagedJcr {
            group,
            candidates: Vec::new(),
            in_memo: false,
        }
    }

    /// The JCR's estimated properties and built plans.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The candidates currently retained, in offer order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Move the retained candidates out, in offer order, leaving none
    /// staged.
    pub fn take_candidates(&mut self) -> Vec<Candidate> {
        std::mem::take(&mut self.candidates)
    }

    /// [`Group::would_retain`] over built plans and candidates alike.
    #[inline]
    pub fn would_retain(&self, cost: f64, ordering: Option<ClassId>) -> bool {
        self.group.would_retain(cost, ordering)
            && !self
                .candidates
                .iter()
                .any(|c| dominates(c.cost, c.ordering, cost, ordering))
    }

    /// Retain a candidate that [`StagedJcr::would_retain`], evicting
    /// what it makes redundant.
    pub fn retain(&mut self, candidate: Candidate) {
        debug_assert!(self.would_retain(candidate.cost, candidate.ordering));
        let Candidate { cost, ordering, .. } = candidate;
        self.group.evict_dominated(cost, ordering);
        self.candidates
            .retain(|c| !dominates(cost, ordering, c.cost, c.ordering));
        if self.candidates.capacity() == 0 {
            // Most JCRs only ever keep one plan at a time (a cheaper
            // one replaces it in place): size for that, and let `Vec`
            // growth take over from the second. A level's worth of
            // four-slot minimum buffers is what shows in peak heap.
            self.candidates.reserve_exact(1);
        }
        self.candidates.push(candidate);
    }

    /// [`Group::add_plan`] for a candidate.
    pub fn offer(&mut self, candidate: Candidate) -> bool {
        let retained = self.would_retain(candidate.cost, candidate.ordering);
        if retained {
            self.retain(candidate);
        }
        retained
    }

    /// [`Group::feature_vector`] of the JCR as staged.
    ///
    /// # Panics
    /// Panics if nothing has been retained yet.
    pub fn feature_vector(&self) -> [f64; 3] {
        let built = self.group.entries.iter().map(|e| e.cost);
        let staged = self.candidates.iter().map(|c| c.cost);
        let best = built
            .chain(staged)
            .min_by(|a, b| a.partial_cmp(b).expect("finite costs"))
            .expect("a staged JCR has at least one plan");
        [self.group.rows, best, self.group.selectivity]
    }

    /// Build the retained candidates into plan nodes — after the
    /// group's built entries, in offer order, in a `Vec` sized once —
    /// by cloning each one's two input plans out of `memo`. The nodes
    /// charge `nodes` themselves, so the candidates' count is released.
    pub fn materialize(self, memo: &Memo, nodes: &NodeCounter) -> Group {
        let StagedJcr {
            mut group,
            candidates,
            ..
        } = self;
        let input = |set: RelSet, entry: u16| {
            let inputs = memo.get(set).expect("a candidate's inputs outlive it");
            inputs.entries[usize::from(entry)].clone()
        };
        group.entries.reserve_exact(candidates.len());
        for c in &candidates {
            group.entries.push(PlanNode::new(
                nodes,
                PlanOp::Join { method: c.method },
                group.set,
                group.rows,
                c.cost,
                c.ordering,
                Children::Binary([
                    input(c.outer, c.outer_entry),
                    input(group.set - c.outer, c.inner_entry),
                ]),
            ));
        }
        nodes.release(candidates.len());
        group
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

    /// Make room for `additional` more groups in one step (a level's
    /// survivors, about to be inserted).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.groups.reserve(additional);
    }

    /// Count a JCR that was created and dropped again (pruned, or
    /// rolled back with its level) while still staged, and so never
    /// passed through [`Memo::insert`]: it was processed all the same.
    pub(crate) fn count_dropped_while_staged(&mut self) {
        self.created += 1;
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

        /// The candidate container is `add_plan` without the nodes:
        /// any offer sequence retains the same (cost, ordering)
        /// entries in the same order through a [`StagedJcr`] as through
        /// a [`Group`] — over an empty group (a JCR its level creates)
        /// and over one that already holds built plans (`join_pair`
        /// refining a memo group), whose evictions must match too.
        #[test]
        fn staged_candidates_retain_what_add_plan_retains(
            offers in prop::collection::vec((1.0f64..50.0, prop::option::of(0u32..3)), 1..60),
            built in 0usize..8,
        ) {
            // Coarse costs, so that ties — where `<=` matters — occur.
            let offers: Vec<(f64, Option<u32>)> =
                offers.into_iter().map(|(c, o)| (c.floor(), o)).collect();
            let built = built.min(offers.len());
            let mut eager = Group::new(RelSet::single(0), 10.0, 1.0, 80.0, RelSet::EMPTY);
            for &(cost, ordering) in &offers[..built] {
                eager.add_plan(plan(cost, ordering));
            }
            let mut staged = StagedJcr::new(eager.clone());
            for (k, &(cost, ordering)) in offers[built..].iter().enumerate() {
                let retained = eager.add_plan(plan(cost, ordering));
                let candidate = Candidate {
                    cost,
                    outer: RelSet::EMPTY,
                    ordering,
                    outer_entry: k as u16,
                    inner_entry: 0,
                    method: JoinMethod::Hash,
                };
                prop_assert_eq!(staged.would_retain(cost, ordering), retained);
                prop_assert_eq!(staged.offer(candidate), retained);
            }
            let frontier = |g: &Group| -> Vec<(u64, Option<u32>)> {
                g.entries().iter().map(|e| (e.cost.to_bits(), e.ordering)).collect()
            };
            let mut through_stage = frontier(staged.group());
            through_stage.extend(staged.candidates().iter().map(|c| (c.cost.to_bits(), c.ordering)));
            prop_assert_eq!(through_stage, frontier(&eager));
            // Offer order survives, too: the stand-in entry indices of
            // the retained candidates ascend.
            prop_assert!(staged.candidates().windows(2).all(|w| w[0].outer_entry < w[1].outer_entry));
            let [rows, best, selectivity] = staged.feature_vector();
            prop_assert_eq!([rows, best, selectivity], eager.feature_vector());
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
