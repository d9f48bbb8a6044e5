//! The memo: per-JCR groups of Pareto-optimal plans, kept as records.
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
//! # One plan form
//!
//! A retained plan is a [`PlanEntry`]: what the dominance rule and the
//! costing of the levels above read (cost, ordering), plus a
//! [`PlanSource`] saying how to build it — a join of two entries of
//! lower groups, a sort over an entry of its own group, or a node that
//! already exists (access paths, and whatever was extracted earlier).
//! The enumerator costs straight into these records and a JCR that
//! survives its level keeps them; an `Arc<PlanNode>` tree is built
//! only where one is needed — the plan an optimization returns, the
//! block IDP contracts — by [`Memo::extract`], which replaces each
//! record it builds with the built node, so a subplan shared by two
//! extracted plans is one node, as it was when every retained plan was
//! a node.
//!
//! **References.** An entry is named `(set, id)`. Until its group is
//! sealed — [`Memo::insert`], when its level is complete — nothing
//! refers to an entry and evictions are free. From then on ids are
//! stable: the entries present get `0..`, a later one (a sort
//! enforcer, a governed rung's re-offer) a fresh id, and an eviction
//! renames nothing, so a reference never comes to mean another plan.
//! An entry something refers to is not evicted: once referred to, a
//! group only receives offers its frontier already dominates (the
//! rung above re-offers the same pairs), and [`Group::entry`] panics
//! rather than serve a different plan should that ever fail.
//!
//! **Accounting.** The run's live-node count ([`Memo::live_nodes`]) is
//! a plain number that the memo's [`BuiltNodes`] owns, as the memory
//! model owns the group count. It counts an entry like the node it
//! stands for: whoever retains, evicts or drops `Join` and `Sort`
//! entries settles the count (`EnumContext::stage_pair`, `join_pair`
//! and friends, around the costing core); a `Built` entry's node is
//! counted by the table that holds it.
//! Extraction moves an entry's count to its node, so the total never
//! notices. The count goes with its run: nothing outlives the memo
//! that would need it zeroed.
//!
//! **Built nodes** sit in one side table of the memo ([`BuiltNodes`]),
//! not in their groups: a group holds no buffer of its own, and the
//! run allocates for its nodes a growth step at a time. The table is
//! the one place a run holds nodes, so it is what counts them: it
//! charges a node it takes, and for a node it lets go releases the
//! nodes actually freed with it (`Arc::into_inner`, down the tree) —
//! none while another node, or a plan the run served, holds it.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use sdp_cost::{JoinMethod, JoinSide};
use sdp_query::{ClassId, RelSet};

use crate::fx::FxHashMap;
use crate::plan::{PlanNode, PlanOp};

/// Whether plan `a` makes plan `b` redundant: no more expensive, and
/// provides an ordering at least as useful (`b` unordered, or the
/// same ordering).
#[inline]
pub(crate) fn dominates(
    a_cost: f64,
    a_ordering: Option<ClassId>,
    b_cost: f64,
    b_ordering: Option<ClassId>,
) -> bool {
    a_cost <= b_cost && (b_ordering.is_none() || a_ordering == b_ordering)
}

/// How to build a retained plan's node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// A join of entry `outer_entry` of the group of `outer` with entry
    /// `inner_entry` of the group of the JCR's set minus `outer`.
    Join {
        /// Algorithm used.
        method: JoinMethod,
        /// Relations of the outer input.
        outer: RelSet,
        /// Id of the outer plan in its group.
        outer_entry: u16,
        /// Id of the inner plan in its group.
        inner_entry: u16,
    },
    /// A sort enforcer over entry `input` of the same group, producing
    /// the entry's ordering.
    Sort {
        /// Id of the plan sorted.
        input: u16,
    },
    /// A node that exists: its slot in the memo's [`BuiltNodes`].
    Built(u32),
}

/// One retained plan of a JCR, as a record (32 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// Total (cumulative) cost including the inputs.
    pub cost: f64,
    /// How to build the plan's node.
    pub source: PlanSource,
    /// [`PlanEntry::ordering`] in four bytes: `NO_ORDER` for `None`.
    order: ClassId,
    id: u16,
}

/// No order class is ever this large: classes index a query's columns.
const NO_ORDER: ClassId = ClassId::MAX;

impl PlanEntry {
    /// A record not yet in a group (which names it on retention).
    pub(crate) fn new(cost: f64, ordering: Option<ClassId>, source: PlanSource) -> Self {
        debug_assert_ne!(ordering, Some(NO_ORDER));
        PlanEntry {
            cost,
            source,
            order: ordering.unwrap_or(NO_ORDER),
            id: 0,
        }
    }

    /// Useful order class of the output, if any.
    #[inline]
    pub fn ordering(&self) -> Option<ClassId> {
        (self.order != NO_ORDER).then_some(self.order)
    }

    /// The entry's name within its group, stable once the group is
    /// sealed (meaningless before).
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Whether the run's live-node count counts this record (a built
    /// node is counted by the table that holds it).
    pub(crate) fn charged(&self) -> bool {
        !matches!(self.source, PlanSource::Built(_))
    }
}

/// Entries held inside the group up to this many — most JCRs only ever
/// keep one plan, or one and an ordered one.
const INLINE_PLANS: usize = 2;

/// A group's entries in retention order: `Group::inline_len` inline, or
/// all in a `Vec` once that overflowed. (Without a length field the tag
/// fits in a niche of the records: the group stays 128 bytes.)
#[derive(Debug, Clone)]
enum Entries {
    Inline([PlanEntry; INLINE_PLANS]),
    Spilled(Vec<PlanEntry>),
}

impl Entries {
    const EMPTY: Entries = Entries::Inline(
        [PlanEntry {
            cost: 0.0,
            source: PlanSource::Built(0),
            order: NO_ORDER,
            id: 0,
        }; INLINE_PLANS],
    );
}

/// Word `w` of a JCR's two edge sets, by edge index (`64 w ..`): the
/// edges touching it and the edges inside it. Bit operations on its
/// inputs' words give a union's (`EnumContext::new_union_group`) and a
/// pair's crossing edges (`EnumContext::pair_facts`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeWords {
    /// Edges with at least one endpoint in the JCR.
    pub incident: u64,
    /// Edges with both endpoints in the JCR.
    pub internal: u64,
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
    /// The first word of the JCR's edge sets; a graph of more than 64
    /// edges keeps the others in a side table of the run, from
    /// `wide_at` on.
    pub edges: EdgeWords,
    pub(crate) wide_at: u32,
    /// `sdp_cost::sort_cost` of the JCR's output: what a merge join
    /// above pays for an input plan not already ordered on its class,
    /// and what a sort enforcer adds. NaN until the group enters the
    /// memo: a JCR pruned at its level barrier never pays for it.
    pub sort_cost: f64,
    entries: Entries,
    /// Entries in use of `Entries::Inline`.
    inline_len: u8,
    /// Id of the next entry retained once sealed.
    next_id: u16,
    sealed: bool,
}

impl Group {
    /// Create an empty group with known estimated properties. Does
    /// not allocate.
    pub fn new(set: RelSet, rows: f64, selectivity: f64, width: f64, edges: EdgeWords) -> Self {
        Group {
            set,
            rows,
            selectivity,
            width,
            edges,
            wide_at: 0,
            sort_cost: f64::NAN,
            entries: Entries::EMPTY,
            inline_len: 0,
            next_id: 0,
            sealed: false,
        }
    }

    /// What every plan of the JCR has in common as a join input.
    pub fn side(&self) -> JoinSide {
        JoinSide {
            rows: self.rows,
            width: self.width,
            sort_cost: self.sort_cost,
        }
    }

    /// Offer a built plan to the group, its node held in `built`.
    /// Returns `true` if it was retained (and any newly-dominated
    /// entries were evicted).
    pub fn add_plan(&mut self, plan: Arc<PlanNode>, built: &mut BuiltNodes) -> bool {
        debug_assert_eq!(plan.set, self.set, "plan covers a different JCR");
        let (cost, ordering) = (plan.cost, plan.ordering);
        if !self.would_retain(cost, ordering) {
            return false;
        }
        let slot = built.push(plan);
        self.retain_with(cost, ordering, PlanSource::Built(slot), |s| {
            built.drop_slot(s)
        });
        true
    }

    /// Offer a plan to the group, whose built nodes `built` holds.
    /// Returns `true` if it was retained (and any newly-dominated
    /// entries were evicted).
    pub fn offer(
        &mut self,
        cost: f64,
        ordering: Option<ClassId>,
        source: PlanSource,
        built: &mut BuiltNodes,
    ) -> bool {
        let retained = self.would_retain(cost, ordering);
        if retained {
            self.retain_with(cost, ordering, source, |slot| built.drop_slot(slot));
        }
        retained
    }

    /// Whether a plan with the given cost and ordering would be
    /// retained if offered — the dominance test on its own.
    #[inline]
    pub fn would_retain(&self, cost: f64, ordering: Option<ClassId>) -> bool {
        !self
            .entries()
            .iter()
            .any(|e| dominates(e.cost, e.ordering(), cost, ordering))
    }

    /// Retain a plan that [`Group::would_retain`] in a group that holds
    /// no built plan — a JCR being costed — evicting what it makes
    /// redundant.
    pub(crate) fn retain(&mut self, cost: f64, ordering: Option<ClassId>, source: PlanSource) {
        self.retain_with(cost, ordering, source, |_| {
            unreachable!("a JCR being costed holds no built plan")
        });
    }

    /// Retain a plan that [`Group::would_retain`], evicting what it
    /// makes redundant; `evicted_built` gets the slot of each `Built`
    /// entry evicted.
    #[inline]
    fn retain_with(
        &mut self,
        cost: f64,
        ordering: Option<ClassId>,
        source: PlanSource,
        mut evicted_built: impl FnMut(u32),
    ) {
        debug_assert!(self.would_retain(cost, ordering));
        let id = self.next_id;
        if self.sealed {
            self.next_id = id
                .checked_add(1)
                .expect("a sealed JCR is refined a handful of times");
        }
        let entry = PlanEntry {
            id,
            ..PlanEntry::new(cost, ordering, source)
        };
        let mut keep = |e: &PlanEntry| {
            let evicted = dominates(cost, ordering, e.cost, e.ordering());
            if let (true, PlanSource::Built(slot)) = (evicted, e.source) {
                evicted_built(slot);
            }
            !evicted
        };
        match &mut self.entries {
            Entries::Inline(plans) => {
                let mut kept = 0;
                for i in 0..usize::from(self.inline_len) {
                    if keep(&plans[i]) {
                        plans[kept] = plans[i];
                        kept += 1;
                    }
                }
                if kept < INLINE_PLANS {
                    plans[kept] = entry;
                    self.inline_len = kept as u8 + 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_PLANS);
                    spilled.extend_from_slice(plans);
                    spilled.push(entry);
                    self.entries = Entries::Spilled(spilled);
                }
            }
            Entries::Spilled(plans) => {
                plans.retain(keep);
                plans.push(entry);
            }
        }
    }

    /// Name the entries `0..` and keep their names stable from here
    /// on: the group's level is complete, other groups may refer to
    /// its plans.
    fn seal(&mut self) {
        debug_assert!(!self.sealed, "a group is sealed once");
        let entries = self.entries_mut();
        for (id, e) in entries.iter_mut().enumerate() {
            e.id = u16::try_from(id).expect("one plan per order class");
        }
        self.next_id = entries.len() as u16;
        self.sealed = true;
    }

    /// The entry named `id`.
    ///
    /// # Panics
    /// Panics if the entry has been evicted: the sealed-group invariant
    /// (module docs) is broken, and serving another plan in its place
    /// would be silent.
    pub fn entry(&self, id: u16) -> &PlanEntry {
        debug_assert!(self.sealed, "entries have names once sealed");
        self.entries()
            .iter()
            .find(|e| e.id == id)
            .expect("a plan another plan refers to is never evicted")
    }

    /// Point entry `id` at the node built from it, in `slot` of the
    /// memo's [`BuiltNodes`].
    fn set_built(&mut self, id: u16, slot: u32) {
        let entry = self.entries_mut().iter_mut().find(|e| e.id == id);
        entry.expect("extracted entry is live").source = PlanSource::Built(slot);
    }

    /// The cheapest plan in the group.
    ///
    /// # Panics
    /// Panics if the group is empty (groups are always populated
    /// before being published to the memo).
    pub fn best(&self) -> &PlanEntry {
        self.entries()
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .expect("group has at least one plan")
    }

    /// Cost of the cheapest plan.
    pub fn best_cost(&self) -> f64 {
        self.best().cost
    }

    /// Cheapest plan whose output carries the given order class.
    pub fn best_for_order(&self, class: ClassId) -> Option<&PlanEntry> {
        self.entries()
            .iter()
            .filter(|e| e.ordering() == Some(class))
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
    }

    /// All retained plans, in retention order.
    #[inline]
    pub fn entries(&self) -> &[PlanEntry] {
        match &self.entries {
            Entries::Inline(plans) => &plans[..usize::from(self.inline_len)],
            Entries::Spilled(plans) => plans,
        }
    }

    fn entries_mut(&mut self) -> &mut [PlanEntry] {
        match &mut self.entries {
            Entries::Inline(plans) => &mut plans[..usize::from(self.inline_len)],
            Entries::Spilled(plans) => plans,
        }
    }

    /// Whether no plan has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Entries the run's live-node count counts on the group's behalf.
    pub(crate) fn charged(&self) -> usize {
        self.entries().iter().filter(|e| e.charged()).count()
    }

    /// The SDP feature vector `[Rows, Cost, Selectivity]` of
    /// Figure 2.3.
    pub fn feature_vector(&self) -> [f64; 3] {
        [self.rows, self.best_cost(), self.selectivity]
    }
}

/// The nodes of a memo's `Built` entries, by [`PlanSource::Built`]
/// slot, for the whole run: what an evicted entry or a removed group
/// held is emptied, so the memo never keeps a node alive it has
/// dropped. Slots are not reused — a run builds its access paths, its
/// sort enforcers that hold their input and the plans it extracts,
/// each once. The table owns the run's live-node count: the nodes it
/// holds and the nodes they hold, and the plan records charged to it.
#[derive(Debug, Default)]
pub struct BuiltNodes {
    slots: Vec<Option<Arc<PlanNode>>>,
    live: u64,
}

impl BuiltNodes {
    /// The node of a `Built` entry (`None` for another entry).
    pub fn get(&self, entry: &PlanEntry) -> Option<&Arc<PlanNode>> {
        match entry.source {
            PlanSource::Built(slot) => self.slots[slot as usize].as_ref(),
            _ => None,
        }
    }

    /// Hold `node`, a node built for it (its inputs are held already):
    /// charges it, and returns its slot.
    fn push(&mut self, node: Arc<PlanNode>) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 built nodes");
        self.slots.push(Some(node));
        self.charge(1);
        slot
    }

    /// Drop the node in `slot`, releasing what that frees.
    fn drop_slot(&mut self, slot: u32) {
        if let Some(node) = self.slots[slot as usize].take() {
            self.release(freed(node));
        }
    }

    /// Count `n` more nodes alive: nodes the table takes, or plan
    /// records retained, which stand for the nodes they may become.
    pub(crate) fn charge(&mut self, n: usize) {
        self.live += n as u64;
    }

    /// Count `n` nodes gone: nodes the table freed, or plan records
    /// evicted, pruned, rolled back or built into nodes (which the
    /// table charges).
    pub(crate) fn release(&mut self, n: usize) {
        self.live -= n as u64;
    }

    /// Settle a group's records after costing: it held `before` and
    /// holds `after` (+1 per entry retained, −1 per entry evicted), so
    /// that between pairs the count is that of an optimizer building
    /// every retained plan.
    pub(crate) fn recharge(&mut self, before: usize, after: usize) {
        self.live = self.live - before as u64 + after as u64;
    }
}

/// Drop `node`, returning how many nodes went with it: none while
/// another handle holds it, else the node and what its inputs free.
fn freed(node: Arc<PlanNode>) -> usize {
    let Some(node) = Arc::into_inner(node) else {
        return 0;
    };
    1 + match node.op {
        PlanOp::SeqScan { .. } | PlanOp::IndexScan { .. } => 0,
        PlanOp::Join {
            inputs: [outer, inner],
            ..
        } => freed(outer) + freed(inner),
        PlanOp::Sort { input: [input], .. } => freed(input),
    }
}

/// The memo table: JCR set → group. Groups sit in one arena in
/// creation order (a removal moves the last one into the gap) behind
/// an index of their sets, so a level's survivors cost one sized
/// growth of each, not an allocation per JCR.
#[derive(Debug, Default)]
pub struct Memo {
    slots: FxHashMap<RelSet, u32>,
    groups: Vec<Group>,
    /// The nodes of the groups' `Built` entries.
    built: BuiltNodes,
    /// Total number of distinct JCRs ever materialized (the paper's
    /// "JCRs processed" metric, Table 2.3).
    created: u64,
}

impl Memo {
    /// Empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Empty memo for a query of `relations` relations, sized for what
    /// every run over it holds: its index for a group per relation and
    /// one per join of the plan it serves (`2n − 1`), its arena for the
    /// base groups (the levels grow it as their survivors arrive), and
    /// its built nodes for at most three access paths a relation and
    /// that plan's joins and root sort.
    pub(crate) fn for_relations(relations: usize) -> Self {
        let mut slots = FxHashMap::default();
        slots.reserve(2 * relations);
        Memo {
            slots,
            groups: Vec::with_capacity(relations),
            built: BuiltNodes {
                slots: Vec::with_capacity(4 * relations),
                live: 0,
            },
            created: 0,
        }
    }

    /// Plan nodes an optimizer holding every retained plan as a node
    /// would have alive now: the memo's records and the nodes its
    /// built-node table holds (see the module docs, "Accounting").
    pub fn live_nodes(&self) -> u64 {
        self.built.live
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
    #[inline]
    pub fn get(&self, set: RelSet) -> Option<&Group> {
        self.slots
            .get(&set)
            .map(|&slot| &self.groups[slot as usize])
    }

    /// The arena slot of `set`'s group and the group. A slot names the
    /// group until the next removal ([`Memo::at`]).
    #[inline]
    pub(crate) fn get_slot(&self, set: RelSet) -> Option<(u32, &Group)> {
        let slot = *self.slots.get(&set)?;
        Some((slot, &self.groups[slot as usize]))
    }

    /// The group in arena slot `slot` (from [`Memo::get_slot`], with no
    /// removal since).
    #[inline]
    pub(crate) fn at(&self, slot: u32) -> &Group {
        &self.groups[slot as usize]
    }

    /// Fetch a group mutably.
    pub fn get_mut(&mut self, set: RelSet) -> Option<&mut Group> {
        self.slots
            .get(&set)
            .map(|&slot| &mut self.groups[slot as usize])
    }

    /// Fetch a group mutably, with the table of built nodes that its
    /// [`Group::offer`] and [`Group::add_plan`] take.
    pub fn get_mut_with_built(&mut self, set: RelSet) -> Option<(&mut Group, &mut BuiltNodes)> {
        let slot = *self.slots.get(&set)?;
        Some((&mut self.groups[slot as usize], &mut self.built))
    }

    /// The built nodes of the memo's groups — and of a group about to
    /// enter it ([`Group::add_plan`]).
    pub fn built_mut(&mut self) -> &mut BuiltNodes {
        &mut self.built
    }

    /// The node of a `Built` entry of one of the memo's groups.
    pub fn built(&self, entry: &PlanEntry) -> Option<&Arc<PlanNode>> {
        self.built.get(entry)
    }

    /// Insert a new group and seal it. Returns `false` (and drops the
    /// group) if the set is already present.
    pub fn insert(&mut self, mut group: Group) -> bool {
        match self.slots.entry(group.set) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(u32::try_from(self.groups.len()).expect("fewer than 2^32 JCRs"));
                self.created += 1;
                group.seal();
                self.groups.push(group);
                true
            }
        }
    }

    /// Make room for `additional` more groups — a level's survivors,
    /// about to be inserted — growing the arena, when it must, by
    /// exactly `room` of them (at least `additional`).
    pub(crate) fn reserve(&mut self, additional: usize, room: usize) {
        self.slots.reserve(additional);
        if self.groups.capacity() - self.groups.len() < additional {
            self.groups.reserve_exact(room.max(additional));
        }
    }

    /// Count a JCR that was created and dropped again (pruned, or
    /// rolled back with its level) while still staged, and so never
    /// passed through [`Memo::insert`]: it was processed all the same.
    pub(crate) fn count_dropped_while_staged(&mut self) {
        self.created += 1;
    }

    /// Remove a group (SDP pruning), returning it if present. The nodes
    /// of its `Built` entries are dropped.
    pub fn remove(&mut self, set: RelSet) -> Option<Group> {
        let slot = self.slots.remove(&set)? as usize;
        let group = self.groups.swap_remove(slot);
        for e in group.entries() {
            if let PlanSource::Built(built) = e.source {
                self.built.drop_slot(built);
            }
        }
        if let Some(moved) = self.groups.get(slot) {
            *self.slots.get_mut(&moved.set).expect("indexed group") = slot as u32;
        }
        Some(group)
    }

    /// Iterate over the live JCR sets (arena order).
    pub fn sets(&self) -> impl Iterator<Item = RelSet> + '_ {
        self.groups.iter().map(|g| g.set)
    }

    /// The plan tree of entry `entry` of `set`'s group, built bottom-up
    /// from the records it refers to. Every entry built on the way is
    /// replaced by its node (`PlanSource::Built`), so extracting the
    /// same entry again — directly, or as a subplan of another — clones
    /// that node. Each entry's count passes to its node.
    pub fn extract(&mut self, set: RelSet, entry: u16) -> Arc<PlanNode> {
        let slot = *self
            .slots
            .get(&set)
            .expect("a JCR outlives what refers to it") as usize;
        let group = &self.groups[slot];
        let e = *group.entry(entry);
        let op = match e.source {
            PlanSource::Built(_) => {
                return self
                    .built
                    .get(&e)
                    .expect("a live entry's node is held")
                    .clone()
            }
            PlanSource::Join {
                method,
                outer,
                outer_entry,
                inner_entry,
            } => PlanOp::Join {
                method,
                inputs: [
                    self.extract(outer, outer_entry),
                    self.extract(set - outer, inner_entry),
                ],
            },
            PlanSource::Sort { input } => PlanOp::Sort {
                class: e.ordering().expect("a sort enforces an order"),
                input: [self.extract(set, input)],
            },
        };
        // Extraction removes no group, so `slot` still names this one.
        let group = &mut self.groups[slot];
        let node = PlanNode::new(op, set, group.rows, e.cost, e.ordering());
        group.set_built(entry, self.built.push(node.clone()));
        self.built.release(1);
        node
    }
}

#[cfg(test)]
pub(crate) mod eager {
    //! The eager build the records replaced, kept as the tests' oracle:
    //! every retained plan of every group as an `Arc<PlanNode>`, built
    //! the first time the oracle sees it — level by level, children
    //! cloned out of the oracle's own groups, never through
    //! [`Memo::extract`] — and dropped when its group drops it. The
    //! oracle's own counter is charged for every node it builds and
    //! released for every node a dropped plan frees, so its live count
    //! is the one an optimizer building every retained plan shows.

    use super::*;

    #[derive(Debug, Default)]
    pub(crate) struct EagerMemo {
        pub nodes: std::cell::Cell<u64>,
        groups: FxHashMap<RelSet, Vec<(u16, Arc<PlanNode>)>>,
    }

    impl EagerMemo {
        /// Bring the oracle up to date with `memo`: forget the groups
        /// and plans it no longer holds, build the ones it gained —
        /// smaller JCRs first, so that a join's inputs exist. Sync
        /// between a group's removal and its return (a handoff, then the
        /// next rung), or the oracle takes the new one for the old.
        pub fn sync(&mut self, memo: &Memo) {
            let nodes = &self.nodes;
            let release = |plans: Vec<(u16, Arc<PlanNode>)>| {
                let gone: usize = plans.into_iter().map(|(_, plan)| freed(plan)).sum();
                nodes.set(nodes.get() - gone as u64);
            };
            self.groups.retain(|&set, plans| {
                let live = memo.get(set).is_some();
                if !live {
                    release(std::mem::take(plans));
                }
                live
            });
            let mut sets: Vec<RelSet> = memo.sets().collect();
            sets.sort_by_key(|s| (s.len(), s.0));
            for set in sets {
                let plans = self.materialize(memo, memo.get(set).expect("live set"));
                if let Some(old) = self.groups.insert(set, plans) {
                    release(old);
                }
            }
        }

        /// A node the oracle built, counted.
        fn build(
            &self,
            op: PlanOp,
            set: RelSet,
            rows: f64,
            cost: f64,
            ordering: Option<ClassId>,
        ) -> Arc<PlanNode> {
            self.nodes.set(self.nodes.get() + 1);
            PlanNode::new(op, set, rows, cost, ordering)
        }

        /// The group's entries as nodes: the ones the oracle already
        /// holds as they are, new ones built from their sources.
        fn materialize(&self, memo: &Memo, group: &Group) -> Vec<(u16, Arc<PlanNode>)> {
            let held = self.groups.get(&group.set).map_or(&[][..], Vec::as_slice);
            let mut plans: Vec<(u16, Arc<PlanNode>)> = Vec::new();
            for e in group.entries() {
                if let Some((_, node)) = held.iter().find(|(id, _)| *id == e.id()) {
                    assert_eq!(
                        node.cost.to_bits(),
                        e.cost.to_bits(),
                        "an id names one plan"
                    );
                    plans.push((e.id(), node.clone()));
                    continue;
                }
                let node = |op| self.build(op, group.set, group.rows, e.cost, e.ordering());
                let built = match e.source {
                    PlanSource::Join {
                        method,
                        outer,
                        outer_entry,
                        inner_entry,
                    } => node(PlanOp::Join {
                        method,
                        inputs: [
                            self.plan(outer, outer_entry).clone(),
                            self.plan(group.set - outer, inner_entry).clone(),
                        ],
                    }),
                    PlanSource::Sort { input } => {
                        let (_, input) = plans.iter().find(|(id, _)| *id == input).unwrap();
                        let class = e.ordering().unwrap();
                        node(PlanOp::Sort {
                            class,
                            input: [input.clone()],
                        })
                    }
                    PlanSource::Built(_) => self.adopt(memo, &plans, memo.built(e).unwrap()),
                };
                plans.push((e.id(), built));
            }
            plans
        }

        /// A node the optimizer built before the oracle saw its record
        /// (an access path; a plan extracted within the step just
        /// synced), again under the oracle's counter. A child that is a
        /// memo entry's node is the oracle's plan of that name — of
        /// `siblings`, for an entry of the group being built — so what
        /// the optimizer shares, the oracle shares.
        fn adopt(
            &self,
            memo: &Memo,
            siblings: &[(u16, Arc<PlanNode>)],
            node: &Arc<PlanNode>,
        ) -> Arc<PlanNode> {
            let child = |c: &Arc<PlanNode>| {
                let group = memo.get(c.set);
                let named = group.and_then(|g| {
                    let mut entries = g.entries().iter();
                    entries.find(|e| memo.built(e).is_some_and(|b| Arc::ptr_eq(b, c)))
                });
                match named {
                    Some(e) if c.set == node.set => {
                        let (_, plan) = siblings.iter().find(|(id, _)| *id == e.id()).unwrap();
                        plan.clone()
                    }
                    Some(e) => self.plan(c.set, e.id()).clone(),
                    None => self.adopt(memo, &[], c),
                }
            };
            let op = match &node.op {
                PlanOp::SeqScan { .. } | PlanOp::IndexScan { .. } => node.op.clone(),
                PlanOp::Join {
                    method,
                    inputs: [outer, inner],
                } => PlanOp::Join {
                    method: *method,
                    inputs: [child(outer), child(inner)],
                },
                PlanOp::Sort {
                    class,
                    input: [input],
                } => PlanOp::Sort {
                    class: *class,
                    input: [child(input)],
                },
            };
            self.build(op, node.set, node.rows, node.cost, node.ordering)
        }

        /// The oracle's node for entry `id` of `set`'s group.
        pub fn plan(&self, set: RelSet, id: u16) -> &Arc<PlanNode> {
            let plans = &self.groups[&set];
            &plans.iter().find(|(i, _)| *i == id).expect("held plan").1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::RelId;

    fn plan(set: RelSet, cost: f64, ordering: Option<ClassId>) -> Arc<PlanNode> {
        let node = set.min_index().unwrap() as u16;
        let op = PlanOp::SeqScan {
            rel: RelId(0),
            node,
        };
        PlanNode::new(op, set, 10.0, cost, ordering)
    }

    fn group_of(set: RelSet) -> Group {
        Group::new(set, 10.0, 1.0, 100.0, EdgeWords::default())
    }

    fn group() -> Group {
        group_of(RelSet::single(0))
    }

    #[test]
    fn cheapest_unordered_plan_wins() {
        let (mut g, mut built) = (group(), BuiltNodes::default());
        assert!(g.add_plan(plan(g.set, 10.0, None), &mut built));
        assert!(!g.add_plan(plan(g.set, 20.0, None), &mut built)); // dominated
        assert!(g.add_plan(plan(g.set, 5.0, None), &mut built)); // evicts
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.best_cost(), 5.0);
    }

    #[test]
    fn ordered_plans_survive_despite_higher_cost() {
        let (mut g, mut built) = (group(), BuiltNodes::default());
        g.add_plan(plan(g.set, 10.0, None), &mut built);
        assert!(g.add_plan(plan(g.set, 15.0, Some(3)), &mut built));
        assert_eq!(g.entries().len(), 2);
        assert_eq!(g.best_cost(), 10.0);
        assert_eq!(g.best_for_order(3).unwrap().cost, 15.0);
        assert!(g.best_for_order(4).is_none());
    }

    #[test]
    fn cheap_ordered_plan_dominates_unordered() {
        let (mut g, mut built) = (group(), BuiltNodes::default());
        g.add_plan(plan(g.set, 10.0, None), &mut built);
        assert!(g.add_plan(plan(g.set, 8.0, Some(1)), &mut built));
        // The ordered plan is cheaper AND ordered: unordered evicted.
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.best().ordering(), Some(1));
    }

    #[test]
    fn distinct_orders_coexist() {
        let (mut g, mut built) = (group(), BuiltNodes::default());
        g.add_plan(plan(g.set, 10.0, Some(1)), &mut built);
        g.add_plan(plan(g.set, 10.0, Some(2)), &mut built);
        assert_eq!(g.entries().len(), 2);
    }

    #[test]
    fn feature_vector_matches_definition() {
        let set = RelSet::single(0);
        let mut g = Group::new(set, 184_736.0, 2.54e-10, 64.0, EdgeWords::default());
        let mut built = BuiltNodes::default();
        g.add_plan(plan(g.set, 57_726.0, None), &mut built);
        let fv = g.feature_vector();
        assert_eq!(fv, [184_736.0, 57_726.0, 2.54e-10]);
    }

    #[test]
    fn a_record_is_32_bytes() {
        // Two of them sit inside every group of the memo and the stage:
        // eight bytes here are 5 % of `cold_sdp`'s request heap.
        assert_eq!(std::mem::size_of::<PlanEntry>(), 32);
    }

    #[test]
    fn a_group_is_at_most_128_bytes() {
        // Every JCR of a level is one, staged, and every survivor one in
        // the memo arena: 2 047 groups × 152 B were a seventh of
        // `cold_dp`'s peak heap, before built nodes moved to the memo's
        // side table. A 176-byte group measured +8.9 % allocated bytes
        // per request there; one more word needs one given back.
        let size = std::mem::size_of::<Group>();
        assert!(size <= 128, "Group grew to {size} bytes");
    }

    #[test]
    fn a_plan_node_is_at_most_56_bytes() {
        // A served Star-Chain-23 plan is 45 of them, each one `Arc`
        // allocation, and the service caches hundreds of plans: 24
        // bytes more a node were +0.88 MiB of `cold_sdp`'s peak heap
        // (DESIGN.md, "What a cached plan costs").
        let size = std::mem::size_of::<PlanNode>();
        assert!(size <= 56, "PlanNode grew to {size} bytes");
    }

    #[test]
    fn an_evicted_built_plan_is_dropped() {
        let (mut g, mut built) = (group(), BuiltNodes::default());
        let scan = plan(g.set, 10.0, None);
        let weak = Arc::downgrade(&scan);
        g.add_plan(scan, &mut built);
        assert_eq!(built.live, 1);
        assert!(g.add_plan(plan(g.set, 5.0, None), &mut built));
        assert!(
            weak.upgrade().is_none(),
            "the table kept a node the group had evicted"
        );
        assert_eq!(built.live, 1, "the cheaper scan alone");
        assert!(built.get(g.best()).is_some());
    }

    #[test]
    fn a_removed_group_drops_its_built_plans() {
        let mut m = Memo::new();
        let mut g = group();
        let scan = plan(g.set, 10.0, None);
        let weak = Arc::downgrade(&scan);
        g.add_plan(scan, m.built_mut());
        m.insert(g);
        assert_eq!(m.live_nodes(), 1);
        m.remove(RelSet::single(0));
        assert!(
            weak.upgrade().is_none(),
            "the memo kept a removed group's node"
        );
        assert_eq!(m.live_nodes(), 0);
    }

    /// Two scans in their base groups, and their join in its group:
    /// the memo, and a handle to the join.
    fn joined_scans() -> (Memo, Arc<PlanNode>) {
        let mut m = Memo::new();
        let scans = [0, 1].map(|i| {
            let scan = plan(RelSet::single(i), 1.0, None);
            let mut g = group_of(scan.set);
            g.add_plan(scan.clone(), m.built_mut());
            m.insert(g);
            scan
        });
        let set = RelSet::from_indices([0, 1]);
        let op = PlanOp::Join {
            method: JoinMethod::Hash,
            inputs: scans,
        };
        let join = PlanNode::new(op, set, 10.0, 3.0, None);
        let mut g = group_of(set);
        g.add_plan(join.clone(), m.built_mut());
        m.insert(g);
        assert_eq!(m.live_nodes(), 3);
        (m, join)
    }

    #[test]
    fn the_table_releases_only_the_nodes_it_frees() {
        let (mut m, join) = joined_scans();
        let [outer, inner] = join.children() else {
            unreachable!("a join has two inputs")
        };
        let weak = [&join, outer, inner].map(Arc::downgrade);
        drop(join);
        // The join holds the outer scan: its group's removal frees nothing.
        m.remove(RelSet::single(0));
        assert_eq!(m.live_nodes(), 3);
        assert!(weak[1].upgrade().is_some());
        // The join's removal frees the join and the scan only it held.
        m.remove(RelSet::from_indices([0, 1]));
        assert_eq!(m.live_nodes(), 1);
        assert!(weak[0].upgrade().is_none() && weak[1].upgrade().is_none());
        assert!(weak[2].upgrade().is_some());
        drop(m);
        assert!(weak[2].upgrade().is_none());
    }

    #[test]
    fn a_served_plan_is_not_the_runs_to_count() {
        let (m, served) = joined_scans();
        let weak = Arc::downgrade(&served);
        // The table lets go of nodes a caller still holds: it frees
        // none of them, and nothing counts them from here on.
        drop(m);
        assert!(weak.upgrade().is_some());
        drop(served);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn memo_insert_get_remove() {
        let mut m = Memo::new();
        let mut g = group();
        g.add_plan(plan(g.set, 1.0, None), m.built_mut());
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
    fn removal_keeps_every_other_group_findable() {
        let mut m = Memo::new();
        for i in 0..5 {
            let mut g = group_of(RelSet::single(i));
            g.add_plan(plan(g.set, i as f64 + 1.0, None), m.built_mut());
            m.insert(g);
        }
        // From the middle, then what was moved into the gap, then the end.
        for (gone, i) in [1, 4, 3].into_iter().enumerate() {
            assert_eq!(m.remove(RelSet::single(i)).unwrap().set, RelSet::single(i));
            assert!(m.get(RelSet::single(i)).is_none());
            assert_eq!(m.len(), 4 - gone);
            for set in m.sets().collect::<Vec<_>>() {
                assert_eq!(m.get(set).unwrap().set, set);
            }
        }
        assert_eq!(m.get(RelSet::single(2)).unwrap().best_cost(), 3.0);
    }

    /// Two base relations, their join kept as two records sharing the
    /// outer scan, and a sort enforcer over the cheaper one.
    fn small_memo() -> (Memo, RelSet) {
        let mut m = Memo::new();
        for i in 0..2 {
            let mut g = group_of(RelSet::single(i));
            let op = PlanOp::SeqScan {
                rel: RelId(i as u32),
                node: i as u16,
            };
            let scan = PlanNode::new(op, g.set, 10.0, 1.0, None);
            g.add_plan(scan, m.built_mut());
            m.insert(g);
        }
        let set = RelSet::from_indices([0, 1]);
        let mut g = group_of(set);
        let join = |method| PlanSource::Join {
            method,
            outer: RelSet::single(0),
            outer_entry: 0,
            inner_entry: 0,
        };
        assert!(g.offer(9.0, Some(7), join(JoinMethod::Merge), m.built_mut()));
        assert!(g.offer(4.0, None, join(JoinMethod::Hash), m.built_mut()));
        m.insert(g);
        let (g, built) = m.get_mut_with_built(set).unwrap();
        let input = g.best().id();
        assert!(g.offer(6.0, Some(7), PlanSource::Sort { input }, built));
        // The hash join and the sort; the merge join went.
        m.built_mut().charge(2);
        (m, set)
    }

    #[test]
    fn sealed_ids_survive_evictions() {
        let (m, set) = small_memo();
        let g = m.get(set).unwrap();
        // The merge join held id 0 and position 0; the sort evicted it.
        // The hash join moved to position 0 and is still entry 1.
        let ids: Vec<u16> = g.entries().iter().map(PlanEntry::id).collect();
        assert_eq!(ids, [1, 2]);
        assert_eq!(g.entry(1).cost, 4.0);
        assert_eq!(g.entry(2).source, PlanSource::Sort { input: 1 });
    }

    #[test]
    #[should_panic(expected = "never evicted")]
    fn a_dangling_reference_panics_rather_than_serve_another_plan() {
        let (m, set) = small_memo();
        m.get(set).unwrap().entry(0);
    }

    #[test]
    fn extraction_builds_once_and_moves_the_count() {
        let (mut m, set) = small_memo();
        assert_eq!(m.live_nodes(), 4);
        let sorted = m.extract(set, 2);
        assert_eq!(m.live_nodes(), 4, "each record's count passed to its node");
        sorted.check_invariants().unwrap();
        assert_eq!(sorted.node_count(), 4);
        assert!(matches!(sorted.op, PlanOp::Sort { class: 7, .. }));
        // The sort's input is the group's other entry: one node, and
        // the scans below it are the base groups' own.
        let join = m.extract(set, 1);
        assert!(Arc::ptr_eq(&join, &sorted.children()[0]));
        assert!(Arc::ptr_eq(&m.extract(set, 2), &sorted));
        let scan = m.get(RelSet::single(0)).unwrap();
        assert!(Arc::ptr_eq(
            m.built(scan.best()).unwrap(),
            &join.children()[0]
        ));
        let records: usize = m.sets().map(|set| m.get(set).unwrap().charged()).sum();
        assert_eq!(records, 0);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use sdp_catalog::RelId;

    fn plan(cost: f64, ordering: Option<ClassId>) -> Arc<PlanNode> {
        let op = PlanOp::SeqScan {
            rel: RelId(0),
            node: 0,
        };
        PlanNode::new(op, RelSet::single(0), 10.0, cost, ordering)
    }

    fn group() -> Group {
        Group::new(RelSet::single(0), 10.0, 1.0, 80.0, EdgeWords::default())
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
            let (mut g, mut built) = (group(), BuiltNodes::default());
            for (cost, ordering) in &offers {
                g.add_plan(plan(*cost, *ordering), &mut built);
            }
            // (1) mutual non-dominance among retained entries
            for (i, a) in g.entries().iter().enumerate() {
                for (j, b) in g.entries().iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let dominates = a.cost <= b.cost
                        && (b.ordering().is_none() || a.ordering() == b.ordering());
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

        /// The entries of a group — inline, then spilled — are a `Vec`
        /// under the dominance rule: any offer sequence, before and
        /// after sealing, retains the (cost, ordering) a plain vector
        /// does, in its order; a sealed entry keeps its id for as long
        /// as it is retained and no id is given twice.
        #[test]
        fn entries_behave_like_a_vector_and_sealed_ids_are_stable(
            offers in prop::collection::vec((1.0f64..50.0, prop::option::of(0u32..6)), 1..60),
            sealed_after in 0usize..20,
        ) {
            // Coarse costs, so that ties — where `<=` matters — occur.
            let offers: Vec<(f64, Option<u32>)> =
                offers.into_iter().map(|(c, o)| (c.floor(), o)).collect();
            let source = |k: usize| PlanSource::Sort { input: k as u16 };
            let mut model: Vec<(f64, Option<u32>, usize)> = Vec::new();
            let mut memo = Memo::new();
            let mut unsealed = Some(group());
            let mut names: Vec<(usize, u16)> = Vec::new();
            for (k, &(cost, ordering)) in offers.iter().enumerate() {
                if k == sealed_after {
                    memo.insert(unsealed.take().unwrap());
                }
                let retained = !model.iter().any(|&(c, o, _)| dominates(c, o, cost, ordering));
                if retained {
                    model.retain(|&(c, o, _)| !dominates(cost, ordering, c, o));
                    model.push((cost, ordering, k));
                }
                let (g, built) = match &mut unsealed {
                    Some(g) => (g, memo.built_mut()),
                    None => memo.get_mut_with_built(RelSet::single(0)).unwrap(),
                };
                prop_assert_eq!(g.would_retain(cost, ordering), retained);
                prop_assert_eq!(g.offer(cost, ordering, source(k), built), retained);
                let got: Vec<_> = (g.entries().iter())
                    .map(|e| (e.cost, e.ordering(), e.source))
                    .collect();
                let want: Vec<_> = model.iter().map(|&(c, o, k)| (c, o, source(k))).collect();
                prop_assert_eq!(got, want);
                if k >= sealed_after {
                    for e in g.entries() {
                        let PlanSource::Sort { input } = e.source else { unreachable!() };
                        match names.iter().find(|(offer, _)| *offer == usize::from(input)) {
                            Some(&(_, id)) => prop_assert_eq!(id, e.id(), "renamed"),
                            None => {
                                prop_assert!(names.iter().all(|&(_, id)| id != e.id()), "id reused");
                                names.push((usize::from(input), e.id()));
                            }
                        }
                        prop_assert_eq!(g.entry(e.id()), e);
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
                let (mut g, mut built) = (group(), BuiltNodes::default());
                for (cost, ordering) in offers {
                    g.add_plan(plan(*cost, *ordering), &mut built);
                }
                let mut frontier: Vec<(Option<u32>, u64)> = g
                    .entries()
                    .iter()
                    .map(|e| (e.ordering(), e.cost.to_bits()))
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
