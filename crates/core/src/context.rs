//! Shared enumeration state: memo, counters, budget, cached
//! estimates — everything the DP/IDP/SDP enumerators thread through
//! their level loops.
//!
//! The join-costing core (`EnumContext::cost_pair`) costs plan records
//! into a caller-supplied [`Group`]: the level's `LevelStage` (see the
//! "Level stage" section of DESIGN.md), or — `EnumContext::join_pair` —
//! one JCR. Plans stay records (see [`crate::memo`]);
//! [`EnumContext::extract`] builds the tree of the one that is served.

use std::collections::hash_map::Entry;
use std::sync::Arc;
use std::time::Duration;

use sdp_cost::{CostModel, IndexLoop, IndexProbe, JoinMethod, JoinTerms, ScanKind};
use sdp_query::{ClassId, EquivClasses, JoinGraph, Query, RelSet};

use crate::budget::{Budget, MemoryModel, OptError};
use crate::dp::{LevelTable, Survivor};
use crate::fx::FxHashMap;
use crate::memo::{dominates, BuiltNodes, EdgeWords, Group, Memo, PlanEntry, PlanSource};
use crate::plan::{PlanNode, PlanOp};
use sdp_trace::{Event, Tracer};

/// Ceiling on estimated rows, guarding incremental multiplication
/// against `f64` overflow on extreme graphs.
const MAX_ROWS: f64 = 1e299;

/// Counters reported for every optimization run — the paper's three
/// overhead metrics plus pruning diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Number of plan alternatives costed (paper: "Costing (in
    /// plans)", Tables 1.2, 1.4, 3.2).
    pub plans_costed: u64,
    /// Distinct JCRs materialized (paper: "JCRs Processed",
    /// Table 2.3).
    pub jcrs_processed: u64,
    /// JCRs removed by pruning.
    pub jcrs_pruned: u64,
    /// Peak paper-equivalent memory of the memo (paper: "Memory (in
    /// MB)").
    pub peak_model_bytes: u64,
    /// Wall-clock optimization time (paper: "Time (in sec)").
    pub elapsed: Duration,
    /// The bound an exhaustive DP run pruned against (`None` for every
    /// other strategy).
    pub incumbent: Option<Incumbent>,
    /// Plan alternatives that bound ruled out uncosted, their floor
    /// (`sdp_cost::JoinTerms::floor`) above it; not in `plans_costed`.
    pub ruled_out: u64,
    /// Plan alternatives left uncosted because the plans their JCR held
    /// already dominated them at their pair's floor (the pair gate of
    /// `EnumContext::cost_pair`); not in `plans_costed`.
    pub dominated: u64,
}

/// The incumbent of an exhaustive DP run: the cost `B` of a complete
/// plan, root sort included, which bounds every JCR and plan pair the
/// plan DP returns can contain. A costs-only greedy prices GOO's plan
/// before the levels run; completions of wide levels' cheapest
/// survivors lower `B` as the run goes (`EnumContext::incumbent`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incumbent {
    /// Cost of GOO's plan, as `EnumContext::finalize` would serve it:
    /// the bound the first level ran under.
    pub first: f64,
    /// The lowest bound the run found: the one its last level ran under.
    pub last: f64,
    /// Plans the greedy and its completions costed (part of the run's
    /// `plans_costed`, in no level's row).
    pub plans_costed: u64,
}

/// One row of the per-level enumeration profile, recorded at every
/// level barrier and carried on the returned plan for `ExplainAnalyze`
/// provenance. All counters are deterministic: a function of the query
/// and the budget.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelStats {
    /// Enumeration level (relations per JCR at this level).
    pub level: usize,
    /// Strategy label active when the level ran (`"DP"`, `"SDP"`,
    /// `"IDP"`, ...). Governed descents tag each level with the rung
    /// that produced it.
    pub phase: &'static str,
    /// Candidate connected pairs considered.
    pub pairs: u64,
    /// Plan alternatives costed during the level.
    pub plans_costed: u64,
    /// Distinct JCRs newly materialized.
    pub jcrs_created: u64,
    /// JCRs the level pruned without ever costing them: no skyline
    /// needed more than their cost floor (see "Lazy costing" in
    /// DESIGN.md). Zero for a level that costs as it stages.
    pub jcrs_uncosted: u64,
    /// JCRs removed by the level pruner.
    pub jcrs_pruned: u64,
    /// JCRs surviving in the level row after pruning.
    pub jcrs_retained: u64,
    /// Hub partitions the skyline pruner examined (0 when the level
    /// ran unpruned).
    pub skyline_partitions: u64,
    /// Skyline survivors summed over partitions.
    pub skyline_survivors: u64,
    /// JCRs kept only by interesting-order retention.
    pub order_rescued: u64,
    /// Sort-ahead enforcer plans retained at the level barrier
    /// (explicit `Sort` nodes placed below future joins so
    /// order-preserving joins can carry the order to the root).
    pub sort_enforcers: u64,
    /// Memo size in groups after the barrier.
    pub memo_groups: u64,
    /// Modeled memory in bytes after the barrier.
    pub model_bytes: u64,
    /// Atom-graph contractions in force while the level ran: compound
    /// atoms (more than one base relation) the enumerator was asked to
    /// treat as single vertices. Zero for a plain bottom-up run; IDP
    /// re-invocations over already-joined subtrees report how much of
    /// the graph arrived pre-contracted.
    pub contractions: u64,
}

/// A costing pass's bound, if any, and its account
/// (`EnumContext::cost_pair`): plans costed, alternatives ruled out
/// uncosted because their floor exceeds the bound, and alternatives
/// left uncosted because the JCR's plans dominate them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Costing {
    pub bound: Option<f64>,
    pub plans_costed: u64,
    pub ruled_out: u64,
    pub dominated: u64,
}

/// No pair: the end of a [`StagedJcr`]'s chain of deferred pairs.
const NO_PAIR: u32 = u32::MAX;

/// A JCR of the level being enumerated: the group its pairs are costed
/// into, not yet in the memo.
#[derive(Debug)]
pub(crate) struct StagedJcr {
    /// The JCR's estimated properties and the plans retained so far.
    pub group: Group,
    /// The last of its pairs staged uncosted, which chains back through
    /// `LevelStage::deferred` to the first; `NO_PAIR` for a JCR that is
    /// costed (as it was staged, or since).
    deferred: u32,
    /// The least [`inputs_floor`] over the pairs staged uncosted so far,
    /// rounded down to an `f32` ([`f32_at_most`]): in the four bytes
    /// `deferred` leaves of the last word, so the stage is no wider.
    floor: f32,
}

impl StagedJcr {
    /// Whether its pairs are costed into `group`.
    pub fn costed(&self) -> bool {
        self.deferred == NO_PAIR
    }
}

/// A pair staged uncosted: the memo slots of its two inputs, in the
/// pair's order, and the previous pair of the same JCR (`NO_PAIR` for
/// its first).
#[derive(Debug, Clone, Copy)]
struct DeferredPair {
    a: u32,
    b: u32,
    previous: u32,
}

/// What the inputs of `a ⋈ b` put under every join alternative of the
/// pair: the sum of their cheapest plans' costs, or — where one side is
/// a single relation, a possible index nested-loop inner whose plan the
/// probes replace — the other side's cheapest cost alone. Plus the
/// output's emission, this is at most every alternative's cost: the
/// argument of `JoinTerms::floor` and `JoinTerms::outer_floor`, since
/// every input plan costs at least its group's cheapest and `f64`
/// rounding is monotone.
fn inputs_floor(a: &Group, b: &Group) -> f64 {
    let (cost_a, cost_b) = (a.best_cost(), b.best_cost());
    match (a.set.len() == 1, b.set.len() == 1) {
        (true, true) => cost_a.min(cost_b),
        (false, true) => cost_a,
        (true, false) => cost_b,
        (false, false) => cost_a + cost_b,
    }
}

/// `x ≥ 0` as the greatest `f32` not above it: lowered, a floor stays a
/// floor.
fn f32_at_most(x: f64) -> f32 {
    let near = x as f32;
    if f64::from(near) > x {
        // The next `f32` down: `near` is positive, or `+∞` (above `f32::MAX`).
        f32::from_bits(near.to_bits() - 1)
    } else {
        near
    }
}

/// The cheapest join method of one orientation over an outer plan of
/// `outer_cost` and an inner of `inner_cost`: nested loop, hash, a merge
/// (when a class crosses, `merges`) whose inputs are both ordered, and
/// the index nested loop where the inner can be probed. Each method is
/// `JoinTerms`' left-to-right sum of non-negative terms, so rounding
/// keeps it monotone in both costs; a merge's sorts only add, and an
/// index nested loop never reads the inner. So over plans costing at
/// least these, no alternative of the orientation costs less.
fn cheapest_method(terms: &JoinTerms, outer_cost: f64, inner_cost: f64, merges: bool) -> f64 {
    let mut least = terms
        .nested_loop(outer_cost, inner_cost)
        .min(terms.hash(outer_cost, inner_cost));
    if merges {
        least = least.min(terms.merge(outer_cost, inner_cost, true, true));
    }
    terms
        .index_nested_loop(outer_cost)
        .map_or(least, |probe| least.min(probe))
}

/// The JCRs of the level being enumerated, in first-visit order, with
/// the index that finds a pair's JCR. The barrier prunes it and moves
/// the survivors into the memo as they are; `run_levels` clears it and
/// uses it again for the next level.
#[derive(Debug, Default)]
pub(crate) struct LevelStage {
    /// Union set → slot in `jcrs`.
    index: FxHashMap<RelSet, usize>,
    /// The level's JCRs in first-visit order.
    pub jcrs: Vec<StagedJcr>,
    /// Their edge-set words past the first (`Group::wide_at`).
    wide: Vec<EdgeWords>,
    /// The level's bound (its pruner's `cost_bound`) and what was costed
    /// into this stage, not yet added to the run's counters.
    pub costing: Costing,
    /// Whether the level stages its new JCRs uncosted
    /// (`LevelPruner::defers_costing`): their pairs wait in `deferred`
    /// until [`EnumContext::cost_staged`].
    defer: bool,
    /// The pairs staged uncosted, in scan order.
    deferred: Vec<DeferredPair>,
    /// One JCR's deferred pairs, last to first, while it is costed.
    chain: Vec<u32>,
    /// When the tracer is enabled: `Tracer::wall_micros` at each
    /// record's staging, for the `jcr` event the barrier emits on its
    /// behalf.
    staged_micros: Vec<u64>,
}

impl LevelStage {
    /// Append a JCR to `jcrs`; returns its slot. The buffer holds a
    /// level of whole groups and stays for the run, so it grows by a
    /// quarter: what doubling leaves unused would show in peak heap.
    fn push(jcrs: &mut Vec<StagedJcr>, jcr: StagedJcr) -> usize {
        if jcrs.len() == jcrs.capacity() {
            jcrs.reserve_exact((jcrs.len() / 4).max(8));
        }
        jcrs.push(jcr);
        jcrs.len() - 1
    }

    /// Empty the stage for a level of `pairs` pairs, keeping its
    /// buffers; `defer` stages the level's new JCRs uncosted: each pair
    /// waits in `deferred` until [`EnumContext::cost_staged`]. A level
    /// that costs as it stages (DP's) cuts the groups and the index to
    /// what it can fill, a JCR per pair: the widest level's stage must
    /// not sit beside the memo of the last. A deferring level (one SDP
    /// prunes) keeps the index, and cuts the groups only where they are
    /// over a quarter wider than it can fill: SDP's pruned levels differ
    /// little in width, and a stage cut to every narrower one regrows at
    /// the next wider one.
    pub fn reset(&mut self, pairs: usize, defer: bool) {
        self.index.clear();
        self.jcrs.clear();
        self.deferred.clear();
        if !defer {
            self.index.shrink_to(pairs);
            self.jcrs.shrink_to(pairs);
        } else {
            self.deferred.reserve(pairs);
            if self.jcrs.capacity() > pairs + pairs / 4 {
                self.jcrs.shrink_to(pairs);
            }
        }
        self.defer = defer;
        self.wide.clear();
        self.costing = Costing::default();
        self.staged_micros.clear();
    }
}

/// Everything the per-pair path needs that is a pure function of the
/// query, computed once per run in [`EnumContext::new`]: the
/// estimator's ln terms (so no `ln`, `sqrt` or catalog look-up is
/// repeated per pair), a lone crossing edge's selectivity (so most
/// pairs of stars and star-chains need no `exp`), each edge's order
/// class and index usability, and per-node edge and filter bitmaps
/// from which the groups' edge sets start. Edges, nodes and filters
/// keep the join graph's indexing, so walking a table in ascending
/// index adds the same `f64` terms in the same order as the
/// estimator's own scans.
#[derive(Debug)]
struct RunTables {
    /// Per edge, its selectivity's ln term and what it crosses alone.
    edge_sel: Vec<EdgeSel>,
    /// Order class of the edge's join columns.
    edge_class: Vec<ClassId>,
    /// The endpoints whose side of the edge is their relation's
    /// indexed column (an index nested-loop can probe them).
    edge_indexed: Vec<RelSet>,
    /// `u64` words per edge set (at least one).
    edge_words: usize,
    /// `incident[n * edge_words ..][.. edge_words]`: bitmap, by edge
    /// index, of the edges touching node `n`.
    incident: Vec<u64>,
    /// `ln(max(cardinality, 1))` of the node's relation.
    node_ln_card: Vec<f64>,
    /// Probe costing of the index on the node's relation.
    node_index: Vec<IndexProbe>,
    /// `ln(predicate_selectivity)` per local predicate.
    filter_ln_sel: Vec<f64>,
    /// `u64` words per filter bitmap (at least one).
    filter_words: usize,
    /// Like `incident`, by filter index: the local predicates on node `n`.
    node_filters: Vec<u64>,
    /// Nodes owning a member column of each order class.
    class_nodes: Vec<RelSet>,
}

/// An edge's selectivity, in the forms the per-pair path sums or takes.
#[derive(Debug, Clone, Copy)]
struct EdgeSel {
    /// `ln(edge_selectivity(e))`.
    ln: f64,
    /// `selectivity_from_ln(0.0 + ln)`: the crossing selectivity of a
    /// pair that this edge alone crosses, bit for bit.
    alone: f64,
}

/// The positions of `word`'s set bits, ascending.
#[inline]
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

impl RunTables {
    fn new(graph: &JoinGraph, model: &CostModel<'_>, classes: &EquivClasses) -> Self {
        let est = model.estimator();
        let catalog = model.catalog();
        let edges = graph.edges();
        let filters = graph.filters();
        let edge_words = edges.len().div_ceil(64).max(1);
        let mut incident = vec![0u64; graph.len() * edge_words];
        for (e, edge) in edges.iter().enumerate() {
            for node in [edge.left.node, edge.right.node] {
                incident[node * edge_words + e / 64] |= 1 << (e % 64);
            }
        }
        let filter_words = filters.len().div_ceil(64).max(1);
        let mut node_filters = vec![0u64; graph.len() * filter_words];
        for (f, filter) in filters.iter().enumerate() {
            node_filters[filter.column.node * filter_words + f / 64] |= 1 << (f % 64);
        }
        let indexed = |c: sdp_query::ColRef| {
            catalog
                .relation(graph.relation(c.node))
                .expect("valid binding")
                .has_index_on(c.col)
        };
        RunTables {
            edge_sel: edges
                .iter()
                .map(|e| {
                    let ln = est.edge_selectivity(graph, e).ln();
                    let alone = est.selectivity_from_ln(0.0 + ln);
                    EdgeSel { ln, alone }
                })
                .collect(),
            edge_class: edges
                .iter()
                .map(|e| classes.class_of(e.left).expect("edge columns are classed"))
                .collect(),
            edge_indexed: edges
                .iter()
                .map(|e| {
                    [e.left, e.right]
                        .into_iter()
                        .filter(|&c| indexed(c))
                        .map(|c| c.node)
                        .collect()
                })
                .collect(),
            edge_words,
            incident,
            node_ln_card: (0..graph.len())
                .map(|n| est.ln_base_product(graph, RelSet::single(n)))
                .collect(),
            node_index: (0..graph.len())
                .map(|n| {
                    let stats = catalog.stats(graph.relation(n)).expect("valid binding");
                    IndexProbe::new(stats.relation.tuples, stats.relation.pages, model.params())
                })
                .collect(),
            filter_ln_sel: filters
                .iter()
                .map(|f| est.predicate_selectivity(graph, f).ln())
                .collect(),
            filter_words,
            node_filters,
            class_nodes: classes
                .iter()
                .map(|(_, members)| members.iter().map(|m| m.node).collect())
                .collect(),
        }
    }
}

/// The `Group::wide_at` of words pushed next to the side table `wide`.
fn wide_end(wide: &[EdgeWords]) -> u32 {
    u32::try_from(wide.len()).expect("a side table under 2^32 words")
}

/// Move `group`'s `len` words past the first from side table `from` to `to`.
fn move_wide(group: &mut Group, len: usize, from: &[EdgeWords], to: &mut Vec<EdgeWords>) {
    let at = group.wide_at as usize;
    group.wide_at = wide_end(to);
    to.extend_from_slice(&from[at..at + len]);
}

/// Classes held inline up to this many; a [`ClassSet`] of more spills to
/// the heap.
const INLINE_CLASSES: usize = 16;

/// Distinct items, ascending, where items of one order class are equal:
/// classes, or merge joins on them.
#[derive(Debug)]
struct ClassSet<T> {
    inline: [T; INLINE_CLASSES],
    len: usize,
    /// Holds *all* items once `inline` has overflowed.
    spill: Vec<T>,
}

impl<T: Copy + Default + Ord> ClassSet<T> {
    fn new() -> Self {
        ClassSet {
            inline: [T::default(); INLINE_CLASSES],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) {
        if !self.spill.is_empty() {
            if let Err(at) = self.spill.binary_search(&item) {
                self.spill.insert(at, item);
            }
            return;
        }
        let Err(at) = self.inline[..self.len].binary_search(&item) else {
            return;
        };
        if self.len == INLINE_CLASSES {
            self.spill.extend_from_slice(&self.inline);
            self.spill.insert(at, item);
            return;
        }
        self.inline.copy_within(at..self.len, at + 1);
        self.inline[at] = item;
        self.len += 1;
    }

    fn contains(&self, item: T) -> bool {
        self.as_slice().binary_search(&item).is_ok()
    }

    fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// A merge join alternative of a pair: a crossing edge's order class, and
/// the ordering the join's output carries in the union
/// (`EnumContext::useful_ordering`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Merge {
    class: ClassId,
    ordering: Option<ClassId>,
}

/// A pair's merge join alternatives, one per distinct crossing class,
/// ascending: the one of a lone crossing edge, or a set. The facts of a
/// pair live on the stack while it is costed, and the lone variant, the
/// common one, builds no set: boxing the other would allocate.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Merges {
    Lone(Merge),
    Many(ClassSet<Merge>),
}

impl Merges {
    fn as_slice(&self) -> &[Merge] {
        match self {
            Merges::Lone(merge) => std::slice::from_ref(merge),
            Merges::Many(merges) => merges.as_slice(),
        }
    }
}

/// Everything about a candidate pair `(a, b)` that does not depend on
/// which plans are joined (`EnumContext::pair_facts`).
#[derive(Debug)]
struct PairFacts {
    /// Joint selectivity of the crossing edges.
    crossing_sel: f64,
    /// A merge join per distinct order class of theirs.
    merges: Merges,
    /// Index nested-loop probe costing with `a` as the inner side: `a`
    /// is a single base relation indexed on a crossing join column.
    a_index: Option<IndexProbe>,
    /// The same with `b` as the inner side.
    b_index: Option<IndexProbe>,
}

/// A pair the gate admits only index nested loops for
/// (`EnumContext::cost_pair`): its facts, the output's emission, and
/// whether its floor is above the bound — every plan pair out of reach.
struct Gate<'f> {
    facts: &'f PairFacts,
    emit: f64,
    beyond: bool,
}

/// A component of a costs-only greedy (`EnumContext::incumbent`): a memo
/// group, or a join of components the memo never sees.
#[derive(Debug)]
enum Part {
    Base(RelSet),
    Joined(Group),
}

/// Mutable state of one optimization run.
pub struct EnumContext<'a> {
    query: &'a Query,
    model: &'a CostModel<'a>,
    classes: EquivClasses,
    tables: RunTables,
    order_target: Option<ClassId>,
    /// The memo of JCR groups.
    pub memo: Memo,
    /// The memo groups' edge-set words past the first (`Group::wide_at`).
    wide: Vec<EdgeWords>,
    /// Sort costs computed so far: one per group entering the memo.
    #[cfg(test)]
    pub(crate) sort_costs: u64,
    /// The reference mode: every pair costed eagerly with every
    /// method, with no bound, pair gate, floor or deferred level — what
    /// every costing shortcut is held to (`crate::exactness`).
    #[cfg(test)]
    pub(crate) reference: bool,
    /// Memory model / budget tracking.
    pub memory: MemoryModel,
    /// Plans costed so far.
    pub plans_costed: u64,
    /// Plan alternatives ruled out by a level's bound so far.
    pub ruled_out: u64,
    /// Plan alternatives the pair gate found dominated so far.
    pub dominated: u64,
    /// JCRs pruned so far.
    pub jcrs_pruned: u64,
    /// Sort-ahead enforcer plans retained so far.
    pub sort_enforcers: u64,
    /// Set by exhaustive DP once its levels ran (or one tripped).
    pub incumbent: Option<Incumbent>,
    /// The greedy's components, kept empty between its runs.
    greedy_parts: Vec<Part>,
    /// Compound atoms (contracted subtrees) in the current
    /// enumeration, stamped onto every level row — see
    /// [`LevelStats::contractions`].
    contractions: u64,
    /// Per-level profile rows, one per completed level barrier.
    profile: Vec<LevelStats>,
    /// Strategy label stamped on profile rows (set by the dispatcher).
    phase: &'static str,
    /// Structured-trace emission handle (disabled unless installed).
    tracer: Tracer,
}

impl<'a> EnumContext<'a> {
    /// Start a run over `query` (whose graph should already carry any
    /// rewriter-inferred edges) with the given cost model and budget.
    pub fn new(query: &'a Query, model: &'a CostModel<'a>, budget: Budget) -> Self {
        Self::with_classes(query, model, budget, query.equiv_classes())
    }

    /// [`EnumContext::new`] with the query's join-column classes
    /// computed already (`EquivClasses::new` of its graph, or of the
    /// graph before the rewriter's closure, which leaves them as they
    /// are).
    pub(crate) fn with_classes(
        query: &'a Query,
        model: &'a CostModel<'a>,
        budget: Budget,
        classes: EquivClasses,
    ) -> Self {
        let tables = RunTables::new(&query.graph, model, &classes);
        // The effective interesting order: ORDER BY, else GROUP BY
        // (sort-based grouping wants sorted input, so a grouping
        // column is an interesting order in exactly the same sense).
        let order_target = query
            .interesting_order()
            .and_then(|o| classes.class_of(o.column));
        EnumContext {
            query,
            model,
            classes,
            tables,
            order_target,
            memory: MemoryModel::new(budget),
            memo: Memo::for_relations(query.graph.len()),
            wide: Vec::new(),
            #[cfg(test)]
            sort_costs: 0,
            #[cfg(test)]
            reference: false,
            plans_costed: 0,
            ruled_out: 0,
            dominated: 0,
            jcrs_pruned: 0,
            sort_enforcers: 0,
            incumbent: None,
            greedy_parts: Vec::new(),
            contractions: 0,
            profile: Vec::new(),
            phase: "",
            tracer: Tracer::disabled(),
        }
    }

    /// The join graph being optimized (borrowed for the query's
    /// lifetime, not the context's, so callers can hold it across
    /// mutations of the context).
    pub fn graph(&self) -> &'a JoinGraph {
        &self.query.graph
    }

    /// The query.
    pub fn query(&self) -> &'a Query {
        self.query
    }

    /// The cost model.
    pub fn model(&self) -> &'a CostModel<'a> {
        self.model
    }

    /// Join-column equivalence classes (computed after rewriting).
    pub fn classes(&self) -> &EquivClasses {
        &self.classes
    }

    /// Order class the user's `ORDER BY` (or, failing that, `GROUP
    /// BY`) requires, when it is on a join column.
    pub fn order_target(&self) -> Option<ClassId> {
        self.order_target
    }

    /// Install the structured-trace emission handle for this run.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The run's trace handle (disabled unless one was installed).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Stamp subsequent profile rows (and level spans) with the given
    /// strategy label. Called by the dispatcher on every strategy
    /// entry, including governed re-entries down the ladder.
    pub fn set_phase(&mut self, label: &'static str) {
        self.phase = label;
    }

    /// Record how many compound atoms (contracted subtrees) the
    /// current enumeration runs over. Set per `run_levels`
    /// invocation.
    pub fn set_contractions(&mut self, n: u64) {
        self.contractions = n;
    }

    /// Compound atoms in force for the current enumeration.
    pub fn contractions(&self) -> u64 {
        self.contractions
    }

    /// The strategy label currently stamped on profile rows.
    pub fn phase(&self) -> &'static str {
        self.phase
    }

    /// Per-level profile rows recorded so far, in barrier order. A
    /// governed descent accumulates rows across rungs; `phase` tells
    /// them apart.
    pub fn profile(&self) -> &[LevelStats] {
        &self.profile
    }

    /// Move the profile rows out (for the plan the run returns).
    pub fn take_profile(&mut self) -> Vec<LevelStats> {
        std::mem::take(&mut self.profile)
    }

    /// Make room for the rows of `levels` more levels, exactly: the
    /// rows leave with the plan ([`EnumContext::take_profile`]), slack
    /// and all.
    pub(crate) fn reserve_profile(&mut self, levels: usize) {
        self.profile.reserve_exact(levels);
    }

    /// Append one completed level's profile row.
    pub(crate) fn record_level(&mut self, stats: LevelStats) {
        self.profile.push(stats);
    }

    /// PostgreSQL-style pathkey usefulness: an output ordering is only
    /// worth remembering if it can still pay off — it matches the
    /// user's `ORDER BY`, or the order class has a member column on a
    /// relation *outside* the JCR (so a future merge join can exploit
    /// it). Useless orderings are stripped, which keeps the number of
    /// Pareto entries per group bounded by the genuinely open orders
    /// instead of growing with the join size.
    pub fn useful_ordering(&self, ordering: Option<ClassId>, set: RelSet) -> Option<ClassId> {
        let c = ordering?;
        (self.order_target == Some(c) || !set.is_superset(self.tables.class_nodes[c as usize]))
            .then_some(c)
    }

    /// Snapshot the run counters.
    pub fn stats(&self) -> RunStats {
        RunStats {
            plans_costed: self.plans_costed,
            jcrs_processed: self.memo.jcrs_created(),
            jcrs_pruned: self.jcrs_pruned,
            peak_model_bytes: self.memory.peak_bytes(),
            elapsed: self.memory.elapsed(),
            incumbent: self.incumbent,
            ruled_out: self.ruled_out,
            dominated: self.dominated,
        }
    }

    /// Create (if absent) the memo group for base relation `node`,
    /// populated with its access paths.
    pub fn ensure_base_group(&mut self, node: usize) {
        let set = RelSet::single(node);
        if self.memo.get(set).is_some() {
            return;
        }
        let graph = self.graph();
        let rel = graph.relation(node);
        // A relation's rows are far under `MAX_ROWS` and stay unclamped.
        let (rows, selectivity) = self.estimate(set);
        let width = self.model.estimator().width_for_set(graph, set);
        let t = &self.tables;
        let incident = &t.incident[node * t.edge_words..][..t.edge_words];
        let word = |&incident| EdgeWords {
            incident,
            internal: 0,
        };
        let mut group = Group::new(set, rows, selectivity, width, word(&incident[0]));
        group.wide_at = wide_end(&self.wide);
        self.wide.extend(incident[1..].iter().map(word));

        let idx = u16::try_from(node).expect("a query has at most 64 relations");
        for path in &self.model.scan_paths_for_node(graph, node) {
            self.plans_costed += 1;
            let (op, class) = match path.kind {
                ScanKind::Seq => (PlanOp::SeqScan { rel, node: idx }, None),
                ScanKind::IndexFull | ScanKind::IndexRange => {
                    // Index order is only worth carrying when the
                    // indexed column participates in a join or the
                    // ORDER BY; a selective IndexRange path can also
                    // win on raw cost, so it is offered either way and
                    // the group's dominance rule decides.
                    let col = path.ordering_col.expect("index scans carry a column");
                    let class = self
                        .classes
                        .class_of(sdp_query::ColRef::new(node, col))
                        .and_then(|c| self.useful_ordering(Some(c), set));
                    if class.is_none() && path.kind == ScanKind::IndexFull {
                        continue;
                    }
                    (
                        PlanOp::IndexScan {
                            rel,
                            node: idx,
                            col,
                        },
                        class,
                    )
                }
            };
            let scan = PlanNode::new(op, set, rows, path.cost, class);
            group.add_plan(scan, self.memo.built_mut());
        }
        debug_assert!(!group.is_empty());
        if self.insert_group(group) {
            self.memory.add_groups(1);
            // Sort-ahead at the leaves: a base relation owning a
            // column of the order target can be sorted before any
            // join, where it is at its smallest.
            self.offer_sort_enforcer(set);
        }
    }

    /// Sort-ahead enforcer placement (Guravannavar et al., "Reducing
    /// Order Enforcement Cost in Complex Query Plans"): offer the
    /// group an explicit `Sort` over its cheapest plan, producing the
    /// order target *below* future joins. Order-preserving joins
    /// (nested-loop variants with the sorted side outer) then carry
    /// the order to the root, which can beat sorting the — typically
    /// much larger — final result. The group's dominance rule decides
    /// whether the enforcer survives; it can never evict the cheapest
    /// unordered plan, so order-blind plan quality is unaffected.
    ///
    /// Returns `true` if the enforcer entry was retained. Runs at
    /// base-group creation and level barriers.
    pub fn offer_sort_enforcer(&mut self, set: RelSet) -> bool {
        let Some(target) = self.order_target else {
            return false;
        };
        // The executor sorts by a column it can see: the order class
        // needs a member column on a relation inside the set.
        if !self.tables.class_nodes[target as usize].intersects(set) {
            return false;
        }
        let Some((group, built)) = self.memo.get_mut_with_built(set) else {
            return false;
        };
        let best = *group.best();
        if best.ordering() == Some(target) {
            return false; // already ordered for free
        }
        let cost = best.cost + group.sort_cost;
        self.plans_costed += 1;
        if !group.would_retain(cost, Some(target)) {
            return false;
        }
        if dominates(cost, Some(target), best.cost, best.ordering()) {
            // The sort is free at this cost's precision and evicts the
            // plan it sorts: the enforcer cannot refer to it, so it is
            // built, and holds its input as a node.
            let rows = group.rows;
            let input = self.memo.extract(set, best.id());
            let sort = PlanOp::Sort {
                class: target,
                input: [input],
            };
            let sort = PlanNode::new(sort, set, rows, cost, Some(target));
            let (group, built) = self.memo.get_mut_with_built(set).expect("group present");
            let charged = group.charged();
            group.add_plan(sort, built);
            built.release(charged - group.charged());
        } else {
            // Entries are named, not positioned: whatever the enforcer
            // evicts, `best` keeps its id.
            let source = PlanSource::Sort { input: best.id() };
            built.charge(1);
            Self::reoffer(
                (group, built),
                &[PlanEntry::new(cost, Some(target), source)],
            );
        }
        self.sort_enforcers += 1;
        true
    }

    /// Word `w` of a memo group's edge sets.
    fn edge_word(&self, group: &Group, w: usize) -> EdgeWords {
        match w {
            0 => group.edges,
            _ => self.wide[group.wide_at as usize + w - 1],
        }
    }

    /// The estimated rows and selectivity of `set`, rows before they are
    /// clamped to `MAX_ROWS`: the one place the request path estimates a
    /// set. The sums run over its nodes, the internal edges `internal(w)`
    /// flags in edge word `w`, and its filters, in ascending index from
    /// the `-0.0` `Iterator::sum` starts from: the terms and order of
    /// `Estimator::rows_for_set` and `selectivity_for_set`, so the
    /// results are theirs bit for bit.
    fn estimate_with(&self, set: RelSet, internal: impl Fn(usize) -> u64) -> (f64, f64) {
        let t = &self.tables;
        let (mut ln_base, mut ln_filter, mut ln_internal) = (-0.0, -0.0, -0.0);
        for w in 0..t.filter_words {
            let mut filters = 0;
            for n in set.iter() {
                if w == 0 {
                    ln_base += t.node_ln_card[n];
                }
                filters |= t.node_filters[n * t.filter_words + w];
            }
            for f in bits(filters) {
                ln_filter += t.filter_ln_sel[w * 64 + f];
            }
        }
        for w in 0..t.edge_words {
            for e in bits(internal(w)) {
                ln_internal += t.edge_sel[w * 64 + e].ln;
            }
        }
        let est = self.model.estimator();
        let rows = est.rows_from_ln(ln_base + ln_internal + ln_filter);
        (rows, est.selectivity_from_ln(ln_internal + ln_filter))
    }

    /// [`EnumContext::estimate_with`] of any set: an edge is internal
    /// when a second of its nodes touches it.
    pub(crate) fn estimate(&self, set: RelSet) -> (f64, f64) {
        let t = &self.tables;
        self.estimate_with(set, |w| {
            let (mut touched, mut internal) = (0, 0);
            for n in set.iter() {
                let incident = t.incident[n * t.edge_words + w];
                internal |= touched & incident;
                touched |= incident;
            }
            internal
        })
    }

    /// Build the (empty) union group for `a ∪ b` (edge words past the
    /// first to `wide`): it touches the edges either touches and holds
    /// those either holds or both touch. Rows and selectivity are
    /// computed over the whole set ([`EnumContext::estimate_with`]), not from
    /// this decomposition: the ≥ 1-row clamp would otherwise make the
    /// estimate depend on which pair reached the set first.
    fn new_union_group(&self, a: &Group, b: &Group, wide: &mut Vec<EdgeWords>) -> Group {
        let union = a.set | b.set;
        let mut edges = EdgeWords::default();
        let wide_at = wide_end(wide);
        for w in 0..self.tables.edge_words {
            let (ea, eb) = (self.edge_word(a, w), self.edge_word(b, w));
            let word = EdgeWords {
                incident: ea.incident | eb.incident,
                internal: ea.internal | eb.internal | (ea.incident & eb.incident),
            };
            match w {
                0 => edges = word,
                _ => wide.push(word),
            }
        }
        let internal = |w| match w {
            0 => edges.internal,
            _ => wide[wide_at as usize + w - 1].internal,
        };
        let (rows, selectivity) = self.estimate_with(union, internal);
        let width = a.width + b.width;
        let mut group = Group::new(union, rows.min(MAX_ROWS), selectivity, width, edges);
        group.wide_at = wide_at;
        group
    }

    /// `Memo::insert`, with the sort cost only memo groups are asked for.
    fn insert_group(&mut self, mut group: Group) -> bool {
        group.sort_cost = self.model.sort_cost(group.rows, group.width);
        #[cfg(test)]
        {
            self.sort_costs += 1;
        }
        self.memo.insert(group)
    }

    /// Enumerate and cost all join alternatives combining the memo
    /// groups of `a` and `b` (both orientations, every plan pair,
    /// every applicable method), folding survivors into the group for
    /// `a ∪ b`. Creates that group on first use; one the memo already
    /// holds is offered what the pair retains among itself.
    ///
    /// Returns `true` if the union group was newly created.
    pub fn join_pair(&mut self, a: RelSet, b: RelSet) -> bool {
        debug_assert!(a.is_disjoint(b));
        let (ga, gb) = self.inputs(a, b);
        let mut wide = Vec::new();
        let mut jcr = self.new_union_group(ga, gb, &mut wide);
        let mut costing = Costing::default();
        self.cost_pair(ga, gb, &mut jcr, &mut costing);
        self.plans_costed += costing.plans_costed;
        self.dominated += costing.dominated;
        self.memo.built_mut().charge(jcr.charged());
        match self.memo.get_mut_with_built(a | b) {
            Some(target) => {
                Self::reoffer(target, jcr.entries());
                false
            }
            None => {
                move_wide(&mut jcr, wide.len(), &wide, &mut self.wide);
                self.insert_group(jcr);
                self.memory.add_groups(1);
                true
            }
        }
    }

    /// The memo groups of a candidate pair, resolved once per pair.
    fn inputs(&self, a: RelSet, b: RelSet) -> (&Group, &Group) {
        (
            self.memo.get(a).expect("left group exists"),
            self.memo.get(b).expect("right group exists"),
        )
    }

    /// The facts of disjoint `a` and `b`: read straight from the run
    /// tables where one edge crosses them, else gathered by
    /// [`EnumContext::crossing_facts`]. The pair decides; either way the
    /// facts are the same, bit for bit.
    fn pair_facts(&self, a: &Group, b: &Group) -> PairFacts {
        match self.lone_crossing(a, b) {
            Some(e) => self.lone_facts(e, a, b),
            None => self.crossing_facts(a, b),
        }
    }

    /// The edge crossing disjoint `a` and `b`, when exactly one does.
    fn lone_crossing(&self, a: &Group, b: &Group) -> Option<usize> {
        let mut lone = None;
        for w in 0..self.tables.edge_words {
            let (ea, eb) = (self.edge_word(a, w), self.edge_word(b, w));
            let crossing = ea.incident & eb.incident;
            if crossing == 0 {
                continue;
            }
            if lone.is_some() || !crossing.is_power_of_two() {
                return None;
            }
            lone = Some(w * 64 + crossing.trailing_zeros() as usize);
        }
        lone
    }

    /// The facts of `a` and `b` where edge `e` alone crosses them: its
    /// selectivity alone, its class and its indexed ends, as the run
    /// tables hold them.
    fn lone_facts(&self, e: usize, a: &Group, b: &Group) -> PairFacts {
        let t = &self.tables;
        let (class, indexed) = (t.edge_class[e], t.edge_indexed[e]);
        PairFacts {
            crossing_sel: t.edge_sel[e].alone,
            merges: Merges::Lone(Merge {
                class,
                ordering: self.useful_ordering(Some(class), a.set | b.set),
            }),
            a_index: self.index_of(a.set, indexed),
            b_index: self.index_of(b.set, indexed),
        }
    }

    /// One pass over the crossing edges of disjoint `a` and `b`, in
    /// ascending edge index (so the selectivity sums the terms of
    /// `Estimator::crossing_selectivity` in its order; summing from
    /// `0.0` where `Iterator::sum` may start from `-0.0` can only flip
    /// the sign of a zero, which `exp` erases).
    fn crossing_facts(&self, a: &Group, b: &Group) -> PairFacts {
        let t = &self.tables;
        let union = a.set | b.set;
        let (mut ln_sel, mut crossing, mut last) = (0.0, 0, 0);
        let mut merges = ClassSet::new();
        let mut indexed = RelSet::EMPTY;
        for w in 0..t.edge_words {
            let (ea, eb) = (self.edge_word(a, w), self.edge_word(b, w));
            // An edge touching both of two disjoint sets crosses them.
            for e in bits(ea.incident & eb.incident) {
                let e = w * 64 + e;
                ln_sel += t.edge_sel[e].ln;
                (crossing, last) = (crossing + 1, e);
                let class = t.edge_class[e];
                merges.insert(Merge {
                    class,
                    ordering: self.useful_ordering(Some(class), union),
                });
                indexed = indexed | t.edge_indexed[e];
            }
        }
        PairFacts {
            crossing_sel: self.crossing_sel(crossing, ln_sel, last),
            merges: Merges::Many(merges),
            a_index: self.index_of(a.set, indexed),
            b_index: self.index_of(b.set, indexed),
        }
    }

    /// The probe costing of `inner`'s index, where `inner` is one
    /// relation and among `indexed`, the crossing edges' indexed ends.
    fn index_of(&self, inner: RelSet, indexed: RelSet) -> Option<IndexProbe> {
        match inner.min_index() {
            Some(node) if inner.len() == 1 && indexed.contains(node) => {
                Some(self.tables.node_index[node])
            }
            _ => None,
        }
    }

    /// The crossing selectivity of disjoint `a` and `b` — the terms and
    /// order of [`EnumContext::pair_facts`], so the estimator's bit for
    /// bit — or `None` when no edge crosses them.
    pub(crate) fn crossing_selectivity(&self, a: &Group, b: &Group) -> Option<f64> {
        let t = &self.tables;
        let (mut ln_sel, mut crossing, mut last) = (0.0, 0, 0);
        for w in 0..t.edge_words {
            let (ea, eb) = (self.edge_word(a, w), self.edge_word(b, w));
            for e in bits(ea.incident & eb.incident) {
                let e = w * 64 + e;
                ln_sel += t.edge_sel[e].ln;
                (crossing, last) = (crossing + 1, e);
            }
        }
        (crossing > 0).then(|| self.crossing_sel(crossing, ln_sel, last))
    }

    /// The joint selectivity of the `crossing` edges of a pair, `ln_sel`
    /// their ln terms summed from `0.0` and `last` the last of them: a
    /// lone edge's is in the run tables, which saves the `exp`.
    #[inline]
    fn crossing_sel(&self, crossing: usize, ln_sel: f64, last: usize) -> f64 {
        match crossing {
            1 => self.tables.edge_sel[last].alone,
            _ => self.model.estimator().selectivity_from_ln(ln_sel),
        }
    }

    /// The MinRows step of greedy operator ordering over `len`
    /// components, `group(i)` the group of the `i`-th: the connected
    /// pair `(i, j)`, `i < j`, whose join has the fewest estimated rows
    /// (the first in that order on ties), or `None` when no two are
    /// connected. The GOO rung and the DP incumbent both merge by it.
    pub(crate) fn min_rows_pair<'g>(
        &self,
        len: usize,
        group: impl Fn(usize) -> &'g Group,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..len {
            for j in i + 1..len {
                let (a, b) = (group(i), group(j));
                let Some(sel) = self.crossing_selectivity(a, b) else {
                    continue;
                };
                let rows = a.rows * b.rows * sel;
                if best.is_none_or(|(r, _, _)| rows < r) {
                    best = Some((rows, i, j));
                }
            }
        }
        best.map(|(_, i, j)| (i, j))
    }

    /// A complete plan for an exhaustive DP run's incumbent: the cost, as
    /// `finalize` would serve it, and the plans costed for it. The greedy
    /// starts from the memo group of `start` (none when empty) and the
    /// base relations outside it, and merges them in GOO's order into
    /// scratch groups, which never enter the memo and build no node —
    /// what GOO would serve from there, at the cost of its joins' plan
    /// records alone. The greedy's plans count towards `plans_costed`;
    /// its records are never counted as live nodes, and its edge words
    /// give back their room in the side table, so the run goes on as if
    /// it had not been.
    pub(crate) fn incumbent(&mut self, start: RelSet) -> (f64, u64) {
        fn group<'m>(memo: &'m Memo, part: &'m Part) -> &'m Group {
            match part {
                Part::Base(set) => memo.get(*set).expect("the start and base groups exist"),
                Part::Joined(group) => group,
            }
        }
        let wide_len = self.wide.len();
        let mut costing = Costing::default();
        // The components' buffer outlives the call: a run completes
        // greedily several times, and allocates for it once.
        let mut parts = std::mem::take(&mut self.greedy_parts);
        parts.reserve_exact(self.graph().len());
        parts.extend((!start.is_empty()).then_some(Part::Base(start)));
        parts.extend(
            (0..self.graph().len())
                .filter(|&node| !start.contains(node))
                .map(|node| Part::Base(RelSet::single(node))),
        );
        while parts.len() > 1 {
            let (i, j) = self
                .min_rows_pair(parts.len(), |k| group(&self.memo, &parts[k]))
                .expect("the join graph is connected");
            let (a, b) = (group(&self.memo, &parts[i]), group(&self.memo, &parts[j]));
            let mut wide = Vec::new();
            let mut jcr = self.new_union_group(a, b, &mut wide);
            self.cost_pair(a, b, &mut jcr, &mut costing);
            jcr.sort_cost = self.model.sort_cost(jcr.rows, jcr.width);
            move_wide(&mut jcr, wide.len(), &wide, &mut self.wide);
            parts.swap_remove(j);
            parts[i] = Part::Joined(jcr);
        }

        // The root, as `finalize` serves it.
        let (entry, sort) = self.served_root(group(&self.memo, &parts[0]));
        let cost = sort.map_or(entry.cost, |(_, cost)| cost);
        let plans_costed = costing.plans_costed + u64::from(self.order_target.is_some());
        parts.clear();
        self.greedy_parts = parts;
        self.wide.truncate(wide_len);
        self.plans_costed += plans_costed;
        self.dominated += costing.dominated;
        (cost, plans_costed)
    }

    /// The costing core shared by the level stage and `join_pair`:
    /// cost every join alternative for `a ⋈ b` and offer the survivors
    /// to `jcr` (which covers `a ∪ b`), within `costing`'s bound and on
    /// its account. Everything a method's cost owes to the two JCRs
    /// rather than to the plans chosen from them is computed here, once
    /// per pair and orientation: the pair's facts, the merge joins'
    /// orderings in the union and the output's emission. It counts no
    /// node: the caller settles what `jcr` retained and evicted with the
    /// live-node count.
    ///
    /// **The pair gate.** Every plan pair's `JoinTerms::floor` is at
    /// least the pair's, `F = (best(a) + best(b)) + emit`, in either
    /// orientation (`f64` addition commutes). Where `F` is above the
    /// bound, or `jcr` already holds a plan dominating every plan the
    /// pair could offer at `F` ([`EnumContext::frontier_holds`]), no
    /// nested-loop, hash or merge alternative can be retained: only the
    /// index nested loops, which do not read the inner plan, are costed
    /// ([`EnumContext::cost_index_loops`]), and no `JoinTerms` is built.
    /// The group ends as it would have, and what is left uncosted is
    /// counted as `ruled_out` or `dominated`.
    fn cost_pair(&self, a: &Group, b: &Group, jcr: &mut Group, costing: &mut Costing) {
        debug_assert!(a.set.is_disjoint(b.set));
        let facts = self.pair_facts(a, b);
        let merges = facts.merges.as_slice();
        // `JoinTerms`' emit, computed as it does.
        let emit = jcr.rows * self.model.params().cpu_tuple_cost;
        let (best_a, best_b) = (a.best_cost(), b.best_cost());
        let floor = best_a + best_b + emit;
        let beyond = floor > costing.bound.unwrap_or(f64::INFINITY);
        let gated = beyond || self.frontier_holds(a, b, merges, jcr, floor);
        #[cfg(test)]
        let gated = gated && !self.reference;
        if gated {
            let gate = Gate {
                facts: &facts,
                emit,
                beyond,
            };
            self.cost_index_loops(&gate, (a, best_a), (b, facts.b_index), jcr, costing);
            self.cost_index_loops(&gate, (b, best_b), (a, facts.a_index), jcr, costing);
        } else {
            let (a_b, b_a) = self.pair_terms(a, b, &facts, jcr.rows);
            self.cost_orientation(a, b, &a_b, merges, jcr, costing);
            self.cost_orientation(b, a, &b_a, merges, jcr, costing);
        }
    }

    /// Whether `jcr`'s plans dominate every nested-loop, hash and merge
    /// plan of `a ⋈ b`, each of which costs at least the pair's floor
    /// `floor`: `jcr` holds a plan of at most `floor` unordered, and one
    /// with each ordering the pair can yield — one a nested loop carries
    /// from an input plan of either side, or a crossing class's merge
    /// order, where useful. Dominance is transitive and a plan is evicted
    /// only by one dominating it, so what is dominated as the pair starts
    /// stays dominated through its own offers.
    fn frontier_holds(
        &self,
        a: &Group,
        b: &Group,
        merges: &[Merge],
        jcr: &Group,
        floor: f64,
    ) -> bool {
        // One pass over `jcr`: the orderings of its plans at or under
        // `floor`. Any of them dominates a plan of `floor` unordered, and
        // each one with its own ordering.
        let (mut any, mut held) = (false, ClassSet::new());
        for e in jcr.entries().iter().filter(|e| e.cost <= floor) {
            any = true;
            if let Some(class) = e.ordering() {
                held.insert(class);
            }
        }
        let union = jcr.set;
        let holds = |ordering: Option<ClassId>| ordering.is_none_or(|class| held.contains(class));
        any && merges.iter().all(|merge| holds(merge.ordering))
            && (a.entries().iter().chain(b.entries()))
                .all(|e| holds(self.useful_ordering(e.ordering(), union)))
    }

    /// The [`JoinTerms`] of `outer ⋈ inner`, a pair of `facts` whose
    /// output has `out_rows` rows; `inner_index` probes the inner.
    fn join_terms(
        &self,
        outer: &Group,
        inner: &Group,
        facts: &PairFacts,
        out_rows: f64,
        inner_index: Option<IndexProbe>,
    ) -> JoinTerms {
        JoinTerms::new(
            &outer.side(),
            &inner.side(),
            facts.crossing_sel,
            out_rows,
            inner_index,
            self.model.params(),
        )
    }

    /// The [`JoinTerms`] of the orientations `a ⋈ b` and `b ⋈ a` of a
    /// pair of `facts` whose output has `out_rows` rows.
    fn pair_terms(
        &self,
        a: &Group,
        b: &Group,
        facts: &PairFacts,
        out_rows: f64,
    ) -> (JoinTerms, JoinTerms) {
        (
            self.join_terms(a, b, facts, out_rows, facts.b_index),
            self.join_terms(b, a, facts, out_rows, facts.a_index),
        )
    }

    /// One orientation of a gated pair, `outer ⋈ inner`, on `costing`'s
    /// account as [`EnumContext::cost_orientation`] would keep it; `outer`
    /// comes with its cheapest plan's cost, `inner` with its index when
    /// it can be probed. An outer plan whose `outer_floor` exceeds the
    /// bound is ruled out whole, and of the others, the index nested loop
    /// is costed and offered where the inner has an index, and each plan
    /// pair's other alternatives (a nested loop, a hash join and a merge
    /// join per crossing class) are ruled out where their floor exceeds
    /// the bound and dominated elsewhere. Where the pair's floor is above
    /// the bound, every plan pair is out of reach, and the probes are
    /// priced only when the outer's cheapest plan is within it. The
    /// floors are `JoinTerms::outer_floor`'s and `JoinTerms::floor`'s bit
    /// for bit, and the index nested loop is the one `JoinTerms` prices.
    fn cost_index_loops(
        &self,
        gate: &Gate<'_>,
        (outer_group, outer_best): (&Group, f64),
        (inner_group, inner_index): (&Group, Option<IndexProbe>),
        jcr: &mut Group,
        costing: &mut Costing,
    ) {
        let (outers, inners) = (outer_group.entries(), inner_group.entries());
        let per_plan_pair = 2 + gate.facts.merges.as_slice().len() as u64;
        let per_outer = inners.len() as u64 * per_plan_pair + u64::from(inner_index.is_some());
        let (emit, bound) = (gate.emit, costing.bound.unwrap_or(f64::INFINITY));
        // The probes, unless every outer plan is out of reach.
        let index_loop = inner_index
            .filter(|_| outer_best + emit <= bound)
            .map(|index| {
                let (sel, params) = (gate.facts.crossing_sel, self.model.params());
                IndexLoop::new(
                    outer_group.rows,
                    inner_group.rows,
                    sel,
                    jcr.rows,
                    &index,
                    params,
                )
            });
        if gate.beyond && index_loop.is_none() {
            // Every alternative of every outer plan is out of reach.
            costing.ruled_out += outers.len() as u64 * per_outer;
            return;
        }
        let union = jcr.set;
        let (mut ruled_out, mut dominated) = (0, 0);
        for outer in outers {
            if outer.cost + emit > bound {
                ruled_out += per_outer;
                continue;
            }
            if let Some(index_loop) = &index_loop {
                let cost = index_loop.cost(outer.cost);
                let carried = self.useful_ordering(outer.ordering(), union);
                if jcr.would_retain(cost, carried) {
                    let source = PlanSource::Join {
                        method: JoinMethod::IndexNestedLoop,
                        outer: outer_group.set,
                        outer_entry: outer.id(),
                        inner_entry: inners[0].id(),
                    };
                    jcr.retain(cost, carried, source);
                }
            }
            if gate.beyond {
                ruled_out += inners.len() as u64 * per_plan_pair;
                continue;
            }
            for inner in inners {
                if outer.cost + inner.cost + emit > bound {
                    ruled_out += per_plan_pair;
                } else {
                    dominated += per_plan_pair;
                }
            }
        }
        costing.plans_costed += outers.len() as u64 * per_outer - ruled_out - dominated;
        costing.ruled_out += ruled_out;
        costing.dominated += dominated;
    }

    /// Cost all methods for a fixed (outer, inner) orientation,
    /// offering plans to `jcr` as they are produced (so the
    /// dominance early-skip sees every plan retained so far), in
    /// [`JoinTerms`]' method order: per plan pair a nested loop, an
    /// index nested loop (which does not depend on the inner plan
    /// choice: costed once, against the first inner entry), a hash
    /// join, then one merge join per crossing class. An outer plan
    /// whose `outer_floor` exceeds the bound, and a plan pair's joins
    /// but the index nested loop when its `floor` does, are ruled out
    /// uncosted: none could be part of, or evict, a plan within it.
    fn cost_orientation(
        &self,
        outer_group: &Group,
        inner_group: &Group,
        terms: &JoinTerms,
        merges: &[Merge],
        jcr: &mut Group,
        costing: &mut Costing,
    ) {
        let union = jcr.set;
        let (outers, inners) = (outer_group.entries(), inner_group.entries());
        let per_plan_pair = 2 + merges.len() as u64;
        let per_outer = inners.len() as u64 * per_plan_pair + u64::from(terms.probes_index());
        let (bound, mut ruled_out) = (costing.bound.unwrap_or(f64::INFINITY), 0);

        for outer in outers {
            if terms.outer_floor(outer.cost) > bound {
                ruled_out += per_outer;
                continue;
            }
            // Nested-loop variants preserve the outer order.
            let carried = self.useful_ordering(outer.ordering(), union);
            for (ii, inner) in inners.iter().enumerate() {
                let out_of_reach = terms.floor(outer.cost, inner.cost) > bound;
                let mut offer = |method, cost, ordering| {
                    if jcr.would_retain(cost, ordering) {
                        let source = PlanSource::Join {
                            method,
                            outer: outer_group.set,
                            outer_entry: outer.id(),
                            inner_entry: inner.id(),
                        };
                        jcr.retain(cost, ordering, source);
                    }
                };
                if !out_of_reach {
                    offer(
                        JoinMethod::NestedLoop,
                        terms.nested_loop(outer.cost, inner.cost),
                        carried,
                    );
                }
                if ii == 0 {
                    if let Some(cost) = terms.index_nested_loop(outer.cost) {
                        offer(JoinMethod::IndexNestedLoop, cost, carried);
                    }
                }
                if out_of_reach {
                    ruled_out += per_plan_pair;
                    continue;
                }
                offer(JoinMethod::Hash, terms.hash(outer.cost, inner.cost), None);
                for merge in merges {
                    let cost = terms.merge(
                        outer.cost,
                        inner.cost,
                        outer.ordering() == Some(merge.class),
                        inner.ordering() == Some(merge.class),
                    );
                    offer(JoinMethod::Merge, cost, merge.ordering);
                }
            }
        }
        costing.plans_costed += outers.len() as u64 * per_outer - ruled_out;
        costing.ruled_out += ruled_out;
    }

    /// Cost `a ⋈ b` into the stage's JCR for `a ∪ b`, staging it — a
    /// live group from now on — on first visit; `slot_a` and `slot_b`
    /// are the inputs' memo slots, as the level table records them. The
    /// memo holds no group of `a ∪ b` ([`crate::dp::run_levels`]'
    /// precondition). In a level that defers costing, the pair is only
    /// recorded — its inputs' slots — and its [`inputs_floor`] lowers
    /// the JCR's running one, while both input groups are at hand.
    pub(crate) fn stage_pair(&mut self, stage: &mut LevelStage, slot_a: u32, slot_b: u32) {
        let (ga, gb) = (self.memo.at(slot_a), self.memo.at(slot_b));
        let (a, b) = (ga.set, gb.set);
        debug_assert!(
            [(slot_a, a), (slot_b, b)]
                .iter()
                .all(|&(slot, set)| self.memo.get_slot(set).is_some_and(|(s, _)| s == slot)),
            "a pair's slots name their sets' groups"
        );
        let slot = match stage.index.entry(a | b) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                debug_assert!(self.memo.get(a | b).is_none(), "a staged JCR is new");
                let jcr = StagedJcr {
                    group: self.new_union_group(ga, gb, &mut stage.wide),
                    deferred: NO_PAIR,
                    floor: f32::INFINITY,
                };
                if self.tracer.enabled() {
                    stage.staged_micros.push(self.tracer.wall_micros());
                }
                self.memory.add_groups(1);
                *entry.insert(LevelStage::push(&mut stage.jcrs, jcr))
            }
        };
        let jcr = &mut stage.jcrs[slot];
        if stage.defer {
            let pair = u32::try_from(stage.deferred.len()).expect("fewer than 2^32 pairs a level");
            stage.deferred.push(DeferredPair {
                a: slot_a,
                b: slot_b,
                previous: jcr.deferred,
            });
            jcr.deferred = pair;
            jcr.floor = jcr.floor.min(f32_at_most(inputs_floor(ga, gb)));
        } else {
            // A staged JCR holds records only: each entry is charged.
            let held = jcr.group.entries().len();
            self.cost_pair(ga, gb, &mut jcr.group, &mut stage.costing);
            let holds = jcr.group.entries().len();
            debug_assert_eq!(holds, jcr.group.charged(), "a staged JCR holds records");
            self.memo.built_mut().recharge(held, holds);
        }
    }

    /// The deferred pairs of the JCR in `slot`, last to first.
    fn deferred_pairs(stage: &LevelStage, slot: usize) -> impl Iterator<Item = u32> + '_ {
        let last = stage.jcrs[slot].deferred;
        std::iter::successors((last != NO_PAIR).then_some(last), |&pair| {
            let previous = stage.deferred[pair as usize].previous;
            (previous != NO_PAIR).then_some(previous)
        })
    }

    /// The inputs floor of the JCR staged uncosted in `slot`: at most the
    /// cost of every plan its pairs can offer — so, once it is costed, at
    /// most its cheapest plan's cost. The least [`inputs_floor`] over its
    /// pairs, kept as they were staged (`StagedJcr::floor`), plus the
    /// output's emission (`JoinTerms`' `emit`, computed as it does).
    pub(crate) fn cost_floor(&self, stage: &LevelStage, slot: usize) -> f64 {
        let jcr = &stage.jcrs[slot];
        f64::from(jcr.floor) + jcr.group.rows * self.model.params().cpu_tuple_cost
    }

    /// The tight floor of the JCR staged uncosted in `slot`: the least,
    /// over its pairs and both orientations of each, of the
    /// [`cheapest_method`] over the inputs' cheapest plans. At least its
    /// [`EnumContext::cost_floor`] and at most its cheapest plan's cost,
    /// bit for bit; it costs no plan and offers none.
    pub(crate) fn tight_floor(&self, stage: &LevelStage, slot: usize) -> f64 {
        let out_rows = stage.jcrs[slot].group.rows;
        Self::deferred_pairs(stage, slot)
            .map(|pair| {
                let DeferredPair { a, b, .. } = stage.deferred[pair as usize];
                let (a, b) = (self.memo.at(a), self.memo.at(b));
                let facts = self.pair_facts(a, b);
                let (a_b, b_a) = self.pair_terms(a, b, &facts, out_rows);
                let merges = !facts.merges.as_slice().is_empty();
                let (cost_a, cost_b) = (a.best_cost(), b.best_cost());
                cheapest_method(&a_b, cost_a, cost_b, merges)
                    .min(cheapest_method(&b_a, cost_b, cost_a, merges))
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Cost the JCR staged uncosted in `slot` exactly as staging would
    /// have: all its pairs, in scan order, into its own group, on the
    /// stage's account. Returns its cheapest plan's cost. The memo must
    /// have lost no group since the level was staged (its pairs name memo
    /// slots).
    pub(crate) fn cost_staged(&self, stage: &mut LevelStage, slot: usize) -> f64 {
        let mut chain = std::mem::take(&mut stage.chain);
        chain.extend(Self::deferred_pairs(stage, slot));
        let LevelStage {
            jcrs,
            deferred,
            costing,
            ..
        } = stage;
        let jcr = &mut jcrs[slot];
        for pair in chain.drain(..).rev() {
            let DeferredPair { a, b, .. } = deferred[pair as usize];
            self.cost_pair(self.memo.at(a), self.memo.at(b), &mut jcr.group, costing);
        }
        jcr.deferred = NO_PAIR;
        stage.chain = chain;
        stage.jcrs[slot].group.best_cost()
    }

    /// End a level's enumeration, before its first barrier check: emit
    /// the `jcr` event of every JCR the level created — only now, so
    /// that a mid-level budget trip leaves no trace of the rolled-back
    /// level.
    pub(crate) fn emit_staged(&self, stage: &LevelStage) {
        for (jcr, &micros) in stage.jcrs.iter().zip(&stage.staged_micros) {
            let set = jcr.group.set;
            let mut event = Event::new("jcr")
                .with("level", set.len())
                .with("set", set.0);
            event.wall_micros = micros;
            self.tracer.emit(event);
        }
    }

    /// Offer entries retained (and charged for) elsewhere to `target`, a
    /// memo group beside the memo's built nodes, in order, and release
    /// what it does not keep of them and of its own.
    fn reoffer((target, built): (&mut Group, &mut BuiltNodes), offers: &[PlanEntry]) {
        let charged = target.charged() + offers.len();
        for e in offers {
            debug_assert!(e.charged(), "offers are records, counted where retained");
            target.offer(e.cost, e.ordering(), e.source, built);
        }
        built.release(charged - target.charged());
    }

    /// Account for a JCR its level created being dropped while still
    /// staged — pruned, or rolled back with the level: the counters
    /// move as if it had been a memo group (see
    /// [`EnumContext::prune_group`]).
    pub(crate) fn drop_staged(&mut self, jcr: &StagedJcr) {
        self.memo.built_mut().release(jcr.group.charged());
        self.memo.count_dropped_while_staged();
        self.memory.remove_groups(1);
        self.jcrs_pruned += 1;
    }

    /// Account for everything the level's stage still holds being
    /// dropped with it: the level did not complete.
    pub(crate) fn roll_back_stage(&mut self, stage: &LevelStage) {
        for jcr in &stage.jcrs {
            self.drop_staged(jcr);
        }
    }

    /// Move the level's survivors into the memo as they are, in creation
    /// order, and record them as the next level of the survivor table.
    pub(crate) fn seal_stage(&mut self, stage: &mut LevelStage, table: &mut LevelTable) {
        // A level SDP prunes keeps few JCRs, and the next about as many:
        // room for two such levels grows the memo at most every other
        // level and leaves at most a level's survivors unused. An
        // exhaustive level's memo grows exactly: geometric growth would
        // leave up to the whole memo unused, in bytes and peak heap.
        let survivors = stage.jcrs.len();
        let room = if stage.defer {
            2 * survivors
        } else {
            survivors
        };
        self.memo.reserve(survivors, room);
        let (graph, len) = (self.graph(), self.tables.edge_words - 1);
        table.push_level(stage.jcrs.drain(..).map(|mut jcr| {
            debug_assert!(jcr.costed(), "a survivor is costed before it is sealed");
            let set = jcr.group.set;
            move_wide(&mut jcr.group, len, &stage.wide, &mut self.wide);
            // `Memo::insert` appends: the group's slot is the memo's length.
            let slot = self.memo.len() as u32;
            let inserted = self.insert_group(jcr.group);
            debug_assert!(inserted, "a staged JCR is new to the memo");
            Survivor {
                set,
                neighbors: graph.neighbors(set),
                slot,
            }
        }));
    }

    /// The plan tree of entry `entry` of `set`'s group
    /// ([`Memo::extract`]): the one place a retained plan becomes
    /// `Arc<PlanNode>`s.
    pub fn extract(&mut self, set: RelSet, entry: u16) -> Arc<PlanNode> {
        self.memo.extract(set, entry)
    }

    /// [`EnumContext::extract`] every plan `set`'s group retains, in
    /// retention order. IDP contracts a block this way *before* it
    /// drops the groups the block's records refer to.
    pub fn extract_all(&mut self, set: RelSet) -> Vec<Arc<PlanNode>> {
        let group = self.memo.get(set).expect("live group");
        let ids: Vec<u16> = group.entries().iter().map(PlanEntry::id).collect();
        ids.into_iter().map(|id| self.extract(set, id)).collect()
    }

    /// How `root`, a group of the complete set, is served: the entry to
    /// extract, and the root sort over it when one is needed (its class
    /// and the sorted plan's cost). With no order target, the cheapest
    /// entry; with one, the cheapest entry in it unless sorting the
    /// cheapest entry costs less — a plan costed, which the caller
    /// counts. [`EnumContext::finalize`] serves it, the incumbent prices
    /// it.
    fn served_root(&self, root: &Group) -> (PlanEntry, Option<(ClassId, f64)>) {
        let best = *root.best();
        let Some(target) = self.order_target else {
            return (best, None);
        };
        let sorted = best.cost + root.sort_cost;
        match root.best_for_order(target) {
            Some(&p) if p.cost <= sorted => (p, None),
            _ => (best, Some((target, sorted))),
        }
    }

    /// Best complete plan for `full`, enforcing the `ORDER BY` with an
    /// explicit sort when no suitably-ordered plan is cheaper. A root
    /// sort is the caller's: no memo entry holds it, and the run does
    /// not count it.
    pub fn finalize(&mut self, full: RelSet) -> Result<Arc<PlanNode>, OptError> {
        let group = self.memo.get(full).ok_or(OptError::DisconnectedJoinGraph)?;
        let (rows, (entry, sort)) = (group.rows, self.served_root(group));
        self.plans_costed += u64::from(self.order_target.is_some());
        let plan = self.extract(full, entry.id());
        Ok(match sort {
            None => plan,
            Some((class, cost)) => {
                let sort = PlanOp::Sort {
                    class,
                    input: [plan],
                };
                PlanNode::new(sort, full, rows, cost, Some(class))
            }
        })
    }

    /// Drop the group for `set` from the memo (pruning), updating the
    /// memory model and prune counter.
    pub fn prune_group(&mut self, set: RelSet) {
        if let Some(group) = self.memo.remove(set) {
            self.memo.built_mut().release(group.charged());
            self.memory.remove_groups(1);
            self.jcrs_pruned += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn a_staged_jcr_is_its_group_and_one_word() {
        // The running inputs floor shares the word `deferred` leaves half
        // empty: a level that costs as it stages pays nothing for it.
        assert_eq!(
            std::mem::size_of::<StagedJcr>(),
            std::mem::size_of::<Group>() + 8
        );
    }

    #[test]
    fn an_f32_at_most_is_the_greatest_below() {
        for x in [0.0, 0.1, 6.284_480_936_513_36, 3.5e38, 1e299] {
            let (y, above) = (f32_at_most(x), f32::from_bits(f32_at_most(x).to_bits() + 1));
            assert!(f64::from(y) <= x && f64::from(above) > x, "{x}");
        }
        assert_eq!(f32_at_most(f64::INFINITY), f32::INFINITY);
    }

    /// The tight floor is a floor because [`cheapest_method`] prices each
    /// method as `JoinTerms` does, inputs first and then each term, left
    /// to right: on these hand-picked costs, summing the inputs before the
    /// terms, or the terms before the inputs, rounds to other bits, and
    /// the floor must be the cheapest method's cost exactly.
    #[test]
    fn the_cheapest_method_sums_as_the_methods_do() {
        use sdp_cost::{CostParams, JoinSide};
        let params = CostParams::default();
        let side = |rows| JoinSide::new(rows, 120.0, &params);
        let probe = IndexProbe::new(3.0e6, 4.0e4, &params);
        let inputs = [
            (1e17 / 3.0, 7e15 / 3.0),
            (2.0_f64.powi(54) + 4.0, 1e15 + 0.5),
            (123_456.789, 9.87e16),
            (5e15 + 1.0, 5e15 - 1.0),
        ];
        let (mut inputs_first, mut terms_first) = (false, false);
        for (outer_rows, inner_rows) in [(1.0e6, 3.0e6), (37.0, 1.1e5), (2.5e5, 7.0)] {
            for index in [None, Some(probe)] {
                let (outer, inner) = (side(outer_rows), side(inner_rows));
                let terms = JoinTerms::new(&outer, &inner, 3e-6, 7.5e5, index, &params);
                for (o, i) in inputs {
                    for merges in [false, true] {
                        let methods = [
                            Some(terms.nested_loop(o, i)),
                            Some(terms.hash(o, i)),
                            merges.then(|| terms.merge(o, i, true, true)),
                            terms.index_nested_loop(o),
                        ];
                        let least = methods.into_iter().flatten().fold(f64::INFINITY, f64::min);
                        let floor = cheapest_method(&terms, o, i, merges);
                        assert_eq!(floor.to_bits(), least.to_bits(), "{o} ⋈ {i}");
                        // The same methods, the other two ways round.
                        let reordered = |sum: &dyn Fn(f64) -> f64| {
                            let methods = [
                                Some(sum(terms.nested_loop(0.0, 0.0))),
                                Some(sum(terms.hash(0.0, 0.0))),
                                merges.then(|| sum(terms.merge(0.0, 0.0, true, true))),
                                terms.index_nested_loop(0.0).map(|probes| o + probes),
                            ];
                            methods.into_iter().flatten().fold(f64::INFINITY, f64::min)
                        };
                        inputs_first |= reordered(&|t| (o + i) + t).to_bits() != least.to_bits();
                        terms_first |= reordered(&|t| t + o + i).to_bits() != least.to_bits();
                    }
                }
            }
        }
        assert!(
            inputs_first && terms_first,
            "the costs tell the orders apart"
        );
    }

    fn ctx_fixture<'a>(query: &'a Query, model: &'a CostModel<'a>) -> EnumContext<'a> {
        EnumContext::new(query, model, Budget::unlimited())
    }

    #[test]
    fn base_groups_have_scan_plans() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(3), 1).instance(0);
        let mut ctx = ctx_fixture(&q, &model);
        ctx.ensure_base_group(0);
        let g = ctx.memo.get(RelSet::single(0)).unwrap();
        assert!(!g.is_empty());
        assert!(g.rows >= 100.0);
        assert_eq!(g.selectivity, 1.0);
        // Idempotent.
        ctx.ensure_base_group(0);
        assert_eq!(ctx.memo.len(), 1);
    }

    #[test]
    fn join_pair_builds_union_group() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(3), 1).instance(0);
        let mut ctx = ctx_fixture(&q, &model);
        ctx.ensure_base_group(0);
        ctx.ensure_base_group(1);
        assert!(ctx.join_pair(RelSet::single(0), RelSet::single(1)));
        let union = RelSet::from_indices([0, 1]);
        let g = ctx.memo.get(union).unwrap();
        assert!(!g.is_empty());
        assert!(g.best_cost() > 0.0);
        assert!(ctx.plans_costed > 4);
        // Calling again refines, does not duplicate the group.
        assert!(!ctx.join_pair(RelSet::single(0), RelSet::single(1)));
    }

    /// The union recurrence and the per-run tables against the scans
    /// they replaced. Rows, selectivity and both edge sets of a JCR are
    /// functions of its set, so every way of building it must give the
    /// estimator's whole-set values bit for bit — and a pair's crossing
    /// selectivity, merge classes and index applicability its scans'.
    mod union_recurrence {
        use super::*;
        use crate::dp::run_levels;
        use crate::enumerate::tests::wide_query;
        use proptest::prelude::*;

        /// `group`, its edge words past the first in the side table
        /// `wide`, holds the estimator's rows, selectivity and edge sets;
        /// and [`EnumContext::estimate`] gives its set the
        /// estimator's rows, unclamped, and selectivity.
        fn assert_whole_set_values(ctx: &EnumContext<'_>, group: &Group, wide: &[EdgeWords]) {
            let (graph, est, set) = (ctx.graph(), ctx.model().estimator(), group.set);
            let bits = |(rows, sel): (f64, f64)| (rows.to_bits(), sel.to_bits());
            let whole = (
                est.rows_for_set(graph, set),
                est.selectivity_for_set(graph, set),
            );
            let held = bits((group.rows, group.selectivity));
            assert_eq!(
                held,
                bits((whole.0.min(MAX_ROWS), whole.1)),
                "group of {set:?}"
            );
            assert_eq!(bits(ctx.estimate(set)), bits(whole), "estimate of {set:?}");
            let mut expected = vec![EdgeWords::default(); ctx.tables.edge_words];
            for (e, edge) in graph.edges().iter().enumerate() {
                let word = &mut expected[e / 64];
                if edge.node_set().intersects(set) {
                    word.incident |= 1 << (e % 64);
                }
                if edge.within(set) {
                    word.internal |= 1 << (e % 64);
                }
            }
            let wide = &wide[group.wide_at as usize..][..ctx.tables.edge_words - 1];
            let words: Vec<EdgeWords> = std::iter::once(group.edges)
                .chain(wide.iter().copied())
                .collect();
            assert_eq!(words, expected, "edge sets of {set:?}");
        }

        /// `a ∪ b` built afresh from the two memo groups.
        fn assert_union(ctx: &EnumContext<'_>, a: RelSet, b: RelSet) {
            let (ga, gb) = ctx.inputs(a, b);
            let mut wide = Vec::new();
            let union = ctx.new_union_group(ga, gb, &mut wide);
            assert_whole_set_values(ctx, &union, &wide);
        }

        /// The crossing-edge facts of `a ⋈ b` against the estimator's
        /// and the graph's scans.
        fn assert_pair_facts(ctx: &EnumContext<'_>, a: RelSet, b: RelSet) {
            let (graph, cat) = (ctx.graph(), ctx.model().catalog());
            let (ga, gb) = ctx.inputs(a, b);
            let facts = ctx.pair_facts(ga, gb);
            assert_eq!(
                facts.crossing_sel.to_bits(),
                ctx.model()
                    .estimator()
                    .crossing_selectivity(graph, a, b)
                    .to_bits()
            );
            let sel = ctx.crossing_selectivity(ga, gb).map(f64::to_bits);
            assert_eq!(sel, Some(facts.crossing_sel.to_bits()));
            let mut classes: Vec<ClassId> = graph
                .crossing_edges(a, b)
                .filter_map(|e| ctx.classes().class_of(e.left))
                .collect();
            classes.sort_unstable();
            classes.dedup();
            let merges: Vec<Merge> = (classes.into_iter())
                .map(|class| Merge {
                    class,
                    ordering: ctx.useful_ordering(Some(class), a | b),
                })
                .collect();
            assert_eq!(facts.merges.as_slice(), merges);
            for (outer, inner, index) in [(a, b, facts.b_index), (b, a, facts.a_index)] {
                let usable = inner.len() == 1
                    && graph.crossing_edges(outer, inner).any(|e| {
                        let c = if inner.contains(e.left.node) {
                            e.left
                        } else {
                            e.right
                        };
                        cat.relation(graph.relation(c.node))
                            .unwrap()
                            .has_index_on(c.col)
                    });
                assert_eq!(index.is_some(), usable, "{outer:?} ⋈ {inner:?}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Base groups; JCRs built through random split orders;
            /// and an exhaustive run over IDP-style compound atoms —
            /// every union of every pair of every
            /// level, every memo group, every survivor row's
            /// neighbourhood — on graphs up to 16 relations, with more
            /// than 64 edges and more than 64 filters among them.
            #[test]
            fn tables_reproduce_the_estimator_bit_for_bit(
                n in 2usize..=16,
                parents in prop::collection::vec(any::<u64>(), 15usize),
                extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=16),
                cliques in prop::collection::vec(any::<u64>(), 0usize..=5),
                filters in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u64>()), 0usize..=120),
                splits in any::<u64>(),
                contract in any::<u64>(),
            ) {
                let (query, tree) = wide_query(n, &parents, &extras, &cliques, &filters);
                let graph = &query.graph;
                let cat = Catalog::paper();
                let model = CostModel::with_defaults(&cat);
                let mut state = splits;
                let mut next = || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };

                // Random split orders: merge connected components two
                // at a time until one is left, three times over.
                let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
                for node in 0..n {
                    ctx.ensure_base_group(node);
                    let (set, est) = (RelSet::single(node), model.estimator());
                    let base = ctx.memo.get(set).unwrap();
                    assert_whole_set_values(&ctx, base, &ctx.wide);
                    prop_assert_eq!(base.rows.to_bits(), est.rows_for_set(graph, set).to_bits());
                }
                for _ in 0..3 {
                    let mut parts: Vec<RelSet> = (0..n).map(RelSet::single).collect();
                    while parts.len() > 1 {
                        let a = next() % parts.len();
                        let joinable: Vec<usize> = (0..parts.len())
                            .filter(|&b| graph.sets_connected(parts[a], parts[b]))
                            .collect();
                        let b = joinable[next() % joinable.len()];
                        let (sa, sb) = (parts[a], parts[b]);
                        assert_union(&ctx, sa, sb);
                        assert_pair_facts(&ctx, sa, sb);
                        ctx.join_pair(sa, sb);
                        let joined = ctx.memo.get(sa | sb).unwrap();
                        assert_whole_set_values(&ctx, joined, &ctx.wide);
                        parts[a] = sa | sb;
                        parts.swap_remove(b);
                    }
                }

                // Compound atoms — tree edges contracted at random, and
                // until at most eight atoms are left — then every level.
                let mut atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
                let mut merges = Vec::new();
                for (k, &(u, v)) in tree.iter().enumerate() {
                    if contract >> (2 * k) & 3 != 0 && atoms.len() <= 8 {
                        continue;
                    }
                    let block = |r| *atoms.iter().find(|a: &&RelSet| a.contains(r)).unwrap();
                    let (a, b) = (block(u), block(v));
                    atoms.retain(|&x| x != a && x != b);
                    atoms.push(a | b);
                    merges.push((a, b));
                }
                atoms.sort();
                let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
                (0..n).for_each(|node| ctx.ensure_base_group(node));
                for &(a, b) in &merges {
                    ctx.join_pair(a, b);
                }
                let table = run_levels(&mut ctx, &atoms, atoms.len()).unwrap();
                let mut scan = crate::enumerate::LevelScan::new(n);
                let mut pairs = Vec::new();
                for s in 2..=atoms.len() {
                    scan.level_pairs(&table, s, &mut pairs);
                    for &(a, b) in &pairs {
                        let (a, b) = (ctx.memo.at(a).set, ctx.memo.at(b).set);
                        assert_union(&ctx, a, b);
                        assert_pair_facts(&ctx, a, b);
                    }
                }
                for s in 1..=atoms.len() {
                    for survivor in table.level(s) {
                        prop_assert_eq!(survivor.neighbors, graph.neighbors(survivor.set));
                        prop_assert_eq!(ctx.memo.at(survivor.slot).set, survivor.set);
                    }
                }
                for set in ctx.memo.sets() {
                    assert_whole_set_values(&ctx, ctx.memo.get(set).unwrap(), &ctx.wide);
                }
            }
        }
    }

    /// Where one edge crosses a pair, its facts are read from the run
    /// tables (`EnumContext::lone_facts`) rather than gathered by the
    /// crossing loop, which the reference mode runs too: the two must
    /// agree bit for bit on every pair of connected sets a level scans,
    /// both ways round, on the exactness harness's graphs — more than 64
    /// edges and closure cliques among them.
    #[test]
    fn lone_edge_facts_are_the_crossing_loops() {
        use crate::dp::run_levels;
        use crate::enumerate::LevelScan;
        use crate::exactness::cases;
        use proptest::prelude::*;

        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let mut rng = proptest::TestRng::from_name("lone-edge facts");
        let (mut lone, mut looped, mut wide) = (0, 0, 0);
        for _ in 0..48 {
            let case = cases().sample(&mut rng);
            let (query, n) = (&case.query, case.query.graph.len());
            wide += usize::from(query.graph.edges().len() > 64);
            let mut ctx = ctx_fixture(query, &model);
            (0..n).for_each(|node| ctx.ensure_base_group(node));
            let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
            let table = run_levels(&mut ctx, &atoms, n).unwrap();
            let (mut scan, mut pairs) = (LevelScan::new(n), Vec::new());
            for s in 2..=n {
                scan.level_pairs(&table, s, &mut pairs);
                for &(a, b) in &pairs {
                    let (a, b) = (ctx.memo.at(a), ctx.memo.at(b));
                    for (a, b) in [(a, b), (b, a)] {
                        let crossing = query.graph.crossing_edges(a.set, b.set).count();
                        let edge = ctx.lone_crossing(a, b);
                        assert_eq!(edge.is_some(), crossing == 1, "{:?} ⋈ {:?}", a.set, b.set);
                        let Some(edge) = edge else {
                            looped += 1;
                            continue;
                        };
                        lone += 1;
                        let (fast, general) =
                            (ctx.lone_facts(edge, a, b), ctx.crossing_facts(a, b));
                        let facts = |f: &PairFacts| {
                            let merges = f.merges.as_slice().to_vec();
                            (f.crossing_sel.to_bits(), merges, f.a_index, f.b_index)
                        };
                        assert_eq!(facts(&fast), facts(&general), "{:?} ⋈ {:?}", a.set, b.set);
                    }
                }
            }
        }
        assert!(
            lone > 0 && looped > 0 && wide > 0,
            "{lone} lone, {looped} looped, {wide} wide"
        );
    }

    #[test]
    fn crossing_classes_stay_sorted_and_distinct_past_the_inline_buffer() {
        let mut classes = ClassSet::new();
        // 0, 7, 14, … mod 40 visits every residue once, out of order;
        // the second lap repeats them all.
        let inserted: Vec<ClassId> = (0..80).map(|k| k * 7 % 40).collect();
        for (k, &c) in inserted.iter().enumerate() {
            classes.insert(c);
            let mut expected = inserted[..=k].to_vec();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(classes.as_slice(), expected);
            assert!((0..40).all(|c: ClassId| classes.contains(c) == expected.contains(&c)));
        }
        assert_eq!(classes.as_slice().len(), 40);
    }

    #[test]
    fn join_plans_satisfy_invariants() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(4), 5).instance(0);
        let mut ctx = ctx_fixture(&q, &model);
        for i in 0..4 {
            ctx.ensure_base_group(i);
        }
        ctx.join_pair(RelSet::single(0), RelSet::single(1));
        for plan in ctx.extract_all(RelSet::from_indices([0, 1])) {
            plan.check_invariants().unwrap();
        }
    }

    #[test]
    fn staged_pairs_match_join_pair() {
        // The same pairs costed through a level's stage must retain
        // exactly the plans the one-pair path builds — and charge the
        // node counter and the memory model for exactly as many.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(5), 4).instance(0);

        let mut seq = ctx_fixture(&q, &model);
        for i in 0..5 {
            seq.ensure_base_group(i);
        }
        let pairs: Vec<(RelSet, RelSet)> = (1..5)
            .map(|i| (RelSet::single(0), RelSet::single(i)))
            .collect();
        for &(a, b) in &pairs {
            seq.join_pair(a, b);
        }

        let mut staged = ctx_fixture(&q, &model);
        for i in 0..5 {
            staged.ensure_base_group(i);
        }
        let base_plans = staged.memo.live_nodes();
        let mut stage = LevelStage::default();
        let slot = |ctx: &EnumContext<'_>, set| ctx.memo.get_slot(set).expect("a base group").0;
        for &(a, b) in &pairs {
            let (a, b) = (slot(&staged, a), slot(&staged, b));
            staged.stage_pair(&mut stage, a, b);
        }

        assert_eq!(stage.jcrs.len(), 4);
        assert_eq!(
            seq.plans_costed,
            staged.plans_costed + stage.costing.plans_costed
        );
        assert_eq!(
            seq.memory.used_bytes(seq.memo.live_nodes()),
            staged.memory.used_bytes(staged.memo.live_nodes())
        );
        for jcr in &stage.jcrs {
            // Sealing named the one-pair path's entries; the rest of a
            // record is what it was costed as.
            let unnamed = |g: &Group| -> Vec<_> {
                let entries = g.entries().iter();
                entries
                    .map(|e| (e.cost.to_bits(), e.ordering(), e.source))
                    .collect()
            };
            let joined = seq.memo.get(jcr.group.set).unwrap();
            assert_eq!(unnamed(joined), unnamed(&jcr.group));
        }
        staged.roll_back_stage(&stage);
        assert_eq!(staged.memo.live_nodes(), base_plans);
    }

    #[test]
    fn a_sort_enforcer_evicting_an_earlier_entry_renames_nothing() {
        // Sealed-group invariant: a pair group whose ordered plan sits
        // *before* its cheapest one, a triple built over it, and then
        // the enforcer — cheap enough to evict the ordered plan, so the
        // cheapest moves up a position. The triple's references and the
        // enforcer's own must still reach the plans they named.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(4), 2).ordered_instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let target = ctx.order_target().unwrap();
        (0..4).for_each(|n| ctx.ensure_base_group(n));
        let pair = (q.graph.edges().iter())
            .map(|e| e.node_set())
            .find(|&pair| {
                let (a, b) = (pair.min_index().unwrap(), pair.iter().nth(1).unwrap());
                ctx.join_pair(RelSet::single(a), RelSet::single(b));
                let orderings: Vec<_> = (ctx.memo.get(pair).unwrap().entries().iter())
                    .map(|e| e.ordering())
                    .collect();
                orderings == [Some(target), None]
            })
            .expect("a pair whose ordered plan was retained first");
        let third = q.graph.neighbors(pair).min_index().unwrap();
        ctx.join_pair(pair, RelSet::single(third));
        let triple = pair.insert(third);
        // What the triple's plans take from the pair: `(triple entry,
        // pair entry)` names, but for the ordered plan about to go (the
        // level loop offers the enforcer before anything is built over
        // a group; a plan built over an evicted one is unreachable).
        let references: Vec<(u16, u16)> = (ctx.memo.get(triple).unwrap().entries().iter())
            .map(|e| match e.source {
                PlanSource::Join {
                    outer,
                    outer_entry,
                    inner_entry,
                    ..
                } => (
                    e.id(),
                    if outer == pair {
                        outer_entry
                    } else {
                        inner_entry
                    },
                ),
                _ => unreachable!("a triple's plans are joins"),
            })
            .filter(|&(_, referred)| referred != 0)
            .collect();
        let referred = |ctx: &EnumContext<'_>| -> Vec<PlanEntry> {
            let group = ctx.memo.get(pair).unwrap();
            references.iter().map(|&(_, id)| *group.entry(id)).collect()
        };
        let before = referred(&ctx);
        let best = *ctx.memo.get(pair).unwrap().best();
        assert!(
            before.contains(&best),
            "the triple builds on the pair's cheapest plan"
        );

        ctx.memo.get_mut(pair).unwrap().sort_cost = 1e-3;
        assert!(ctx.offer_sort_enforcer(pair));
        let group = ctx.memo.get(pair).unwrap();
        let ids: Vec<u16> = group.entries().iter().map(PlanEntry::id).collect();
        assert_eq!(ids, [1, 2], "the ordered plan went, the cheapest moved up");
        assert_eq!(group.entries()[0], best);
        assert_eq!(group.entry(2).source, PlanSource::Sort { input: best.id() });
        assert_eq!(referred(&ctx), before);

        let sorted = ctx.extract(pair, 2);
        sorted.check_invariants().unwrap();
        assert_eq!(sorted.children()[0].cost.to_bits(), best.cost.to_bits());
        for (&(id, _), referred) in references.iter().zip(&before) {
            let plan = ctx.extract(triple, id);
            plan.check_invariants().unwrap();
            let input = plan.children().iter().find(|c| c.set == pair).unwrap();
            assert_eq!(input.cost.to_bits(), referred.cost.to_bits());
            assert_eq!(input.ordering, referred.ordering());
        }
    }

    #[test]
    fn a_free_sort_enforcer_holds_the_plan_it_evicts() {
        // Where the sort's cost is lost in the precision of the cost it
        // is added to (here: made zero), the enforcer ties with the plan
        // it sorts and, being ordered, evicts it. A record cannot refer
        // to an evicted entry, so this one enforcer is built, with its
        // input as a node — and the count is still that of the nodes
        // the memo reaches.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(2), 9).ordered_instance(0);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let target = ctx.order_target().unwrap();
        (0..2).for_each(|n| ctx.ensure_base_group(n));
        ctx.join_pair(RelSet::single(0), RelSet::single(1));
        let set = RelSet::from_indices([0, 1]);
        let group = ctx.memo.get_mut(set).unwrap();
        group.sort_cost = 0.0;
        let evicted = *group.best();
        assert_eq!(evicted.ordering(), None);
        let live = ctx.memo.live_nodes();
        let retained = ctx.memo.get(set).unwrap().entries().len() as u64;

        assert!(ctx.offer_sort_enforcer(set));
        let group = ctx.memo.get(set).unwrap();
        let sort = group.best_for_order(target).unwrap();
        assert_eq!(sort.cost.to_bits(), evicted.cost.to_bits());
        let node = ctx.memo.built(sort).expect("built, not a record").clone();
        assert!(matches!(node.op, PlanOp::Sort { .. }));
        assert_eq!(node.children()[0].cost.to_bits(), evicted.cost.to_bits());
        assert_eq!(node.children()[0].ordering, None);
        node.check_invariants().unwrap();
        assert!(group.entries().iter().all(|e| e.id() != evicted.id()));
        // Entries left the group; the evicted input lives on under the
        // sort, which is one node more.
        let gone = retained + 1 - group.entries().len() as u64;
        assert_eq!(ctx.memo.live_nodes(), live + 1 - (gone - 1));
        let weak = [&node, &node.children()[0]].map(Arc::downgrade);
        drop(node);
        drop(ctx);
        assert!(weak.iter().all(|w| w.upgrade().is_none()));
    }

    /// Weak handles to every node of a plan tree.
    fn weak_nodes(node: &Arc<PlanNode>, out: &mut Vec<std::sync::Weak<PlanNode>>) {
        out.push(Arc::downgrade(node));
        node.children().iter().for_each(|c| weak_nodes(c, out));
    }

    #[test]
    fn a_run_leaves_nothing_behind() {
        use crate::budget::GROUP_MODEL_BYTES;
        use crate::dp::{optimize_complete, optimize_dp};
        use crate::governor::prepare_handoff;
        use crate::{goo::optimize_goo, idp::optimize_idp, sdp::optimize_sdp, SdpConfig};
        type Run = fn(&mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError>;
        let runs: [(&str, Run); 5] = [
            ("DP", optimize_dp),
            ("SDP", |ctx| optimize_sdp(ctx, SdpConfig::paper())),
            ("IDP(4)", |ctx| optimize_idp(ctx, 4)),
            ("GOO", optimize_goo),
            ("handoff", |ctx| {
                let budget = ctx.memory.budget();
                ctx.memory
                    .set_budget(Budget::with_memory(8 * GROUP_MODEL_BYTES));
                let tripped = optimize_complete(ctx);
                assert!(matches!(tripped, Err(OptError::MemoryExhausted { .. })));
                prepare_handoff(ctx);
                ctx.memory.set_budget(budget);
                optimize_sdp(ctx, SdpConfig::paper())
            }),
        ];
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let generator = QueryGenerator::new(&cat, Topology::star_chain(9), 3);
        for query in [generator.instance(0), generator.ordered_instance(0)] {
            for (label, run) in runs {
                let mut ctx = ctx_fixture(&query, &model);
                let plan = run(&mut ctx).unwrap();
                // The served plan, and every node the memo still holds.
                let mut weak = Vec::new();
                weak_nodes(&plan, &mut weak);
                for set in ctx.memo.sets() {
                    for e in ctx.memo.get(set).unwrap().entries() {
                        if let Some(node) = ctx.memo.built(e) {
                            weak_nodes(node, &mut weak);
                        }
                    }
                }
                drop(plan);
                drop(ctx);
                assert!(
                    weak.iter().all(|w| w.upgrade().is_none()),
                    "{label}: a node outlived its run and its plan"
                );
            }
        }
    }

    #[test]
    fn finalize_enforces_order_by() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(2), 9).ordered_instance(0);
        assert!(q.order_on_join_column());
        let mut ctx = ctx_fixture(&q, &model);
        ctx.ensure_base_group(0);
        ctx.ensure_base_group(1);
        ctx.join_pair(RelSet::single(0), RelSet::single(1));
        let root = ctx.finalize(RelSet::from_indices([0, 1])).unwrap();
        assert_eq!(root.ordering, ctx.order_target());
        root.check_invariants().unwrap();
    }

    #[test]
    fn prune_group_updates_counters() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(3), 1).instance(0);
        let mut ctx = ctx_fixture(&q, &model);
        ctx.ensure_base_group(2);
        let before = ctx.memory.used_bytes(ctx.memo.live_nodes());
        ctx.prune_group(RelSet::single(2));
        assert!(ctx.memory.used_bytes(ctx.memo.live_nodes()) < before);
        assert_eq!(ctx.jcrs_pruned, 1);
        assert!(ctx.memo.get(RelSet::single(2)).is_none());
        // Pruning a missing group is a no-op.
        ctx.prune_group(RelSet::single(2));
        assert_eq!(ctx.jcrs_pruned, 1);
    }
}
