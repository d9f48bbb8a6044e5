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

use sdp_cost::{CostModel, IndexProbe, JoinMethod, JoinTerms, ScanKind};
use sdp_query::{ClassId, EquivClasses, JoinGraph, Query, RelSet};

use crate::budget::{Budget, MemoryModel, OptError};
use crate::fx::FxHashMap;
use crate::memo::{dominates, EdgeWords, Group, Memo, PlanEntry, PlanSource};
use crate::plan::{Children, NodeCounter, PlanNode, PlanOp};
#[cfg(feature = "trace")]
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
/// (`EnumContext::cost_pair`): plans costed, and alternatives ruled out
/// uncosted because their floor exceeds the bound.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Costing {
    pub bound: Option<f64>,
    pub plans_costed: u64,
    pub ruled_out: u64,
}

/// No pair: the end of a [`StagedJcr`]'s chain of deferred pairs.
const NO_PAIR: u32 = u32::MAX;

/// A JCR of the level being enumerated: the group its pairs are costed
/// into, not yet in the memo.
#[derive(Debug)]
pub(crate) struct StagedJcr {
    /// The JCR's estimated properties and the plans retained so far.
    pub group: Group,
    /// The set already has a group in the memo — one retained from an
    /// earlier rung of a governed descent. This record then only holds
    /// the level's offers until the barrier folds them into that group.
    pub in_memo: bool,
    /// The last of its pairs staged uncosted, which chains back through
    /// `LevelStage::deferred` to the first; `NO_PAIR` for a JCR that is
    /// costed (as it was staged, or since).
    deferred: u32,
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
    /// When tracing: `Tracer::wall_micros` at each record's staging,
    /// for the `jcr` event the barrier emits on its behalf.
    #[cfg(feature = "trace")]
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
    /// buffers — up to what that level can fill (a JCR per pair): the
    /// widest level's stage must not sit beside the memo of the last.
    pub fn reset(&mut self, pairs: usize) {
        self.index.clear();
        self.jcrs.clear();
        self.index.shrink_to(pairs);
        self.jcrs.shrink_to(pairs);
        self.wide.clear();
        self.costing = Costing::default();
        self.defer = false;
        self.deferred.clear();
        #[cfg(feature = "trace")]
        self.staged_micros.clear();
    }

    /// Stage the level's new JCRs uncosted: [`EnumContext::stage_pair`]
    /// records each of the `pairs` pairs for [`EnumContext::cost_staged`].
    pub fn defer_costing(&mut self, pairs: usize) {
        self.defer = true;
        self.deferred.reserve_exact(pairs);
    }
}

/// Everything the per-pair path needs that is a pure function of the
/// query, computed once per run in [`EnumContext::new`]: the
/// estimator's ln terms (so no `ln`, `sqrt` or catalog look-up is
/// repeated per pair), each edge's order class and index usability,
/// and per-node edge and filter bitmaps from which the groups' edge
/// sets start. Edges, nodes and filters keep the join graph's
/// indexing, so walking a table in ascending index adds the same `f64`
/// terms in the same order as the estimator's own scans.
#[derive(Debug)]
struct RunTables {
    /// `ln(edge_selectivity(e))`.
    edge_ln_sel: Vec<f64>,
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
            edge_ln_sel: edges
                .iter()
                .map(|e| est.edge_selectivity(graph, e).ln())
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

/// Crossing classes held inline up to this many; a pair with more
/// distinct classes spills to the heap.
const INLINE_CLASSES: usize = 16;

/// The distinct order classes of a pair's crossing edges, ascending.
#[derive(Debug)]
struct CrossingClasses {
    inline: [ClassId; INLINE_CLASSES],
    len: usize,
    /// Holds *all* classes once `inline` has overflowed.
    spill: Vec<ClassId>,
}

impl CrossingClasses {
    fn new() -> Self {
        CrossingClasses {
            inline: [0; INLINE_CLASSES],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn insert(&mut self, class: ClassId) {
        if !self.spill.is_empty() {
            if let Err(at) = self.spill.binary_search(&class) {
                self.spill.insert(at, class);
            }
            return;
        }
        let Err(at) = self.inline[..self.len].binary_search(&class) else {
            return;
        };
        if self.len == INLINE_CLASSES {
            self.spill.extend_from_slice(&self.inline);
            self.spill.insert(at, class);
            return;
        }
        self.inline.copy_within(at..self.len, at + 1);
        self.inline[at] = class;
        self.len += 1;
    }

    fn as_slice(&self) -> &[ClassId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Everything about a candidate pair `(a, b)` that does not depend on
/// which plans are joined — the product of one pass over the pair's
/// crossing edges (`EnumContext::pair_facts`).
#[derive(Debug)]
struct PairFacts {
    /// Joint selectivity of the crossing edges.
    crossing_sel: f64,
    /// Their distinct order classes (one merge join alternative each).
    classes: CrossingClasses,
    /// Index nested-loop probe costing with `a` as the inner side: `a`
    /// is a single base relation indexed on a crossing join column.
    a_index: Option<IndexProbe>,
    /// The same with `b` as the inner side.
    b_index: Option<IndexProbe>,
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
    nodes: NodeCounter,
    /// The memo of JCR groups.
    pub memo: Memo,
    /// The memo groups' edge-set words past the first (`Group::wide_at`).
    wide: Vec<EdgeWords>,
    /// Sort costs computed so far: one per group entering the memo.
    #[cfg(test)]
    pub(crate) sort_costs: u64,
    /// Memory model / budget tracking.
    pub memory: MemoryModel,
    /// Plans costed so far.
    pub plans_costed: u64,
    /// Plan alternatives ruled out by a level's bound so far.
    pub ruled_out: u64,
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
    #[cfg(feature = "trace")]
    tracer: Tracer,
}

impl<'a> EnumContext<'a> {
    /// Start a run over `query` (whose graph should already carry any
    /// rewriter-inferred edges) with the given cost model and budget.
    pub fn new(query: &'a Query, model: &'a CostModel<'a>, budget: Budget) -> Self {
        let classes = query.equiv_classes();
        let tables = RunTables::new(&query.graph, model, &classes);
        // The effective interesting order: ORDER BY, else GROUP BY
        // (sort-based grouping wants sorted input, so a grouping
        // column is an interesting order in exactly the same sense).
        let order_target = query
            .interesting_order()
            .and_then(|o| classes.class_of(o.column));
        let nodes = NodeCounter::new();
        EnumContext {
            query,
            model,
            classes,
            tables,
            order_target,
            memory: MemoryModel::new(budget, nodes.clone()),
            nodes,
            memo: Memo::new(),
            wide: Vec::new(),
            #[cfg(test)]
            sort_costs: 0,
            plans_costed: 0,
            ruled_out: 0,
            jcrs_pruned: 0,
            sort_enforcers: 0,
            incumbent: None,
            greedy_parts: Vec::new(),
            contractions: 0,
            profile: Vec::new(),
            phase: "",
            #[cfg(feature = "trace")]
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

    /// The run's live plan-node counter.
    pub fn node_counter(&self) -> NodeCounter {
        self.nodes.clone()
    }

    /// Install the structured-trace emission handle for this run.
    #[cfg(feature = "trace")]
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The run's trace handle (disabled unless one was installed).
    #[cfg(feature = "trace")]
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

        for path in self.model.scan_paths_for_node(graph, node) {
            self.plans_costed += 1;
            match path.kind {
                ScanKind::Seq => {
                    group.add_plan(PlanNode::new(
                        &self.nodes,
                        PlanOp::SeqScan { rel, node },
                        set,
                        rows,
                        path.cost,
                        None,
                        Children::Leaf,
                    ));
                }
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
                    if class.is_some() || path.kind == ScanKind::IndexRange {
                        group.add_plan(PlanNode::new(
                            &self.nodes,
                            PlanOp::IndexScan { rel, node, col },
                            set,
                            rows,
                            path.cost,
                            class,
                            Children::Leaf,
                        ));
                    }
                }
            }
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
        let Some(group) = self.memo.get_mut(set) else {
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
            let input = self.memo.extract(set, best.id(), &self.nodes);
            let sort = PlanNode::new(
                &self.nodes,
                PlanOp::Sort { class: target },
                set,
                rows,
                cost,
                Some(target),
                Children::Unary([input]),
            );
            let group = self.memo.get_mut(set).expect("group present");
            let charged = group.charged();
            group.add_plan(sort);
            self.nodes.release(charged - group.charged());
        } else {
            // Entries are named, not positioned: whatever the enforcer
            // evicts, `best` keeps its id.
            let source = PlanSource::Sort { input: best.id() };
            self.nodes.charge(1);
            Self::reoffer(
                &self.nodes,
                group,
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
                ln_internal += t.edge_ln_sel[w * 64 + e];
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
    /// holds is offered what the pair retains among itself, as a level
    /// barrier offers a level's (`EnumContext::settle_stage`).
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
        match self.memo.get_mut(a | b) {
            Some(group) => {
                Self::reoffer(&self.nodes, group, jcr.entries());
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

    /// One pass over the crossing edges of disjoint `a` and `b`, in
    /// ascending edge index (so the selectivity sums the terms of
    /// `Estimator::crossing_selectivity` in its order; summing from
    /// `0.0` where `Iterator::sum` may start from `-0.0` can only flip
    /// the sign of a zero, which `exp` erases).
    fn pair_facts(&self, a: &Group, b: &Group) -> PairFacts {
        let t = &self.tables;
        let mut ln_sel = 0.0;
        let mut classes = CrossingClasses::new();
        let mut indexed = RelSet::EMPTY;
        for w in 0..t.edge_words {
            let (ea, eb) = (self.edge_word(a, w), self.edge_word(b, w));
            // An edge touching both of two disjoint sets crosses them.
            for e in bits(ea.incident & eb.incident) {
                let e = w * 64 + e;
                ln_sel += t.edge_ln_sel[e];
                classes.insert(t.edge_class[e]);
                indexed = indexed | t.edge_indexed[e];
            }
        }
        let index_of = |inner: RelSet| match inner.min_index() {
            Some(node) if inner.len() == 1 && indexed.contains(node) => Some(t.node_index[node]),
            _ => None,
        };
        PairFacts {
            crossing_sel: self.model.estimator().selectivity_from_ln(ln_sel),
            classes,
            a_index: index_of(a.set),
            b_index: index_of(b.set),
        }
    }

    /// The crossing selectivity of disjoint `a` and `b` — the terms and
    /// order of [`EnumContext::pair_facts`], so the estimator's bit for
    /// bit — or `None` when no edge crosses them.
    pub(crate) fn crossing_selectivity(&self, a: &Group, b: &Group) -> Option<f64> {
        let t = &self.tables;
        let (mut ln_sel, mut crossing) = (0.0, false);
        for w in 0..t.edge_words {
            let (ea, eb) = (self.edge_word(a, w), self.edge_word(b, w));
            for e in bits(ea.incident & eb.incident) {
                ln_sel += t.edge_ln_sel[w * 64 + e];
                crossing = true;
            }
        }
        crossing.then(|| self.model.estimator().selectivity_from_ln(ln_sel))
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
    /// its records give back their node count as they are dropped, and
    /// its edge words their room in the side table, so the run goes on
    /// as if it had not been.
    pub(crate) fn incumbent(&mut self, start: RelSet) -> (f64, u64) {
        fn group<'m>(memo: &'m Memo, part: &'m Part) -> &'m Group {
            match part {
                Part::Base(set) => memo.get(*set).expect("the start and base groups exist"),
                Part::Joined(group) => group,
            }
        }
        let nodes = self.nodes.clone();
        let drop_part = |part: Part| {
            if let Part::Joined(group) = part {
                nodes.release(group.charged());
            }
        };

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
            drop_part(parts.swap_remove(j));
            drop_part(std::mem::replace(&mut parts[i], Part::Joined(jcr)));
        }

        // The root, as `finalize` serves it.
        let (entry, sort) = self.served_root(group(&self.memo, &parts[0]));
        let cost = sort.map_or(entry.cost, |(_, cost)| cost);
        let plans_costed = costing.plans_costed + u64::from(self.order_target.is_some());
        parts.drain(..).for_each(drop_part);
        self.greedy_parts = parts;
        self.wide.truncate(wide_len);
        self.plans_costed += plans_costed;
        (cost, plans_costed)
    }

    /// The costing core shared by the level stage and `join_pair`:
    /// cost every join alternative for `a ⋈ b` and offer the survivors
    /// to `jcr` (which covers `a ∪ b`), within `costing`'s bound and on
    /// its account. Everything a method's cost owes to the two JCRs
    /// rather than to the plans chosen from them is computed here, once
    /// per pair and orientation.
    fn cost_pair(&self, a: &Group, b: &Group, jcr: &mut Group, costing: &mut Costing) {
        debug_assert!(a.set.is_disjoint(b.set));
        let facts = self.pair_facts(a, b);
        let classes = facts.classes.as_slice();
        let params = self.model.params();
        let out_rows = jcr.rows;
        let (side_a, side_b) = (a.side(), b.side());
        let terms = |outer, inner, inner_index| {
            JoinTerms::new(
                outer,
                inner,
                facts.crossing_sel,
                out_rows,
                inner_index,
                params,
            )
        };
        let staged_before = jcr.entries().len();
        let a_b = terms(&side_a, &side_b, facts.b_index);
        self.cost_orientation(a, b, &a_b, classes, jcr, costing);
        let b_a = terms(&side_b, &side_a, facts.a_index);
        self.cost_orientation(b, a, &b_a, classes, jcr, costing);
        // +1 per entry retained, −1 per entry evicted: between pairs
        // the live-node count is that of an optimizer building every
        // retained plan.
        let staged = jcr.entries().len();
        if staged >= staged_before {
            self.nodes.charge(staged - staged_before);
        } else {
            self.nodes.release(staged_before - staged);
        }
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
        classes: &[ClassId],
        jcr: &mut Group,
        costing: &mut Costing,
    ) {
        let union = jcr.set;
        let (outers, inners) = (outer_group.entries(), inner_group.entries());
        let per_plan_pair = 2 + classes.len() as u64;
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
                for &class in classes {
                    let cost = terms.merge(
                        outer.cost,
                        inner.cost,
                        outer.ordering() == Some(class),
                        inner.ordering() == Some(class),
                    );
                    offer(
                        JoinMethod::Merge,
                        cost,
                        self.useful_ordering(Some(class), union),
                    );
                }
            }
        }
        costing.plans_costed += outers.len() as u64 * per_outer - ruled_out;
        costing.ruled_out += ruled_out;
    }

    /// Cost `a ⋈ b` into the stage's JCR for `a ∪ b`, staging it on
    /// first visit: one the memo already holds (retained from an
    /// earlier rung) only collects the level's offers; a new one is a
    /// live group from now on. In a level that defers costing, a new
    /// JCR's pair is only recorded — its inputs' memo slots — and its
    /// inputs lower the JCR's cost floor.
    pub(crate) fn stage_pair(&mut self, stage: &mut LevelStage, a: RelSet, b: RelSet) {
        let (slot_a, ga) = self.memo.get_slot(a).expect("left group exists");
        let (slot_b, gb) = self.memo.get_slot(b).expect("right group exists");
        let mut created = false;
        let slot = match stage.index.entry(a | b) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let in_memo = self.memo.get(a | b).is_some();
                created = !in_memo;
                let jcr = StagedJcr {
                    group: self.new_union_group(ga, gb, &mut stage.wide),
                    in_memo,
                    deferred: NO_PAIR,
                };
                #[cfg(feature = "trace")]
                if self.tracer.enabled() {
                    stage.staged_micros.push(self.tracer.wall_micros());
                }
                *entry.insert(LevelStage::push(&mut stage.jcrs, jcr))
            }
        };
        let jcr = &mut stage.jcrs[slot];
        if stage.defer && !jcr.in_memo {
            let pair = u32::try_from(stage.deferred.len()).expect("fewer than 2^32 pairs a level");
            stage.deferred.push(DeferredPair {
                a: slot_a,
                b: slot_b,
                previous: jcr.deferred,
            });
            jcr.deferred = pair;
        } else {
            self.cost_pair(ga, gb, &mut jcr.group, &mut stage.costing);
        }
        if created {
            self.memory.add_groups(1);
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

    /// A cost floor of the JCR staged uncosted in `slot`: at most the
    /// cost of every plan its pairs can offer — so, once it is costed, at
    /// most its cheapest plan's cost. The least [`inputs_floor`] over its
    /// pairs plus the output's emission (`JoinTerms`' `emit`, computed as
    /// it does).
    pub(crate) fn cost_floor(&self, stage: &LevelStage, slot: usize) -> f64 {
        let inputs = Self::deferred_pairs(stage, slot)
            .map(|pair| {
                let DeferredPair { a, b, .. } = stage.deferred[pair as usize];
                inputs_floor(self.memo.at(a), self.memo.at(b))
            })
            .fold(f64::INFINITY, f64::min);
        inputs + stage.jcrs[slot].group.rows * self.model.params().cpu_tuple_cost
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

    /// End a level's enumeration, before its first barrier check: fold
    /// the offers collected for groups the memo already holds into
    /// those groups, and emit the `jcr` event of every JCR the level
    /// created — only now, so that a mid-level budget trip leaves no
    /// trace of the rolled-back level.
    // Without tracing, what only the events report goes unread.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    pub(crate) fn settle_stage(&mut self, stage: &mut LevelStage) {
        for (slot, jcr) in stage.jcrs.iter_mut().enumerate() {
            let set = jcr.group.set;
            if !jcr.in_memo {
                #[cfg(feature = "trace")]
                if let Some(&micros) = stage.staged_micros.get(slot) {
                    let mut event = Event::new("jcr")
                        .with("level", set.len())
                        .with("set", set.0);
                    event.wall_micros = micros;
                    self.tracer.emit(event);
                }
                continue;
            }
            // Re-offered against the group's plans. The group is sealed
            // and may be referred to: what it keeps of the offers is named
            // afresh, and it evicts nothing — the rung that sealed it
            // offered it these very pairs.
            let target = self.memo.get_mut(set).expect("in the memo");
            Self::reoffer(&self.nodes, target, jcr.group.entries());
            jcr.group.clear_entries();
        }
    }

    /// Offer entries retained (and charged for) elsewhere to `target`,
    /// in order, and release what it does not keep of them and of its
    /// own.
    fn reoffer(nodes: &NodeCounter, target: &mut Group, offers: &[PlanEntry]) {
        let charged = target.charged() + offers.len();
        for e in offers {
            debug_assert!(e.charged(), "offers are records, counted where retained");
            target.offer(e.cost, e.ordering(), e.source);
        }
        nodes.release(charged - target.charged());
    }

    /// Account for a JCR its level created being dropped while still
    /// staged — pruned, or rolled back with the level: the counters
    /// move as if it had been a memo group (see
    /// [`EnumContext::prune_group`]).
    pub(crate) fn drop_staged(&mut self, jcr: &StagedJcr) {
        debug_assert!(!jcr.in_memo);
        self.nodes.release(jcr.group.charged());
        self.memo.count_dropped_while_staged();
        self.memory.remove_groups(1);
        self.jcrs_pruned += 1;
    }

    /// Account for everything the level's stage still holds being
    /// dropped with it: the level did not complete.
    pub(crate) fn roll_back_stage(&mut self, stage: &LevelStage) {
        for jcr in &stage.jcrs {
            if jcr.in_memo {
                self.nodes.release(jcr.group.charged());
            } else {
                self.drop_staged(jcr);
            }
        }
    }

    /// Move the level's survivors into the memo as they are, in creation
    /// order; returns the level's row of the survivor table.
    pub(crate) fn seal_stage(&mut self, stage: &mut LevelStage) -> Vec<(RelSet, RelSet)> {
        self.memo.reserve(stage.jcrs.len());
        let (graph, len) = (self.graph(), self.tables.edge_words - 1);
        let survivors = stage.jcrs.drain(..).map(|mut jcr| {
            debug_assert!(jcr.costed(), "a survivor is costed before it is sealed");
            let set = jcr.group.set;
            if !jcr.in_memo {
                move_wide(&mut jcr.group, len, &stage.wide, &mut self.wide);
                let inserted = self.insert_group(jcr.group);
                debug_assert!(inserted, "a staged JCR is new to the memo");
            }
            (set, graph.neighbors(set))
        });
        survivors.collect()
    }

    /// The plan tree of entry `entry` of `set`'s group
    /// ([`Memo::extract`] under the run's node counter): the one place
    /// a retained plan becomes `Arc<PlanNode>`s.
    pub fn extract(&mut self, set: RelSet, entry: u16) -> Arc<PlanNode> {
        self.memo.extract(set, entry, &self.nodes)
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
    /// explicit sort when no suitably-ordered plan is cheaper.
    pub fn finalize(&mut self, full: RelSet) -> Result<Arc<PlanNode>, OptError> {
        let group = self.memo.get(full).ok_or(OptError::DisconnectedJoinGraph)?;
        let (rows, (entry, sort)) = (group.rows, self.served_root(group));
        self.plans_costed += u64::from(self.order_target.is_some());
        let plan = self.extract(full, entry.id());
        Ok(match sort {
            None => plan,
            Some((class, cost)) => PlanNode::new(
                &self.nodes,
                PlanOp::Sort { class },
                full,
                rows,
                cost,
                Some(class),
                Children::Unary([plan]),
            ),
        })
    }

    /// Drop the group for `set` from the memo (pruning), updating the
    /// memory model and prune counter.
    pub fn prune_group(&mut self, set: RelSet) {
        if let Some(group) = self.memo.remove(set) {
            self.nodes.release(group.charged());
            self.memory.remove_groups(1);
            self.jcrs_pruned += 1;
        }
    }
}

impl Drop for EnumContext<'_> {
    /// The memo's records go without ceremony, and the count the run's
    /// [`NodeCounter`] holds for them with them: a counter that
    /// outlives the run (on the plan it served) counts that plan's
    /// nodes only.
    fn drop(&mut self) {
        self.nodes.release(self.memo.charged());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;
    use sdp_query::{QueryGenerator, Topology};

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
            assert_eq!(facts.classes.as_slice(), classes);
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
                        assert_union(&ctx, a, b);
                        assert_pair_facts(&ctx, a, b);
                    }
                }
                for level in &table.levels {
                    for &(set, neighbors) in level {
                        prop_assert_eq!(neighbors, graph.neighbors(set));
                    }
                }
                for set in ctx.memo.sets() {
                    assert_whole_set_values(&ctx, ctx.memo.get(set).unwrap(), &ctx.wide);
                }
            }
        }
    }

    #[test]
    fn crossing_classes_stay_sorted_and_distinct_past_the_inline_buffer() {
        let mut classes = CrossingClasses::new();
        // 0, 7, 14, … mod 40 visits every residue once, out of order;
        // the second lap repeats them all.
        let inserted: Vec<ClassId> = (0..80).map(|k| k * 7 % 40).collect();
        for (k, &c) in inserted.iter().enumerate() {
            classes.insert(c);
            let mut expected = inserted[..=k].to_vec();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(classes.as_slice(), expected);
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
        let base_plans = staged.node_counter().live();
        let mut stage = LevelStage::default();
        for &(a, b) in &pairs {
            staged.stage_pair(&mut stage, a, b);
        }

        assert_eq!(stage.jcrs.len(), 4);
        assert_eq!(
            seq.plans_costed,
            staged.plans_costed + stage.costing.plans_costed
        );
        assert_eq!(seq.memory.used_bytes(), staged.memory.used_bytes());
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
        assert_eq!(staged.node_counter().live(), base_plans);
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
        assert_eq!(sorted.children[0].cost.to_bits(), best.cost.to_bits());
        for (&(id, _), referred) in references.iter().zip(&before) {
            let plan = ctx.extract(triple, id);
            plan.check_invariants().unwrap();
            let input = plan.children.iter().find(|c| c.set == pair).unwrap();
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
        let live = ctx.node_counter().live();
        let retained = ctx.memo.get(set).unwrap().entries().len() as u64;

        assert!(ctx.offer_sort_enforcer(set));
        let group = ctx.memo.get(set).unwrap();
        let sort = group.best_for_order(target).unwrap();
        assert_eq!(sort.cost.to_bits(), evicted.cost.to_bits());
        let node = group.built(sort).expect("built, not a record").clone();
        assert!(matches!(node.op, PlanOp::Sort { .. }));
        assert_eq!(node.children[0].cost.to_bits(), evicted.cost.to_bits());
        assert_eq!(node.children[0].ordering, None);
        node.check_invariants().unwrap();
        assert!(group.entries().iter().all(|e| e.id() != evicted.id()));
        // Entries left the group; the evicted input lives on under the
        // sort, which is one node more.
        let gone = retained + 1 - group.entries().len() as u64;
        assert_eq!(ctx.node_counter().live(), live + 1 - (gone - 1));
        drop(node);
        let counter = ctx.node_counter();
        drop(ctx);
        assert_eq!(counter.live(), 0);
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
        let before = ctx.memory.used_bytes();
        ctx.prune_group(RelSet::single(2));
        assert!(ctx.memory.used_bytes() < before);
        assert_eq!(ctx.jcrs_pruned, 1);
        assert!(ctx.memo.get(RelSet::single(2)).is_none());
        // Pruning a missing group is a no-op.
        ctx.prune_group(RelSet::single(2));
        assert_eq!(ctx.jcrs_pruned, 1);
    }
}
