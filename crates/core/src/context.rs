//! Shared enumeration state: memo, counters, budget, cached
//! estimates — everything the DP/IDP/SDP enumerators thread through
//! their level loops.
//!
//! The join-costing core (`EnumContext::cost_pair`) takes `&self` and
//! stages candidate records into a caller-supplied `StagedJcr`, so it
//! can run either on the coordinating thread (into the level's
//! `LevelStage`, or — `EnumContext::join_pair` — straight into one
//! memo group) or on parallel level workers (into
//! private stages that the barrier merges back deterministically —
//! see `EnumContext::merge_shard` and the "Threading model" and
//! "Level stage" sections of DESIGN.md).

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sdp_cost::{CostModel, IndexProbe, JoinMethod, JoinSide, JoinTerms, ScanKind};
use sdp_query::{ClassId, EquivClasses, JoinGraph, Query, RelSet};

use crate::budget::{Budget, BudgetProbe, MemoryModel, OptError};
use crate::fx::FxHashMap;
use crate::memo::{Candidate, Group, Memo, StagedJcr};
use crate::plan::{Children, NodeCounter, PlanNode, PlanOp};
#[cfg(feature = "trace")]
use sdp_trace::{Event, Tracer};

/// Ceiling on estimated rows, guarding incremental multiplication
/// against `f64` overflow on extreme graphs.
const MAX_ROWS: f64 = 1e299;

/// Worker-side budget-probe cadence, in candidate pairs.
const PROBE_INTERVAL: usize = 256;

/// Resolve the default enumeration parallelism: the `SDP_THREADS`
/// environment variable when set to a positive integer, otherwise 1 —
/// the measured-faster setting (DESIGN.md "Threading model").
pub fn default_parallelism() -> usize {
    std::env::var("SDP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

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
    /// Whether the greedy completion safety-net had to finish the
    /// plan because pruning starved the final DP levels (never the
    /// case for exhaustive DP).
    pub completed_greedily: bool,
}

/// One row of the per-level enumeration profile, recorded at every
/// level barrier and carried on the returned plan for `ExplainAnalyze`
/// provenance. All counters are deterministic: bit-identical at any
/// enumeration parallelism (PR 1's shard-merge guarantee).
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

/// The JCRs of the level being enumerated, as [`StagedJcr`] records in
/// first-visit order, with the index that finds a pair's record. It
/// lives for one level: the barrier prunes it, builds the survivors
/// into memo groups and drops it, so a pruned JCR never owned a plan
/// node and the stage's tables never sit beside the finished memo.
///
/// With one thread the coordinating thread costs every pair straight
/// into the level's stage. Parallel workers each fill a private stage
/// from their (contiguous) chunk of the global pair sequence; merging
/// those in chunk order replays the exact first-visit order — and,
/// re-offering the retained candidates, the exact frontiers — of the
/// sequential run.
#[derive(Debug, Default)]
pub(crate) struct LevelStage {
    /// Union set → slot in `jcrs`.
    index: FxHashMap<RelSet, usize>,
    /// The level's JCRs in first-visit order.
    pub jcrs: Vec<StagedJcr>,
    /// Plans costed into this stage and not yet added to the run's
    /// counter.
    pub plans_costed: u64,
    /// When tracing: `Tracer::wall_micros` at each record's staging,
    /// for the `jcr` event the barrier emits on its behalf.
    #[cfg(feature = "trace")]
    staged_micros: Vec<u64>,
}

impl LevelStage {
    /// Candidates the stage holds a [`NodeCounter`] charge for.
    pub fn charged(&self) -> usize {
        self.jcrs.iter().map(|jcr| jcr.candidates().len()).sum()
    }
}

/// Everything the per-pair path needs that is a pure function of the
/// query, computed once per run in [`EnumContext::new`]: the
/// estimator's ln terms (so no `ln`, `sqrt` or catalog look-up is
/// repeated per pair), each edge's order class and index usability,
/// and per-node incident-edge bitmaps that make a pair's crossing
/// edges an AND of two ORs. Edges, nodes and filters keep the join
/// graph's indexing, so walking a table in ascending index adds the
/// same `f64` terms in the same order as the estimator's own scans.
#[derive(Debug)]
struct RunTables {
    /// `ln(edge_selectivity(e))`.
    edge_ln_sel: Vec<f64>,
    /// Order class of the edge's join columns.
    edge_class: Vec<ClassId>,
    /// The edge's two endpoints.
    edge_nodes: Vec<RelSet>,
    /// The endpoints whose side of the edge is their relation's
    /// indexed column (an index nested-loop can probe them).
    edge_indexed: Vec<RelSet>,
    /// `u64` words per incident-edge bitmap.
    edge_words: usize,
    /// `incident[n * edge_words ..][.. edge_words]`: bitmap, by edge
    /// index, of the edges touching node `n`.
    incident: Vec<u64>,
    /// `ln(max(cardinality, 1))` of the node's relation.
    node_ln_card: Vec<f64>,
    /// Probe costing of the index on the node's relation.
    node_index: Vec<IndexProbe>,
    /// `(node, ln(predicate_selectivity))` per local predicate.
    filter_ln_sel: Vec<(usize, f64)>,
    /// Nodes owning a member column of each order class.
    class_nodes: Vec<RelSet>,
}

impl RunTables {
    fn new(graph: &JoinGraph, model: &CostModel<'_>, classes: &EquivClasses) -> Self {
        let est = model.estimator();
        let catalog = model.catalog();
        let edges = graph.edges();
        let edge_words = edges.len().div_ceil(64);
        let mut incident = vec![0u64; graph.len() * edge_words];
        for (e, edge) in edges.iter().enumerate() {
            for node in [edge.left.node, edge.right.node] {
                incident[node * edge_words + e / 64] |= 1 << (e % 64);
            }
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
            edge_nodes: edges.iter().map(|e| e.node_set()).collect(),
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
            filter_ln_sel: graph
                .filters()
                .iter()
                .map(|f| (f.column.node, est.predicate_selectivity(graph, f).ln()))
                .collect(),
            class_nodes: classes
                .iter()
                .map(|(_, members)| members.iter().map(|m| m.node).collect())
                .collect(),
        }
    }

    /// Bitmap word `w` of the edges touching any node of `set`.
    #[inline]
    fn incident_word(&self, set: RelSet, w: usize) -> u64 {
        set.iter()
            .fold(0, |m, n| m | self.incident[n * self.edge_words + w])
    }
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

/// Mutable state of one optimization run.
pub struct EnumContext<'a> {
    query: &'a Query,
    model: &'a CostModel<'a>,
    classes: EquivClasses,
    tables: RunTables,
    order_target: Option<ClassId>,
    nodes: NodeCounter,
    parallelism: usize,
    /// The memo of JCR groups.
    pub memo: Memo,
    /// Memory model / budget tracking.
    pub memory: MemoryModel,
    /// Plans costed so far.
    pub plans_costed: u64,
    /// JCRs pruned so far.
    pub jcrs_pruned: u64,
    /// Sort-ahead enforcer plans retained so far.
    pub sort_enforcers: u64,
    /// Set by the greedy completion fallback.
    pub completed_greedily: bool,
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
    /// rewriter-inferred edges) with the given cost model and budget,
    /// and `parallelism` worker threads (clamped to at least 1). Reads
    /// no environment: callers wanting the `SDP_THREADS` default pass
    /// [`default_parallelism`].
    pub fn new(
        query: &'a Query,
        model: &'a CostModel<'a>,
        budget: Budget,
        parallelism: usize,
    ) -> Self {
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
            parallelism: parallelism.max(1),
            memo: Memo::new(),
            plans_costed: 0,
            jcrs_pruned: 0,
            sort_enforcers: 0,
            completed_greedily: false,
            contractions: 0,
            profile: Vec::new(),
            phase: "",
            #[cfg(feature = "trace")]
            tracer: Tracer::disabled(),
        }
    }

    /// A run with the environment's enumeration parallelism, for tests
    /// (the CI determinism matrix sets `SDP_THREADS` around the whole
    /// suite).
    #[cfg(test)]
    pub(crate) fn from_env(query: &'a Query, model: &'a CostModel<'a>, budget: Budget) -> Self {
        Self::new(query, model, budget, default_parallelism())
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

    /// Worker threads used by the level-wise enumerator (1 = fully
    /// sequential).
    pub fn parallelism(&self) -> usize {
        self.parallelism
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
            completed_greedily: self.completed_greedily,
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
        let est = self.model.estimator();
        let rows = est.rows_for_set(graph, set);
        let width = est.width_for_set(graph, set);
        let neighbors = graph.adjacent(node);
        let selectivity = est.selectivity_for_set(graph, set);
        let mut group = Group::new(set, rows, selectivity, width, neighbors);

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
        if self.memo.insert(group) {
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
    /// Returns `true` if the enforcer entry was retained. Runs only on
    /// the coordinating thread (base-group creation and level
    /// barriers), so parallelism cannot perturb the offer order.
    pub fn offer_sort_enforcer(&mut self, set: RelSet) -> bool {
        let Some(target) = self.order_target else {
            return false;
        };
        // The executor sorts by a column it can see: the order class
        // needs a member column on a relation inside the set.
        if !self.tables.class_nodes[target as usize].intersects(set) {
            return false;
        }
        let candidate = {
            let Some(group) = self.memo.get(set) else {
                return false;
            };
            let best = group.best().clone();
            if best.ordering == Some(target) {
                None // already ordered for free
            } else {
                let cost = best.cost + self.model.sort_cost(group.rows, group.width);
                let retain = group.would_retain(cost, Some(target));
                Some((best, group.rows, cost, retain))
            }
        };
        let Some((best, rows, cost, retain)) = candidate else {
            return false;
        };
        self.plans_costed += 1;
        if !retain {
            return false;
        }
        let node = PlanNode::new(
            &self.nodes,
            PlanOp::Sort { class: target },
            set,
            rows,
            cost,
            Some(target),
            Children::Unary([best]),
        );
        let inserted = self
            .memo
            .get_mut(set)
            .expect("group present")
            .add_plan(node);
        if inserted {
            self.sort_enforcers += 1;
        }
        inserted
    }

    /// Build the (empty) union group for `a ∪ b` with its canonical
    /// estimated properties. Rows and selectivity are computed over
    /// the whole set (not incrementally from this particular
    /// decomposition): the ≥ 1-row clamp would otherwise make the
    /// estimate depend on which pair reached the set first, and plans
    /// for the same JCR must agree on its cardinality. The sums walk
    /// the per-run tables in ascending node, edge and filter index —
    /// only the edges touching the set, of which the internal ones are
    /// a subset — from the `-0.0` `Iterator::sum` starts from: the
    /// terms and order of `Estimator::rows_for_set` and
    /// `selectivity_for_set`, so the results are theirs bit for bit.
    fn new_union_group(&self, a: &Group, b: &Group) -> Group {
        let union = a.set | b.set;
        let t = &self.tables;
        let est = self.model.estimator();
        let mut ln_base = -0.0;
        for n in union.iter() {
            ln_base += t.node_ln_card[n];
        }
        let mut ln_internal = -0.0;
        for w in 0..t.edge_words {
            let mut touching = t.incident_word(union, w);
            while touching != 0 {
                let e = w * 64 + touching.trailing_zeros() as usize;
                touching &= touching - 1;
                if union.is_superset(t.edge_nodes[e]) {
                    ln_internal += t.edge_ln_sel[e];
                }
            }
        }
        let mut ln_filter = -0.0;
        for &(node, ln) in &t.filter_ln_sel {
            if union.contains(node) {
                ln_filter += ln;
            }
        }
        Group::new(
            union,
            est.rows_from_ln(ln_base + ln_internal + ln_filter)
                .min(MAX_ROWS),
            est.selectivity_from_ln(ln_internal + ln_filter),
            a.width + b.width,
            (a.neighbors | b.neighbors) - union,
        )
    }

    /// Enumerate and cost all join alternatives combining the memo
    /// groups of `a` and `b` (both orientations, every plan pair,
    /// every applicable method), folding survivors into the group for
    /// `a ∪ b`. Creates that group on first use. The one-pair case of
    /// a level: stage, cost, materialize.
    ///
    /// Returns `true` if the union group was newly created.
    pub fn join_pair(&mut self, a: RelSet, b: RelSet) -> bool {
        debug_assert!(a.is_disjoint(b));
        let union = a | b;
        // Take the union group's plans out of the memo (the emptied
        // group stays in place, so the map structure — and hence its
        // iteration order — is untouched), cost into them with the
        // shared `&self` core, and put them back.
        let taken = self.memo.get_mut(union).map(Group::take);
        let created = taken.is_none();
        let (ga, gb) = self.inputs(a, b);
        let mut jcr = StagedJcr::new(taken.unwrap_or_else(|| self.new_union_group(ga, gb)));
        let mut costed = 0u64;
        self.cost_pair(ga, gb, &mut jcr, &mut costed);
        self.plans_costed += costed;
        let group = jcr.materialize(&self.memo, &self.nodes);
        if created {
            self.memo.insert(group);
            self.memory.add_groups(1);
        } else {
            *self.memo.get_mut(union).expect("emptied group present") = group;
        }
        created
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
    fn pair_facts(&self, a: RelSet, b: RelSet) -> PairFacts {
        let t = &self.tables;
        let mut ln_sel = 0.0;
        let mut classes = CrossingClasses::new();
        let mut indexed = RelSet::EMPTY;
        for w in 0..t.edge_words {
            // An edge touching both of two disjoint sets crosses them.
            let mut crossing = t.incident_word(a, w) & t.incident_word(b, w);
            while crossing != 0 {
                let e = w * 64 + crossing.trailing_zeros() as usize;
                crossing &= crossing - 1;
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
            a_index: index_of(a),
            b_index: index_of(b),
        }
    }

    /// The costing core shared by the sequential and parallel paths:
    /// cost every join alternative for `a ⋈ b` and offer the survivors
    /// to `jcr` (which covers `a ∪ b`). Everything a method's cost
    /// owes to the two JCRs rather than to the plans chosen from them
    /// is computed here, once per pair and orientation.
    fn cost_pair(&self, a: &Group, b: &Group, jcr: &mut StagedJcr, plans_costed: &mut u64) {
        debug_assert!(a.set.is_disjoint(b.set));
        let facts = self.pair_facts(a.set, b.set);
        let classes = facts.classes.as_slice();
        let params = self.model.params();
        let out_rows = jcr.group().rows;
        let side_a = JoinSide::new(a.rows, a.width, params);
        let side_b = JoinSide::new(b.rows, b.width, params);
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
        let staged_before = jcr.candidates().len();
        let a_b = terms(&side_a, &side_b, facts.b_index);
        self.cost_orientation(a, b, &a_b, classes, jcr, plans_costed);
        let b_a = terms(&side_b, &side_a, facts.a_index);
        self.cost_orientation(b, a, &b_a, classes, jcr, plans_costed);
        // +1 per candidate retained, −1 per candidate evicted: between
        // pairs the live-node count is the eager optimizer's.
        let staged = jcr.candidates().len();
        if staged >= staged_before {
            self.nodes.charge(staged - staged_before);
        } else {
            self.nodes.release(staged_before - staged);
        }
    }

    /// Cost all methods for a fixed (outer, inner) orientation,
    /// offering candidates to `jcr` as they are produced (so the
    /// dominance early-skip sees every plan retained so far), in the
    /// order of `sdp_cost::join_candidates`: per plan pair a nested
    /// loop, an index nested loop (which does not depend on the inner
    /// plan choice: costed once, against the first inner entry), a
    /// hash join, then one merge join per crossing class.
    fn cost_orientation(
        &self,
        outer_group: &Group,
        inner_group: &Group,
        terms: &JoinTerms,
        classes: &[ClassId],
        jcr: &mut StagedJcr,
        plans_costed: &mut u64,
    ) {
        let union = jcr.group().set;
        let (outers, inners) = (outer_group.entries(), inner_group.entries());
        let per_plan_pair = 2 + classes.len() as u64;
        let per_outer = inners.len() as u64 * per_plan_pair + u64::from(terms.probes_index());
        *plans_costed += outers.len() as u64 * per_outer;

        for (oi, outer) in outers.iter().enumerate() {
            // Nested-loop variants preserve the outer order.
            let carried = self.useful_ordering(outer.ordering, union);
            for (ii, inner) in inners.iter().enumerate() {
                let mut offer = |method, cost, ordering| {
                    if jcr.would_retain(cost, ordering) {
                        let entry = |i| u16::try_from(i).expect("one plan per order class");
                        jcr.retain(Candidate {
                            cost,
                            outer: outer_group.set,
                            ordering,
                            outer_entry: entry(oi),
                            inner_entry: entry(ii),
                            method,
                        });
                    }
                };
                offer(
                    JoinMethod::NestedLoop,
                    terms.nested_loop(outer.cost, inner.cost),
                    carried,
                );
                if ii == 0 {
                    if let Some(cost) = terms.index_nested_loop(outer.cost) {
                        offer(JoinMethod::IndexNestedLoop, cost, carried);
                    }
                }
                offer(JoinMethod::Hash, terms.hash(outer.cost, inner.cost), None);
                for &class in classes {
                    let cost = terms.merge(
                        outer.cost,
                        inner.cost,
                        outer.ordering == Some(class),
                        inner.ordering == Some(class),
                    );
                    offer(
                        JoinMethod::Merge,
                        cost,
                        self.useful_ordering(Some(class), union),
                    );
                }
            }
        }
    }

    /// Cost `a ⋈ b` into the stage's record for `a ∪ b`, staging the
    /// record on first visit; returns its slot then.
    pub(crate) fn stage_pair(&self, stage: &mut LevelStage, a: RelSet, b: RelSet) -> Option<usize> {
        let (ga, gb) = self.inputs(a, b);
        let (slot, staged_now) = match stage.index.entry(a | b) {
            Entry::Occupied(entry) => (*entry.get(), None),
            Entry::Vacant(entry) => {
                let slot = *entry.insert(stage.jcrs.len());
                stage
                    .jcrs
                    .push(StagedJcr::new(self.new_union_group(ga, gb)));
                #[cfg(feature = "trace")]
                if self.tracer.enabled() {
                    stage.staged_micros.push(self.tracer.wall_micros());
                }
                (slot, Some(slot))
            }
        };
        self.cost_pair(ga, gb, &mut stage.jcrs[slot], &mut stage.plans_costed);
        staged_now
    }

    /// Coordinating-thread bookkeeping for a record entering the
    /// level's stage: a JCR the memo already holds only collects the
    /// level's offers; a new one is a live group from now on.
    pub(crate) fn admit(&mut self, jcr: &mut StagedJcr) {
        jcr.in_memo = self.memo.get(jcr.group().set).is_some();
        if !jcr.in_memo {
            self.memory.add_groups(1);
        }
    }

    /// Run one parallel level worker over a contiguous chunk of the
    /// level's candidate pairs, accumulating results in a private
    /// stage. Periodically probes the budget and the shared abort
    /// flag; on violation, reports the error, raises the flag and
    /// stops early (the barrier discards partial results on error).
    pub(crate) fn level_worker(
        &self,
        pairs: &[(RelSet, RelSet)],
        probe: &BudgetProbe,
        abort: &AtomicBool,
    ) -> (LevelStage, Option<OptError>) {
        let mut shard = LevelStage::default();
        for (k, &(a, b)) in pairs.iter().enumerate() {
            if k % PROBE_INTERVAL == 0 {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(e) = probe.over_budget() {
                    abort.store(true, Ordering::Relaxed);
                    return (shard, Some(e));
                }
            }
            self.stage_pair(&mut shard, a, b);
        }
        (shard, None)
    }

    /// Fold one worker's shard into the level's stage. Shards must be
    /// merged in chunk order (the chunks partition the sequential pair
    /// order contiguously), which makes the result bit-identical to
    /// the sequential run: records enter in first-visit order, and
    /// re-offering each shard's retained candidates in offer order
    /// reconstructs the same Pareto frontier — dominance is
    /// transitive, so dropping shard-locally dominated offers never
    /// changes the final retained set.
    pub(crate) fn merge_shard(&mut self, stage: &mut LevelStage, shard: LevelStage) {
        stage.plans_costed += shard.plans_costed;
        #[cfg(feature = "trace")]
        let mut staged_micros = shard.staged_micros.into_iter();
        for mut jcr in shard.jcrs {
            #[cfg(feature = "trace")]
            let micros = staged_micros.next();
            match stage.index.entry(jcr.group().set) {
                Entry::Occupied(entry) => {
                    self.reoffer(&mut stage.jcrs[*entry.get()], jcr.take_candidates());
                }
                Entry::Vacant(entry) => {
                    // First shard (in chunk order) to visit this set:
                    // its candidates already form a Pareto frontier in
                    // offer order, exactly what offering them one by
                    // one to an empty record would retain. The
                    // staging time is that first visit's, too.
                    entry.insert(stage.jcrs.len());
                    self.admit(&mut jcr);
                    stage.jcrs.push(jcr);
                    #[cfg(feature = "trace")]
                    stage.staged_micros.extend(micros);
                }
            }
        }
    }

    /// End a level's enumeration, before its first barrier check: fold
    /// the offers collected for groups the memo already holds into
    /// those groups, and emit the `jcr` event of every JCR the level
    /// created — only now, so that a mid-level budget trip leaves no
    /// trace of the rolled-back level at any thread count.
    pub(crate) fn settle_stage(&mut self, stage: &mut LevelStage) {
        // Nothing looks a pair's record up any more.
        stage.index = FxHashMap::default();
        for (slot, jcr) in stage.jcrs.iter_mut().enumerate() {
            let set = jcr.group().set;
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
            // Re-offered against the group's built plans, like a
            // shard's against an earlier shard's.
            let offers = jcr.take_candidates();
            let mut refined = StagedJcr::new(self.memo.get_mut(set).expect("in the memo").take());
            self.reoffer(&mut refined, offers);
            let group = refined.materialize(&self.memo, &self.nodes);
            *self.memo.get_mut(set).expect("emptied group present") = group;
        }
    }

    /// Offer candidates retained (and charged for) elsewhere to
    /// `target`, in order, and release what it does not keep.
    fn reoffer(&self, target: &mut StagedJcr, offers: Vec<Candidate>) {
        let charged = target.candidates().len() + offers.len();
        for candidate in offers {
            target.offer(candidate);
        }
        self.nodes.release(charged - target.candidates().len());
    }

    /// Account for a JCR its level created being dropped while still
    /// staged — pruned, or rolled back with the level: the counters
    /// move as if it had been a memo group (see
    /// [`EnumContext::prune_group`]).
    pub(crate) fn drop_staged(&mut self, jcr: &StagedJcr) {
        debug_assert!(!jcr.in_memo);
        self.nodes.release(jcr.candidates().len());
        self.memo.count_dropped_while_staged();
        self.memory.remove_groups(1);
        self.jcrs_pruned += 1;
    }

    /// Account for everything the level's stage still holds being
    /// dropped with it: the level did not complete.
    pub(crate) fn roll_back_stage(&mut self, stage: &LevelStage) {
        for jcr in &stage.jcrs {
            if jcr.in_memo {
                self.nodes.release(jcr.candidates().len());
            } else {
                self.drop_staged(jcr);
            }
        }
    }

    /// Build a JCR that survived its level into a memo group.
    pub(crate) fn materialize_staged(&mut self, jcr: StagedJcr) {
        debug_assert!(!jcr.in_memo);
        let group = jcr.materialize(&self.memo, &self.nodes);
        let inserted = self.memo.insert(group);
        debug_assert!(inserted, "a staged JCR is new to the memo");
    }

    /// Best complete plan for `full`, enforcing the `ORDER BY` with an
    /// explicit sort when no suitably-ordered plan is cheaper.
    pub fn finalize(&mut self, full: RelSet) -> Result<Arc<PlanNode>, OptError> {
        let group = self.memo.get(full).ok_or(OptError::DisconnectedJoinGraph)?;
        let best = group.best().clone();
        let Some(target) = self.order_target else {
            return Ok(best);
        };
        let sorted_alternative = group.best_for_order(target).cloned();
        let sort_cost = best.cost + self.model.sort_cost(group.rows, group.width);
        self.plans_costed += 1;
        match sorted_alternative {
            Some(p) if p.cost <= sort_cost => Ok(p),
            _ => {
                let rows = group.rows;
                Ok(PlanNode::new(
                    &self.nodes,
                    PlanOp::Sort { class: target },
                    full,
                    rows,
                    sort_cost,
                    Some(target),
                    Children::Unary([best]),
                ))
            }
        }
    }

    /// Drop the group for `set` from the memo (pruning), updating the
    /// memory model and prune counter.
    pub fn prune_group(&mut self, set: RelSet) {
        if self.memo.remove(set).is_some() {
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

    fn ctx_fixture<'a>(query: &'a Query, model: &'a CostModel<'a>) -> EnumContext<'a> {
        EnumContext::from_env(query, model, Budget::unlimited())
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

    #[test]
    fn tables_reproduce_the_estimator_bit_for_bit() {
        // The per-run tables and the fused crossing-edge pass against
        // the scans they replaced, over every pair of an exhaustive
        // run: same rows, selectivities, merge classes and index
        // applicability — rewriter-inferred edges, shared join columns
        // and local predicates included.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let est = model.estimator();
        for (topo, seed) in [
            (Topology::Chain(6), 3),
            (Topology::Star(7), 5),
            (Topology::Clique(6), 2),
            (Topology::star_chain(9), 4),
        ] {
            let mut q = QueryGenerator::new(&cat, topo, seed)
                .with_filter_probability(0.5)
                .instance(0);
            sdp_query::infer_transitive_edges(&mut q.graph);
            let graph = &q.graph;
            let mut ctx = EnumContext::new(&q, &model, Budget::unlimited(), 1);
            let n = graph.len();
            let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
            for i in 0..n {
                ctx.ensure_base_group(i);
            }
            let table = crate::dp::run_levels(&mut ctx, &atoms, n, None).unwrap();
            let mut scan = crate::enumerate::LevelScan::new(n);
            for s in 2..=n {
                for (a, b) in scan.level_pairs(&table, s) {
                    let group = ctx.memo.get(a | b).unwrap();
                    assert_eq!(
                        group.rows.to_bits(),
                        est.rows_for_set(graph, a | b).min(MAX_ROWS).to_bits()
                    );
                    assert_eq!(
                        group.selectivity.to_bits(),
                        est.selectivity_for_set(graph, a | b).to_bits()
                    );
                    assert_eq!(group.neighbors, graph.neighbors(a | b));

                    let facts = ctx.pair_facts(a, b);
                    assert_eq!(
                        facts.crossing_sel.to_bits(),
                        est.crossing_selectivity(graph, a, b).to_bits()
                    );
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
                                let rel = cat.relation(graph.relation(c.node)).unwrap();
                                rel.has_index_on(c.col)
                            });
                        assert_eq!(index.is_some(), usable, "{topo} {outer:?} ⋈ {inner:?}");
                    }
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
        for e in ctx
            .memo
            .get(RelSet::from_indices([0, 1]))
            .unwrap()
            .entries()
        {
            e.check_invariants().unwrap();
        }
    }

    #[test]
    fn level_worker_matches_sequential_join_pair() {
        // The same pairs costed through a worker's stage must retain
        // exactly the plans the one-pair path builds — and charge the
        // node counter for exactly as many.
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

        let mut par = ctx_fixture(&q, &model);
        for i in 0..5 {
            par.ensure_base_group(i);
        }
        let base_plans = par.node_counter().live();
        let probe = par.memory.probe();
        let abort = AtomicBool::new(false);
        let (shard, error) = par.level_worker(&pairs, &probe, &abort);
        assert!(error.is_none());
        let mut stage = LevelStage::default();
        par.merge_shard(&mut stage, shard);

        assert_eq!(stage.jcrs.len(), 4);
        assert_eq!(seq.plans_costed, par.plans_costed + stage.plans_costed);
        assert_eq!(seq.memory.used_bytes(), par.memory.used_bytes());
        for jcr in &stage.jcrs {
            let built: Vec<_> = (seq.memo.get(jcr.group().set).unwrap().entries().iter())
                .map(|e| (e.cost.to_bits(), e.ordering))
                .collect();
            let staged: Vec<_> = (jcr.candidates().iter())
                .map(|c| (c.cost.to_bits(), c.ordering))
                .collect();
            assert_eq!(built, staged);
        }
        par.roll_back_stage(&stage);
        assert_eq!(par.node_counter().live(), base_plans);
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
