//! Enumeration strategies: candidate-pair generation behind a trait.
//!
//! The level-wise DP substrate ([`crate::dp::run_levels`]) is agnostic
//! about *how* a level's candidate (csg, cmp) pairs are discovered; it
//! only requires a deterministic pair stream whose multiset equals the
//! joinable pairs of the level. This module supplies three strategies:
//!
//! * [`LevelScan`] — the original survivor-level scan: every left
//!   entry against the right level, through a per-level inverted
//!   index (relation → bitmap of entries containing it) that yields
//!   the joinable, non-overlapping partners directly instead of
//!   testing each combination.
//! * [`Dpccp`] — graph-aware csg–cmp pair generation in the style of
//!   Moerkotte & Neumann's DPccp: for each surviving connected
//!   subgraph of the smaller split size, connected complements of the
//!   matching size are grown from neighbourhood seeds with
//!   forbidden-set recursion, so only joinable pairs are ever visited.
//!   An atom-graph adapter contracts IDP's compound atoms to vertices,
//!   letting every strategy share the same enumeration core.
//! * [`DpConv`] — a prototype inspired by DPconv (arXiv:2409.08013):
//!   a layered min-plus pass over the connected-subset lattice under a
//!   scalar `C_out` surrogate (sum of intermediate cardinalities)
//!   picks one decomposition tree, and only that tree's pairs are
//!   emitted for full costing. Super-polynomially less costing work on
//!   chains/cycles; the plan is optimal for the surrogate, not
//!   necessarily for the full cost model — a rung for effort-capped
//!   settings, not a DP replacement.
//!
//! # Canonical pair order and determinism obligations
//!
//! Each strategy emits a level's pairs in a fixed canonical order:
//! splits `i + (s − i)` for `i = 1 ..= s/2`, then survivor order of
//! the smaller side, then (for `Dpccp`) ascending neighbourhood seeds
//! with ascending-submask growth. The parallel chunk-shard/barrier
//! pipeline, memo rollback and trace staging consume the stream
//! unchanged, so a strategy's plans, counters and merged traces are
//! bit-identical at any `SDP_THREADS` *provided* its pair order is a
//! pure function of the survivor table. New enumerators must preserve
//! exactly that: no iteration over hash maps, no randomness, no
//! wall-clock dependence.
//!
//! `LevelScan` and `Dpccp` emit the same pair *multiset* (orientation
//! aside), which — because a group's retained cost frontier is
//! insertion-order-insensitive — makes their chosen plans bit-identical
//! on exhaustive rungs. `DpConv` deliberately emits a subset.

use sdp_query::{JoinGraph, RelSet};

use crate::context::EnumContext;
use crate::dp::LevelTable;
use crate::fx::FxHashMap;

/// Which pair-enumeration strategy the level-wise engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnumeratorKind {
    /// Survivor-level scan (the historical behaviour), through a
    /// per-level inverted index.
    #[default]
    LevelScan,
    /// Graph-aware csg–cmp generation (DPccp-style). Do not make it
    /// the default: it grows complements without looking at the
    /// survivors, so where SDP has pruned most of a level nearly all
    /// it grows is discarded — Star-Chain-23 under SDP takes two orders
    /// of magnitude longer than under `LevelScan` (EXPERIMENTS.md,
    /// "Enumeration Strategies").
    Dpccp,
    /// Min-plus surrogate lattice pass emitting one decomposition tree
    /// (DPconv-inspired prototype).
    DpConv,
}

impl EnumeratorKind {
    /// Resolve the default strategy: the `SDP_ENUMERATOR` environment
    /// variable when set to a recognized name (`levelscan`, `dpccp`,
    /// `dpconv`; case-insensitive), otherwise [`EnumeratorKind::LevelScan`].
    pub fn from_env() -> Self {
        std::env::var("SDP_ENUMERATOR")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Parse a strategy name as accepted by `SDP_ENUMERATOR`.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "levelscan" => Some(EnumeratorKind::LevelScan),
            "dpccp" => Some(EnumeratorKind::Dpccp),
            "dpconv" => Some(EnumeratorKind::DpConv),
            _ => None,
        }
    }

    /// Display label, also stamped on level profile rows and spans.
    pub fn label(self) -> &'static str {
        match self {
            EnumeratorKind::LevelScan => "levelscan",
            EnumeratorKind::Dpccp => "dpccp",
            EnumeratorKind::DpConv => "dpconv",
        }
    }

    /// Stable numeric tag for the persisted plan-store format. Never
    /// renumber; append for new strategies.
    pub fn stable_tag(self) -> u8 {
        match self {
            EnumeratorKind::LevelScan => 1,
            EnumeratorKind::Dpccp => 2,
            EnumeratorKind::DpConv => 3,
        }
    }

    /// Inverse of [`EnumeratorKind::stable_tag`]; `None` for unknown
    /// tags.
    pub fn from_stable_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(EnumeratorKind::LevelScan),
            2 => Some(EnumeratorKind::Dpccp),
            3 => Some(EnumeratorKind::DpConv),
            _ => None,
        }
    }

    /// Construct a fresh enumerator instance of this kind. Instances
    /// are per-`run_levels` (IDP builds one per iteration, over the
    /// iteration's atom list).
    pub fn build(self) -> Box<dyn PairEnumerator> {
        match self {
            EnumeratorKind::LevelScan => Box::new(LevelScan::default()),
            EnumeratorKind::Dpccp => Box::new(Dpccp::default()),
            EnumeratorKind::DpConv => Box::new(DpConv::default()),
        }
    }
}

/// Candidate-pair generation strategy for one `run_levels` invocation.
///
/// Contract: [`PairEnumerator::level_pairs`] must return, for level
/// `s`, pairs `(a, b)` of disjoint survivor sets from `table` with
/// `|a| + |b| = s` atoms that are joinable (graph-connected), each
/// unordered pair exactly once, in an order that is a pure function of
/// the table (the determinism obligation above). Both sides must be
/// live in the memo — the engine joins the pairs as given.
pub trait PairEnumerator {
    /// Strategy name (the `SDP_ENUMERATOR` value that selects it).
    fn name(&self) -> &'static str;

    /// Called once per `run_levels` invocation, before level 2, with
    /// the atom list (singletons for DP/SDP, compounds for IDP) and
    /// the top level that will be built.
    fn prepare(&mut self, ctx: &EnumContext<'_>, atoms: &[RelSet], up_to: usize);

    /// The level's joinable candidate pairs in canonical order.
    /// `table` holds the survivors of all levels below `level`.
    fn level_pairs(
        &mut self,
        ctx: &EnumContext<'_>,
        table: &LevelTable,
        level: usize,
    ) -> Vec<(RelSet, RelSet)>;
}

/// Inverted index over one survivor level: which entries contain
/// which base relation.
#[derive(Debug)]
struct LevelIndex {
    /// Entries in the indexed level.
    len: usize,
    /// Base relations indexed (the join graph's size).
    relations: usize,
    /// `by_rel[w * relations + r]`: word `w` of the bitmap, by entry
    /// position, of the level's entries containing relation `r`.
    by_rel: Vec<u64>,
    /// Union of the level's sets: a left entry whose neighbourhood
    /// misses it can pair with nothing here.
    frontier: RelSet,
}

impl LevelIndex {
    fn new(level: &[(RelSet, RelSet)], relations: usize) -> Self {
        let mut by_rel = vec![0u64; level.len().div_ceil(64) * relations];
        let mut frontier = RelSet::EMPTY;
        for (k, &(set, _)) in level.iter().enumerate() {
            frontier = frontier | set;
            for r in set.iter() {
                by_rel[k / 64 * relations + r] |= 1 << (k % 64);
            }
        }
        LevelIndex {
            len: level.len(),
            relations,
            by_rel,
            frontier,
        }
    }

    /// Word `w` of the bitmap of entries intersecting `set`.
    #[inline]
    fn intersecting(&self, set: RelSet, w: usize) -> u64 {
        let row = &self.by_rel[w * self.relations..][..self.relations];
        set.iter().fold(0, |m, r| m | row[r])
    }
}

/// The historical strategy and the default: combine every (left,
/// right) survivor-level pair that is disjoint and joinable. Instead
/// of testing each combination, a per-level inverted index
/// (`LevelIndex`, built once per survivor level and kept for the
/// run) yields a left entry's partners directly — the entries touching
/// its neighbourhood, minus those overlapping it — in ascending
/// position, which is exactly the order the left × right double loop
/// emitted them in.
#[derive(Debug, Default)]
pub struct LevelScan {
    /// `index[k]` indexes `table.levels[k]` once a split has needed it
    /// as its right side. A level never changes after `run_levels`
    /// pushes it, so entries stay valid until the next `prepare`.
    index: Vec<Option<LevelIndex>>,
}

impl PairEnumerator for LevelScan {
    fn name(&self) -> &'static str {
        EnumeratorKind::LevelScan.label()
    }

    fn prepare(&mut self, _ctx: &EnumContext<'_>, _atoms: &[RelSet], _up_to: usize) {
        self.index.clear();
    }

    fn level_pairs(
        &mut self,
        ctx: &EnumContext<'_>,
        table: &LevelTable,
        s: usize,
    ) -> Vec<(RelSet, RelSet)> {
        let mut pairs = Vec::new();
        if self.index.len() < table.levels.len() {
            self.index.resize_with(table.levels.len(), || None);
        }
        for i in 1..=s / 2 {
            let j = s - i;
            let (left_level, right_level) = (&table.levels[i - 1], &table.levels[j - 1]);
            let right = self.index[j - 1]
                .get_or_insert_with(|| LevelIndex::new(right_level, ctx.graph().len()));
            debug_assert_eq!(right.len, right_level.len(), "level changed after indexing");
            for (li, &(a, a_nb)) in left_level.iter().enumerate() {
                if !a_nb.intersects(right.frontier) {
                    continue;
                }
                // Equal-size splits take each unordered pair once:
                // only partners after the left entry's own position.
                let first = if i == j { li + 1 } else { 0 };
                for w in first / 64..right.len.div_ceil(64) {
                    // Joinable (touches the neighbourhood) and not
                    // overlapping — cartesian products never appear.
                    let mut partners = right.intersecting(a_nb, w) & !right.intersecting(a, w);
                    if w == first / 64 {
                        partners &= !0u64 << (first % 64);
                    }
                    while partners != 0 {
                        let ri = w * 64 + partners.trailing_zeros() as usize;
                        partners &= partners - 1;
                        pairs.push((a, right_level[ri].0));
                    }
                }
            }
        }
        pairs
    }
}

/// Graph-aware csg–cmp pair generation.
///
/// The join graph is contracted to an *atom graph*: vertex `v` stands
/// for `atoms[v]`, and vertices are adjacent when their atoms are
/// joinable. For each split `i + (s − i)` with `i ≤ s − i`, each
/// surviving level-`i` set `A` (a connected vertex set) seeds
/// complement growth: for every neighbour `v` of `A` in ascending
/// order, connected sets of size `s − i` containing `v` are grown by
/// forbidden-set recursion with `A` and all smaller seeds forbidden —
/// the classic `EnumerateCsgRec` discipline, which visits every
/// connected complement exactly once. Grown complements are filtered
/// against the live survivors of level `s − i` (pruning can have
/// removed them), and equal-size pairs are deduplicated by requiring
/// the smaller minimum vertex on the left.
#[derive(Debug, Default)]
pub struct Dpccp {
    /// Vertex → the atom's base-relation set.
    atoms: Vec<RelSet>,
    /// Base relation index → vertex (dense; `usize::MAX` = uncovered).
    vertex_of: Vec<usize>,
    /// Vertex-space adjacency sets.
    adj: Vec<RelSet>,
    /// Whether atoms are exactly the singletons `{0} .. {m-1}` — then
    /// vertex space and base space coincide and translation is free.
    identity: bool,
}

impl Dpccp {
    /// The atom graph of `graph` contracted over `atoms`.
    pub(crate) fn over(graph: &JoinGraph, atoms: &[RelSet]) -> Self {
        let identity = atoms
            .iter()
            .enumerate()
            .all(|(v, &a)| a == RelSet::single(v));
        let mut vertex_of = vec![usize::MAX; graph.len()];
        for (v, &a) in atoms.iter().enumerate() {
            for r in a.iter() {
                vertex_of[r] = v;
            }
        }
        let adj = atoms
            .iter()
            .map(|&a| {
                let nb = graph.neighbors(a);
                nb.iter()
                    .map(|r| vertex_of[r])
                    .filter(|&v| v != usize::MAX)
                    .collect()
            })
            .collect();
        Dpccp {
            atoms: atoms.to_vec(),
            vertex_of,
            adj,
            identity,
        }
    }

    /// Vertex set of a survivor's base-relation set.
    #[inline]
    fn to_vertex(&self, base: RelSet) -> RelSet {
        if self.identity {
            return base;
        }
        base.iter()
            .map(|r| self.vertex_of[r])
            .filter(|&v| v != usize::MAX)
            .collect()
    }

    /// Base-relation set of a vertex set.
    #[inline]
    fn to_base(&self, vset: RelSet) -> RelSet {
        if self.identity {
            return vset;
        }
        vset.iter()
            .fold(RelSet::EMPTY, |acc, v| acc | self.atoms[v])
    }

    /// External neighbourhood of a vertex set in the atom graph.
    #[inline]
    fn vneighbors(&self, vset: RelSet) -> RelSet {
        vset.iter().fold(RelSet::EMPTY, |acc, v| acc | self.adj[v]) - vset
    }

    /// Grow connected supersets of `sub` (avoiding `forbidden`) to
    /// exactly `want` vertices, appending each to `out` exactly once.
    /// Expansion iterates non-empty submasks of the reachable
    /// neighbourhood in ascending numeric order; recursion forbids the
    /// whole neighbourhood, the uniqueness argument of
    /// `EnumerateCsgRec`.
    fn grow(&self, sub: RelSet, forbidden: RelSet, want: usize, out: &mut Vec<RelSet>) {
        let frontier = self.vneighbors(sub) - forbidden;
        if frontier.is_empty() {
            return;
        }
        let remaining = want - sub.len();
        let nmask = frontier.0;
        let mut ext: u64 = 0;
        loop {
            ext = ext.wrapping_sub(nmask) & nmask;
            if ext == 0 {
                break;
            }
            let cnt = ext.count_ones() as usize;
            if cnt > remaining {
                continue;
            }
            let grown = sub | RelSet(ext);
            if cnt == remaining {
                out.push(grown);
            } else {
                self.grow(grown, forbidden | frontier, want, out);
            }
        }
    }

    /// Like [`Dpccp::grow`], but visiting every connected superset of
    /// `sub` up to `cap` vertices (all sizes, each exactly once, each
    /// followed by its own supersets) — one walk serves every split
    /// size, and the feasibility oracle's count. `reach` is the union
    /// of `sub`'s adjacency sets, carried along so that growing a set
    /// costs one lookup per vertex added, not one per vertex held.
    /// Returns `false` as soon as `visit` does: the walk stops there.
    fn grow_all(
        &self,
        sub: RelSet,
        reach: RelSet,
        forbidden: RelSet,
        cap: usize,
        visit: &mut impl FnMut(RelSet) -> bool,
    ) -> bool {
        let frontier = reach - sub - forbidden;
        if frontier.is_empty() || sub.len() >= cap {
            return true;
        }
        self.extend(
            sub,
            false,
            reach,
            frontier.0,
            forbidden | frontier,
            cap,
            visit,
        )
    }

    /// The expansion step of [`Dpccp::grow_all`]: `sub` holds the
    /// frontier vertices chosen so far (`grown`: at least one) and
    /// `reach` its adjacency; visit it extended by every subset of
    /// `undecided` that fits under `cap`, in ascending numeric order of
    /// the extension — without the highest undecided bit first, then
    /// with it. Only extensions that fit are generated: a star's hub
    /// has a frontier of `n − 1` spokes, and filtering its `2^(n−1)`
    /// submasks by popcount is what a size-capped walk must not do.
    #[allow(clippy::too_many_arguments)]
    fn extend(
        &self,
        sub: RelSet,
        grown: bool,
        reach: RelSet,
        undecided: u64,
        forbidden: RelSet,
        cap: usize,
        visit: &mut impl FnMut(RelSet) -> bool,
    ) -> bool {
        if undecided == 0 || sub.len() == cap {
            // The empty extension is the set this step started from.
            return !grown || visit(sub) && self.grow_all(sub, reach, forbidden, cap, visit);
        }
        let top = 63 - undecided.leading_zeros() as usize;
        let rest = undecided & !(1 << top);
        self.extend(sub, grown, reach, rest, forbidden, cap, visit)
            && self.extend(
                sub.insert(top),
                true,
                reach | self.adj[top],
                rest,
                forbidden,
                cap,
                visit,
            )
    }

    /// Visit every connected vertex set of at most `cap` vertices
    /// exactly once (`EnumerateCsg`: seeds in descending order, each
    /// grown with itself and every smaller vertex forbidden), until
    /// `visit` returns `false`. Reads the graph alone — no survivors,
    /// no costs.
    pub(crate) fn each_csg(&self, cap: usize, visit: &mut impl FnMut(RelSet) -> bool) {
        debug_assert!(cap >= 1);
        for (v, &reach) in self.adj.iter().enumerate().rev() {
            let seed = RelSet::single(v);
            let smaller = RelSet::first_n(v + 1);
            if !(visit(seed) && self.grow_all(seed, reach, smaller, cap, visit)) {
                return;
            }
        }
    }

    /// All connected complements of `a` up to `cap` vertices, every
    /// size at once, in one canonical walk. `DpConv`'s surrogate pass
    /// caches the result per `a` so no growth tree is walked twice.
    fn complements_all(&self, a: RelSet, cap: usize, out: &mut Vec<RelSet>) {
        let nb = self.vneighbors(a);
        let mut seen_seeds = RelSet::EMPTY;
        for v in nb.iter() {
            let seed = RelSet::single(v);
            let forbidden = a | seen_seeds | seed;
            seen_seeds = seen_seeds | seed;
            out.push(seed);
            self.grow_all(seed, self.adj[v], forbidden, cap, &mut |grown| {
                out.push(grown);
                true
            });
        }
    }

    /// All connected complements of `a` with exactly `want` vertices,
    /// in canonical (seed-ascending) order. Used by both the pair
    /// stream and `DpConv`'s surrogate pass.
    fn complements(&self, a: RelSet, want: usize, out: &mut Vec<RelSet>) {
        let nb = self.vneighbors(a);
        let mut seen_seeds = RelSet::EMPTY;
        for v in nb.iter() {
            let seed = RelSet::single(v);
            // Forbid `a`, the seed itself and every smaller seed: a
            // complement is grown only from its smallest neighbour of
            // `a`, so each one appears exactly once.
            let forbidden = a | seen_seeds | seed;
            seen_seeds = seen_seeds | seed;
            if want == 1 {
                out.push(seed);
            } else {
                self.grow(seed, forbidden, want, out);
            }
        }
    }
}

impl PairEnumerator for Dpccp {
    fn name(&self) -> &'static str {
        EnumeratorKind::Dpccp.label()
    }

    fn prepare(&mut self, ctx: &EnumContext<'_>, atoms: &[RelSet], _up_to: usize) {
        *self = Dpccp::over(ctx.graph(), atoms);
    }

    fn level_pairs(
        &mut self,
        _ctx: &EnumContext<'_>,
        table: &LevelTable,
        s: usize,
    ) -> Vec<(RelSet, RelSet)> {
        let mut pairs = Vec::new();
        let mut grown: Vec<RelSet> = Vec::new();
        for i in 1..=s / 2 {
            let j = s - i;
            let (left_level, right_level) = (&table.levels[i - 1], &table.levels[j - 1]);
            if left_level.is_empty() || right_level.is_empty() {
                continue;
            }
            // Pruning (or a governed descent) can leave holes in the
            // lattice: only complements that actually survived level
            // `j` may be joined.
            let live: FxHashMap<RelSet, RelSet> = right_level
                .iter()
                .map(|&(b, _)| (self.to_vertex(b), b))
                .collect();
            for &(a_base, _) in left_level.iter() {
                let a = self.to_vertex(a_base);
                grown.clear();
                self.complements(a, j, &mut grown);
                for &b in &grown {
                    if i == j && a.min_index() > b.min_index() {
                        continue; // unordered pair once
                    }
                    if let Some(&b_base) = live.get(&b) {
                        pairs.push((a_base, b_base));
                    }
                }
            }
        }
        pairs
    }
}

/// One lattice node of `DpConv`'s surrogate pass.
#[derive(Debug, Clone, Copy)]
struct ConvEntry {
    /// Natural log of the set's estimated output rows, before the
    /// estimator's final clamp — the additive form rows derive from.
    ln_rows: f64,
    /// Estimated output rows of the vertex set.
    rows: f64,
    /// Surrogate cost: sum of intermediate-result rows over the best
    /// subtree rooted here (`C_out`; 0 for atoms).
    cost: f64,
    /// The winning split, `None` for atoms.
    split: Option<(RelSet, RelSet)>,
}

/// DPconv-inspired prototype: run the whole csg–cmp enumeration once
/// under a *scalar* min-plus surrogate (`C_out`: the sum of
/// intermediate-result cardinalities, split-independent per set, so
/// `C[S] = rows(S) + min over splits (C[A] + C[B])`), then emit only
/// the winning decomposition tree's pairs to the full cost model —
/// `n − 1` joins costed instead of the whole lattice.
///
/// Applies to complete-query enumeration (`up_to == atoms.len()`);
/// IDP's partial blocks need every level populated, so those rounds
/// fall back to [`Dpccp`] generation. The surrogate ignores operator
/// costs, interesting orders and access-path asymmetries: the emitted
/// plan is optimal for `C_out`, and the full model then costs that one
/// tree exactly (both orientations, all methods). Quality versus DP is
/// measured, not guaranteed — see EXPERIMENTS.md.
#[derive(Debug, Default)]
pub struct DpConv {
    ccp: Dpccp,
    /// Partial-block (IDP) rounds run plain Dpccp generation.
    fallback: bool,
    /// `buckets[s]` = the winning tree's pairs at `s` atoms, sorted.
    buckets: Vec<Vec<(RelSet, RelSet)>>,
}

impl DpConv {
    /// Run the surrogate lattice pass and bucket the winning tree's
    /// pairs per level.
    fn solve(&mut self, ctx: &EnumContext<'_>, atoms: &[RelSet], m: usize) {
        let graph = ctx.graph();
        let est = ctx.model().estimator();
        // Row estimates are additive in ln space (base products per
        // atom, selectivities per edge — the estimator's own
        // decomposition), so precompute both term tables once and
        // derive each lattice set's rows from its parents plus the
        // cross edges, instead of an O(edges) re-estimation per set.
        let vertex_ln: Vec<f64> = atoms
            .iter()
            .map(|&a| {
                est.ln_base_product(graph, a)
                    + est.ln_internal_selectivity(graph, a)
                    + est.ln_filter_selectivity(graph, a)
            })
            .collect();
        // Cross-atom edges as (vertex-pair mask, ln selectivity);
        // edges internal to a compound atom are already inside its
        // `vertex_ln` term.
        let edge_ln: Vec<(RelSet, f64)> = graph
            .edges()
            .iter()
            .filter_map(|e| {
                let (u, v) = (
                    self.ccp.vertex_of[e.left.node],
                    self.ccp.vertex_of[e.right.node],
                );
                (u != usize::MAX && v != usize::MAX && u != v).then(|| {
                    (
                        RelSet::single(u) | RelSet::single(v),
                        est.edge_selectivity(graph, e).ln(),
                    )
                })
            })
            .collect();
        let mut entries: FxHashMap<RelSet, ConvEntry> = FxHashMap::default();
        let mut levels: Vec<Vec<RelSet>> = vec![Vec::new(); m + 1];
        for (v, &ln) in vertex_ln.iter().enumerate() {
            let vs = RelSet::single(v);
            levels[1].push(vs);
            entries.insert(
                vs,
                ConvEntry {
                    ln_rows: ln,
                    rows: est.rows_from_ln(ln),
                    cost: 0.0,
                    split: None,
                },
            );
        }
        // One growth walk per left set: complements of *all* sizes are
        // enumerated together, counting-sorted by size into one flat
        // buffer (offsets[j] .. offsets[j + 1] = size-j complements,
        // walk order preserved within a size), so revisiting `a` at
        // the next split size is a slice lookup, not a re-walk.
        let mut comp_cache: FxHashMap<RelSet, (Vec<RelSet>, Vec<u32>)> = FxHashMap::default();
        let mut all: Vec<RelSet> = Vec::new();
        let mut grown: Vec<RelSet> = Vec::new();
        for s in 2..=m {
            for i in 1..=s / 2 {
                let j = s - i;
                // Indexed loop: relaxations at split (i, j) can append
                // to `levels[s]` only when `i + j == s` never splits
                // into itself (i, j < s), so iterating by index over
                // the growing level-i list is safe and deterministic.
                for ai in 0..levels[i].len() {
                    let a = levels[i][ai];
                    let (a_cost, a_ln) = {
                        let e = &entries[&a];
                        (e.cost, e.ln_rows)
                    };
                    let (sets, offsets) = comp_cache.entry(a).or_insert_with(|| {
                        all.clear();
                        self.ccp.complements_all(a, m - i, &mut all);
                        let mut offsets = vec![0u32; m - i + 2];
                        for &b in &all {
                            offsets[b.len() + 1] += 1;
                        }
                        for k in 1..offsets.len() {
                            offsets[k] += offsets[k - 1];
                        }
                        let mut cursor = offsets.clone();
                        let mut sets = vec![RelSet::EMPTY; all.len()];
                        for &b in &all {
                            sets[cursor[b.len()] as usize] = b;
                            cursor[b.len()] += 1;
                        }
                        (sets, offsets)
                    });
                    grown.clear();
                    grown.extend_from_slice(&sets[offsets[j] as usize..offsets[j + 1] as usize]);
                    for &b in &grown {
                        if i == j && a.min_index() > b.min_index() {
                            continue;
                        }
                        let (b_cost, b_ln) = {
                            let e = &entries[&b];
                            (e.cost, e.ln_rows)
                        };
                        let u = a | b;
                        let children = a_cost + b_cost;
                        match entries.get_mut(&u) {
                            Some(e) => {
                                // Strict improvement only: ties keep
                                // the first split in canonical order.
                                if children + e.rows < e.cost {
                                    e.cost = children + e.rows;
                                    e.split = Some((a, b));
                                }
                            }
                            None => {
                                let ln_rows = a_ln
                                    + b_ln
                                    + edge_ln
                                        .iter()
                                        .filter(|&&(vm, _)| vm.intersects(a) && vm.intersects(b))
                                        .map(|&(_, ln)| ln)
                                        .sum::<f64>();
                                let rows = est.rows_from_ln(ln_rows);
                                levels[s].push(u);
                                entries.insert(
                                    u,
                                    ConvEntry {
                                        ln_rows,
                                        rows,
                                        cost: children + rows,
                                        split: Some((a, b)),
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }

        // Extract the winning tree (iteratively; the lattice is acyclic
        // and splits strictly shrink).
        self.buckets = vec![Vec::new(); m + 1];
        let full = RelSet::first_n(m);
        let mut stack = vec![full];
        while let Some(u) = stack.pop() {
            let Some(&ConvEntry {
                split: Some((a, b)),
                ..
            }) = entries.get(&u)
            else {
                continue;
            };
            self.buckets[u.len()].push((self.ccp.to_base(a), self.ccp.to_base(b)));
            stack.push(a);
            stack.push(b);
        }
        for bucket in &mut self.buckets {
            bucket.sort();
        }
    }
}

impl PairEnumerator for DpConv {
    fn name(&self) -> &'static str {
        EnumeratorKind::DpConv.label()
    }

    fn prepare(&mut self, ctx: &EnumContext<'_>, atoms: &[RelSet], up_to: usize) {
        self.ccp.prepare(ctx, atoms, up_to);
        self.fallback = up_to != atoms.len();
        if !self.fallback && atoms.len() >= 2 {
            self.solve(ctx, atoms, atoms.len());
        }
    }

    fn level_pairs(
        &mut self,
        ctx: &EnumContext<'_>,
        table: &LevelTable,
        s: usize,
    ) -> Vec<(RelSet, RelSet)> {
        if self.fallback {
            return self.ccp.level_pairs(ctx, table, s);
        }
        // A pruner may have removed a tree node; joining a pruned side
        // would touch a dead group, so such pairs are dropped (the
        // greedy completion safety-net then finishes the plan).
        self.buckets
            .get(s)
            .map(|bucket| {
                bucket
                    .iter()
                    .filter(|&&(a, b)| ctx.memo.get(a).is_some() && ctx.memo.get(b).is_some())
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Normalize a pair stream for multiset comparison between
/// enumerators: orientation is immaterial (the engine costs both), so
/// each pair is keyed `(min, max)` and sorted.
pub fn normalized_pair_multiset(pairs: &[(RelSet, RelSet)]) -> Vec<(RelSet, RelSet)> {
    let mut normalized: Vec<(RelSet, RelSet)> = pairs
        .iter()
        .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
        .collect();
    normalized.sort();
    normalized
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::dp::run_levels_with;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    fn pair_multisets_match(topo: Topology, seed: u64) {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, topo, seed).instance(0);
        let n = q.num_relations();
        let mut ctx = EnumContext::new(
            &q,
            &model,
            Budget::unlimited(),
            1,
            EnumeratorKind::from_env(),
        );
        for i in 0..n {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
        let mut scan = LevelScan::default();
        let table = run_levels_with(&mut ctx, &atoms, n, None, &mut scan).unwrap();

        let mut ccp = Dpccp::default();
        ccp.prepare(&ctx, &atoms, n);
        for s in 2..=n {
            let a = normalized_pair_multiset(&scan.level_pairs(&ctx, &table, s));
            let b = normalized_pair_multiset(&ccp.level_pairs(&ctx, &table, s));
            assert_eq!(a, b, "{topo} level {s}");
        }
    }

    #[test]
    fn dpccp_matches_levelscan_pair_multisets() {
        for (topo, seed) in [
            (Topology::Chain(7), 3),
            (Topology::Star(7), 5),
            (Topology::Cycle(7), 1),
            (Topology::Clique(6), 2),
            (Topology::star_chain(9), 4),
        ] {
            pair_multisets_match(topo, seed);
        }
    }

    #[test]
    fn kind_parses_env_names() {
        assert_eq!(
            EnumeratorKind::parse("levelscan"),
            Some(EnumeratorKind::LevelScan)
        );
        assert_eq!(
            EnumeratorKind::parse("LevelScan"),
            Some(EnumeratorKind::LevelScan)
        );
        assert_eq!(
            EnumeratorKind::parse("level-scan"),
            Some(EnumeratorKind::LevelScan)
        );
        assert_eq!(EnumeratorKind::parse("dpccp"), Some(EnumeratorKind::Dpccp));
        assert_eq!(
            EnumeratorKind::parse("DPconv"),
            Some(EnumeratorKind::DpConv)
        );
        assert_eq!(EnumeratorKind::parse("bogus"), None);
        assert_eq!(EnumeratorKind::default(), EnumeratorKind::LevelScan);
    }

    /// The double loop `LevelScan` ran before it was indexed, kept as
    /// the oracle for its pair *sequence*: every left × right survivor
    /// combination, tested pairwise.
    fn double_loop_level_pairs(table: &LevelTable, s: usize) -> Vec<(RelSet, RelSet)> {
        let mut pairs = Vec::new();
        for i in 1..=s / 2 {
            let j = s - i;
            let (left_level, right_level) = (&table.levels[i - 1], &table.levels[j - 1]);
            for (li, &(a, a_nb)) in left_level.iter().enumerate() {
                for (ri, &(b, _)) in right_level.iter().enumerate() {
                    if i == j && li >= ri {
                        continue; // unordered pair once
                    }
                    if !a.is_disjoint(b) || !a_nb.intersects(b) {
                        continue; // overlapping or cartesian
                    }
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// A connected query over `n` nodes: a spanning tree (node `i + 1`
    /// attaches to `parents[i] % (i + 1)`) plus deduplicated extra
    /// edges, each endpoint on its node's next unused column. Returns
    /// the tree edges too, for contracting atoms along them.
    pub(crate) fn random_connected_query(
        n: usize,
        parents: &[u64],
        extras: &[(u64, u64)],
    ) -> (sdp_query::Query, Vec<(usize, usize)>) {
        use sdp_catalog::{ColId, RelId};
        use sdp_query::{ColRef, JoinEdge, JoinGraph};
        let tree: Vec<(usize, usize)> = parents[..n - 1]
            .iter()
            .enumerate()
            .map(|(i, &p)| (p as usize % (i + 1), i + 1))
            .collect();
        let mut pairs = tree.clone();
        for &(a, b) in extras {
            let (u, v) = (a as usize % n, b as usize % n);
            if u != v && !pairs.contains(&(u.min(v), u.max(v))) {
                pairs.push((u.min(v), u.max(v)));
            }
        }
        let mut next_col = vec![0u16; n];
        let mut col = |node: usize| {
            next_col[node] += 1;
            ColRef::new(node, ColId(next_col[node] - 1))
        };
        let edges = pairs
            .iter()
            .map(|&(u, v)| JoinEdge::new(col(u), col(v)))
            .collect();
        let relations = (0..n).map(|r| RelId(r as u32)).collect();
        (
            sdp_query::Query::new(JoinGraph::new(relations, edges)),
            tree,
        )
    }

    mod pair_stream {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The indexed `LevelScan` emits exactly the double loop's
            /// pair sequence — on random connected graphs, over
            /// compound (IDP-style) atoms, with survivors knocked out
            /// of every level the way SDP pruning and governed
            /// hand-offs leave holes.
            #[test]
            fn indexed_levelscan_emits_the_double_loop_sequence(
                n in 3usize..=12,
                parents in prop::collection::vec(any::<u64>(), 11usize),
                extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=14),
                contract in any::<u64>(),
                holes in any::<u64>(),
            ) {
                let (query, tree) = random_connected_query(n, &parents, &extras);
                let graph = &query.graph;
                let cat = Catalog::paper();
                let model = CostModel::with_defaults(&cat);
                let ctx = EnumContext::new(
                    &query,
                    &model,
                    Budget::unlimited(),
                    1,
                    EnumeratorKind::LevelScan,
                );

                // Contract about an eighth of the tree edges: atoms are
                // the resulting connected blocks.
                let mut atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
                for (k, &(u, v)) in tree.iter().enumerate() {
                    if contract >> (3 * k) & 7 != 0 {
                        continue;
                    }
                    let merged = atoms
                        .iter()
                        .filter(|a| a.contains(u) || a.contains(v))
                        .fold(RelSet::EMPTY, |m, &a| m | a);
                    atoms.retain(|a| a.is_disjoint(merged));
                    atoms.push(merged);
                }
                atoms.sort();

                let mut scan = LevelScan::default();
                scan.prepare(&ctx, &atoms, atoms.len());
                let mut table = LevelTable::default();
                table
                    .levels
                    .push(atoms.iter().map(|&a| (a, graph.neighbors(a))).collect());
                let mut hole_bits = holes;
                for s in 2..=atoms.len() {
                    let expected = double_loop_level_pairs(&table, s);
                    prop_assert_eq!(&scan.level_pairs(&ctx, &table, s), &expected, "level {}", s);
                    // The level's survivors: unions in first-creation
                    // order (as `run_levels` records them), minus a
                    // pseudo-random eighth.
                    let mut level: Vec<(RelSet, RelSet)> = Vec::new();
                    for &(a, b) in &expected {
                        if !level.iter().any(|&(u, _)| u == (a | b)) {
                            level.push((a | b, graph.neighbors(a | b)));
                        }
                    }
                    level.retain(|_| {
                        hole_bits = hole_bits
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        hole_bits >> 61 != 0
                    });
                    table.levels.push(level);
                }
            }
        }
    }

    #[test]
    fn dpccp_contracts_compound_atoms() {
        // IDP-shaped atoms: contract {0,1} of a chain into one vertex
        // and enumerate over the compound list.
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(5), 11).instance(0);
        let mut ctx = EnumContext::new(
            &q,
            &model,
            Budget::unlimited(),
            1,
            EnumeratorKind::from_env(),
        );
        for i in 0..5 {
            ctx.ensure_base_group(i);
        }
        ctx.join_pair(RelSet::single(0), RelSet::single(1));
        let compound = RelSet::from_indices([0, 1]);
        let atoms = vec![
            compound,
            RelSet::single(2),
            RelSet::single(3),
            RelSet::single(4),
        ];

        let run = |kind: EnumeratorKind, ctx: &mut EnumContext<'_>| {
            let mut e = kind.build();
            let table = run_levels_with(ctx, &atoms, atoms.len(), None, e.as_mut()).unwrap();
            table.sets_at(atoms.len()).collect::<Vec<_>>()
        };
        let full_scan = run(EnumeratorKind::LevelScan, &mut ctx);

        let mut ctx2 = EnumContext::new(
            &q,
            &model,
            Budget::unlimited(),
            1,
            EnumeratorKind::from_env(),
        );
        for i in 0..5 {
            ctx2.ensure_base_group(i);
        }
        ctx2.join_pair(RelSet::single(0), RelSet::single(1));
        let full_ccp = run(EnumeratorKind::Dpccp, &mut ctx2);

        assert_eq!(full_scan, full_ccp);
        assert_eq!(full_scan, vec![q.graph.all_nodes()]);
        assert_eq!(
            ctx.memo
                .get(q.graph.all_nodes())
                .unwrap()
                .best_cost()
                .to_bits(),
            ctx2.memo
                .get(q.graph.all_nodes())
                .unwrap()
                .best_cost()
                .to_bits(),
        );
    }

    #[test]
    fn dpconv_emits_a_single_tree() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(8), 2).instance(0);
        let mut ctx = EnumContext::new(
            &q,
            &model,
            Budget::unlimited(),
            1,
            EnumeratorKind::from_env(),
        );
        for i in 0..8 {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..8).map(RelSet::single).collect();
        let mut conv = DpConv::default();
        let table = run_levels_with(&mut ctx, &atoms, 8, None, &mut conv).unwrap();
        // Exactly n - 1 = 7 pairs across all levels: one per tree join.
        let total: usize = (2..=8)
            .map(|s| conv.buckets.get(s).map_or(0, |b| b.len()))
            .sum();
        assert_eq!(total, 7);
        assert_eq!(table.sets_at(8).count(), 1);
        let plan = ctx.finalize(q.graph.all_nodes()).unwrap();
        plan.check_invariants().unwrap();
    }
}
