//! Candidate-pair generation: the survivor-level scan, and the
//! connected-subgraph walk.
//!
//! The paper's SDP is a pruning step on the classic level-wise System-R
//! enumerator: level `s` is built from the *survivors* of the levels
//! below. [`LevelScan`] generates exactly that stream — every left
//! survivor against the right survivor level, through a per-level
//! inverted index — so its work follows what pruning kept.
//! Graph-driven csg–cmp generation (Moerkotte & Neumann) grows
//! complements blind to the survivors: where SDP has pruned most of a
//! level nearly all it grows is discarded, and since the scan became
//! bitmap-indexed it wins nowhere (EXPERIMENTS.md "Enumeration
//! Strategies", Decision (PR 21)). Two parts of it remain: the
//! count-only connected-subgraph walk (`CsgWalk`) that
//! `feasibility::doomed_bound` runs, and — test only — the complement
//! growth, as the oracle for "`LevelScan` emits exactly the joinable
//! pairs".
//!
//! # Canonical pair order and determinism obligations
//!
//! A level's pairs are emitted in a fixed canonical order: splits
//! `i + (s − i)` for `i = 1 ..= s/2`, then survivor order of the left
//! side, then survivor order of the right. The level stage, memo
//! rollback and trace staging consume the stream unchanged, so plans,
//! counters and traces are bit-identical from run to run *because* the
//! pair order is a pure function of the survivor table: no iteration
//! over hash maps, no randomness, no wall-clock dependence.

use sdp_query::{JoinGraph, RelSet};

use crate::dp::{LevelTable, Survivor};

/// The pair-generation tag persisted with every stored plan and dead
/// letter, and folded into the plan-cache key.
///
/// One variant is left. Tag 2 (`dpccp`, csg–cmp generation) and tag 3
/// (a min-plus surrogate prototype that costed a single tree) could be
/// selected until the ledger showed neither paid (see the module docs);
/// both tags are retired, never to be reused, and records carrying
/// them no longer decode. The enum stays because the tag byte stays in
/// the persisted formats and in the cache key — which keeps shard
/// placement and warm-restart fills what they were — and because
/// `sdp-perf` builds `PlanRecord { enumerator: optimizer.enumerator(), .. }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnumeratorKind {
    /// Survivor-level scan through a per-level inverted index.
    #[default]
    LevelScan,
}

impl EnumeratorKind {
    /// Stable numeric tag for the persisted formats. Never renumber;
    /// 2 and 3 are retired.
    pub fn stable_tag(self) -> u8 {
        1
    }

    /// Inverse of [`EnumeratorKind::stable_tag`]; `None` for unknown
    /// and retired tags.
    pub fn from_stable_tag(tag: u8) -> Option<Self> {
        (tag == 1).then_some(EnumeratorKind::LevelScan)
    }
}

/// Inverted index over one survivor level: which entries contain
/// which base relation. Its bitmap is a run of [`LevelScan`]'s one
/// buffer for every level it indexes.
#[derive(Debug, Clone, Copy)]
struct LevelIndex {
    /// Entries in the indexed level.
    len: usize,
    /// Where its bitmap starts in the scan's buffer: word
    /// `start + w * relations + r` is word `w`, by entry position, of
    /// the bitmap of the level's entries containing relation `r`.
    start: usize,
    /// Union of the level's sets: a left entry whose neighbourhood
    /// misses it can pair with nothing here.
    frontier: RelSet,
}

impl LevelIndex {
    /// Index `level`, its bitmap appended to `by_rel`.
    fn new(level: &[Survivor], relations: usize, by_rel: &mut Vec<u64>) -> Self {
        let start = by_rel.len();
        by_rel.resize(start + level.len().div_ceil(64) * relations, 0);
        let mut frontier = RelSet::EMPTY;
        for (k, &Survivor { set, .. }) in level.iter().enumerate() {
            frontier = frontier | set;
            for r in set.iter() {
                by_rel[start + k / 64 * relations + r] |= 1 << (k % 64);
            }
        }
        LevelIndex {
            len: level.len(),
            start,
            frontier,
        }
    }

    /// Word `w` of the bitmap of entries intersecting `set`.
    #[inline]
    fn intersecting(&self, by_rel: &[u64], relations: usize, set: RelSet, w: usize) -> u64 {
        let row = &by_rel[self.start + w * relations..][..relations];
        set.iter().fold(0, |m, r| m | row[r])
    }
}

/// The engine's pair generation: combine every (left, right)
/// survivor-level pair that is disjoint and joinable. Instead of
/// testing each combination, a per-level inverted index (`LevelIndex`,
/// built once per survivor level and kept for the run) yields a left
/// entry's partners directly — the entries touching its neighbourhood,
/// minus those overlapping it — in ascending position, which is
/// exactly the order a left × right double loop would emit them in.
///
/// One instance serves one `run_levels` invocation (IDP builds one per
/// iteration, over the iteration's atom list).
#[derive(Debug)]
pub struct LevelScan {
    /// Base relations in the join graph.
    relations: usize,
    /// `index[k]` indexes the survivors of `k + 1` atoms once a split
    /// has needed them as its right side. A level never changes after
    /// `run_levels` records it, so entries stay valid for the run.
    index: Vec<Option<LevelIndex>>,
    /// The indexed levels' bitmaps, back to back.
    by_rel: Vec<u64>,
}

impl LevelScan {
    /// A scan over survivor tables of a join graph with `relations`
    /// base relations.
    pub fn new(relations: usize) -> Self {
        // A level per relation at most, and — while a level has at most
        // 64 survivors — one bitmap word per relation for each.
        LevelScan {
            relations,
            index: vec![None; relations],
            by_rel: Vec::with_capacity(relations * relations),
        }
    }

    /// Level `s`'s candidate pairs in canonical order, written over
    /// `pairs` (a buffer the caller keeps across levels): pairs `(a, b)`
    /// of disjoint survivor sets from `table` (which holds the
    /// survivors of all levels below `s`) with `|a| + |b| = s` atoms
    /// that are joinable (graph-connected), each unordered pair exactly
    /// once, each side given as its memo slot ([`Survivor::slot`]).
    /// Both sides are live in the memo — the engine joins the pairs as
    /// given.
    pub fn level_pairs(&mut self, table: &LevelTable, s: usize, pairs: &mut Vec<(u32, u32)>) {
        pairs.clear();
        let relations = self.relations;
        for i in 1..=s / 2 {
            let j = s - i;
            let (left_level, right_level) = (table.level(i), table.level(j));
            let right = *self.index[j - 1]
                .get_or_insert_with(|| LevelIndex::new(right_level, relations, &mut self.by_rel));
            debug_assert_eq!(right.len, right_level.len(), "level changed after indexing");
            let by_rel = &self.by_rel;
            for (li, left) in left_level.iter().enumerate() {
                let (a, a_nb) = (left.set, left.neighbors);
                if !a_nb.intersects(right.frontier) {
                    continue;
                }
                // Equal-size splits take each unordered pair once:
                // only partners after the left entry's own position.
                let first = if i == j { li + 1 } else { 0 };
                for w in first / 64..right.len.div_ceil(64) {
                    // Joinable (touches the neighbourhood) and not
                    // overlapping — cartesian products never appear.
                    let mut partners = right.intersecting(by_rel, relations, a_nb, w)
                        & !right.intersecting(by_rel, relations, a, w);
                    if w == first / 64 {
                        partners &= !0u64 << (first % 64);
                    }
                    while partners != 0 {
                        let ri = w * 64 + partners.trailing_zeros() as usize;
                        partners &= partners - 1;
                        pairs.push((left.slot, right_level[ri].slot));
                    }
                }
            }
        }
    }
}

/// The connected-subgraph walk of Moerkotte & Neumann (`EnumerateCsg`),
/// count-only: it reads the join graph alone — no survivors, no costs —
/// which is what lets the feasibility oracle bound an exhaustive rung's
/// memo without running it.
#[derive(Debug)]
pub(crate) struct CsgWalk {
    /// Relation → the relations it shares an edge with.
    adj: Vec<RelSet>,
}

impl CsgWalk {
    /// The walk over `graph`'s base relations.
    pub(crate) fn over(graph: &JoinGraph) -> Self {
        CsgWalk {
            adj: (0..graph.len())
                .map(|r| graph.neighbors(RelSet::single(r)))
                .collect(),
        }
    }

    /// Visit every connected superset of `sub` (avoiding `forbidden`)
    /// up to `cap` vertices — all sizes, each exactly once, each
    /// followed by its own supersets; recursion forbids the whole
    /// frontier, the uniqueness argument of `EnumerateCsgRec`. `reach`
    /// is the union of `sub`'s adjacency sets, carried along so that
    /// growing a set costs one lookup per vertex added, not one per
    /// vertex held. Returns `false` as soon as `visit` does: the walk
    /// stops there.
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

    /// The expansion step of [`CsgWalk::grow_all`]: `sub` holds the
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
    /// `visit` returns `false`.
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::context::EnumContext;
    use crate::dp::{run_levels, run_levels_with, LevelPruner};
    use crate::fx::FxHashMap;
    use crate::sdp::{SdpConfig, SdpPruner};
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    /// The pair-stream oracle: graph-aware csg–cmp generation in the
    /// style of DPccp, over the join graph contracted to an *atom
    /// graph* (vertex `v` stands for `atoms[v]`; vertices are adjacent
    /// when their atoms are joinable). For each split `i + (s − i)`
    /// with `i ≤ s − i`, each surviving level-`i` set `A` seeds
    /// complement growth: for every neighbour `v` of `A` in ascending
    /// order, connected sets of size `s − i` containing `v` are grown
    /// by forbidden-set recursion with `A` and all smaller seeds
    /// forbidden, which visits every connected complement exactly
    /// once. Grown complements are filtered against the live survivors
    /// of level `s − i` (pruning can have removed them), and
    /// equal-size pairs are deduplicated by requiring the smaller
    /// minimum vertex on the left. It never looks at how `LevelScan`
    /// finds partners, which is what makes it an oracle; it is also
    /// where a csg–cmp *pair* count (ROADMAP item 3) would start from.
    struct Dpccp {
        /// Vertex → the atom's base-relation set.
        atoms: Vec<RelSet>,
        /// Base relation index → vertex (`usize::MAX` = uncovered).
        vertex_of: Vec<usize>,
        /// Vertex-space adjacency sets.
        adj: Vec<RelSet>,
    }

    impl Dpccp {
        /// The atom graph of `graph` contracted over `atoms`.
        fn over(graph: &JoinGraph, atoms: &[RelSet]) -> Self {
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
            }
        }

        /// Vertex set of a survivor's base-relation set.
        fn to_vertex(&self, base: RelSet) -> RelSet {
            base.iter()
                .map(|r| self.vertex_of[r])
                .filter(|&v| v != usize::MAX)
                .collect()
        }

        /// External neighbourhood of a vertex set in the atom graph.
        fn vneighbors(&self, vset: RelSet) -> RelSet {
            vset.iter().fold(RelSet::EMPTY, |acc, v| acc | self.adj[v]) - vset
        }

        /// Grow connected supersets of `sub` (avoiding `forbidden`) to
        /// exactly `want` vertices, appending each to `out` exactly
        /// once. Expansion iterates non-empty submasks of the reachable
        /// neighbourhood in ascending numeric order; recursion forbids
        /// the whole neighbourhood.
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

        /// All connected complements of `a` with exactly `want`
        /// vertices, in seed-ascending order.
        fn complements(&self, a: RelSet, want: usize, out: &mut Vec<RelSet>) {
            let mut seen_seeds = RelSet::EMPTY;
            for v in self.vneighbors(a).iter() {
                let seed = RelSet::single(v);
                // Forbid `a`, the seed itself and every smaller seed:
                // a complement is grown only from its smallest
                // neighbour of `a`, so each one appears exactly once.
                let forbidden = a | seen_seeds | seed;
                seen_seeds = seen_seeds | seed;
                if want == 1 {
                    out.push(seed);
                } else {
                    self.grow(seed, forbidden, want, out);
                }
            }
        }

        /// Level `s`'s joinable pairs, as the graph dictates them.
        fn level_pairs(&self, table: &LevelTable, s: usize) -> Vec<(RelSet, RelSet)> {
            let mut pairs = Vec::new();
            let mut grown: Vec<RelSet> = Vec::new();
            for i in 1..=s / 2 {
                let j = s - i;
                let (left_level, right_level) = (table.level(i), table.level(j));
                // Pruning (or a governed descent) can leave holes in
                // the lattice: only complements that actually survived
                // level `j` may be joined.
                let live: FxHashMap<RelSet, RelSet> = right_level
                    .iter()
                    .map(|b| (self.to_vertex(b.set), b.set))
                    .collect();
                for a_base in left_level.iter().map(|a| a.set) {
                    let a = self.to_vertex(a_base);
                    assert_eq!(
                        a.iter().fold(RelSet::EMPTY, |acc, v| acc | self.atoms[v]),
                        a_base,
                        "survivors are unions of atoms"
                    );
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

    /// Normalize a pair stream for multiset comparison: orientation is
    /// immaterial (the engine costs both), so each pair is keyed
    /// `(min, max)` and sorted.
    fn normalized_pair_multiset(pairs: &[(RelSet, RelSet)]) -> Vec<(RelSet, RelSet)> {
        let mut normalized: Vec<(RelSet, RelSet)> = pairs
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        normalized.sort();
        normalized
    }

    /// `LevelScan`'s slot pairs as the sets the table records for them.
    fn pair_sets(table: &LevelTable, pairs: &[(u32, u32)]) -> Vec<(RelSet, RelSet)> {
        let sets = table.sets_by_slot();
        pairs.iter().map(|&(a, b)| (sets[&a], sets[&b])).collect()
    }

    /// Level by level, `LevelScan`'s pair multiset over `table` is the
    /// one the oracle derives from the graph.
    fn assert_scan_matches_oracle(
        graph: &JoinGraph,
        atoms: &[RelSet],
        table: &LevelTable,
        what: &str,
    ) {
        let mut scan = LevelScan::new(graph.len());
        let mut pairs = Vec::new();
        let oracle = Dpccp::over(graph, atoms);
        for s in 2..=atoms.len() {
            scan.level_pairs(table, s, &mut pairs);
            assert_eq!(
                normalized_pair_multiset(&pair_sets(table, &pairs)),
                normalized_pair_multiset(&oracle.level_pairs(table, s)),
                "{what}: level {s}"
            );
        }
    }

    #[test]
    fn levelscan_matches_dpccp_on_the_named_topologies() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        for (topo, seed) in [
            (Topology::Chain(7), 3),
            (Topology::Star(7), 5),
            (Topology::Cycle(7), 1),
            (Topology::Clique(6), 2),
            (Topology::star_chain(9), 4),
        ] {
            let q = QueryGenerator::new(&cat, topo, seed).instance(0);
            let n = q.num_relations();
            let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
            (0..n).for_each(|i| ctx.ensure_base_group(i));
            let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
            let table = run_levels(&mut ctx, &atoms, n).unwrap();
            assert_scan_matches_oracle(&q.graph, &atoms, &table, &topo.to_string());
        }
    }

    /// The double loop `LevelScan` ran before it was indexed, kept as
    /// the oracle for its pair *sequence*: every left × right survivor
    /// combination, tested pairwise.
    fn double_loop_level_pairs(table: &LevelTable, s: usize) -> Vec<(RelSet, RelSet)> {
        let mut pairs = Vec::new();
        for i in 1..=s / 2 {
            let j = s - i;
            let (left_level, right_level) = (table.level(i), table.level(j));
            for (li, left) in left_level.iter().enumerate() {
                let (a, a_nb) = (left.set, left.neighbors);
                for (ri, b) in right_level.iter().map(|right| right.set).enumerate() {
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

    /// A connected graph of `n` relations: a random tree plus extra
    /// edges, closure-inferred cliques — one per class mask, over
    /// its nodes' column `19 + k` — and local predicates, so that
    /// both more than 64 edges and more than 64 filters occur.
    pub(crate) fn wide_query(
        n: usize,
        parents: &[u64],
        extras: &[(u64, u64)],
        cliques: &[u64],
        filters: &[(u64, u8, u64)],
    ) -> (sdp_query::Query, Vec<(usize, usize)>) {
        use sdp_catalog::ColId;
        use sdp_query::{ColRef, JoinEdge, PredOp, Predicate};
        let (mut q, tree) = random_connected_query(n, parents, extras);
        for (k, &mask) in cliques.iter().enumerate() {
            let dense = mask | mask >> 16 | mask >> 32;
            let members: Vec<usize> = RelSet(dense & RelSet::first_n(n).0).iter().collect();
            let col = |node| ColRef::new(node, ColId(19 + k as u16));
            for pair in members.windows(2) {
                q.graph.add_edge(JoinEdge::new(col(pair[0]), col(pair[1])));
            }
        }
        sdp_query::infer_transitive_edges(&mut q.graph);
        for &(at, op, value) in filters {
            let ops = [PredOp::Eq, PredOp::Lt, PredOp::Le, PredOp::Gt, PredOp::Ge];
            let column = ColRef::new(at as usize % n, ColId((at >> 32) as u16 % 24));
            let op = ops[usize::from(op) % ops.len()];
            q.graph
                .add_filter(Predicate::new(column, op, (value % 1000) as i64));
        }
        (q, tree)
    }

    /// Contract about an eighth of the tree edges (three bits of
    /// `contract` per edge): the atoms are the resulting connected
    /// blocks, sorted, and the merges that formed them come back in
    /// order, for callers that need a memo group per block.
    fn contracted_atoms(
        n: usize,
        tree: &[(usize, usize)],
        contract: u64,
    ) -> (Vec<RelSet>, Vec<(RelSet, RelSet)>) {
        let mut atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
        let mut merges = Vec::new();
        for (k, &(u, v)) in tree.iter().enumerate() {
            if contract >> (3 * k) & 7 != 0 {
                continue;
            }
            let block = |r| *atoms.iter().find(|a| a.contains(r)).expect("covered");
            let (a, b) = (block(u), block(v));
            atoms.retain(|&x| x != a && x != b);
            atoms.push(a | b);
            merges.push((a, b));
        }
        atoms.sort();
        (atoms, merges)
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
                let (atoms, _) = contracted_atoms(n, &tree, contract);

                let mut scan = LevelScan::new(n);
                let mut pairs = Vec::new();
                let mut table = LevelTable::default();
                // Slots as a memo hands them out: in creation order.
                let mut created = 0u32;
                let mut survivor = |set: RelSet| {
                    created += 1;
                    Survivor { set, neighbors: graph.neighbors(set), slot: created - 1 }
                };
                table.push_level(atoms.iter().map(|&a| survivor(a)));
                let mut hole_bits = holes;
                for s in 2..=atoms.len() {
                    let expected = double_loop_level_pairs(&table, s);
                    scan.level_pairs(&table, s, &mut pairs);
                    prop_assert_eq!(&pair_sets(&table, &pairs), &expected, "level {}", s);
                    // The level's survivors: unions in first-creation
                    // order (as `run_levels` records them), minus a
                    // pseudo-random eighth.
                    let mut level: Vec<Survivor> = Vec::new();
                    for &(a, b) in &expected {
                        if !level.iter().any(|u| u.set == (a | b)) {
                            level.push(survivor(a | b));
                        }
                    }
                    level.retain(|_| {
                        hole_bits = hole_bits
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        hole_bits >> 61 != 0
                    });
                    table.push_level(level);
                }
            }

            /// `LevelScan` emits exactly the joinable pairs: at every
            /// level its pair multiset equals the one DPccp's
            /// complement growth derives from the graph — on random
            /// connected graphs, over compound atoms, on the
            /// exhaustive table and on the table SDP pruning leaves
            /// (holes in every prunable level).
            #[test]
            fn levelscan_emits_exactly_the_joinable_pairs(
                n in 3usize..=12,
                parents in prop::collection::vec(any::<u64>(), 11usize),
                extras in prop::collection::vec((any::<u64>(), any::<u64>()), 0usize..=14),
                contract in any::<u64>(),
            ) {
                // Low-numbered parents make hubs (and SDP pruning) likely.
                let parents: Vec<u64> = parents.iter().map(|p| p % 3).collect();
                let (query, tree) = random_connected_query(n, &parents, &extras);
                let (atoms, merges) = contracted_atoms(n, &tree, contract);
                let cat = Catalog::paper();
                let model = CostModel::with_defaults(&cat);

                for pruned in [false, true] {
                    let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
                    (0..n).for_each(|i| ctx.ensure_base_group(i));
                    for &(a, b) in &merges {
                        ctx.join_pair(a, b);
                    }
                    let mut pruner = SdpPruner::new(&ctx, SdpConfig::paper());
                    let pruner: Option<&mut dyn LevelPruner> =
                        if pruned { Some(&mut pruner) } else { None };
                    let table = run_levels_with(&mut ctx, &atoms, atoms.len(), pruner).unwrap();
                    assert_scan_matches_oracle(
                        &query.graph,
                        &atoms,
                        &table,
                        if pruned { "SDP-pruned" } else { "exhaustive" },
                    );
                }
            }
        }
    }
}
