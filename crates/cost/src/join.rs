//! Join-method costing.
//!
//! Four physical join operators in the PostgreSQL mould. Their cost
//! structure creates exactly the trade-offs SDP's feature vector
//! captures: hash joins are cheap but orderless, merge joins cost
//! sorts but emit interesting orders, index nested-loops are
//! unbeatable for small outers probing large indexed inners (the
//! star-query workhorse) yet disastrous for large outers.

use sdp_catalog::PAGE_SIZE_BYTES;

use crate::params::CostParams;
use crate::scan::{sort_cost, IndexProbe};

/// Physical join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinMethod {
    /// Tuple-at-a-time nested loop with a materialized inner.
    NestedLoop,
    /// Nested loop probing the inner relation's index — available
    /// only when the inner is a base relation indexed on the join
    /// column.
    IndexNestedLoop,
    /// Classic hybrid hash join, build side = inner.
    Hash,
    /// Sort-merge join; sorts whichever inputs are not already
    /// ordered on the join class.
    Merge,
}

impl JoinMethod {
    /// Stable numeric tag for serialization and structural digests.
    /// These values are part of the persisted plan format *and* the
    /// plan digest — never renumber them; append for new methods.
    pub fn stable_tag(self) -> u8 {
        match self {
            JoinMethod::NestedLoop => 1,
            JoinMethod::IndexNestedLoop => 2,
            JoinMethod::Hash => 3,
            JoinMethod::Merge => 4,
        }
    }

    /// Inverse of [`JoinMethod::stable_tag`]; `None` for unknown tags
    /// (a record written by a future version).
    pub fn from_stable_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(JoinMethod::NestedLoop),
            2 => Some(JoinMethod::IndexNestedLoop),
            3 => Some(JoinMethod::Hash),
            4 => Some(JoinMethod::Merge),
            _ => None,
        }
    }

    /// Short display label used in plan explains.
    pub fn label(self) -> &'static str {
        match self {
            JoinMethod::NestedLoop => "NestLoop",
            JoinMethod::IndexNestedLoop => "IdxNestLoop",
            JoinMethod::Hash => "HashJoin",
            JoinMethod::Merge => "MergeJoin",
        }
    }
}

/// Heap pages `rows` tuples of `width` bytes occupy (at least one).
fn pages(rows: f64, width: f64) -> f64 {
    (rows * width.max(1.0) / PAGE_SIZE_BYTES as f64).max(1.0)
}

/// What every plan of one join input has in common: the JCR's
/// estimated rows and width, and what sorting it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSide {
    /// Estimated rows produced.
    pub rows: f64,
    /// Average tuple width in bytes.
    pub width: f64,
    /// [`sort_cost`] of the input — what a merge join pays for a plan
    /// that is not already ordered on the join class.
    pub sort_cost: f64,
}

impl JoinSide {
    /// The side for a JCR of `rows` tuples of `width` bytes.
    pub fn new(rows: f64, width: f64, params: &CostParams) -> Self {
        JoinSide {
            rows,
            width,
            sort_cost: sort_cost(rows, width, params),
        }
    }
}

/// The [`JoinMethod::IndexNestedLoop`] alternative of one `outer ⋈
/// inner` orientation: the probes of the inner's index, one per outer
/// row, and the output's emission. The one formula of the method:
/// [`JoinTerms::index_nested_loop`] prices through it, and an enumerator
/// that can retain no other method of the orientation builds it alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexLoop {
    probes: f64,
    emit: f64,
}

impl IndexLoop {
    /// The index nested loop of an outer of `outer_rows` rows over an
    /// inner of `inner_rows`, probed through `index` (the inner is a
    /// base relation indexed on a join column): each probe matches the
    /// inner's rows at the joint selectivity `crossing_sel` of the
    /// edges connecting them, at least a millionth of a row; the output
    /// has `out_rows` rows.
    pub fn new(
        outer_rows: f64,
        inner_rows: f64,
        crossing_sel: f64,
        out_rows: f64,
        index: &IndexProbe,
        params: &CostParams,
    ) -> Self {
        let matched = (inner_rows * crossing_sel).max(1e-6);
        IndexLoop {
            probes: outer_rows * index.cost(matched, params),
            emit: out_rows * params.cpu_tuple_cost,
        }
    }

    /// Cost over an outer plan of `outer_cost`: the inner plan is
    /// replaced by the probes, so its cost does not enter.
    #[inline]
    pub fn cost(&self, outer_cost: f64) -> f64 {
        outer_cost + self.probes + self.emit
    }
}

/// The terms of every join method's cost that depend only on the two
/// JCRs joined, not on which of their plans is: each method costs
/// `outer.cost + inner.cost +` such terms, so an enumerator costing
/// every plan pair of one `outer ⋈ inner` orientation computes them
/// once and then only adds. It is the one join-cost formula every
/// strategy uses; a per-call reference formula, kept as a test oracle
/// in this module, pins its results bit for bit. Offer the methods in
/// the fixed order nested loop, index nested loop, hash, merge, so
/// that of two equal-cost plans every strategy keeps the same one.
///
/// **A join costs at least the inputs it includes.** With non-negative
/// rows, widths and selectivities and positive [`CostParams`], every
/// term is non-negative and is added after the input costs, so
/// [`JoinTerms::nested_loop`], [`JoinTerms::hash`] and
/// [`JoinTerms::merge`] are `≥ outer_cost + inner_cost` in `f64`
/// (rounding is monotone), and a sort enforcer (`input + sort_cost`)
/// is `≥` its input. [`JoinTerms::index_nested_loop`] is only
/// `≥ outer_cost`: its inner plan is replaced by index probes. That
/// inner is always a single base relation, which is why an
/// exhaustive enumeration bounded by a complete plan's cost may drop
/// any JCR of two or more relations costing more than the bound, but
/// never a base relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinTerms {
    emit: f64,
    nl_materialize: f64,
    nl_compare: f64,
    /// The index nested loop, when the inner has an index to probe.
    index_loop: Option<IndexLoop>,
    hash_build: f64,
    hash_probe: f64,
    hash_spill: f64,
    merge_compare: f64,
    outer_sort: f64,
    inner_sort: f64,
}

impl JoinTerms {
    /// Terms for `outer ⋈ inner`: `crossing_sel` is the joint
    /// selectivity of the edges connecting them, `out_rows` the
    /// estimated output cardinality, and `inner_index` the probe
    /// costing of the inner's index, present when the inner is a base
    /// relation indexed on a join column.
    pub fn new(
        outer: &JoinSide,
        inner: &JoinSide,
        crossing_sel: f64,
        out_rows: f64,
        inner_index: Option<IndexProbe>,
        params: &CostParams,
    ) -> Self {
        let build_bytes = inner.rows * inner.width.max(1.0);
        JoinTerms {
            emit: out_rows * params.cpu_tuple_cost,
            nl_materialize: inner.rows * params.cpu_tuple_cost,
            nl_compare: outer.rows * inner.rows * params.cpu_operator_cost,
            index_loop: inner_index.map(|index| {
                IndexLoop::new(
                    outer.rows,
                    inner.rows,
                    crossing_sel,
                    out_rows,
                    &index,
                    params,
                )
            }),
            hash_build: inner.rows * params.cpu_operator_cost * 2.0,
            hash_probe: outer.rows * params.cpu_operator_cost,
            hash_spill: if build_bytes > params.work_mem_bytes {
                2.0 * (pages(inner.rows, inner.width) + pages(outer.rows, outer.width))
                    * params.seq_page_cost
            } else {
                0.0
            },
            merge_compare: (outer.rows + inner.rows) * params.cpu_operator_cost,
            outer_sort: outer.sort_cost,
            inner_sort: inner.sort_cost,
        }
    }

    /// A floor under the nested loop, hash and merge joins of the given
    /// plans: their operands but the non-negative middle ones, in their
    /// order (rounding is monotone only so: `o + (i + emit)` is no floor).
    #[inline]
    pub fn floor(&self, outer_cost: f64, inner_cost: f64) -> f64 {
        outer_cost + inner_cost + self.emit
    }

    /// A floor under every method over an outer plan of `outer_cost`,
    /// the index nested loop included.
    #[inline]
    pub fn outer_floor(&self, outer_cost: f64) -> f64 {
        outer_cost + self.emit
    }

    /// Cost of the [`JoinMethod::NestedLoop`] alternative over plans
    /// of the given costs.
    #[inline]
    pub fn nested_loop(&self, outer_cost: f64, inner_cost: f64) -> f64 {
        outer_cost + inner_cost + self.nl_materialize + self.nl_compare + self.emit
    }

    /// Whether the inner side has an index to probe, i.e. whether
    /// [`JoinTerms::index_nested_loop`] yields an alternative.
    #[inline]
    pub fn probes_index(&self) -> bool {
        self.index_loop.is_some()
    }

    /// Cost of the [`JoinMethod::IndexNestedLoop`] alternative (the
    /// inner plan is replaced by index probes, so its cost does not
    /// enter); `None` without an inner index.
    #[inline]
    pub fn index_nested_loop(&self, outer_cost: f64) -> Option<f64> {
        self.index_loop
            .map(|index_loop| index_loop.cost(outer_cost))
    }

    /// Cost of the [`JoinMethod::Hash`] alternative.
    #[inline]
    pub fn hash(&self, outer_cost: f64, inner_cost: f64) -> f64 {
        outer_cost + inner_cost + self.hash_build + self.hash_probe + self.hash_spill + self.emit
    }

    /// Cost of the [`JoinMethod::Merge`] alternative on one join
    /// class; an input already ordered on that class is not sorted.
    #[inline]
    pub fn merge(
        &self,
        outer_cost: f64,
        inner_cost: f64,
        outer_ordered: bool,
        inner_ordered: bool,
    ) -> f64 {
        let sort_side = |ordered: bool, sort: f64| if ordered { 0.0 } else { sort };
        outer_cost
            + inner_cost
            + sort_side(outer_ordered, self.outer_sort)
            + sort_side(inner_ordered, self.inner_sort)
            + self.merge_compare
            + self.emit
    }
}

#[cfg(test)]
/// The per-call join-cost formula [`JoinTerms`] was hoisted from: every
/// applicable method of one `outer ⋈ inner`, costed from scratch. The
/// property tests below hold `JoinTerms` to it bit for bit.
mod reference {
    use sdp_query::ClassId;

    use super::*;
    use crate::scan::index_probe_cost;

    /// Properties of one join input as the costing functions see it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct JoinInput {
        /// Estimated rows produced.
        pub rows: f64,
        /// Cost of producing them.
        pub cost: f64,
        /// Average tuple width in bytes.
        pub width: f64,
        /// Order class the output is sorted on, if any.
        pub ordering: Option<ClassId>,
    }

    impl JoinInput {
        fn pages(&self) -> f64 {
            pages(self.rows, self.width)
        }
    }

    /// Index metadata enabling an index nested-loop on the inner side.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct InnerIndex {
        /// Tuples in the inner base relation.
        pub tuples: f64,
        /// Heap pages of the inner base relation.
        pub pages: f64,
    }

    /// A costed join alternative.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct JoinCandidate {
        /// Algorithm used.
        pub method: JoinMethod,
        /// Total (cumulative) cost including both inputs.
        pub cost: f64,
        /// Order class of the output, if any.
        pub ordering: Option<ClassId>,
    }

    /// Enumerate and cost every join method applicable to
    /// `outer ⋈ inner`, in the fixed order nested loop, index nested loop,
    /// hash, merge.
    ///
    /// * `crossing_sel` — joint selectivity of the connecting edges;
    /// * `out_rows` — estimated output cardinality;
    /// * `join_class` — the order class of the join columns (drives merge
    ///   join); `None` disables merge;
    /// * `inner_index` — present when the inner is a base relation with an
    ///   index on the join column, enabling index nested-loop.
    pub fn join_candidates(
        outer: &JoinInput,
        inner: &JoinInput,
        crossing_sel: f64,
        out_rows: f64,
        join_class: Option<ClassId>,
        inner_index: Option<InnerIndex>,
        params: &CostParams,
    ) -> Vec<JoinCandidate> {
        let mut out = Vec::with_capacity(4);
        let emit_cpu = out_rows * params.cpu_tuple_cost;

        // --- Nested loop over a materialized inner ------------------------
        out.push(JoinCandidate {
            method: JoinMethod::NestedLoop,
            cost: outer.cost
                + inner.cost
                + inner.rows * params.cpu_tuple_cost // materialization
                + outer.rows * inner.rows * params.cpu_operator_cost
                + emit_cpu,
            ordering: outer.ordering,
        });

        // --- Index nested loop --------------------------------------------
        if let Some(idx) = inner_index {
            let matched = (inner.rows * crossing_sel).max(1e-6);
            let probe = index_probe_cost(idx.tuples, idx.pages, matched, params);
            out.push(JoinCandidate {
                method: JoinMethod::IndexNestedLoop,
                cost: outer.cost + outer.rows * probe + emit_cpu,
                ordering: outer.ordering,
            });
        }

        // --- Hash join (build = inner) -------------------------------------
        {
            let build_bytes = inner.rows * inner.width.max(1.0);
            let spill = if build_bytes > params.work_mem_bytes {
                // Hybrid hash: write and re-read both sides once per extra
                // batch round.
                2.0 * (inner.pages() + outer.pages()) * params.seq_page_cost
            } else {
                0.0
            };
            out.push(JoinCandidate {
                method: JoinMethod::Hash,
                cost: outer.cost
                    + inner.cost
                    + inner.rows * params.cpu_operator_cost * 2.0 // build
                    + outer.rows * params.cpu_operator_cost // probe
                    + spill
                    + emit_cpu,
                ordering: None,
            });
        }

        // --- Merge join -----------------------------------------------------
        if let Some(class) = join_class {
            let sort_side = |input: &JoinInput| {
                if input.ordering == Some(class) {
                    0.0
                } else {
                    sort_cost(input.rows, input.width, params)
                }
            };
            out.push(JoinCandidate {
                method: JoinMethod::Merge,
                cost: outer.cost
                    + inner.cost
                    + sort_side(outer)
                    + sort_side(inner)
                    + (outer.rows + inner.rows) * params.cpu_operator_cost
                    + emit_cpu,
                ordering: Some(class),
            });
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;

    fn input(rows: f64, cost: f64) -> JoinInput {
        JoinInput {
            rows,
            cost,
            width: 200.0,
            ordering: None,
        }
    }

    fn all(
        outer: &JoinInput,
        inner: &JoinInput,
        sel: f64,
        idx: Option<InnerIndex>,
    ) -> Vec<JoinCandidate> {
        let out_rows = (outer.rows * inner.rows * sel).max(1.0);
        join_candidates(
            outer,
            inner,
            sel,
            out_rows,
            Some(0),
            idx,
            &CostParams::default(),
        )
    }

    fn cost_of(cands: &[JoinCandidate], m: JoinMethod) -> f64 {
        cands.iter().find(|c| c.method == m).unwrap().cost
    }

    #[test]
    fn index_nlj_wins_small_outer_big_inner() {
        let outer = input(10.0, 5.0);
        let inner = input(1_000_000.0, 30_000.0);
        let idx = InnerIndex {
            tuples: 1_000_000.0,
            pages: 30_000.0,
        };
        let cands = all(&outer, &inner, 1e-6, Some(idx));
        let inlj = cost_of(&cands, JoinMethod::IndexNestedLoop);
        for c in &cands {
            if c.method != JoinMethod::IndexNestedLoop {
                assert!(inlj < c.cost, "INLJ should beat {:?}", c.method);
            }
        }
    }

    #[test]
    fn hash_wins_large_large() {
        let outer = input(1_000_000.0, 30_000.0);
        let inner = input(500_000.0, 20_000.0);
        let idx = InnerIndex {
            tuples: 500_000.0,
            pages: 15_000.0,
        };
        let cands = all(&outer, &inner, 1e-6, Some(idx));
        let hash = cost_of(&cands, JoinMethod::Hash);
        assert!(hash < cost_of(&cands, JoinMethod::NestedLoop));
        assert!(hash < cost_of(&cands, JoinMethod::IndexNestedLoop));
    }

    #[test]
    fn merge_join_exploits_existing_order() {
        let sorted = JoinInput {
            ordering: Some(0),
            ..input(100_000.0, 5_000.0)
        };
        let unsorted = input(100_000.0, 5_000.0);
        let p = CostParams::default();
        let out_rows = 1000.0;
        let with_order = join_candidates(&sorted, &sorted, 1e-7, out_rows, Some(0), None, &p);
        let without = join_candidates(&unsorted, &unsorted, 1e-7, out_rows, Some(0), None, &p);
        assert!(
            cost_of(&with_order, JoinMethod::Merge) < cost_of(&without, JoinMethod::Merge),
            "pre-sorted inputs must make merge cheaper"
        );
    }

    #[test]
    fn merge_absent_without_join_class() {
        let a = input(100.0, 10.0);
        let cands = join_candidates(&a, &a, 0.01, 100.0, None, None, &CostParams::default());
        assert!(cands.iter().all(|c| c.method != JoinMethod::Merge));
    }

    #[test]
    fn orderings_propagate_correctly() {
        let sorted_outer = JoinInput {
            ordering: Some(7),
            ..input(1000.0, 10.0)
        };
        let inner = input(1000.0, 10.0);
        let idx = InnerIndex {
            tuples: 1000.0,
            pages: 30.0,
        };
        let cands = join_candidates(
            &sorted_outer,
            &inner,
            0.001,
            1000.0,
            Some(3),
            Some(idx),
            &CostParams::default(),
        );
        for c in &cands {
            match c.method {
                JoinMethod::NestedLoop | JoinMethod::IndexNestedLoop => {
                    assert_eq!(c.ordering, Some(7), "NL preserves outer order")
                }
                JoinMethod::Hash => assert_eq!(c.ordering, None),
                JoinMethod::Merge => assert_eq!(c.ordering, Some(3)),
            }
        }
    }

    #[test]
    fn hash_spill_penalty_applies() {
        let p = CostParams::default();
        let small = input(100.0, 1.0);
        // 1M rows x 200B = 200MB >> work_mem.
        let big = input(1_000_000.0, 1.0);
        let cands_spill = join_candidates(&small, &big, 1e-6, 1.0, None, None, &p);
        // Same rows but tiny width: fits in memory.
        let slim = JoinInput { width: 0.5, ..big };
        let cands_fit = join_candidates(&small, &slim, 1e-6, 1.0, None, None, &p);
        assert!(cost_of(&cands_spill, JoinMethod::Hash) > cost_of(&cands_fit, JoinMethod::Hash));
    }

    #[test]
    fn costs_are_cumulative() {
        // Join cost must include both input costs.
        let a = input(10.0, 1000.0);
        let b = input(10.0, 2000.0);
        let cands = join_candidates(&a, &b, 0.1, 10.0, Some(0), None, &CostParams::default());
        for c in cands {
            assert!(c.cost >= 3000.0, "{:?} lost input cost", c.method);
        }
    }
}

#[cfg(test)]
mod property_tests {
    use super::reference::*;
    use super::*;
    use proptest::prelude::*;

    fn arb_input() -> impl Strategy<Value = JoinInput> {
        (
            1.0f64..1e7,
            0.0f64..1e6,
            8.0f64..512.0,
            prop::option::of(0u32..4),
        )
            .prop_map(|(rows, cost, width, ordering)| JoinInput {
                rows,
                cost,
                width,
                ordering,
            })
    }

    /// 0, 1e299, or a value in `0..below`.
    fn extreme(below: f64) -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1e299), 0.0..below]
    }

    proptest! {
        /// Costing laws that every candidate must obey: finite,
        /// non-negative, and at least the outer input's cost (the one
        /// input every method consumes in full).
        #[test]
        fn candidates_are_sane(
            outer in arb_input(),
            inner in arb_input(),
            sel in 1e-9f64..1.0,
            class in prop::option::of(0u32..4),
            with_index in any::<bool>(),
        ) {
            let out_rows = (outer.rows * inner.rows * sel).max(1.0);
            let idx = with_index.then(|| InnerIndex {
                tuples: inner.rows.max(2.0),
                pages: (inner.rows / 40.0).max(1.0),
            });
            let cands = join_candidates(
                &outer, &inner, sel, out_rows, class, idx, &CostParams::default(),
            );
            // Exactly these methods, in this order: NL and Hash always;
            // INL iff index; Merge iff class. The enumerator's offer
            // order (and so which of two equal-cost plans a group keeps)
            // depends on it.
            let expected: Vec<JoinMethod> = [
                Some(JoinMethod::NestedLoop),
                with_index.then_some(JoinMethod::IndexNestedLoop),
                Some(JoinMethod::Hash),
                class.map(|_| JoinMethod::Merge),
            ]
            .into_iter()
            .flatten()
            .collect();
            let methods: Vec<JoinMethod> = cands.iter().map(|c| c.method).collect();
            prop_assert_eq!(&methods, &expected);
            for c in &cands {
                prop_assert!(c.cost.is_finite() && c.cost >= 0.0);
                prop_assert!(c.cost + 1e-9 >= outer.cost, "{:?} below outer cost", c.method);
            }
        }

        /// The hoisted terms against the reference: offered in its
        /// order, [`JoinTerms`] yields `join_candidates`' methods,
        /// orderings and costs bit for bit — spilling hash builds,
        /// inputs already ordered on the join class and index probes
        /// included.
        #[test]
        fn hoisted_terms_reproduce_join_candidates(
            outer in arb_input(),
            inner in arb_input(),
            sel in 1e-9f64..1.0,
            class in prop::option::of(0u32..4),
            index in prop::option::of((2.0f64..1e8, 1.0f64..1e6)),
            work_mem_kb in 1.0f64..1e6,
        ) {
            let p = CostParams { work_mem_bytes: work_mem_kb * 1024.0, ..CostParams::default() };
            let out_rows = (outer.rows * inner.rows * sel).max(1.0);
            let idx = index.map(|(tuples, pages)| InnerIndex { tuples, pages });
            let reference = join_candidates(&outer, &inner, sel, out_rows, class, idx, &p);

            let terms = JoinTerms::new(
                &JoinSide::new(outer.rows, outer.width, &p),
                &JoinSide::new(inner.rows, inner.width, &p),
                sel,
                out_rows,
                idx.map(|i| IndexProbe::new(i.tuples, i.pages, &p)),
                &p,
            );
            let hoisted: Vec<JoinCandidate> = [
                Some((JoinMethod::NestedLoop, terms.nested_loop(outer.cost, inner.cost), outer.ordering)),
                terms
                    .index_nested_loop(outer.cost)
                    .map(|cost| (JoinMethod::IndexNestedLoop, cost, outer.ordering)),
                Some((JoinMethod::Hash, terms.hash(outer.cost, inner.cost), None)),
                class.map(|c| {
                    let cost = terms.merge(
                        outer.cost,
                        inner.cost,
                        outer.ordering == Some(c),
                        inner.ordering == Some(c),
                    );
                    (JoinMethod::Merge, cost, Some(c))
                }),
            ]
            .into_iter()
            .flatten()
            .map(|(method, cost, ordering)| JoinCandidate { method, cost, ordering })
            .collect();

            prop_assert_eq!(hoisted.len(), reference.len());
            for (h, r) in hoisted.iter().zip(&reference) {
                prop_assert_eq!(h.method, r.method);
                prop_assert_eq!(h.ordering, r.ordering);
                prop_assert_eq!(h.cost.to_bits(), r.cost.to_bits(), "{:?}", h.method);
            }
        }

        /// The invariant `JoinTerms` documents, over non-negative rows,
        /// widths and selectivities, spilling hash builds and merges
        /// over presorted inputs included: every method but the index
        /// nested loop costs at least both inputs, that one at least its
        /// outer, and a sort at least what it sorts.
        #[test]
        fn a_join_costs_at_least_the_inputs_it_includes(
            outer_rows in 0.0f64..1e9,
            inner_rows in 0.0f64..1e9,
            outer_width in 0.0f64..1e4,
            inner_width in 0.0f64..1e4,
            outer_cost in 0.0f64..1e12,
            inner_cost in 0.0f64..1e12,
            sel in 0.0f64..=1.0,
            out_rows in 0.0f64..1e12,
            index in prop::option::of((0.0f64..1e9, 0.0f64..1e7)),
            outer_ordered in any::<bool>(),
            inner_ordered in any::<bool>(),
        ) {
            let p = CostParams::default();
            let outer = JoinSide::new(outer_rows, outer_width, &p);
            let inner = JoinSide::new(inner_rows, inner_width, &p);
            let probe = index.map(|(tuples, pages)| IndexProbe::new(tuples, pages, &p));
            let terms = JoinTerms::new(&outer, &inner, sel, out_rows, probe, &p);
            let both = outer_cost + inner_cost;
            prop_assert!(terms.nested_loop(outer_cost, inner_cost) >= both);
            prop_assert!(terms.hash(outer_cost, inner_cost) >= both);
            prop_assert!(
                terms.merge(outer_cost, inner_cost, outer_ordered, inner_ordered) >= both
            );
            if let Some(cost) = terms.index_nested_loop(outer_cost) {
                prop_assert!(cost >= outer_cost);
            }
            for (side, cost) in [(&outer, outer_cost), (&inner, inner_cost)] {
                prop_assert!(side.sort_cost >= 0.0);
                prop_assert!(cost + side.sort_cost >= cost);
            }
        }

        /// The floors an enumeration rules plan pairs out by: `floor` is
        /// at most the nested loop, the hash join and the merge join with
        /// either input ordered or not, and `outer_floor` at most `floor`
        /// and the index nested loop — compared as bit patterns, which
        /// order non-negative `f64`s (infinities included) as their
        /// values do. Rows, widths and costs reach 0 and 1e299, where
        /// products overflow and sums round away whole terms.
        #[test]
        fn the_floors_are_at_most_the_methods_they_stand_for(
            outer_rows in extreme(1e9),
            inner_rows in extreme(1e9),
            outer_width in extreme(1e4),
            inner_width in extreme(1e4),
            outer_cost in extreme(1e12),
            inner_cost in extreme(1e12),
            sel in 0.0f64..=1.0,
            out_rows in extreme(1e12),
            index in (extreme(1e9), extreme(1e7)),
            work_mem_kb in 1.0f64..1e6,
        ) {
            let p = CostParams { work_mem_bytes: work_mem_kb * 1024.0, ..CostParams::default() };
            let outer = JoinSide::new(outer_rows, outer_width, &p);
            let inner = JoinSide::new(inner_rows, inner_width, &p);
            let probe = IndexProbe::new(index.0, index.1, &p);
            let terms = JoinTerms::new(&outer, &inner, sel, out_rows, Some(probe), &p);
            let at_most = |floor: f64, cost: f64| floor.to_bits() <= cost.to_bits();
            let floor = terms.floor(outer_cost, inner_cost);
            prop_assert!(at_most(floor, terms.nested_loop(outer_cost, inner_cost)));
            prop_assert!(at_most(floor, terms.hash(outer_cost, inner_cost)));
            for (outer_ordered, inner_ordered) in [(false, false), (false, true), (true, false), (true, true)] {
                let merge = terms.merge(outer_cost, inner_cost, outer_ordered, inner_ordered);
                prop_assert!(at_most(floor, merge), "{outer_ordered} {inner_ordered}");
            }
            let outer_floor = terms.outer_floor(outer_cost);
            prop_assert!(at_most(outer_floor, floor));
            let inl = terms.index_nested_loop(outer_cost).expect("an inner index");
            prop_assert!(at_most(outer_floor, inl));
        }

        /// More output rows never makes any method cheaper (emit CPU is
        /// monotone), holding everything else fixed.
        #[test]
        fn cost_monotone_in_output(
            outer in arb_input(),
            inner in arb_input(),
            sel in 1e-9f64..1.0,
            extra in 1.0f64..1e6,
        ) {
            let base_rows = (outer.rows * inner.rows * sel).max(1.0);
            let p = CostParams::default();
            let a = join_candidates(&outer, &inner, sel, base_rows, Some(0), None, &p);
            let b = join_candidates(&outer, &inner, sel, base_rows + extra, Some(0), None, &p);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.method, y.method);
                prop_assert!(y.cost >= x.cost - 1e-9);
            }
        }

        /// Pre-sorted inputs never make a merge join more expensive.
        #[test]
        fn merge_rewards_existing_order(
            outer in arb_input(),
            inner in arb_input(),
            sel in 1e-9f64..1.0,
        ) {
            let out_rows = (outer.rows * inner.rows * sel).max(1.0);
            let p = CostParams::default();
            let sorted_outer = JoinInput { ordering: Some(0), ..outer };
            let unsorted_outer = JoinInput { ordering: None, ..outer };
            let cost_of = |o: &JoinInput| {
                join_candidates(o, &inner, sel, out_rows, Some(0), None, &p)
                    .into_iter()
                    .find(|c| c.method == JoinMethod::Merge)
                    .unwrap()
                    .cost
            };
            prop_assert!(cost_of(&sorted_outer) <= cost_of(&unsorted_outer) + 1e-9);
        }
    }
}
