//! The paper's disjunctive multiway skyline ("Option 2").
//!
//! "We compute a disjunctive multiway skyline on pairwise combinations
//! of the RCS attributes in the feature vector. That is, we first find
//! the skyline set of JCRs based on their RC values, then the skyline
//! set on the CS values, and finally the skyline set on the RS values.
//! The JCRs featured in the three skylines are unioned, and all
//! remaining JCRs are pruned."
//!
//! The implementation generalizes to any dimensionality: the union of
//! the skylines of all `C(d, 2)` two-attribute projections. Because a
//! point on the full-space skyline is on at least one pairwise
//! skyline *only sometimes*, the pairwise union is **not** a superset
//! of the full skyline in general for d > 3 — but for the paper's
//! d = 3 it prunes strictly more aggressively than the full-vector
//! skyline ("Option 1") while retaining every 2-D-optimal trade-off,
//! which is exactly the behaviour Table 2.3 reports.
//!
//! Two kernels compute a projection's skyline. The block-nested-loops
//! pass behind [`pairwise_union_skyline_of`] takes the members in any
//! order. [`sorted_skyline_on`] takes them sorted by one of the two
//! attributes and needs one linear sweep; SDP's pruner reads all three
//! pairwise skylines off two such orders, and the first kernel is its
//! test oracle.

use crate::dominates_on;

/// Skyline of `points` projected onto the given dimensions, returned
/// as ascending indices into `points`.
pub fn projected_skyline<P: AsRef<[f64]>>(points: &[P], dims: &[usize]) -> Vec<usize> {
    let mut window = Vec::new();
    scan_projection(points, 0..points.len(), dims, &mut window);
    window.sort_unstable();
    window
}

/// One block-nested-loops pass over the `members` of `points` on the
/// given dimensions. The window is the tail of `out` past its length
/// on entry, so the projected skyline is *appended*, in no particular
/// order, and several passes can share one buffer.
fn scan_projection<P: AsRef<[f64]>>(
    points: &[P],
    members: impl IntoIterator<Item = usize>,
    dims: &[usize],
    out: &mut Vec<usize>,
) {
    let start = out.len();
    'next: for i in members {
        let p = points[i].as_ref();
        let mut k = start;
        while k < out.len() {
            let w = points[out[k]].as_ref();
            if dominates_on(w, p, dims) {
                continue 'next;
            }
            if dominates_on(p, w, dims) {
                out.swap_remove(k);
            } else {
                k += 1;
            }
        }
        out.push(i);
    }
}

/// The union of the skylines of every two-attribute projection —
/// SDP's "Option 2" pruning function. Returns ascending indices; an
/// object survives iff it appears in at least one pairwise skyline.
pub fn pairwise_union_skyline<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let mut survivors = Vec::new();
    pairwise_union_skyline_of(points, 0..points.len(), &mut survivors);
    survivors
}

/// [`pairwise_union_skyline`] of the `members` of `points` alone:
/// `out` is overwritten with the survivors' indices into `points`,
/// ascending. Allocates only to grow `out`.
pub fn pairwise_union_skyline_of<P: AsRef<[f64]>>(
    points: &[P],
    members: impl IntoIterator<Item = usize> + Clone,
    out: &mut Vec<usize>,
) {
    out.clear();
    let Some(first) = members.clone().into_iter().next() else {
        return;
    };
    let d = points[first].as_ref().len();
    if d <= 2 {
        scan_projection(points, members, &[0, 1][..d], out);
    } else {
        for a in 0..d {
            for b in a + 1..d {
                scan_projection(points, members.clone(), &[a, b], out);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// The skyline of `points` projected on the attributes `(x, y)`, in one
/// pass over members already sorted by `x`: `sorted` holds them in
/// ascending `x`, equal values side by side (as `f64::total_cmp`
/// orders them), each key naming its member through `index`. The
/// survivors are *appended* to `out`, in `sorted`'s order.
///
/// A member is dominated iff the least `y` over the earlier runs of
/// equal `x` is at most its `y`, or the least `y` over its own whole run
/// is below it — [`dominates_on`]'s definition, so the survivors are the
/// block-nested-loops pass's. Runs split where `x` changes under f64
/// `==`, so `-0.0` and `+0.0` share one. No attribute may be NaN.
pub fn sorted_skyline_on<P: AsRef<[f64]>, K: Copy>(
    points: &[P],
    sorted: &[K],
    index: impl Fn(K) -> usize,
    (x, y): (usize, usize),
    out: &mut Vec<usize>,
) {
    let at = |k: K| points[index(k)].as_ref();
    // The least `y` of the runs swept so far; none before the first.
    let mut before: Option<f64> = None;
    let mut start = 0;
    while start < sorted.len() {
        let run_x = at(sorted[start])[x];
        let mut run = at(sorted[start])[y];
        let mut end = start + 1;
        while let Some(&k) = sorted.get(end) {
            let p = at(k);
            if p[x] != run_x {
                break;
            }
            run = run.min(p[y]);
            end += 1;
        }
        for &k in &sorted[start..end] {
            let v = at(k)[y];
            if !(before.is_some_and(|b| b <= v) || run < v) {
                out.push(index(k));
            }
        }
        before = Some(before.map_or(run, |b| b.min(run)));
        start = end;
    }
}

/// Which pairwise skylines each object belongs to, for the paper's
/// Table 2.2-style reporting. Returns, for each projection (in
/// lexicographic `(a, b)` order), the ascending member indices.
pub fn pairwise_skyline_membership<P: AsRef<[f64]>>(points: &[P]) -> Vec<(Vec<usize>, Vec<usize>)> {
    let d = points.first().map_or(0, |p| p.as_ref().len());
    let mut out = Vec::new();
    for a in 0..d {
        for b in a + 1..d {
            out.push((vec![a, b], projected_skyline(points, &[a, b])));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline_naive;

    /// The paper's Table 2.2: Prune Group 1 = {123, 125, 135, 145,
    /// 156} with feature vectors [R, C, S]. Expected: survivors are
    /// 123, 125, 145, 156; JCR 135 is pruned. (Indices 0..5 in that
    /// order.)
    fn table_2_2() -> Vec<Vec<f64>> {
        vec![
            vec![187_638.0, 49_386.0, 3.9e-5],  // 123
            vec![122_879.0, 52_132.0, 1.0e-5],  // 125
            vec![242_620.0, 56_021.0, 1.0e-5],  // 135
            vec![241_562.0, 55_388.0, 6.65e-6], // 145
            vec![385_375.0, 52_632.0, 4.5e-6],  // 156
        ]
    }

    #[test]
    fn reproduces_paper_table_2_2_survivors() {
        let pts = table_2_2();
        let survivors = pairwise_union_skyline(&pts);
        assert_eq!(survivors, vec![0, 1, 3, 4], "135 must be pruned");
    }

    #[test]
    fn reproduces_paper_table_2_2_membership() {
        let pts = table_2_2();
        let membership = pairwise_skyline_membership(&pts);
        // Projections come out as RC=[0,1], RS=[0,2], CS=[1,2].
        let rc = &membership[0].1;
        let rs = &membership[1].1;
        let cs = &membership[2].1;
        // Paper's Y-marks: RC = {123, 125}; CS = {123, 125, 156};
        // RS = {125, 145, 156}.
        assert_eq!(rc, &vec![0, 1]);
        assert_eq!(cs, &vec![0, 1, 4]);
        assert_eq!(rs, &vec![1, 3, 4]);
    }

    #[test]
    fn two_dimensional_input_falls_back_to_plain_skyline() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0]];
        assert_eq!(pairwise_union_skyline(&pts), skyline_naive(&pts));
    }

    #[test]
    fn empty_input() {
        assert!(pairwise_union_skyline::<Vec<f64>>(&[]).is_empty());
        assert!(pairwise_skyline_membership::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn union_prunes_at_least_as_much_as_each_projection_keeps() {
        let pts = table_2_2();
        let union = pairwise_union_skyline(&pts);
        for (_, members) in pairwise_skyline_membership(&pts) {
            for m in members {
                assert!(union.contains(&m));
            }
        }
    }

    #[test]
    fn partition_form_judges_members_only_and_reuses_the_buffer() {
        // Flat rows and a partition that leaves out 145, the row that
        // dominates 135 on every projection: within {123, 135, 156}
        // 135 survives on RS. The buffer's old contents are dropped.
        let pts: Vec<[f64; 3]> = table_2_2().iter().map(|p| [p[0], p[1], p[2]]).collect();
        let mut out = vec![99, 98, 97];
        pairwise_union_skyline_of(&pts, [0, 2, 4], &mut out);
        assert_eq!(out, vec![0, 2, 4]);
        pairwise_union_skyline_of(&pts, 0..pts.len(), &mut out);
        assert_eq!(out, vec![0, 1, 3, 4]);
        pairwise_union_skyline_of(&pts, [], &mut out);
        assert!(out.is_empty());
    }

    /// `members` sorted by attribute `at` in `f64::total_cmp` order,
    /// then by index, as SDP's pruner sorts a partition.
    pub(super) fn sorted_by(points: &[[f64; 3]], members: &[usize], at: usize) -> Vec<usize> {
        let mut sorted = members.to_vec();
        sorted.sort_by(|&a, &b| points[a][at].total_cmp(&points[b][at]).then(a.cmp(&b)));
        sorted
    }

    /// [`pairwise_union_skyline_of`] as SDP's pruner reads it off two
    /// sorted orders: the `(0, 1)` and `(0, 2)` skylines sweep the
    /// members sorted by attribute 0, the `(1, 2)` skyline sweeps them
    /// sorted by attribute 2. Ascending.
    pub(super) fn presorted_union(
        points: &[[f64; 3]],
        by_0: &[usize],
        by_2: &[usize],
    ) -> Vec<usize> {
        let mut out = Vec::new();
        sorted_skyline_on(points, by_0, |i| i, (0, 1), &mut out);
        sorted_skyline_on(points, by_0, |i| i, (0, 2), &mut out);
        sorted_skyline_on(points, by_2, |i| i, (2, 1), &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn presorted_union_reproduces_paper_table_2_2() {
        let pts: Vec<[f64; 3]> = table_2_2().iter().map(|p| [p[0], p[1], p[2]]).collect();
        let mut bnl = Vec::new();
        for (members, survivors) in [
            (&[0, 1, 2, 3, 4][..], &[0, 1, 3, 4][..]),
            (&[0, 2, 4], &[0, 2, 4]),
        ] {
            let (by_0, by_2) = (sorted_by(&pts, members, 0), sorted_by(&pts, members, 2));
            pairwise_union_skyline_of(&pts, members.iter().copied(), &mut bnl);
            assert_eq!(presorted_union(&pts, &by_0, &by_2), bnl);
            assert_eq!(bnl, survivors);
        }
    }

    #[test]
    fn signed_zeros_share_a_run() {
        // Equal under `==`, so neither dominates the other; `-0.0` sorts
        // first in `total_cmp` order, and a sweep that split the run
        // there would judge `+0.0` dominated by it.
        let pts = [[0.0, 1.0, 0.0], [-0.0, 1.0, 0.0], [-0.0, 2.0, 0.0]];
        let by_0 = sorted_by(&pts, &[0, 1, 2], 0);
        assert_eq!(by_0, vec![1, 2, 0]);
        let mut out = Vec::new();
        sorted_skyline_on(&pts, &by_0, |i| i, (0, 1), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn a_run_is_judged_by_its_whole_minimum() {
        // The run's cheapest member comes last in the sweep: the first
        // two are dominated by it all the same.
        let pts = [
            [1.0, 3.0, 0.0],
            [1.0, 2.0, 0.0],
            [1.0, 1.0, 0.0],
            [2.0, 1.0, 0.0],
        ];
        let mut out = Vec::new();
        sorted_skyline_on(&pts, &[0, 1, 2, 3], |i| i, (0, 1), &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn projected_skyline_single_dimension() {
        let pts = vec![vec![5.0, 0.0], vec![3.0, 9.0], vec![3.0, 1.0]];
        assert_eq!(projected_skyline(&pts, &[0]), vec![1, 2]);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::{dominates, skyline_naive};
    use proptest::prelude::*;

    fn arb_points(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
        prop::collection::vec(prop::collection::vec(0.0f64..100.0, 3..=3), 0..50)
            .prop_filter("cap", move |v| v.len() <= max_len)
    }

    /// One attribute: half the time a value from a small shared pool —
    /// so that rows tie, `±0.0` included — otherwise a magnitude from
    /// 1e-12 to 1e12.
    fn tied_value() -> impl Strategy<Value = f64> {
        const POOL: [f64; 8] = [0.0, -0.0, 1e-12, 1.0, 2.5, 7.0, 1e12, f64::INFINITY];
        prop_oneof![
            (0..POOL.len()).prop_map(|k| POOL[k]),
            (1.0f64..10.0, -12i32..=12).prop_map(|(m, e)| m * 10f64.powi(e)),
        ]
    }

    /// Rows of three tie-prone attributes, about one in four an exact
    /// copy of an earlier row.
    fn tied_rows() -> impl Strategy<Value = Vec<[f64; 3]>> {
        let row = (tied_value(), tied_value(), tied_value());
        prop::collection::vec((0u8..4, any::<usize>(), row), 0..60).prop_map(|drawn| {
            let mut rows: Vec<[f64; 3]> = Vec::with_capacity(drawn.len());
            for (copy, k, (r, c, s)) in drawn {
                let copied = (copy == 0 && !rows.is_empty()).then(|| rows[k % rows.len()]);
                rows.push(copied.unwrap_or([r, c, s]));
            }
            rows
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The presorted pairwise union is the block-nested-loops one,
        /// on a random subset of tie-prone rows, whatever order each
        /// sort leaves tied members in (`shuffle` breaks the ties).
        #[test]
        fn presorted_union_is_the_block_nested_loops_union(
            rows in tied_rows(),
            subset in any::<u64>(),
            shuffle in any::<u64>(),
        ) {
            let members: Vec<usize> =
                (0..rows.len()).filter(|&i| subset.rotate_right(i as u32) & 1 == 1 || i >= 64).collect();
            let tie = |i: usize| (i as u64).wrapping_mul(shuffle | 1);
            let sorted_by = |at: usize| {
                let mut sorted = members.clone();
                sorted.sort_by(|&a, &b| rows[a][at].total_cmp(&rows[b][at]).then(tie(a).cmp(&tie(b))));
                sorted
            };
            let presorted = super::tests::presorted_union(&rows, &sorted_by(0), &sorted_by(2));
            let mut bnl = Vec::new();
            pairwise_union_skyline_of(&rows, members.iter().copied(), &mut bnl);
            prop_assert_eq!(presorted, bnl);
        }
    }

    proptest! {
        /// Option 2 prunes at least as hard as Option 1 for d = 3:
        /// every pairwise-union survivor set is a subset of … no —
        /// the documented relation is on *counts observed in the
        /// paper*; the provable property is that every point pruned by
        /// the FULL skyline that survives pairwise must be pairwise-
        /// undominated on some projection. We check the sanity
        /// properties that hold unconditionally:
        #[test]
        fn survivors_are_undominated_on_some_projection(pts in arb_points(50)) {
            let survivors = pairwise_union_skyline(&pts);
            for &i in &survivors {
                let on_some = [(0, 1), (0, 2), (1, 2)].iter().any(|&(a, b)| {
                    !pts.iter().enumerate().any(|(j, p)| {
                        j != i && crate::dominates_on(p, &pts[i], &[a, b])
                    })
                });
                prop_assert!(on_some);
            }
        }

        /// Any point that is fully dominated (3-D) by another point is
        /// also dominated on every projection by that point — so the
        /// pairwise union never retains a fully-dominated point whose
        /// dominator strictly improves every coordinate.
        #[test]
        fn strictly_dominated_points_are_pruned(pts in arb_points(50)) {
            let survivors = pairwise_union_skyline(&pts);
            for (i, p) in pts.iter().enumerate() {
                let strictly_dominated = pts.iter().enumerate().any(|(j, q)| {
                    j != i && q.iter().zip(p).all(|(x, y)| x < y)
                });
                if strictly_dominated {
                    prop_assert!(!survivors.contains(&i));
                }
            }
        }

        /// The global minimum of each single coordinate always
        /// survives (it is on every projection's skyline involving
        /// that coordinate, unless tied — in which case some tied
        /// point survives).
        #[test]
        fn some_coordinate_minimizer_survives(pts in arb_points(50)) {
            prop_assume!(!pts.is_empty());
            let survivors = pairwise_union_skyline(&pts);
            prop_assert!(!survivors.is_empty());
        }

        /// Pairwise union is a subset of the input and sorted.
        #[test]
        fn output_is_sorted_subset(pts in arb_points(50)) {
            let s = pairwise_union_skyline(&pts);
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(s.iter().all(|&i| i < pts.len()));
        }

        /// For d = 3 the pairwise union retains no MORE than the
        /// full-vector skyline retains… is false in general; what the
        /// paper relies on is that it retains no point that the full
        /// skyline would prune *and* that is dominated on all three
        /// projections. Cross-check: every full-skyline point kept by
        /// the union is genuinely 3-D undominated.
        #[test]
        fn union_intersect_full_skyline_is_consistent(pts in arb_points(50)) {
            let full = skyline_naive(&pts);
            let union = pairwise_union_skyline(&pts);
            for &i in union.iter().filter(|i| full.contains(i)) {
                for (j, p) in pts.iter().enumerate() {
                    if j != i {
                        prop_assert!(!dominates(p, &pts[i]));
                    }
                }
            }
        }
    }
}
