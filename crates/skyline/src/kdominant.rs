//! k-dominant ("strong") skyline.
//!
//! The paper's closing line points at "strong skyline" functions
//! (reference \[12\], Chan et al., *Finding k-Dominant Skylines in High
//! Dimensional Space*) as future work. An object `b` is *k-dominated*
//! by `a` if there exists a set of `k` dimensions on which `a`
//! dominates `b` (i.e. `a` is ≤ on those `k` and < on at least one of
//! them). The k-dominant skyline keeps only objects k-dominated by no
//! other object; for `k = d` it coincides with the ordinary skyline,
//! and it shrinks monotonically as `k` decreases.
//!
//! We expose it as an alternative SDP pruning option so the paper's
//! future-work question can be answered empirically (see the
//! `skyline_options` bench).

/// Whether `a` k-dominates `b`: `a` is ≤ `b` on at least `k`
/// dimensions with a strict improvement on at least one of those.
///
/// Equivalently: let `le` = #dimensions where `a ≤ b` and `lt` =
/// #dimensions where `a < b`; then `a` k-dominates `b` iff `le ≥ k`
/// and `lt ≥ 1` and … careful: the k chosen dimensions must include a
/// strict one, which holds iff `lt ≥ 1` and `le ≥ k` (pick the strict
/// dimension plus any `k − 1` other ≤-dimensions; possible because a
/// strict dimension is also a ≤ dimension).
#[inline]
pub fn k_dominates(a: &[f64], b: &[f64], k: usize) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(k >= 1 && k <= a.len());
    let mut le = 0usize;
    let mut lt = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        if x <= y {
            le += 1;
            if x < y {
                lt += 1;
            }
        }
    }
    le >= k && lt >= 1
}

/// Compute the k-dominant skyline, returning ascending indices.
///
/// Note that k-dominance is **not transitive**, so the windowed BNL
/// shortcut is unsound; we use the direct quadratic definition, which
/// is fine at SDP partition sizes (tens to hundreds of JCRs).
pub fn k_dominant_skyline<P: AsRef<[f64]>>(points: &[P], k: usize) -> Vec<usize> {
    let mut skyline = Vec::new();
    k_dominant_skyline_of(points, 0..points.len(), k, &mut skyline);
    skyline
}

/// [`k_dominant_skyline`] of the `members` of `points` alone: `out` is
/// overwritten with the surviving indices into `points`, in `members`
/// order. Allocates only to grow `out`.
pub fn k_dominant_skyline_of<P: AsRef<[f64]>>(
    points: &[P],
    members: impl IntoIterator<Item = usize> + Clone,
    k: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.extend(members.clone().into_iter().filter(|&i| {
        !members
            .clone()
            .into_iter()
            .any(|j| j != i && k_dominates(points[j].as_ref(), points[i].as_ref(), k))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline_naive;

    #[test]
    fn full_k_equals_ordinary_skyline() {
        let pts = vec![
            vec![3.0, 1.0, 2.0],
            vec![1.0, 3.0, 9.0],
            vec![2.0, 2.0, 1.0],
            vec![4.0, 4.0, 4.0],
        ];
        assert_eq!(k_dominant_skyline(&pts, 3), skyline_naive(&pts));
    }

    #[test]
    fn smaller_k_prunes_harder() {
        let pts = vec![
            vec![1.0, 9.0, 9.0],
            vec![9.0, 1.0, 9.0],
            vec![9.0, 9.0, 1.0],
            vec![2.0, 2.0, 2.0],
        ];
        let full = k_dominant_skyline(&pts, 3);
        assert_eq!(full.len(), 4); // all incomparable in 3-D
        let strong = k_dominant_skyline(&pts, 2);
        // (2,2,2) 2-dominates each single-coordinate specialist, and
        // none 2-dominates it back on two dims… each specialist is
        // ≤ on one dim only vs (2,2,2), so cannot 2-dominate.
        assert_eq!(strong, vec![3]);
    }

    #[test]
    fn k_dominance_asymmetry() {
        let a = vec![1.0, 1.0, 9.0];
        let b = vec![2.0, 2.0, 2.0];
        assert!(k_dominates(&a, &b, 2));
        assert!(!k_dominates(&b, &a, 2)); // b is ≤ a on one dim only
    }

    #[test]
    fn k_dominant_skyline_can_be_empty() {
        // Classic cyclic-dominance example: with k = 2 each point is
        // 2-dominated by the next, so nobody survives.
        let pts = vec![
            vec![1.0, 2.0, 3.0],
            vec![3.0, 1.0, 2.0],
            vec![2.0, 3.0, 1.0],
        ];
        assert!(k_dominant_skyline(&pts, 2).is_empty());
    }

    #[test]
    fn equal_points_do_not_dominate() {
        let pts = vec![vec![5.0, 5.0], vec![5.0, 5.0]];
        assert_eq!(k_dominant_skyline(&pts, 2).len(), 2);
        assert!(!k_dominates(&pts[0], &pts[1], 2));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::skyline_naive;
    use proptest::prelude::*;

    fn arb_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
        prop::collection::vec(prop::collection::vec(0.0f64..100.0, 3..=3), 0..40)
    }

    proptest! {
        #[test]
        fn k_dominant_is_subset_of_skyline(pts in arb_points()) {
            let strong = k_dominant_skyline(&pts, 2);
            let sky = skyline_naive(&pts);
            for i in strong {
                prop_assert!(sky.contains(&i));
            }
        }

        #[test]
        fn k_equals_d_matches_skyline(pts in arb_points()) {
            prop_assert_eq!(k_dominant_skyline(&pts, 3), skyline_naive(&pts));
        }

        #[test]
        fn monotone_in_k(pts in arb_points()) {
            let k2 = k_dominant_skyline(&pts, 2);
            let k3 = k_dominant_skyline(&pts, 3);
            for i in k2 {
                prop_assert!(k3.contains(&i));
            }
        }
    }
}
