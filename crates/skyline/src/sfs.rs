//! Sort-filter-skyline (SFS).
//!
//! Chomicki et al.'s refinement of BNL: presort the input by a
//! monotone aggregate (here the coordinate sum) so that no object can
//! be dominated by one appearing *after* it in sorted order. Each
//! object then needs comparing only against the already-accepted
//! skyline, never evicting — a simpler inner loop and better locality
//! for larger partitions.

use crate::dominates;

/// Compute the skyline of `points` via sort-filter-skyline, returning
/// indices into `points` in ascending order.
pub fn skyline_sfs<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let mut skyline = Vec::new();
    skyline_sfs_of(points, 0..points.len(), &mut skyline);
    skyline
}

/// [`skyline_sfs`] of the `members` of `points` alone: `out` is
/// overwritten with the skyline's indices into `points`, ascending.
/// Allocates only to grow `out`.
pub fn skyline_sfs_of<P: AsRef<[f64]>>(
    points: &[P],
    members: impl IntoIterator<Item = usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.extend(members);
    // Sort by coordinate sum: if sum(a) < sum(b) then b cannot
    // dominate a (dominance would force sum(b) ≤ sum(a), with strict
    // inequality somewhere). Ties are broken by index for determinism;
    // tied-sum points cannot dominate each other unless equal, and
    // equal points never dominate.
    let sum = |i: usize| points[i].as_ref().iter().sum::<f64>();
    out.sort_unstable_by(|&a, &b| {
        sum(a)
            .partial_cmp(&sum(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    // Accepted members are compacted to the front of `out`.
    let mut accepted = 0;
    for k in 0..out.len() {
        let i = out[k];
        let dominated = out[..accepted]
            .iter()
            .any(|&s| dominates(points[s].as_ref(), points[i].as_ref()));
        if !dominated {
            out[accepted] = i;
            accepted += 1;
        }
    }
    out.truncate(accepted);
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skyline_bnl, skyline_naive};

    #[test]
    fn agrees_with_bnl_and_oracle() {
        let pts = vec![
            vec![3.0, 1.0, 2.0],
            vec![1.0, 3.0, 9.0],
            vec![2.0, 2.0, 1.0],
            vec![4.0, 4.0, 4.0],
            vec![0.5, 5.0, 0.5],
        ];
        let sfs = skyline_sfs(&pts);
        assert_eq!(sfs, skyline_bnl(&pts));
        assert_eq!(sfs, skyline_naive(&pts));
    }

    #[test]
    fn handles_equal_sums() {
        // (1,3) and (3,1) tie on sum but are incomparable.
        let pts = vec![vec![1.0, 3.0], vec![3.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(skyline_sfs(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn equal_points_both_survive() {
        let pts = vec![vec![2.0, 2.0], vec![2.0, 2.0], vec![1.0, 9.0]];
        assert_eq!(skyline_sfs(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(skyline_sfs::<Vec<f64>>(&[]).is_empty());
        assert_eq!(skyline_sfs(&[vec![7.0, 7.0]]), vec![0]);
    }

    #[test]
    fn non_finite_safe_ordering_does_not_panic() {
        // Defensive: NaN sums fall back to Equal ordering; output is
        // still a valid (if arbitrary) subset containing the finite
        // skyline.
        let pts = vec![vec![f64::NAN, 1.0], vec![1.0, 1.0]];
        let s = skyline_sfs(&pts);
        assert!(s.contains(&1));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::{skyline_bnl, skyline_naive};
    use proptest::prelude::*;

    fn arb_points(max_len: usize, dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
        prop::collection::vec(
            prop::collection::vec(0.0f64..1000.0, dims..=dims),
            0..max_len,
        )
    }

    proptest! {
        #[test]
        fn sfs_matches_naive_2d(pts in arb_points(60, 2)) {
            prop_assert_eq!(skyline_sfs(&pts), skyline_naive(&pts));
        }

        #[test]
        fn sfs_matches_naive_3d(pts in arb_points(60, 3)) {
            prop_assert_eq!(skyline_sfs(&pts), skyline_naive(&pts));
        }

        #[test]
        fn bnl_matches_naive_3d(pts in arb_points(60, 3)) {
            prop_assert_eq!(skyline_bnl(&pts), skyline_naive(&pts));
        }

        #[test]
        fn skyline_is_idempotent(pts in arb_points(40, 3)) {
            let first = skyline_sfs(&pts);
            let reduced: Vec<Vec<f64>> = first.iter().map(|&i| pts[i].clone()).collect();
            let second = skyline_sfs(&reduced);
            // Applying the skyline to its own output removes nothing.
            prop_assert_eq!(second.len(), reduced.len());
        }

        #[test]
        fn skyline_members_are_undominated(pts in arb_points(40, 3)) {
            let sky = skyline_sfs(&pts);
            for &i in &sky {
                for (j, p) in pts.iter().enumerate() {
                    if j != i {
                        prop_assert!(!crate::dominates(p, &pts[i]));
                    }
                }
            }
        }

        #[test]
        fn non_members_are_dominated(pts in arb_points(40, 2)) {
            let sky = skyline_sfs(&pts);
            for (i, p) in pts.iter().enumerate() {
                if !sky.contains(&i) {
                    prop_assert!(pts.iter().any(|q| crate::dominates(q, p)));
                }
            }
        }
    }
}
