//! # sdp-skyline — skyline computation substrate
//!
//! SDP's pruning function is built on the *skyline* operator of
//! Börzsönyi, Kossmann and Stocker: given a set of objects described by
//! a feature vector over ordered domains, the skyline is the subset
//! not dominated by any other object (all features minimized here).
//!
//! The paper "assume\[s\] the use of" fast skyline techniques; this
//! crate provides them:
//!
//! * [`sfs::skyline_sfs`] — sort-filter-skyline, which presorts by an
//!   aggregate monotone score so each object need only be checked
//!   against already-accepted skyline members;
//! * [`multiway::pairwise_union_skyline`] — the paper's "Option 2":
//!   the disjunctive union of the skylines of every 2-attribute
//!   projection of the feature vector (RC ∪ CS ∪ RS for the paper's
//!   three-attribute `[Rows, Cost, Selectivity]` vector);
//! * [`multiway::sorted_skyline_on`] — one projection's skyline in a
//!   single sweep over members already sorted on one of its two
//!   attributes, the kernel SDP's pruner runs;
//! * [`orders`] — interesting-order exclusion partitions (§2.1.4):
//!   per-relation partition membership and the skyline *rescue* pass
//!   that keeps order-producing subplans alive through pruning.
//!
//! All functions return indices into the input slice, preserving input
//! order, so callers can prune their own structures. Points are any
//! rows that read as `[f64]` (`Vec<f64>`, `[f64; 3]`, …). The kernels
//! SDP's pruner runs per partition also come in an `_of` form that
//! takes the partition as indices into a shared point slice and writes
//! into a caller-owned buffer, so a level's partitions are judged
//! without copying a point or touching the allocator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod multiway;
pub mod orders;
pub mod sfs;

pub use multiway::{
    pairwise_union_skyline, pairwise_union_skyline_of, projected_skyline, sorted_skyline_on,
};
pub use orders::{exclusion_partition, rescue_order_partition};
pub use sfs::{skyline_sfs, skyline_sfs_of};

/// Dominance under minimization: `a` dominates `b` iff `a[i] ≤ b[i]`
/// for every dimension and `a[j] < b[j]` for at least one.
///
/// # Panics
/// Debug-asserts equal dimensionality.
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "mismatched feature dimensions");
    let mut strict = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// Dominance restricted to a subset of dimensions (used by the
/// pairwise-union skyline's projections).
#[inline]
pub fn dominates_on(a: &[f64], b: &[f64], dims: &[usize]) -> bool {
    let mut strict = false;
    for &d in dims {
        if a[d] > b[d] {
            return false;
        }
        if a[d] < b[d] {
            strict = true;
        }
    }
    strict
}

/// Reference quadratic skyline used as the test oracle: keep object
/// `i` iff no other object dominates it.
pub fn skyline_naive<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && dominates(p.as_ref(), points[i].as_ref()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_requires_strict_improvement() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal: no
        assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0])); // incomparable
        assert!(dominates(&[0.0, 0.0], &[1.0, 1.0]));
    }

    #[test]
    fn dominance_on_projection() {
        let a = [1.0, 9.0, 1.0];
        let b = [2.0, 1.0, 2.0];
        assert!(dominates_on(&a, &b, &[0, 2]));
        assert!(!dominates_on(&a, &b, &[0, 1]));
        assert!(!dominates_on(&a, &b, &[1]));
    }

    #[test]
    fn naive_skyline_on_known_set() {
        // The paper's Table 2.2 feature vectors (R, C, S):
        let pts = vec![
            vec![187_638.0, 49_386.0, 3.9e-5],  // 123
            vec![122_879.0, 52_132.0, 1.0e-5],  // 125
            vec![242_620.0, 56_021.0, 1.0e-5],  // 135
            vec![241_562.0, 55_388.0, 6.65e-6], // 145
            vec![385_375.0, 52_632.0, 4.5e-6],  // 156
        ];
        let sky = skyline_naive(&pts);
        // 135 is dominated in the full 3-D space by 145
        // (241562 ≤ 242620, 55388 ≤ 56021, 6.65e-6 ≤ 1.0e-5).
        assert!(!sky.contains(&2));
        assert!(sky.contains(&0) && sky.contains(&1) && sky.contains(&3) && sky.contains(&4));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(skyline_naive::<Vec<f64>>(&[]).is_empty());
        assert_eq!(skyline_naive(&[vec![5.0]]), vec![0]);
    }

    #[test]
    fn duplicates_all_survive() {
        // Equal points do not dominate each other; both stay.
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(skyline_naive(&pts).len(), 2);
    }
}
