//! Divide-and-conquer skyline (Börzsönyi et al.'s D&C algorithm).
//!
//! Split on the median of the first dimension, compute both halves'
//! skylines recursively, then eliminate the right-half (higher-value)
//! candidates dominated by left-half skyline members. Asymptotically
//! `O(n log^{d-2} n)` for fixed dimensionality; in this codebase it
//! exists to cross-validate the BNL/SFS kernels and to serve larger
//! inputs in the benches.

use crate::dominates;

/// Compute the skyline via divide and conquer, returning ascending
/// indices into `points`.
pub fn skyline_dnc<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    let mut out = dnc(points, &mut idx);
    out.sort_unstable();
    out
}

fn dnc<P: AsRef<[f64]>>(points: &[P], idx: &mut [usize]) -> Vec<usize> {
    let at = |i: usize| points[i].as_ref();
    if idx.len() <= 8 {
        // Base case: windowed BNL over the indices.
        let mut window: Vec<usize> = Vec::new();
        'next: for &i in idx.iter() {
            let mut k = 0;
            while k < window.len() {
                if dominates(at(window[k]), at(i)) {
                    continue 'next;
                }
                if dominates(at(i), at(window[k])) {
                    window.swap_remove(k);
                } else {
                    k += 1;
                }
            }
            window.push(i);
        }
        return window;
    }

    // Split on the median of dimension 0.
    let mid = idx.len() / 2;
    idx.select_nth_unstable_by(mid, |&a, &b| {
        at(a)[0]
            .partial_cmp(&at(b)[0])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (lo, hi) = idx.split_at_mut(mid);
    let left = dnc(points, lo);
    let right = dnc(points, hi);

    // Right-half members survive only if no left-half skyline member
    // dominates them (left can never be dominated by right on dim 0…
    // except for ties, which the dominance test itself resolves).
    let mut merged = left.clone();
    'cand: for &r in &right {
        for &l in &left {
            if dominates(at(l), at(r)) {
                continue 'cand;
            }
        }
        merged.push(r);
    }
    // Ties on dim 0 can also let a right member dominate a left one.
    let snapshot = merged.clone();
    merged.retain(|&m| !snapshot.iter().any(|&o| o != m && dominates(at(o), at(m))));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skyline_naive, skyline_sfs};

    #[test]
    fn agrees_with_oracle_on_fixed_sets() {
        let pts = vec![
            vec![3.0, 1.0, 2.0],
            vec![1.0, 3.0, 9.0],
            vec![2.0, 2.0, 1.0],
            vec![4.0, 4.0, 4.0],
            vec![0.5, 5.0, 0.5],
            vec![0.5, 5.0, 0.4],
        ];
        assert_eq!(skyline_dnc(&pts), skyline_naive(&pts));
    }

    #[test]
    fn handles_empty_and_small() {
        assert!(skyline_dnc::<Vec<f64>>(&[]).is_empty());
        assert_eq!(skyline_dnc(&[vec![1.0, 2.0]]), vec![0]);
    }

    #[test]
    fn large_random_set_matches_sfs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let pts: Vec<Vec<f64>> = (0..2000)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1000.0)).collect())
            .collect();
        assert_eq!(skyline_dnc(&pts), skyline_sfs(&pts));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::skyline_naive;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn dnc_matches_naive(
            pts in prop::collection::vec(prop::collection::vec(0.0f64..100.0, 2..=4), 0..80)
        ) {
            // Mixed dimensionality is invalid; force all rows to the
            // first row's dimension.
            let Some(d) = pts.first().map(|p| p.len()) else {
                prop_assert!(skyline_dnc(&pts).is_empty());
                return Ok(());
            };
            let pts: Vec<Vec<f64>> = pts
                .into_iter()
                .map(|mut p| {
                    p.resize(d, 50.0);
                    p
                })
                .collect();
            prop_assert_eq!(skyline_dnc(&pts), skyline_naive(&pts));
        }
    }
}
