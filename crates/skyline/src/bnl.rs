//! Block-nested-loops skyline.
//!
//! The original skyline algorithm: maintain a window of incomparable
//! candidates; each incoming object is compared against the window,
//! evicting dominated window members and being discarded if itself
//! dominated. With the window held in memory (always the case here —
//! SDP partitions are small) a single pass suffices.

use crate::dominates;

/// Compute the skyline of `points` (minimization on all dimensions),
/// returning indices into `points` in ascending order.
pub fn skyline_bnl<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let mut window: Vec<usize> = Vec::new();
    'next: for (i, p) in points.iter().enumerate() {
        let p = p.as_ref();
        let mut k = 0;
        while k < window.len() {
            let w = points[window[k]].as_ref();
            if dominates(w, p) {
                continue 'next; // incoming object dominated
            }
            if dominates(p, w) {
                window.swap_remove(k); // evict dominated member
            } else {
                k += 1;
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline_naive;

    #[test]
    fn matches_oracle_on_small_sets() {
        let pts = vec![
            vec![3.0, 1.0],
            vec![1.0, 3.0],
            vec![2.0, 2.0],
            vec![4.0, 4.0], // dominated by all of the above
            vec![0.5, 5.0],
        ];
        assert_eq!(skyline_bnl(&pts), skyline_naive(&pts));
        assert_eq!(skyline_bnl(&pts), vec![0, 1, 2, 4]);
    }

    #[test]
    fn single_dimension_keeps_minimum_only() {
        let pts = vec![vec![5.0], vec![2.0], vec![9.0], vec![2.0]];
        // Both 2.0s are mutually non-dominating.
        assert_eq!(skyline_bnl(&pts), vec![1, 3]);
    }

    #[test]
    fn all_incomparable_survive() {
        // Anti-chain: strictly decreasing in one dim, increasing in
        // the other.
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (10 - i) as f64]).collect();
        assert_eq!(skyline_bnl(&pts).len(), 10);
    }

    #[test]
    fn totally_ordered_chain_keeps_one() {
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        assert_eq!(skyline_bnl(&pts), vec![0]);
    }

    #[test]
    fn empty_input() {
        assert!(skyline_bnl::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn later_point_can_evict_earlier_window_members() {
        let pts = vec![vec![5.0, 5.0], vec![6.0, 4.0], vec![1.0, 1.0]];
        assert_eq!(skyline_bnl(&pts), vec![2]);
    }
}
