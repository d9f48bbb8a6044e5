//! Interesting-order skyline partitions (paper §2.1.4).
//!
//! The paper keeps order-producing subplans alive by giving each
//! relation `t` that can supply an interesting order its own skyline
//! partition: the JCRs that do *not* contain `t` (and therefore could
//! still join with `t` via an order-preserving method). Any member of
//! that partition's skyline is *rescued* — marked as a survivor even
//! if the hub partitions pruned it — so the cheap-but-ordered frontier
//! is never lost to cost-only dominance.
//!
//! This module hosts the partition mechanics generically: callers
//! provide the exclusion-partition membership, the current survivor
//! mask, and whichever skyline routine their config selects (one of
//! this crate's `_of` kernels over the caller's points). Keeping the
//! logic here (rather than inline in the pruner) lets the property
//! tests below pin the rescue invariant — *an interesting-order
//! partition never prunes the order-satisfying skyline member* —
//! against the oracle, independent of the pruner.

/// The exclusion partition for relation `t`: `out` is overwritten with
/// the index of every object whose relation set does **not** contain
/// `t`, per `contains_t`.
///
/// Ascending, so downstream skyline calls see a deterministic
/// partition.
pub fn exclusion_partition(len: usize, contains_t: impl Fn(usize) -> bool, out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..len).filter(|&i| !contains_t(i)));
}

/// Rescue the skyline of one interesting-order partition.
///
/// `members` are indices into `keep` (as produced by
/// [`exclusion_partition`]); `skyline` overwrites its buffer — the
/// scratch `winners` — with the members on the partition's skyline
/// (any of this crate's `_of` kernels, or the pruner's configured
/// variant). Every skyline winner has its `keep` flag forced on; the
/// return value counts how many were newly rescued (i.e. flipped from
/// pruned to kept).
///
/// # Panics
/// Debug-asserts that `members` is in bounds.
pub fn rescue_order_partition<F>(
    members: &[usize],
    keep: &mut [bool],
    winners: &mut Vec<usize>,
    skyline: F,
) -> u64
where
    F: FnOnce(&[usize], &mut Vec<usize>),
{
    debug_assert!(members.iter().all(|&i| i < keep.len()));
    if members.is_empty() {
        return 0;
    }
    skyline(members, winners);
    let mut rescued = 0u64;
    for &idx in winners.iter() {
        if !keep[idx] {
            keep[idx] = true;
            rescued += 1;
        }
    }
    rescued
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline_sfs_of;

    /// Rescue over `features` with the SFS kernel.
    fn rescue(features: &[Vec<f64>], members: &[usize], keep: &mut [bool]) -> u64 {
        rescue_order_partition(members, keep, &mut Vec::new(), |part, out| {
            skyline_sfs_of(features, part.iter().copied(), out)
        })
    }

    #[test]
    fn empty_partition_rescues_nothing() {
        let features = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let mut keep = vec![false, false];
        assert_eq!(rescue(&features, &[], &mut keep), 0);
        assert_eq!(keep, vec![false, false]);
    }

    #[test]
    fn rescues_pruned_partition_skyline_only() {
        // Object 2 dominates object 0 globally, but 2 contains `t`
        // (it is outside the partition), so 0 is the partition skyline
        // and must come back; 1 is dominated *within* the partition by
        // 0 and stays pruned.
        let features = vec![vec![2.0, 2.0], vec![3.0, 3.0], vec![1.0, 1.0]];
        let mut keep = vec![false, false, true];
        let rescued = rescue(&features, &[0, 1], &mut keep);
        assert_eq!(rescued, 1);
        assert_eq!(keep, vec![true, false, true]);
    }

    #[test]
    fn already_kept_winners_are_not_double_counted() {
        let features = vec![vec![1.0], vec![2.0]];
        let mut keep = vec![true, false];
        let rescued = rescue(&features, &[0, 1], &mut keep);
        assert_eq!(rescued, 0, "winner was already a survivor");
        assert_eq!(keep, vec![true, false]);
    }

    #[test]
    fn exclusion_partition_filters_by_membership() {
        // "Sets" 0..5 where even indices contain t; the buffer's old
        // contents never leak into the next partition.
        let mut part = vec![7, 7, 7];
        exclusion_partition(5, |i| i % 2 == 0, &mut part);
        assert_eq!(part, vec![1, 3]);
        exclusion_partition(4, |_| true, &mut part);
        assert!(part.is_empty());
        exclusion_partition(3, |_| false, &mut part);
        assert_eq!(part, vec![0, 1, 2]);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::{dominates, pairwise_union_skyline_of, skyline_naive, skyline_sfs_of};
    use proptest::prelude::*;

    fn arb_case() -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<bool>, Vec<bool>)> {
        // Per-object rows of (feature vector, initial keep, contains-t),
        // unzipped so the three columns always agree in length.
        prop::collection::vec(
            (
                prop::collection::vec(0.0f64..1000.0, 3usize),
                any::<bool>(),
                any::<bool>(),
            ),
            1..40,
        )
        .prop_map(|rows| {
            let mut features = Vec::with_capacity(rows.len());
            let mut keep = Vec::with_capacity(rows.len());
            let mut has_t = Vec::with_capacity(rows.len());
            for (f, k, t) in rows {
                features.push([f[0], f[1], f[2]]);
                keep.push(k);
                has_t.push(t);
            }
            (features, keep, has_t)
        })
    }

    /// The exclusion partition of a case, and the oracle's skyline of
    /// it: `skyline_naive` over a *copy* of the partition's rows,
    /// mapped back to indices into the whole.
    fn partition_and_oracle(features: &[[f64; 3]], has_t: &[bool]) -> (Vec<usize>, Vec<usize>) {
        let mut members = Vec::new();
        exclusion_partition(features.len(), |i| has_t[i], &mut members);
        let copied: Vec<[f64; 3]> = members.iter().map(|&i| features[i]).collect();
        let oracle = skyline_naive(&copied)
            .into_iter()
            .map(|w| members[w])
            .collect();
        (members, oracle)
    }

    proptest! {
        /// The tentpole invariant: after the rescue pass, *no* member
        /// of the interesting-order partition's skyline is pruned —
        /// whatever the hub partitions decided beforehand.
        #[test]
        fn never_prunes_the_order_satisfying_skyline_member(
            (features, mut keep, has_t) in arb_case()
        ) {
            let (members, _) = partition_and_oracle(&features, &has_t);
            rescue_order_partition(&members, &mut keep, &mut Vec::new(), |part, out| {
                skyline_sfs_of(&features, part.iter().copied(), out)
            });
            for &i in &members {
                let dominated_in_partition = members
                    .iter()
                    .any(|&j| j != i && dominates(&features[j], &features[i]));
                if !dominated_in_partition {
                    prop_assert!(
                        keep[i],
                        "partition skyline member {} was left pruned",
                        i
                    );
                }
            }
        }

        /// Rescue is monotone: it only ever flips `keep` from false to
        /// true, and never touches objects outside the partition.
        #[test]
        fn rescue_is_monotone_and_scoped((features, keep, has_t) in arb_case()) {
            let (members, oracle) = partition_and_oracle(&features, &has_t);
            let before = keep.clone();
            let mut after = keep;
            let rescued = rescue_order_partition(&members, &mut after, &mut Vec::new(), |_, out| {
                out.clone_from(&oracle)
            });
            let mut flips = 0u64;
            for i in 0..before.len() {
                if before[i] && !after[i] {
                    prop_assert!(false, "rescue demoted a survivor at {}", i);
                }
                if !before[i] && after[i] {
                    prop_assert!(members.contains(&i), "rescued non-member {}", i);
                    flips += 1;
                }
            }
            prop_assert_eq!(rescued, flips);
        }

        /// The index-slice kernels judge a partition exactly as the
        /// oracle judges a copy of its rows: SFS is the partition's
        /// skyline, the pairwise union is the union of the oracle's
        /// three two-attribute skylines — so the rescue count and final
        /// mask do not depend on the kernel (or on copying).
        #[test]
        fn partition_kernels_match_the_oracle_on_copied_rows(
            (features, keep, has_t) in arb_case()
        ) {
            let (members, oracle) = partition_and_oracle(&features, &has_t);
            let part = || members.iter().copied();
            let mut out = vec![usize::MAX; 3];
            skyline_sfs_of(&features, part(), &mut out);
            prop_assert_eq!(&out, &oracle);

            let mut union: Vec<usize> = [[0, 1], [0, 2], [1, 2]]
                .iter()
                .flat_map(|dims| {
                    let projected: Vec<Vec<f64>> = members
                        .iter()
                        .map(|&i| dims.iter().map(|&d| features[i][d]).collect())
                        .collect();
                    skyline_naive(&projected).into_iter().map(|w| members[w]).collect::<Vec<_>>()
                })
                .collect();
            union.sort_unstable();
            union.dedup();
            pairwise_union_skyline_of(&features, part(), &mut out);
            prop_assert_eq!(&out, &union);

            let mut a = keep.clone();
            let mut b = keep;
            let ra = rescue_order_partition(&members, &mut a, &mut Vec::new(), |_, out| {
                out.clone_from(&oracle)
            });
            let rb = rescue_order_partition(&members, &mut b, &mut Vec::new(), |part, out| {
                skyline_sfs_of(&features, part.iter().copied(), out)
            });
            prop_assert_eq!(ra, rb);
            prop_assert_eq!(a, b);
        }
    }
}
