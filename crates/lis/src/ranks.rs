//! Algorithm 1: the parallel (unweighted) LIS algorithm.
//!
//! The rank of an object is the length of the LIS ending at it (its `dp`
//! value from Equation (1)).  Lemma 3.1 characterises the rank-`r` objects
//! as the prefix-min objects of the sequence obtained by removing everything
//! of smaller rank, so the algorithm repeatedly extracts all current
//! prefix-min objects from a parallel tournament tree — one round per rank.
//! `O(n log k)` work, `O(k log n)` span, `O(n)` space (Theorems 1.1, 3.2).

use plis_tournament::TournamentTree;

/// Instrumentation returned by [`lis_ranks_u64_with_stats`]: per-round
/// frontier sizes and the total tournament-tree work (nodes visited plus
/// leaf slots scanned), used by the work-bound experiment (E7 in
/// `DESIGN.md`).
#[derive(Debug, Clone, Default)]
pub struct LisStats {
    /// `frontier_sizes[r]` is the number of objects with rank `r + 1`.
    pub frontier_sizes: Vec<usize>,
    /// Total tournament-tree work across all rounds: nodes visited plus
    /// leaf slots scanned (Theorem 3.2 bounds this by `O(n log k)`).
    pub nodes_visited: usize,
}

/// Compute the rank (dp value) of every object of `values` and the LIS
/// length `k`, for `u64` inputs.  `u64::MAX` is reserved as the sentinel.
pub fn lis_ranks_u64(values: &[u64]) -> (Vec<u32>, u32) {
    let tree = TournamentTree::new(values, u64::MAX);
    tree.extract_all_ranks()
}

/// [`lis_ranks_u64`] plus the instrumentation of [`LisStats`].
pub fn lis_ranks_u64_with_stats(values: &[u64]) -> (Vec<u32>, u32, LisStats) {
    let mut tree = TournamentTree::new(values, u64::MAX);
    let mut rank = vec![0u32; values.len()];
    let mut stats = LisStats::default();
    let mut round = 0u32;
    while !tree.is_empty() {
        round += 1;
        let fs = tree.process_frontier(round, &mut rank);
        stats.frontier_sizes.push(fs.frontier_size);
        stats.nodes_visited += fs.nodes_visited;
    }
    (rank, round, stats)
}

/// Comparison-based variant of [`lis_ranks_u64`] for any `Ord` element type.
/// The tournament tree holds references wrapped so that "removed" compares
/// greater than every real value, exactly like the paper's `+∞`.
pub fn lis_ranks<T: Ord + Sync>(values: &[T]) -> (Vec<u32>, u32) {
    enum Slot<'a, T> {
        Finite(&'a T),
        Inf,
    }
    // Manual Clone/Copy: the enum only holds a reference, so it is copyable
    // regardless of whether `T` itself is.
    impl<'a, T> Clone for Slot<'a, T> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<'a, T> Copy for Slot<'a, T> {}
    impl<'a, T: Ord> PartialEq for Slot<'a, T> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl<'a, T: Ord> Eq for Slot<'a, T> {}
    impl<'a, T: Ord> PartialOrd for Slot<'a, T> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<'a, T: Ord> Ord for Slot<'a, T> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            match (self, other) {
                (Slot::Inf, Slot::Inf) => std::cmp::Ordering::Equal,
                (Slot::Inf, Slot::Finite(_)) => std::cmp::Ordering::Greater,
                (Slot::Finite(_), Slot::Inf) => std::cmp::Ordering::Less,
                (Slot::Finite(a), Slot::Finite(b)) => a.cmp(b),
            }
        }
    }
    let slots: Vec<Slot<'_, T>> = values.iter().map(Slot::Finite).collect();
    let tree = TournamentTree::new(&slots, Slot::Inf);
    tree.extract_all_ranks()
}

/// The LIS length of `values` (`k` in the paper's notation).
pub fn lis_length<T: Ord + Sync>(values: &[T]) -> u32 {
    lis_ranks(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) dynamic-programming oracle for dp values.
    fn oracle_dp(a: &[u64]) -> Vec<u32> {
        let n = a.len();
        let mut dp = vec![0u32; n];
        for i in 0..n {
            dp[i] = 1;
            for j in 0..i {
                if a[j] < a[i] {
                    dp[i] = dp[i].max(dp[j] + 1);
                }
            }
        }
        dp
    }

    #[test]
    fn paper_example() {
        let a = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let (ranks, k) = lis_ranks_u64(&a);
        assert_eq!(ranks, vec![1, 1, 2, 1, 3, 1, 2, 3]);
        assert_eq!(k, 3);
        let (granks, gk) = lis_ranks(&a);
        assert_eq!(granks, ranks);
        assert_eq!(gk, k);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(lis_ranks_u64(&[]), (vec![], 0));
        assert_eq!(lis_ranks_u64(&[9]), (vec![1], 1));
        assert_eq!(lis_length::<u64>(&[]), 0);
    }

    #[test]
    fn monotone_sequences() {
        let inc: Vec<u64> = (0..500).collect();
        assert_eq!(lis_ranks_u64(&inc).1, 500);
        let dec: Vec<u64> = (0..500).rev().collect();
        assert_eq!(lis_ranks_u64(&dec).1, 1);
        let flat = vec![7u64; 300];
        assert_eq!(lis_ranks_u64(&flat).1, 1);
    }

    #[test]
    fn ranks_equal_dp_values_on_random_inputs() {
        let mut state = 0xD1B54A32D192ED03u64;
        for trial in 0..10 {
            let n = 200 + trial * 150;
            let a: Vec<u64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 500
                })
                .collect();
            let (ranks, k) = lis_ranks_u64(&a);
            let dp = oracle_dp(&a);
            assert_eq!(ranks, dp, "trial {trial}");
            assert_eq!(k, *dp.iter().max().unwrap(), "trial {trial}");
        }
    }

    #[test]
    fn generic_version_works_on_strings() {
        let words = ["banana", "apple", "cherry", "blueberry", "date"];
        let owned: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let (ranks, k) = lis_ranks(&owned);
        // apple < blueberry < date is a longest chain by index & lexicographic order.
        assert_eq!(k, 3);
        assert_eq!(ranks.len(), owned.len());
    }

    #[test]
    fn stats_report_consistent_totals() {
        let a: Vec<u64> = (0..4000u64).map(|i| (i * 2654435761) % 9973).collect();
        let (ranks, k, stats) = lis_ranks_u64_with_stats(&a);
        assert_eq!(stats.frontier_sizes.len(), k as usize);
        assert_eq!(stats.frontier_sizes.iter().sum::<usize>(), a.len());
        assert!(stats.nodes_visited >= a.len());
        let (plain, pk) = lis_ranks_u64(&a);
        assert_eq!(ranks, plain);
        assert_eq!(k, pk);
    }
}
