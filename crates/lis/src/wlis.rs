//! Algorithm 2: the parallel weighted LIS algorithm.
//!
//! The dp recurrence (Equation 2) is
//! `dp[i] = w_i + max(0, max_{j<i, A_j<A_i} dp[j])`.
//! The phase-parallel driver first compresses the values to their dense
//! ranks, the points' `x` coordinates, and runs Algorithm 1's tournament
//! tree on those `u64` keys: they keep strict order and ties, so its
//! frontiers are those of the values.  Each round's frontier comes out of
//! the tree in increasing index order and is processed at once: all dp
//! values inside one frontier are independent (their predecessors all have
//! strictly smaller ranks, so they are in earlier frontiers), so they are
//! computed by parallel *dominant-max* queries and then written back to the
//! structure as a batch.
//!
//! There is exactly **one** driver, [`wlis_with`], generic over the
//! [`DominantMaxStore`] trait of `plis-primitives`; the concrete structures
//! implement that trait in their own crates (`plis-rangetree`, Theorem 4.1;
//! `plis-rangeveb`, Theorem 1.2).  [`wlis_rangetree`] / [`wlis_rangeveb`]
//! pin the store.

use crate::compress::compress_to_ranks;
use plis_primitives::{par_map_collect, DomMaxStats, DominantMaxStore};
use plis_tournament::TournamentTree;
use std::sync::atomic::{AtomicU64, Ordering};

/// Weighted LIS over an arbitrary comparable element type using the chosen
/// dominant-max store.  Returns the dp values of every object
/// (`dp[i] = w_i + max(0, max_{j<i, A_j<A_i} dp[j])`).
///
/// This is the only Algorithm-2 driver in the workspace: every backend and
/// every caller (the offline entry points, the benchmarks, and the engine's
/// oracle suites) goes through this function.
///
/// # Panics
/// Panics if `values` and `weights` have different lengths.
pub fn wlis_with<T: Ord + Sync, S: DominantMaxStore>(values: &[T], weights: &[u64]) -> Vec<u64> {
    wlis_with_stats::<T, S>(values, weights).0
}

/// [`wlis_with`] plus the store's cumulative [`DomMaxStats`] — the hook the
/// benchmarks use, since the store is built and dropped inside the
/// driver.  The stats are purely observational: the returned dp vector is
/// identical to [`wlis_with`]'s.
///
/// # Panics
/// Panics if `values` and `weights` have different lengths.
pub fn wlis_with_stats<T: Ord + Sync, S: DominantMaxStore>(
    values: &[T],
    weights: &[u64],
) -> (Vec<u64>, DomMaxStats) {
    assert_eq!(values.len(), weights.len(), "one weight per value is required");
    let n = values.len();
    if n == 0 {
        return (Vec::new(), DomMaxStats::default());
    }
    // Lines 12–13's x coordinate: the value ranks keep strict order and
    // ties, so Alg. 1 extracts the same frontiers from them as from
    // `values`.
    let xranks = compress_to_ranks(values);

    // Lines 12–13: one 2D point per object, x = value rank, y = index.
    let points: Vec<(u64, u64)> = (0..n).map(|i| (xranks[i], i as u64)).collect();
    let mut structure = S::build(&points);

    // Line 11 and lines 14–18: Alg. 1 extracts the frontiers in rank order,
    // and each one is processed as soon as it is extracted.
    let mut tree = TournamentTree::new(&xranks, u64::MAX);
    // Scratch: the extraction writes each object's rank here as well.
    let mut rank = vec![0u32; n];
    let dp: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut round = 0u32;
    while !tree.is_empty() {
        round += 1;
        let (_, frontier) = tree.process_frontier_collect(round, &mut rank);
        // Queries of one frontier are independent: all dependencies have
        // strictly smaller ranks and are already in the structure.  The
        // join-splitting parallel map keeps the update list in frontier
        // order, so the batch write-back is identical for any thread count.
        let updates: Vec<(u64, u64, u64)> = par_map_collect(frontier.len(), |idx| {
            let j = frontier[idx];
            let best = structure.dominant_max(xranks[j], j as u64);
            let value = best + weights[j];
            dp[j].store(value, Ordering::Relaxed);
            (xranks[j], j as u64, value)
        });
        structure.update_batch(&updates);
    }
    let stats = structure.stats();
    (dp.into_iter().map(AtomicU64::into_inner).collect(), stats)
}

/// Weighted LIS using the parallel range tree (the practical configuration,
/// Theorem 4.1: `O(n log² n)` work, `O(k log² n)` span).
pub fn wlis_rangetree<T: Ord + Sync>(values: &[T], weights: &[u64]) -> Vec<u64> {
    wlis_with::<T, plis_rangetree::RangeMaxTree>(values, weights)
}

/// Weighted LIS using the Range-vEB tree (the theoretical configuration,
/// Theorem 1.2).
pub fn wlis_rangeveb<T: Ord + Sync>(values: &[T], weights: &[u64]) -> Vec<u64> {
    wlis_with::<T, plis_rangeveb::RangeVeb>(values, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) oracle for the weighted dp recurrence.
    fn oracle_wdp<T: Ord>(a: &[T], w: &[u64]) -> Vec<u64> {
        let n = a.len();
        let mut dp = vec![0u64; n];
        for i in 0..n {
            let mut best = 0;
            for j in 0..i {
                if a[j] < a[i] {
                    best = best.max(dp[j]);
                }
            }
            dp[i] = best + w[i];
        }
        dp
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn empty_input() {
        assert!(wlis_rangetree::<u64>(&[], &[]).is_empty());
        assert!(wlis_rangeveb::<u64>(&[], &[]).is_empty());
    }

    #[test]
    fn unit_weights_reduce_to_lis_ranks() {
        let a = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let w = vec![1u64; a.len()];
        let expect: Vec<u64> = vec![1, 1, 2, 1, 3, 1, 2, 3];
        assert_eq!(wlis_rangetree(&a, &w), expect);
        assert_eq!(wlis_rangeveb(&a, &w), expect);
    }

    #[test]
    fn weighted_example_prefers_heavy_objects() {
        // Values increasing, but a single huge weight dominates.
        let a = [1u64, 2, 3, 4];
        let w = [1u64, 100, 1, 1];
        let dp = wlis_rangetree(&a, &w);
        assert_eq!(dp, vec![1, 101, 102, 103]);
    }

    #[test]
    fn duplicates_do_not_chain() {
        let a = [5u64, 5, 5];
        let w = [2u64, 3, 4];
        assert_eq!(wlis_rangetree(&a, &w), vec![2, 3, 4]);
        assert_eq!(wlis_rangeveb(&a, &w), vec![2, 3, 4]);
    }

    #[test]
    fn both_backends_match_the_oracle_on_random_inputs() {
        let mut state = 0x41C64E6D12345u64;
        for trial in 0..8 {
            let n = 150 + trial * 60;
            let a: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % 300).collect();
            let w: Vec<u64> = (0..n).map(|_| 1 + xorshift(&mut state) % 50).collect();
            let want = oracle_wdp(&a, &w);
            assert_eq!(wlis_rangetree(&a, &w), want, "range tree, trial {trial}");
            assert_eq!(wlis_rangeveb(&a, &w), want, "range vEB, trial {trial}");
        }
        // Signed values, negatives and repeats included: the driver ranks
        // their compressed keys, not the values themselves.
        for trial in 0..4 {
            let n = 200 + trial * 90;
            let a: Vec<i64> = (0..n).map(|_| (xorshift(&mut state) % 101) as i64 - 50).collect();
            let w: Vec<u64> = (0..n).map(|_| 1 + xorshift(&mut state) % 50).collect();
            let want = oracle_wdp(&a, &w);
            assert_eq!(wlis_rangetree(&a, &w), want, "range tree, i64 trial {trial}");
            assert_eq!(wlis_rangeveb(&a, &w), want, "range vEB, i64 trial {trial}");
        }
        let extremes = [i64::MIN, 3, -1, i64::MAX, -1, i64::MIN, 0, i64::MAX, 2, -7];
        let w: Vec<u64> = (1..=extremes.len() as u64).collect();
        let want = oracle_wdp(&extremes, &w);
        assert_eq!(wlis_rangetree(&extremes, &w), want, "range tree, i64 extremes");
        assert_eq!(wlis_rangeveb(&extremes, &w), want, "range vEB, i64 extremes");
    }

    #[test]
    fn stats_variant_returns_same_dp_and_counts_work() {
        let a = [9u64, 2, 7, 4, 8, 1, 6];
        let w = [3u64, 5, 2, 9, 1, 4, 7];
        let (dp, stats) = wlis_with_stats::<_, plis_rangetree::RangeMaxTree>(&a, &w);
        assert_eq!(dp, wlis_rangetree(&a, &w));
        // One dominant_max per object, one write-back entry per object.
        assert_eq!(stats.queries, a.len() as u64);
        assert_eq!(stats.writeback_elems, a.len() as u64);
        // One update_batch per frontier: as many as distinct LIS ranks.
        let (_, k) = crate::lis_ranks(&a);
        assert_eq!(stats.writeback_batches, u64::from(k));
        // The other backend reports the same trait-level totals.
        let (_, veb_stats) = wlis_with_stats::<_, plis_rangeveb::RangeVeb>(&a, &w);
        assert_eq!(stats, veb_stats);
    }

    #[test]
    fn stores_report_their_names() {
        assert_eq!(<plis_rangetree::RangeMaxTree as DominantMaxStore>::name(), "range-tree");
        assert_eq!(<plis_rangeveb::RangeVeb as DominantMaxStore>::name(), "range-veb");
    }

    #[test]
    #[should_panic(expected = "one weight per value")]
    fn mismatched_lengths_panic() {
        wlis_rangetree(&[1u64, 2], &[1u64]);
    }
}
