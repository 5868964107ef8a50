//! Recovering an actual LIS — or maximum-weight increasing subsequence —
//! from maintained dp values (Appendix A).
//!
//! Lemma A.1: for an object with rank `r`, the *smallest* object with rank
//! `r − 1` before it is a best decision; by Lemma A.2 the rank-`(r − 1)`
//! objects are non-increasing in value along increasing index, so the
//! smallest one before index `i` is simply the *last* one before index `i`,
//! which a binary search over the frontier's (sorted) index list finds in
//! `O(log n)`.
//!
//! The entry points come in two layers:
//!
//! * [`lis_indices`] — offline convenience: computes ranks, then walks.
//! * [`lis_indices_from_ranks`] — reuses a rank array (offline or the
//!   exact ranks a streaming session maintains), groups it into per-rank
//!   frontiers and walks them.
//!
//! The streaming sessions of `plis-engine` call neither: they keep
//! each element's step of this walk (the last element of the previous
//! rank before it) as a parent pointer at ingest and follow those in
//! `O(k)`.  Their oracle suite checks the result against
//! [`lis_indices_from_ranks`], an independent group-then-walk.
//!
//! [`wlis_indices_from_scores`] is the weighted analogue: it recovers a
//! maximum-weight increasing subsequence from the dp scores of Algorithm 2
//! (Equation 2) with one backward scan — see its docs for the argument.

use plis_primitives::group_by_rank;

/// Return the indices (increasing) of one longest increasing subsequence of
/// `values`, using the ranks produced by Algorithm 1.
pub fn lis_indices<T: Ord + Sync>(values: &[T]) -> Vec<usize> {
    let (ranks, k) = crate::lis_ranks(values);
    lis_indices_from_ranks(values, &ranks, k)
}

/// As [`lis_indices`], but reusing ranks that were already computed.
///
/// # Panics
/// Panics if `ranks`/`k` are inconsistent with `values` (e.g. not produced
/// by [`crate::lis_ranks`]).
pub fn lis_indices_from_ranks<T: Ord>(values: &[T], ranks: &[u32], k: u32) -> Vec<usize> {
    assert_eq!(values.len(), ranks.len(), "ranks must cover every value");
    if k == 0 {
        assert!(values.is_empty(), "k = 0 requires an empty input");
        return Vec::new();
    }
    // frontiers[r - 1] lists, in increasing index order, the objects of rank r.
    let rank_keys: Vec<usize> = ranks.iter().map(|&r| (r - 1) as usize).collect();
    let frontiers = group_by_rank(&rank_keys, k as usize);
    lis_indices_from_frontiers(values, &frontiers)
}

/// The Appendix-A walk of [`lis_indices_from_ranks`]: recover one LIS from
/// per-rank *frontiers* — `frontiers[r - 1]` lists, in increasing index
/// order, every object of rank `r` — in `O(k log n)`.
///
/// The walk is deterministic — it always starts from the leftmost
/// top-rank object and takes the last valid predecessor in each frontier.
///
/// # Panics
/// Panics if the frontiers are inconsistent with `values` (empty rank
/// class, or a rank class whose predecessor class is exhausted) — i.e. if
/// they were not produced by grouping a valid rank array.
fn lis_indices_from_frontiers<T: Ord>(values: &[T], frontiers: &[Vec<usize>]) -> Vec<usize> {
    let k = frontiers.len();
    if k == 0 {
        return Vec::new();
    }
    assert!(frontiers.iter().all(|f| !f.is_empty()), "every rank 1..=k must be populated");

    let mut out = Vec::with_capacity(k);
    // Start from the first (leftmost) object of the top frontier and walk
    // down one rank at a time.
    let mut current = frontiers[k - 1][0];
    out.push(current);
    for r in (1..k).rev() {
        let frontier = &frontiers[r - 1];
        // Last index in this frontier that is strictly before `current`.
        let pos = frontier.partition_point(|&idx| idx < current);
        assert!(pos > 0, "a rank-{r} predecessor must exist before index {current}");
        let chosen = frontier[pos - 1];
        debug_assert!(values[chosen] < values[current], "best decision must be smaller");
        out.push(chosen);
        current = chosen;
    }
    out.reverse();
    out
}

/// Recover the indices (increasing) of one **maximum-weight** increasing
/// subsequence from the dp scores of Algorithm 2
/// (`dp[i] = w_i + max(0, max_{j<i, A_j<A_i} dp[j])`) — the weighted
/// analogue of [`lis_indices_from_ranks`], consumed by the streaming
/// weighted sessions whose scores are exact and final on ingest.
///
/// The walk starts at the leftmost element of maximum score and repeatedly
/// looks for the *nearest* earlier element `j` with `values[j] < values[i]`
/// and `dp[j] = dp[i] − w_i`.  Any such `j` is a valid link: `dp[j]`
/// certifies an increasing subsequence of weight `dp[i] − w_i` ending at
/// `j`, and appending `i` re-creates weight `dp[i]`; one always exists
/// while `dp[i] − w_i > 0` by the definition of the recurrence.  Taking
/// the nearest one makes the walk a single backward scan — `O(n)` total —
/// and makes the answer deterministic, so streaming certificates are
/// bit-identical to this function run offline on the same prefix.
///
/// The total weight of the returned subsequence equals `max(scores)`; the
/// returned indices are strictly increasing, and so are the values along
/// them.  Returns an empty vector when `values` is empty or every score is
/// zero (all-zero weights: the empty subsequence is already optimal).
///
/// # Panics
/// Panics if the slice lengths disagree or `scores` was not produced by
/// the Algorithm-2 recurrence on `(values, weights)`.
pub fn wlis_indices_from_scores<T: Ord>(
    values: &[T],
    weights: &[u64],
    scores: &[u64],
) -> Vec<usize> {
    assert_eq!(values.len(), weights.len(), "one weight per value is required");
    assert_eq!(values.len(), scores.len(), "one score per value is required");
    let Some(&best) = scores.iter().max() else {
        return Vec::new();
    };
    if best == 0 {
        return Vec::new();
    }
    // Leftmost element achieving the best score.
    let mut current = scores.iter().position(|&s| s == best).expect("max exists");
    let mut out = vec![current];
    let chain_link = |i: usize| {
        scores[i].checked_sub(weights[i]).expect("score below own weight: corrupt scores")
    };
    let mut needed = chain_link(current);
    while needed > 0 {
        // Nearest predecessor with the required score and a smaller value.
        let link = (0..current)
            .rev()
            .find(|&j| scores[j] == needed && values[j] < values[current])
            .unwrap_or_else(|| {
                panic!("no rank-{needed} predecessor before index {current}: corrupt scores")
            });
        out.push(link);
        current = link;
        needed = chain_link(current);
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_lis<T: Ord + std::fmt::Debug>(
        values: &[T],
        indices: &[usize],
        expected_len: u32,
    ) {
        assert_eq!(indices.len(), expected_len as usize);
        assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must increase: {indices:?}");
        assert!(
            indices.windows(2).all(|w| values[w[0]] < values[w[1]]),
            "values must strictly increase along the subsequence"
        );
    }

    #[test]
    fn paper_example_reconstruction() {
        let a = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let lis = lis_indices(&a);
        assert_valid_lis(&a, &lis, 3);
    }

    #[test]
    fn empty_and_monotone() {
        assert!(lis_indices::<u64>(&[]).is_empty());
        let inc: Vec<u64> = (0..100).collect();
        assert_valid_lis(&inc, &lis_indices(&inc), 100);
        let dec: Vec<u64> = (0..100).rev().collect();
        assert_valid_lis(&dec, &lis_indices(&dec), 1);
    }

    #[test]
    fn duplicates_do_not_extend_the_subsequence() {
        let a = [3u64, 3, 3, 4, 4, 5];
        let lis = lis_indices(&a);
        assert_valid_lis(&a, &lis, 3);
    }

    /// O(n²) oracle for the weighted dp recurrence, local to the tests.
    fn oracle_wdp(a: &[u64], w: &[u64]) -> Vec<u64> {
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

    fn assert_valid_wlis(values: &[u64], weights: &[u64], indices: &[usize], claimed: u64) {
        assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must increase: {indices:?}");
        assert!(
            indices.windows(2).all(|w| values[w[0]] < values[w[1]]),
            "values must strictly increase along the subsequence"
        );
        let total: u64 = indices.iter().map(|&i| weights[i]).sum();
        assert_eq!(total, claimed, "certificate weight must equal the claimed score");
    }

    #[test]
    fn frontier_walk_matches_the_rank_entry_point() {
        let a = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let (ranks, k) = crate::lis_ranks_u64(&a);
        let rank_keys: Vec<usize> = ranks.iter().map(|&r| (r - 1) as usize).collect();
        let frontiers = group_by_rank(&rank_keys, k as usize);
        assert_eq!(
            lis_indices_from_frontiers(&a, &frontiers),
            lis_indices_from_ranks(&a, &ranks, k)
        );
        assert!(lis_indices_from_frontiers::<u64>(&[], &[]).is_empty());
    }

    #[test]
    fn weighted_reconstruction_recovers_the_best_total() {
        let a = [1u64, 2, 3, 4];
        let w = [1u64, 100, 1, 1];
        let dp = oracle_wdp(&a, &w);
        let cert = wlis_indices_from_scores(&a, &w, &dp);
        assert_valid_wlis(&a, &w, &cert, 103);
        assert_eq!(cert, vec![0, 1, 2, 3]);
    }

    #[test]
    fn weighted_reconstruction_handles_degenerate_inputs() {
        assert!(wlis_indices_from_scores::<u64>(&[], &[], &[]).is_empty());
        // All-zero weights: every score is 0, the empty chain is optimal.
        let a = [5u64, 1, 9];
        let w = [0u64, 0, 0];
        assert!(wlis_indices_from_scores(&a, &w, &oracle_wdp(&a, &w)).is_empty());
        // A single element certifies itself.
        assert_eq!(wlis_indices_from_scores(&[7u64], &[3], &[3]), vec![0]);
        // Duplicates never chain: the certificate is one element.
        let a = [4u64, 4, 4];
        let w = [2u64, 3, 1];
        let dp = oracle_wdp(&a, &w);
        let cert = wlis_indices_from_scores(&a, &w, &dp);
        assert_valid_wlis(&a, &w, &cert, 3);
    }

    #[test]
    fn weighted_reconstruction_is_valid_on_random_inputs() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..8 {
            let n = 100 + trial * 80;
            let a: Vec<u64> = (0..n).map(|_| next() % 250).collect();
            let w: Vec<u64> = (0..n).map(|_| next() % 40).collect(); // zero weights included
            let dp = oracle_wdp(&a, &w);
            let cert = wlis_indices_from_scores(&a, &w, &dp);
            assert_valid_wlis(&a, &w, &cert, dp.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn random_inputs_reconstruct_valid_optimal_subsequences() {
        let mut state = 0xC6A4A7935BD1E995u64;
        for trial in 0..10 {
            let n = 300 + trial * 100;
            let a: Vec<u64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 1000
                })
                .collect();
            let (ranks, k) = crate::lis_ranks_u64(&a);
            let lis = lis_indices_from_ranks(&a, &ranks, k);
            assert_valid_lis(&a, &lis, k);
        }
    }
}
