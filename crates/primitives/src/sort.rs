//! Parallel sorting.
//!
//! Algorithm 2 of the paper sorts the values to compress them to dense ranks
//! (the points' `x` coordinates), and the dominant-max stores sort their
//! points by `x` when they build.  Its frontiers `F_1..k` need no sort: the
//! tournament tree of Algorithm 1 extracts each one in increasing index
//! order.  Batches handed to the vEB tree must also be sorted.
//!
//! These are the workspace's only parallel sorts: join-based parallel merge
//! sorts, in which the slice is split recursively, leaves are sorted with
//! std's (stable) sorts, and siblings are combined with the parallel
//! [`crate::merge`] machinery — the `T: Clone` bound pays for the merge
//! buffer.  Under a 1-thread pool the recursion never forks and the result
//! is exactly std's.

use crate::merge::merge_by;
use crate::par::GRAIN;
use std::cmp::Ordering;

/// Leaf size for the parallel merge sort: a few [`GRAIN`]s so std's sort
/// amortizes the merge passes, shrunk adaptively so every worker thread of
/// the current pool gets work on large inputs.
fn sort_grain(n: usize) -> usize {
    let threads = rayon::current_num_threads();
    if threads <= 1 {
        return usize::MAX;
    }
    n.div_ceil(threads * 2).max(GRAIN * 4)
}

fn merge_sort_by<T, F>(a: &mut [T], cmp: &F, grain: usize, stable: bool)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if a.len() <= grain {
        if stable {
            a.sort_by(|x, y| cmp(x, y));
        } else {
            a.sort_unstable_by(|x, y| cmp(x, y));
        }
        return;
    }
    let mid = a.len() / 2;
    let (lo, hi) = a.split_at_mut(mid);
    rayon::join(|| merge_sort_by(lo, cmp, grain, stable), || merge_sort_by(hi, cmp, grain, stable));
    // Parallel stable merge into a buffer, then copy back in parallel too —
    // a sequential copy-back would put an O(n) pass on the critical path of
    // every recursion level.
    let merged = merge_by(lo, hi, |x, y| cmp(x, y));
    let chunk = crate::par::adaptive_grain(a.len(), GRAIN);
    crate::par::par_chunks_mut_for(a, chunk, |ci, piece| {
        piece.clone_from_slice(&merged[ci * chunk..ci * chunk + piece.len()]);
    });
}

/// Unstable parallel sort (same merge sort with unstable leaves).
pub fn par_sort_unstable<T: Ord + Clone + Send + Sync>(a: &mut [T]) {
    merge_sort_by(a, &T::cmp, sort_grain(a.len()), false);
}

/// Stable parallel sort with a custom comparator.
pub fn par_sort_by<T, F>(a: &mut [T], cmp: F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    merge_sort_by(a, &cmp, sort_grain(a.len()), true);
}

/// Returns true if the slice is sorted in non-decreasing order.  Handy for
/// debug assertions on batches passed to the vEB tree.
pub fn is_sorted<T: Ord>(a: &[T]) -> bool {
    a.windows(2).all(|w| w[0] <= w[1])
}

/// Returns true if the slice is strictly increasing (no duplicates).  vEB
/// batches must be duplicate-free.
pub fn is_strictly_increasing<T: Ord>(a: &[T]) -> bool {
    a.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_matches_std() {
        let mut a: Vec<u64> = (0..100_000u64).map(|i| (i * 2654435761) % 1_000_003).collect();
        let mut want = a.clone();
        want.sort();
        par_sort_by(&mut a, u64::cmp);
        assert_eq!(a, want);
    }

    #[test]
    fn sort_unstable_matches_std() {
        let mut a: Vec<i64> = (0..50_000i64).map(|i| ((i * 37) % 1000) - 500).collect();
        let mut want = a.clone();
        want.sort_unstable();
        par_sort_unstable(&mut a);
        assert_eq!(a, want);
    }

    #[test]
    fn sort_by_key_is_stable() {
        // Pairs with equal keys must preserve insertion order.
        let mut a: Vec<(u32, usize)> = (0..10_000).map(|i| ((i % 10) as u32, i)).collect();
        par_sort_by(&mut a, |x, y| x.0.cmp(&y.0));
        for w in a.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn sortedness_predicates() {
        assert!(is_sorted::<u32>(&[]));
        assert!(is_sorted(&[1, 1, 2, 3]));
        assert!(!is_sorted(&[2, 1]));
        assert!(is_strictly_increasing(&[1, 2, 3]));
        assert!(!is_strictly_increasing(&[1, 1, 2]));
    }

    #[test]
    fn sort_by_comparator_descending() {
        let mut a = vec![3u8, 1, 4, 1, 5, 9, 2, 6];
        par_sort_by(&mut a, |x, y| y.cmp(x));
        assert_eq!(a, vec![9, 6, 5, 4, 3, 2, 1, 1]);
    }

    #[test]
    fn parallel_pool_sort_matches_one_thread_sort() {
        let base: Vec<(u32, usize)> =
            (0..200_000).map(|i| (((i * 48271) % 4096) as u32, i)).collect();
        let run = |threads: usize| {
            let mut v = base.clone();
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| par_sort_by(&mut v, |x, y| x.0.cmp(&y.0)));
            v
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq, par, "sorting must be deterministic across thread counts");
        let mut want = base.clone();
        want.sort_by_key(|p| p.0);
        assert_eq!(par, want);
    }
}
