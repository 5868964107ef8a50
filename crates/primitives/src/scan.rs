//! Parallel scans (prefix operations).
//!
//! [`group_by_rank`](crate::group_by_rank) needs prefix sums of the
//! per-key counts to place each group's elements into one output array.
//! The scan is the classic two-pass (up-sweep / down-sweep) scan with `O(n)`
//! work and `O(log n)` span.

use crate::par::{par_chunks_mut_for, par_map_collect_with_grain, GRAIN};

/// Exclusive scan with identity `id` and associative operation `op`.
/// Returns `(prefix, total)` where `prefix[i] = op(id, a[0], …, a[i-1])`.
///
/// Work `O(n)`, span `O(log n)`.
pub fn exclusive_scan<T, F>(a: &[T], id: T, op: F) -> (Vec<T>, T)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let n = a.len();
    let mut out = vec![id.clone(); n];
    if n == 0 {
        return (out, id);
    }
    // Up-sweep: compute the sum of each block; down-sweep: scan each block
    // with the block prefix as the carry-in.
    let nblocks = n.div_ceil(GRAIN);
    if nblocks == 1 {
        let mut acc = id.clone();
        for i in 0..n {
            out[i] = acc.clone();
            acc = op(&acc, &a[i]);
        }
        return (out, acc);
    }
    // Each index stands for a GRAIN-sized block of work ⇒ grain 1.
    let block_sums: Vec<T> = par_map_collect_with_grain(nblocks, 1, |b| {
        let chunk = &a[b * GRAIN..((b + 1) * GRAIN).min(n)];
        let mut acc = id.clone();
        for item in chunk {
            acc = op(&acc, item);
        }
        acc
    });
    // Sequential scan over the (small) block sums.
    let mut carries = vec![id.clone(); nblocks];
    let mut acc = id.clone();
    for b in 0..nblocks {
        carries[b] = acc.clone();
        acc = op(&acc, &block_sums[b]);
    }
    let total = acc;
    // Down-sweep each block in parallel.
    par_chunks_mut_for(&mut out, GRAIN, |b, ochunk| {
        let achunk = &a[b * GRAIN..b * GRAIN + ochunk.len()];
        let mut acc = carries[b].clone();
        for (o, item) in ochunk.iter_mut().zip(achunk.iter()) {
            *o = acc.clone();
            acc = op(&acc, item);
        }
    });
    (out, total)
}

/// In-place exclusive scan specialised for `usize` sums.  Returns the total.
/// This is the common case for computing output offsets, such as
/// [`group_by_rank`](crate::group_by_rank)'s group starts.
pub fn scan_inplace(a: &mut [usize]) -> usize {
    let copy: Vec<usize> = a.to_vec();
    let (ex, total) = exclusive_scan(&copy, 0usize, |x, y| x + y);
    a.copy_from_slice(&ex);
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_exclusive(a: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(a.len());
        let mut acc = 0u64;
        for &x in a {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn exclusive_scan_empty() {
        let (v, t) = exclusive_scan::<u64, _>(&[], 0, |a, b| a + b);
        assert!(v.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn exclusive_scan_small_matches_sequential() {
        let a: Vec<u64> = (0..100).map(|i| (i * 7 + 3) % 13).collect();
        let (got, total) = exclusive_scan(&a, 0, |x, y| x + y);
        let (want, wtotal) = seq_exclusive(&a);
        assert_eq!(got, want);
        assert_eq!(total, wtotal);
    }

    #[test]
    fn exclusive_scan_large_matches_sequential() {
        let a: Vec<u64> = (0..100_000u64).map(|i| (i * 2654435761) % 1000).collect();
        let (got, total) = exclusive_scan(&a, 0, |x, y| x + y);
        let (want, wtotal) = seq_exclusive(&a);
        assert_eq!(got, want);
        assert_eq!(total, wtotal);
    }

    #[test]
    fn scan_inplace_returns_total() {
        let mut a = vec![1usize; 5000];
        let total = scan_inplace(&mut a);
        assert_eq!(total, 5000);
        assert_eq!(a[0], 0);
        assert_eq!(a[4999], 4999);
    }
}
