//! Parallel merge of sorted sequences.
//!
//! Appendix A of the paper merges consecutive frontiers `F_r` and `F_{r-1}`
//! by index to find, for every rank-`r` object, the last rank-`(r-1)` object
//! before it (its best decision).  A parallel merge with `O(n)` work and
//! `O(log n)` span (dual binary search splitting) is exactly what is needed.

use crate::par::{maybe_join, GRAIN};

/// Merge two sorted slices into one sorted vector using `cmp` as the order.
/// Stable: on ties elements of `a` come first.
///
/// Work `O(|a| + |b|)`, span `O(log² (|a|+|b|))`.
pub fn merge_by<T, F>(a: &[T], b: &[T], cmp: F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync + Copy,
{
    let mut out = vec![None; a.len() + b.len()];
    merge_into(a, b, &mut out, cmp);
    out.into_iter().map(|x| x.expect("merge filled every slot")).collect()
}

fn merge_into<T, F>(a: &[T], b: &[T], out: &mut [Option<T>], cmp: F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync + Copy,
{
    let n = a.len() + b.len();
    debug_assert_eq!(out.len(), n);
    if n <= GRAIN {
        // Sequential two-finger merge.
        let (mut i, mut j) = (0, 0);
        for slot in out.iter_mut() {
            if i < a.len() && (j >= b.len() || cmp(&a[i], &b[j]) != std::cmp::Ordering::Greater) {
                *slot = Some(a[i].clone());
                i += 1;
            } else {
                *slot = Some(b[j].clone());
                j += 1;
            }
        }
        return;
    }
    // Split the larger side in half and binary-search the split point in the
    // other side; recurse on both halves in parallel.
    if a.len() >= b.len() {
        let amid = a.len() / 2;
        let pivot = &a[amid];
        // Send b-elements equal to the pivot right, where a's equal run
        // (starting at a[amid]) precedes them — ties from `a` first.
        let bmid = partition_point(b, |x| cmp(x, pivot) == std::cmp::Ordering::Less);
        let (out_l, out_r) = out.split_at_mut(amid + bmid);
        maybe_join(
            n,
            GRAIN,
            || merge_into(&a[..amid], &b[..bmid], out_l, cmp),
            || merge_into(&a[amid..], &b[bmid..], out_r, cmp),
        );
    } else {
        let bmid = b.len() / 2;
        let pivot = &b[bmid];
        // Elements of `a` equal to the pivot must go left of it for stability.
        let amid = partition_point(a, |x| cmp(x, pivot) != std::cmp::Ordering::Greater);
        let (out_l, out_r) = out.split_at_mut(amid + bmid);
        maybe_join(
            n,
            GRAIN,
            || merge_into(&a[..amid], &b[..bmid], out_l, cmp),
            || merge_into(&a[amid..], &b[bmid..], out_r, cmp),
        );
    }
}

/// `slice.partition_point` for a generic predicate (first index where the
/// predicate turns false).
fn partition_point<T, P: Fn(&T) -> bool>(s: &[T], pred: P) -> usize {
    let (mut lo, mut hi) = (0usize, s.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(&s[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_empty_sides() {
        let a: Vec<u32> = vec![];
        let b = vec![1, 2, 3];
        assert_eq!(merge_by(&a, &b, Ord::cmp), b);
        assert_eq!(merge_by(&b, &a, Ord::cmp), b);
        assert!(merge_by::<u32, _>(&[], &[], u32::cmp).is_empty());
    }

    #[test]
    fn merge_small() {
        let a = vec![1, 4, 7];
        let b = vec![2, 3, 8, 9];
        assert_eq!(merge_by(&a, &b, Ord::cmp), vec![1, 2, 3, 4, 7, 8, 9]);
    }

    #[test]
    fn merge_large_matches_std() {
        let a: Vec<u64> = (0..80_000u64).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..50_000u64).map(|i| i * 5 + 1).collect();
        let got = merge_by(&a, &b, Ord::cmp);
        let mut want = [a.clone(), b.clone()].concat();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_is_stable_on_ties() {
        // Tag elements with their origin; ties must keep a-before-b order.
        let a: Vec<(u32, char)> = vec![(1, 'a'), (2, 'a'), (2, 'a'), (5, 'a')];
        let b: Vec<(u32, char)> = vec![(2, 'b'), (3, 'b'), (5, 'b')];
        let got = merge_by(&a, &b, |x, y| x.0.cmp(&y.0));
        assert_eq!(got, vec![(1, 'a'), (2, 'a'), (2, 'a'), (2, 'b'), (3, 'b'), (5, 'a'), (5, 'b')]);
    }

    #[test]
    fn merge_is_stable_on_ties_through_the_parallel_path() {
        // Heavy-duplicate input large enough to take the splitting path:
        // stability must hold even when the split pivot lands inside a run
        // of ties (this was a latent bug while nothing parallel-sorted).
        let a: Vec<(u32, usize)> = (0..40_000).map(|i| ((i % 5) as u32, i)).collect();
        let b: Vec<(u32, usize)> = (0..40_000).map(|i| ((i % 5) as u32, 100_000 + i)).collect();
        let mut asorted = a.clone();
        asorted.sort_by_key(|p| p.0);
        let mut bsorted = b.clone();
        bsorted.sort_by_key(|p| p.0);
        let got = merge_by(&asorted, &bsorted, |x, y| x.0.cmp(&y.0));
        for w in got.windows(2) {
            if w[0].0 == w[1].0 {
                // Within a tie run: all of a's elements (ids < 100_000) come
                // before b's, and each side keeps its own order.
                assert!(
                    !(w[0].1 >= 100_000 && w[1].1 < 100_000),
                    "b-element {:?} precedes a-element {:?}",
                    w[0],
                    w[1]
                );
                let same_side = (w[0].1 < 100_000) == (w[1].1 < 100_000);
                if same_side {
                    assert!(w[0].1 < w[1].1, "within-side order broken: {:?} {:?}", w[0], w[1]);
                }
            }
        }
    }

    #[test]
    fn merge_large_with_duplicates() {
        let a: Vec<u32> = (0..60_000).map(|i| i % 100).collect::<Vec<_>>();
        let b: Vec<u32> = (0..40_000).map(|i| i % 77).collect::<Vec<_>>();
        let mut asorted = a.clone();
        asorted.sort();
        let mut bsorted = b.clone();
        bsorted.sort();
        let got = merge_by(&asorted, &bsorted, Ord::cmp);
        let mut want = [asorted, bsorted].concat();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn partition_point_basic() {
        let v = [1, 2, 3, 4, 10, 20];
        assert_eq!(partition_point(&v, |&x| x < 4), 3);
        assert_eq!(partition_point(&v, |&x| x < 100), 6);
        assert_eq!(partition_point(&v, |&x| x < 0), 0);
    }
}
