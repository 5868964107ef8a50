//! Parallel range reporting on a vEB tree (Algorithm 6, Theorem C.1).
//!
//! Sequentially one would walk `Succ` from the start of the range, which is
//! inherently serial.  The paper instead divides the *key space* in half,
//! locates the predecessor of the midpoint, and recurses on the two
//! sub-ranges in parallel, collecting the results in a binary *result tree*
//! that is flattened into a contiguous array at the end.  Every recursive
//! call performs `O(1)` predecessor/successor queries and either emits a key
//! or terminates a branch, so the work is `O((1 + m) log log U)` for output
//! size `m`, and the key-space halving bounds the span by
//! `O(log U · log log U)`.  A sub-range narrower than [`GRAIN`] keys of the
//! universe is collected by the sequential `Succ` walk instead: it reports
//! at most `GRAIN` keys with one query each, so the bounds still hold.

use crate::node::Node;
use crate::tree::VebTree;
use plis_primitives::par::{maybe_join, GRAIN};

/// Result tree built by `BuildTree` (Alg. 6) before flattening.  A range
/// narrower than [`GRAIN`] keys of the universe is one flat `Run`.
enum ResTree {
    Run(Vec<u64>),
    Node { size: usize, value: u64, left: Box<ResTree>, right: Box<ResTree> },
}

impl ResTree {
    fn size(&self) -> usize {
        match self {
            ResTree::Run(keys) => keys.len(),
            ResTree::Node { size, .. } => *size,
        }
    }

    /// Flatten the in-order traversal of the tree into `out` (parallel over
    /// the two children; `out` is pre-sized to `self.size()`).
    fn flatten_into(&self, out: &mut [u64]) {
        match self {
            ResTree::Run(keys) => out.copy_from_slice(keys),
            ResTree::Node { value, left, right, .. } => {
                let ls = left.size();
                let (l_out, rest) = out.split_at_mut(ls);
                let (mid, r_out) = rest.split_first_mut().expect("node occupies one slot");
                *mid = *value;
                maybe_join(
                    out_len_hint(ls, r_out.len()),
                    GRAIN,
                    || left.flatten_into(l_out),
                    || right.flatten_into(r_out),
                );
            }
        }
    }
}

fn out_len_hint(l: usize, r: usize) -> usize {
    l + r + 1
}

impl VebTree {
    /// Report all keys in the closed range `[lo, hi]` in increasing order.
    ///
    /// Work `O((1 + m) log log U)` and span `O(log U log log U)`, where `m`
    /// is the number of reported keys (Theorem C.1).
    pub fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        let Some(root) = &self.root else { return Vec::new() };
        if lo > hi {
            return Vec::new();
        }
        let hi = hi.min(self.universe - 1);
        // Clamp the endpoints onto actual keys (Lines 2–3 of Alg. 6).
        let lo = if root.contains(lo) { Some(lo) } else { root.succ(lo) };
        let hi = if root.contains(hi) { Some(hi) } else { root.pred(hi) };
        let (Some(lo), Some(hi)) = (lo, hi) else { return Vec::new() };
        if lo > hi {
            return Vec::new();
        }
        let tree = build_tree(root, lo, hi);
        let mut out = vec![0u64; tree.size()];
        tree.flatten_into(&mut out);
        out
    }

    /// Number of keys in the closed range `[lo, hi]`: the length of
    /// [`range`](Self::range)`(lo, hi)`, so it materialises the keys.
    pub fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.range(lo, hi).len()
    }
}

/// `BuildTree` (Alg. 6 lines 7–17).  `lo` and `hi` are keys known to be in
/// the tree with `lo <= hi`; returns a result tree over every key in
/// `[lo, hi]`.  Below [`GRAIN`] keys of the universe the range is a run
/// collected by walking `succ` from `lo`.
fn build_tree(root: &Node, lo: u64, hi: u64) -> ResTree {
    debug_assert!(lo <= hi);
    if hi - lo < GRAIN as u64 {
        let mut run = vec![lo];
        let mut cur = lo;
        while cur < hi {
            cur = root.succ(cur).expect("hi is a key above cur");
            run.push(cur);
        }
        return ResTree::Run(run);
    }
    // The predecessor of the midpoint is in [lo, hi): hi > mid_point - 1 >= lo.
    let mid_point = lo + (hi - lo).div_ceil(2); // = ceil((lo + hi) / 2) without overflow
    let mid = if root.contains(mid_point) {
        mid_point
    } else {
        root.pred(mid_point).expect("lo < mid_point implies a predecessor in range")
    };
    debug_assert!(mid >= lo && mid <= hi);
    let left_hi = root.pred(mid);
    let right_lo = root.succ(mid);
    let (left, right) = maybe_join(
        (hi - lo) as usize,
        GRAIN,
        || match left_hi {
            Some(lh) if lh >= lo => build_tree(root, lo, lh),
            _ => ResTree::Run(Vec::new()),
        },
        || match right_lo {
            Some(rl) if rl <= hi => build_tree(root, rl, hi),
            _ => ResTree::Run(Vec::new()),
        },
    );
    let size = left.size() + right.size() + 1;
    ResTree::Node { size, value: mid, left: Box::new(left), right: Box::new(right) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(keys: &[u64], universe: u64) -> VebTree {
        let mut v = VebTree::new(universe);
        for &k in keys {
            v.insert(k);
        }
        v
    }

    #[test]
    fn range_on_empty_tree() {
        let v = VebTree::new(100);
        assert!(v.range(0, 99).is_empty());
    }

    #[test]
    fn range_paper_example() {
        let keys = [2u64, 4, 8, 10, 13, 15, 23, 28, 61];
        let v = tree_with(&keys, 256);
        assert_eq!(v.range(0, 255), keys);
        assert_eq!(v.range(4, 15), vec![4, 8, 10, 13, 15]);
        assert_eq!(v.range(5, 14), vec![8, 10, 13]);
        assert_eq!(v.range(16, 22), Vec::<u64>::new());
        assert_eq!(v.range(61, 61), vec![61]);
        assert_eq!(v.range(62, 255), Vec::<u64>::new());
        assert_eq!(v.range(200, 100), Vec::<u64>::new());
    }

    #[test]
    fn range_clamps_hi_to_universe() {
        let v = tree_with(&[1, 5, 9], 10);
        assert_eq!(v.range(0, u64::MAX), vec![1, 5, 9]);
    }

    #[test]
    fn range_single_key_boundaries() {
        let v = tree_with(&[42], 64);
        assert_eq!(v.range(0, 41), Vec::<u64>::new());
        assert_eq!(v.range(42, 42), vec![42]);
        assert_eq!(v.range(43, 63), Vec::<u64>::new());
        assert_eq!(v.range(0, 63), vec![42]);
    }

    #[test]
    fn range_matches_filter_on_random_sets() {
        let mut state = 0xB5297A4D3F84D5B5u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..10 {
            let universe = 1u64 << (10 + trial % 6);
            let n = 500 + (trial * 333) % 2000;
            let mut keys: Vec<u64> = (0..n).map(|_| rng() % universe).collect();
            keys.sort();
            keys.dedup();
            let v = VebTree::from_sorted(universe, &keys);
            for _ in 0..20 {
                let a = rng() % universe;
                let b = rng() % universe;
                let (lo, hi) = (a.min(b), a.max(b));
                let want: Vec<u64> = keys.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
                assert_eq!(v.range(lo, hi), want, "trial {trial} range [{lo}, {hi}]");
                assert_eq!(v.range_count(lo, hi), want.len());
            }
        }
    }

    #[test]
    fn range_count_full_equals_len() {
        let keys: Vec<u64> = (0..1000)
            .map(|i| i * 7 % 4096)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let v = VebTree::from_sorted(4096, &keys);
        assert_eq!(v.range_count(0, 4095), v.len());
    }
}
