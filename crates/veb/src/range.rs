//! Parallel range reporting on a vEB tree (Algorithm 6, Theorem C.1).
//!
//! Sequentially one would walk `Succ` from the start of the range, which is
//! inherently serial.  The paper instead divides the *key space* in half,
//! locates the keys next to the midpoint, and recurses on the two
//! sub-ranges in parallel, collecting the results in a binary *result tree*
//! that is flattened into a contiguous array at the end.
//!
//! Here every call first walks `Succ` from the first key of its range
//! through at most [`GRAIN`] keys.  Only if keys remain after that walk
//! does it split the rest of its range at the key-space midpoint and build
//! the two halves in parallel.  So a fork always comes after `GRAIN`
//! reported keys: at most `m / GRAIN` calls fork, each fork costs one more
//! `Succ` query, and the work is `O((1 + m) log log U)` for output size
//! `m`.  The key-space halving bounds the recursion depth by `log U`, and a
//! call walks at most `GRAIN` keys, so the span stays
//! `O(log U · log log U)` for a fixed `GRAIN` (Theorem C.1).

use crate::node::Node;
use crate::tree::VebTree;
use plis_primitives::par::{maybe_join, GRAIN};

/// Result tree built by `BuildTree` (Alg. 6) before flattening: the keys a
/// call walked, then the result trees of the two halves of the rest of its
/// range, if any.
#[derive(Default)]
struct ResTree {
    size: usize,
    run: Vec<u64>,
    rest: Option<Box<(ResTree, ResTree)>>,
}

impl ResTree {
    /// Flatten the in-order traversal of the tree into `out` (parallel over
    /// the two halves; `out` is pre-sized to `self.size`).
    fn flatten_into(&self, out: &mut [u64]) {
        let (run, out) = out.split_at_mut(self.run.len());
        run.copy_from_slice(&self.run);
        if let Some(halves) = &self.rest {
            let (left, right) = &**halves;
            let (l_out, r_out) = out.split_at_mut(left.size);
            maybe_join(self.size, GRAIN, || left.flatten_into(l_out), || right.flatten_into(r_out));
        }
    }
}

impl VebTree {
    /// Report all keys in the closed range `[lo, hi]` in increasing order.
    ///
    /// Work `O((1 + m) log log U)` and span `O(log U log log U)`, where `m`
    /// is the number of reported keys (Theorem C.1).
    pub fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        let Some(root) = &self.root else { return Vec::new() };
        let hi = hi.min(self.universe - 1);
        if lo > hi {
            return Vec::new();
        }
        // The first key in the range (Line 2 of Alg. 6).
        let first = if root.contains(lo) { Some(lo) } else { root.succ(lo) };
        let Some(first) = first.filter(|&k| k <= hi) else { return Vec::new() };
        let tree = build_tree(root, first, hi);
        let mut out = vec![0u64; tree.size];
        tree.flatten_into(&mut out);
        out
    }

    /// Number of keys in the closed range `[lo, hi]`: the length of
    /// [`range`](Self::range)`(lo, hi)`, so it materialises the keys.
    pub fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.range(lo, hi).len()
    }
}

/// `BuildTree` (Alg. 6 lines 7–17) with a sequential head.  `first` is a
/// key of the tree with `first <= hi`; returns a result tree over every key
/// in `[first, hi]`.  Walks `succ` from `first` through at most [`GRAIN`]
/// keys, then splits whatever remains at its key-space midpoint.
fn build_tree(root: &Node, first: u64, hi: u64) -> ResTree {
    let in_range = |k: Option<u64>| k.filter(|&k| k <= hi);
    let mut run = vec![first];
    let mut next = in_range(root.succ(first));
    while let Some(k) = next.filter(|_| run.len() < GRAIN) {
        run.push(k);
        next = in_range(root.succ(k));
    }
    let Some(rest_lo) = next else { return ResTree { size: run.len(), run, rest: None } };
    // More than GRAIN keys: halve the key range [rest_lo, hi].
    let mid = rest_lo + (hi - rest_lo) / 2;
    let (left, right) = rayon::join(
        || build_tree(root, rest_lo, mid),
        || in_range(root.succ(mid)).map_or_else(ResTree::default, |k| build_tree(root, k, hi)),
    );
    let size = run.len() + left.size + right.size;
    ResTree { size, run, rest: Some(Box::new((left, right))) }
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
    fn dense_ranges_around_the_walk_length() {
        // Every key present, so each split point's neighbours are keys too.
        let universe = 4 * GRAIN as u64;
        let v = VebTree::from_sorted(universe, &(0..universe).collect::<Vec<_>>());
        for len in [GRAIN - 1, GRAIN, GRAIN + 1, 2 * GRAIN + 1, 4 * GRAIN] {
            let lo = (universe - len as u64) / 2;
            let hi = lo + len as u64 - 1;
            assert_eq!(v.range(lo, hi), (lo..=hi).collect::<Vec<_>>(), "{len} keys");
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
