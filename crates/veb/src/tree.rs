//! The public [`VebTree`] wrapper: a set of `u64` keys over a fixed universe
//! with the sequential operations of Theorem 1.3 (first bullet).  The batch
//! operations live in [`crate::batch`] and the range query in
//! [`crate::range`]; both are `impl VebTree` blocks so the public API is a
//! single type.

use crate::node::Node;

/// A van Emde Boas tree over the integer universe `[0, universe)`.
///
/// Single-point operations cost `O(log log U)`.  Batch operations
/// (`batch_insert`, `batch_delete`) and the parallel `range` query are
/// provided by the other modules of this crate and follow Algorithms 4–6 of
/// the paper.
#[derive(Debug, Clone)]
pub struct VebTree {
    /// Number of bits of the universe (universe size rounded up to a power
    /// of two).
    pub(crate) bits: u32,
    /// The requested universe size (keys must be `< universe`).
    pub(crate) universe: u64,
    /// Root node; `None` when the set is empty.
    pub(crate) root: Option<Node>,
    /// Number of keys currently stored.
    pub(crate) len: usize,
}

impl VebTree {
    /// Create an empty tree over the universe `[0, universe)`.
    ///
    /// # Panics
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        let bits = 64 - (universe - 1).leading_zeros().min(63);
        let bits = bits.max(1);
        VebTree { bits, universe, root: None, len: 0 }
    }

    /// The universe size this tree was created with.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Insert `key`; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `key` is outside the universe.
    pub fn insert(&mut self, key: u64) -> bool {
        self.check(key);
        match &mut self.root {
            Some(r) => {
                let fresh = r.insert(key);
                if fresh {
                    self.len += 1;
                }
                fresh
            }
            None => {
                self.root = Some(Node::singleton(self.bits, key));
                self.len = 1;
                true
            }
        }
    }

    /// Delete `key`; returns `true` if it was present.
    pub fn delete(&mut self, key: u64) -> bool {
        self.check(key);
        match &mut self.root {
            None => false,
            Some(r) => {
                let (present, empty) = r.delete(key);
                if empty {
                    crate::pool::recycle(self.root.take());
                }
                if present {
                    self.len -= 1;
                }
                present
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, key: u64) -> bool {
        self.check(key);
        self.root.as_ref().is_some_and(|r| r.contains(key))
    }

    /// Smallest key, if any.
    pub fn min(&self) -> Option<u64> {
        self.root.as_ref().map(Node::min)
    }

    /// Largest key, if any.
    pub fn max(&self) -> Option<u64> {
        self.root.as_ref().map(Node::max)
    }

    /// Largest key strictly smaller than `key`, if any.  `key` itself does
    /// not need to be present; it may equal the universe size (querying the
    /// predecessor of "one past the end").
    pub fn pred(&self, key: u64) -> Option<u64> {
        assert!(key <= self.universe, "key {key} outside universe {}", self.universe);
        match &self.root {
            None => None,
            Some(r) => {
                if key > r.max() {
                    Some(r.max())
                } else {
                    r.pred(key)
                }
            }
        }
    }

    /// Smallest key strictly larger than `key`, if any.
    pub fn succ(&self, key: u64) -> Option<u64> {
        self.check(key);
        self.root.as_ref().and_then(|r| r.succ(key))
    }

    /// All keys in increasing order (linear walk; mainly for tests and
    /// debugging).
    pub fn iter_keys(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(r) = &self.root {
            r.collect_into(0, &mut out);
        }
        out
    }

    /// Recount the stored keys by walking the structure (test helper that
    /// cross-checks the maintained `len`).
    pub fn recount(&self) -> usize {
        self.root.as_ref().map_or(0, Node::count)
    }

    #[inline]
    pub(crate) fn check(&self, key: u64) {
        assert!(key < self.universe, "key {key} outside universe {}", self.universe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_tree_queries() {
        let v = VebTree::new(1000);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.min(), None);
        assert_eq!(v.max(), None);
        assert_eq!(v.pred(500), None);
        assert_eq!(v.succ(0), None);
        assert!(!v.contains(3));
        assert!(v.iter_keys().is_empty());
    }

    #[test]
    fn paper_figure_6_example() {
        let keys = [2u64, 4, 8, 10, 13, 15, 23, 28, 61];
        let mut v = VebTree::new(256);
        for &k in &keys {
            assert!(v.insert(k));
        }
        assert_eq!(v.len(), keys.len());
        assert_eq!(v.min(), Some(2));
        assert_eq!(v.max(), Some(61));
        assert!(v.contains(13));
        assert!(!v.contains(14));
        assert_eq!(v.pred(13), Some(10));
        assert_eq!(v.succ(13), Some(15));
        assert_eq!(v.succ(61), None);
        assert_eq!(v.pred(2), None);
        assert_eq!(v.iter_keys(), keys);
    }

    #[test]
    fn insert_duplicate_returns_false() {
        let mut v = VebTree::new(64);
        assert!(v.insert(10));
        assert!(!v.insert(10));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut v = VebTree::new(64);
        v.insert(10);
        assert!(!v.delete(11));
        assert!(v.delete(10));
        assert!(!v.delete(10));
        assert!(v.is_empty());
    }

    #[test]
    fn universe_of_one() {
        let mut v = VebTree::new(1);
        assert!(v.insert(0));
        assert!(v.contains(0));
        assert_eq!(v.min(), Some(0));
        assert!(v.delete(0));
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_key_panics() {
        let mut v = VebTree::new(100);
        v.insert(100);
    }

    #[test]
    fn pred_at_universe_boundary() {
        let mut v = VebTree::new(100);
        v.insert(7);
        v.insert(99);
        assert_eq!(v.pred(100), Some(99));
        assert_eq!(v.pred(99), Some(7));
    }

    #[test]
    fn matches_btreeset_under_random_single_point_ops() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let universe = 1u64 << 20;
        let mut v = VebTree::new(universe);
        let mut oracle = BTreeSet::new();
        for step in 0..20_000 {
            let key = rng() % universe;
            match rng() % 4 {
                0 | 1 => {
                    assert_eq!(v.insert(key), oracle.insert(key), "insert step {step}");
                }
                2 => {
                    assert_eq!(v.delete(key), oracle.remove(&key), "delete step {step}");
                }
                _ => {
                    assert_eq!(v.contains(key), oracle.contains(&key), "contains step {step}");
                    assert_eq!(
                        v.pred(key),
                        oracle.range(..key).next_back().copied(),
                        "pred step {step}"
                    );
                    assert_eq!(
                        v.succ(key),
                        oracle.range(key + 1..).next().copied(),
                        "succ step {step}"
                    );
                    assert_eq!(v.min(), oracle.first().copied());
                    assert_eq!(v.max(), oracle.last().copied());
                }
            }
            if step % 4096 == 0 {
                assert_eq!(v.len(), oracle.len());
                assert_eq!(v.recount(), oracle.len());
                assert_eq!(v.iter_keys(), oracle.iter().copied().collect::<Vec<_>>());
            }
        }
        assert_eq!(v.iter_keys(), oracle.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn dense_small_universe_full_then_empty() {
        let mut v = VebTree::new(512);
        for k in 0..512u64 {
            assert!(v.insert(k));
        }
        assert_eq!(v.len(), 512);
        assert_eq!(v.recount(), 512);
        for k in 0..512u64 {
            assert_eq!(v.pred(k), if k == 0 { None } else { Some(k - 1) });
            assert_eq!(v.succ(k), if k == 511 { None } else { Some(k + 1) });
        }
        for k in (0..512u64).rev() {
            assert!(v.delete(k));
        }
        assert!(v.is_empty());
        assert_eq!(v.recount(), 0);
    }
}
