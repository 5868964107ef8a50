//! The recursive vEB node and the sequential (single-point) operations of
//! Section 5.1 of the paper.
//!
//! All keys handled by a node are *relative* to that node's universe: the
//! caller strips the high bits before recursing (the paper's
//! `high`/`low`/`index` notation, Table 1).  A node that exists is never
//! empty; emptiness is represented by the parent holding `None` in the
//! cluster slot (or by [`crate::VebTree`] holding `None` at the root).

/// Universes with at most this many bits are stored as a single `u64`
/// bitset leaf instead of a recursive node.  This is the standard practical
/// optimisation for vEB trees: it shortens every root-to-leaf path by two
/// levels and removes the allocation churn of tiny nodes, without changing
/// the `O(log log U)` bound.
pub const LEAF_BITS: u32 = 6;

/// A vEB (sub-)tree.  `Leaf` holds a universe of at most `2^LEAF_BITS = 64`
/// keys as a bitset; `Internal` is the textbook recursive node.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf(u64),
    Internal(Box<Internal>),
}

/// An internal vEB node over a universe of `2^(hi_bits + lo_bits)` keys.
///
/// Invariants (the paper's convention, which the batch algorithms rely on):
/// * the node is non-empty: `min` and `max` are valid keys;
/// * `min == max` iff the node holds exactly one key;
/// * neither `min` nor `max` is stored in any cluster;
/// * `summary` holds exactly the set of `h` with `clusters[h].is_some()`,
///   and is `None` iff every cluster slot is `None`.
#[derive(Debug, Clone)]
pub(crate) struct Internal {
    /// Number of low bits; each cluster has universe `2^lo_bits`.
    pub lo_bits: u32,
    /// Number of high bits; there are `2^hi_bits` cluster slots.
    pub hi_bits: u32,
    /// Smallest key in this subtree (not stored in the clusters).
    pub min: u64,
    /// Largest key in this subtree (not stored in the clusters).
    pub max: u64,
    /// vEB tree over the non-empty cluster indices.
    pub summary: Option<Node>,
    /// Lazily populated clusters, `2^hi_bits` slots.
    pub clusters: Vec<Option<Node>>,
}

/// Split a `bits`-bit universe into `(hi_bits, lo_bits)` as the paper does:
/// the low half gets `⌊bits/2⌋` bits and the high half the rest.
#[inline]
pub(crate) fn split_bits(bits: u32) -> (u32, u32) {
    let lo = bits / 2;
    (bits - lo, lo)
}

/// High half of `key` under a `lo_bits` split (the paper's `high(x)`).
#[inline]
pub(crate) fn high(key: u64, lo_bits: u32) -> u64 {
    key >> lo_bits
}

/// Low half of `key` under a `lo_bits` split (the paper's `low(x)`).
#[inline]
pub(crate) fn low(key: u64, lo_bits: u32) -> u64 {
    key & ((1u64 << lo_bits) - 1)
}

/// Reassemble a key from its halves (the paper's `index(h, l)`).
#[inline]
pub(crate) fn index(h: u64, l: u64, lo_bits: u32) -> u64 {
    (h << lo_bits) | l
}

impl Node {
    /// A new subtree holding exactly `key`.  Reuses a recycled node of the
    /// same universe width from the thread-local [`crate::pool`] when one is
    /// available, so steady-state cluster churn stays off the allocator.
    pub(crate) fn singleton(bits: u32, key: u64) -> Node {
        debug_assert!(bits == 64 || key < (1u64 << bits));
        if bits <= LEAF_BITS {
            Node::Leaf(1u64 << key)
        } else if let Some(mut n) = crate::pool::take(bits) {
            n.min = key;
            n.max = key;
            Node::Internal(n)
        } else {
            let (hi_bits, lo_bits) = split_bits(bits);
            Node::Internal(Box::new(Internal {
                lo_bits,
                hi_bits,
                min: key,
                max: key,
                summary: None,
                clusters: Vec::new(),
            }))
        }
    }

    /// Smallest key in this subtree.
    pub(crate) fn min(&self) -> u64 {
        match self {
            Node::Leaf(bits) => {
                debug_assert!(*bits != 0);
                bits.trailing_zeros() as u64
            }
            Node::Internal(n) => n.min,
        }
    }

    /// Largest key in this subtree.
    pub(crate) fn max(&self) -> u64 {
        match self {
            Node::Leaf(bits) => {
                debug_assert!(*bits != 0);
                63 - bits.leading_zeros() as u64
            }
            Node::Internal(n) => n.max,
        }
    }

    /// Membership test.  `O(log log U)`.
    pub(crate) fn contains(&self, key: u64) -> bool {
        match self {
            Node::Leaf(bits) => (bits >> key) & 1 == 1,
            Node::Internal(n) => {
                if key == n.min || key == n.max {
                    return true;
                }
                if n.min == n.max {
                    return false;
                }
                let h = high(key, n.lo_bits) as usize;
                match n.clusters.get(h).and_then(Option::as_ref) {
                    Some(c) => c.contains(low(key, n.lo_bits)),
                    None => false,
                }
            }
        }
    }

    /// Insert `key`; returns `true` if it was not already present.
    /// `O(log log U)` amortised (creating a fresh internal cluster allocates
    /// its slot vector, which is the plain-vEB space/time trade-off the
    /// paper also assumes).
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        match self {
            Node::Leaf(bits) => {
                let mask = 1u64 << key;
                let fresh = *bits & mask == 0;
                *bits |= mask;
                fresh
            }
            Node::Internal(n) => n.insert(key),
        }
    }

    /// Delete `key`.  Returns `(was_present, now_empty)`; when `now_empty`
    /// is true the caller must drop this node (set its slot to `None`).
    /// `O(log log U)`.
    pub(crate) fn delete(&mut self, key: u64) -> (bool, bool) {
        match self {
            Node::Leaf(bits) => {
                let mask = 1u64 << key;
                let present = *bits & mask != 0;
                *bits &= !mask;
                (present, *bits == 0)
            }
            Node::Internal(n) => n.delete(key),
        }
    }

    /// Largest key strictly smaller than `key`, if any.  `O(log log U)`.
    pub(crate) fn pred(&self, key: u64) -> Option<u64> {
        match self {
            Node::Leaf(bits) => {
                let mask = if key == 0 { 0 } else { (1u64 << key) - 1 };
                let below = bits & mask;
                if below == 0 {
                    None
                } else {
                    Some(63 - below.leading_zeros() as u64)
                }
            }
            Node::Internal(n) => n.pred(key),
        }
    }

    /// Smallest key strictly larger than `key`, if any.  `O(log log U)`.
    pub(crate) fn succ(&self, key: u64) -> Option<u64> {
        match self {
            Node::Leaf(bits) => {
                if key >= 63 {
                    return None;
                }
                let above = bits & !((1u64 << (key + 1)) - 1);
                if above == 0 {
                    None
                } else {
                    Some(above.trailing_zeros() as u64)
                }
            }
            Node::Internal(n) => n.succ(key),
        }
    }

    /// Append every key in this subtree, offset by `base`, to `out`
    /// in increasing order.  `O(size + √U)` — a test / export helper, not
    /// part of the performance-critical path.
    pub(crate) fn collect_into(&self, base: u64, out: &mut Vec<u64>) {
        match self {
            Node::Leaf(bits) => {
                let mut b = *bits;
                while b != 0 {
                    let k = b.trailing_zeros() as u64;
                    out.push(base + k);
                    b &= b - 1;
                }
            }
            Node::Internal(n) => {
                out.push(base + n.min);
                for (h, slot) in n.clusters.iter().enumerate() {
                    if let Some(c) = slot {
                        c.collect_into(base + ((h as u64) << n.lo_bits), out);
                    }
                }
                if n.max != n.min {
                    out.push(base + n.max);
                }
            }
        }
    }

    /// Number of keys stored in this subtree (linear walk; test helper).
    pub(crate) fn count(&self) -> usize {
        match self {
            Node::Leaf(bits) => bits.count_ones() as usize,
            Node::Internal(n) => {
                let mut c = if n.min == n.max { 1 } else { 2 };
                for s in n.clusters.iter().flatten() {
                    c += s.count();
                }
                c
            }
        }
    }
}

impl Internal {
    /// Ensure the cluster slot vector is allocated (all `None`).
    fn ensure_clusters(&mut self) {
        if self.clusters.is_empty() {
            self.clusters = (0..(1usize << self.hi_bits)).map(|_| None).collect();
        }
    }

    pub(crate) fn insert(&mut self, mut key: u64) -> bool {
        if key == self.min || key == self.max {
            return false;
        }
        if self.min == self.max {
            // Exactly one key; the second key only touches the header.
            if key < self.min {
                self.min = key;
            } else {
                self.max = key;
            }
            return true;
        }
        // At least two keys.  A key smaller than min (or larger than max)
        // takes its place and the displaced header key is pushed down.
        if key < self.min {
            std::mem::swap(&mut key, &mut self.min);
        } else if key > self.max {
            std::mem::swap(&mut key, &mut self.max);
        }
        let h = high(key, self.lo_bits) as usize;
        let l = low(key, self.lo_bits);
        self.ensure_clusters();
        match &mut self.clusters[h] {
            Some(c) => c.insert(l),
            slot @ None => {
                *slot = Some(Node::singleton(self.lo_bits, l));
                self.summary_insert(h as u64);
                true
            }
        }
    }

    fn summary_insert(&mut self, h: u64) {
        match &mut self.summary {
            Some(s) => {
                s.insert(h);
            }
            None => self.summary = Some(Node::singleton(self.hi_bits, h)),
        }
    }

    fn summary_delete(&mut self, h: u64) {
        if let Some(s) = &mut self.summary {
            let (_, empty) = s.delete(h);
            if empty {
                crate::pool::recycle(self.summary.take());
            }
        }
    }

    pub(crate) fn delete(&mut self, key: u64) -> (bool, bool) {
        if self.min == self.max {
            // Exactly one key.
            return if key == self.min { (true, true) } else { (false, false) };
        }
        if key == self.min {
            // Pull the smallest cluster key (or fall back to max) into min.
            match &self.summary {
                None => {
                    self.min = self.max;
                    return (true, false);
                }
                Some(s) => {
                    let h = s.min();
                    let c = self.clusters[h as usize]
                        .as_mut()
                        .expect("summary and clusters out of sync");
                    let l = c.min();
                    let (_, emptied) = c.delete(l);
                    if emptied {
                        crate::pool::recycle(self.clusters[h as usize].take());
                        self.summary_delete(h);
                    }
                    self.min = index(h, l, self.lo_bits);
                    return (true, false);
                }
            }
        }
        if key == self.max {
            match &self.summary {
                None => {
                    self.max = self.min;
                    return (true, false);
                }
                Some(s) => {
                    let h = s.max();
                    let c = self.clusters[h as usize]
                        .as_mut()
                        .expect("summary and clusters out of sync");
                    let l = c.max();
                    let (_, emptied) = c.delete(l);
                    if emptied {
                        crate::pool::recycle(self.clusters[h as usize].take());
                        self.summary_delete(h);
                    }
                    self.max = index(h, l, self.lo_bits);
                    return (true, false);
                }
            }
        }
        // The key, if present, lives in a cluster.
        let h = high(key, self.lo_bits) as usize;
        let l = low(key, self.lo_bits);
        match self.clusters.get_mut(h).and_then(Option::as_mut) {
            None => (false, false),
            Some(c) => {
                let (present, emptied) = c.delete(l);
                if emptied {
                    crate::pool::recycle(self.clusters[h].take());
                    self.summary_delete(h as u64);
                }
                (present, false)
            }
        }
    }

    pub(crate) fn succ(&self, key: u64) -> Option<u64> {
        if key < self.min {
            return Some(self.min);
        }
        if let Some(s) = &self.summary {
            let h = high(key, self.lo_bits);
            let l = low(key, self.lo_bits);
            if let Some(c) = self.clusters.get(h as usize).and_then(Option::as_ref) {
                if l < c.max() {
                    let l2 = c.succ(l).expect("l < max implies a successor");
                    return Some(index(h, l2, self.lo_bits));
                }
            }
            if let Some(h2) = s.succ(h) {
                let c =
                    self.clusters[h2 as usize].as_ref().expect("summary and clusters out of sync");
                return Some(index(h2, c.min(), self.lo_bits));
            }
        }
        if key < self.max {
            return Some(self.max);
        }
        None
    }

    pub(crate) fn pred(&self, key: u64) -> Option<u64> {
        if key > self.max {
            return Some(self.max);
        }
        if let Some(s) = &self.summary {
            let h = high(key, self.lo_bits);
            let l = low(key, self.lo_bits);
            if let Some(c) = self.clusters.get(h as usize).and_then(Option::as_ref) {
                if l > c.min() {
                    let l2 = c.pred(l).expect("l > min implies a predecessor");
                    return Some(index(h, l2, self.lo_bits));
                }
            }
            if let Some(h2) = s.pred(h) {
                let c =
                    self.clusters[h2 as usize].as_ref().expect("summary and clusters out of sync");
                return Some(index(h2, c.max(), self.lo_bits));
            }
        }
        if key > self.min {
            return Some(self.min);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_helpers_match_paper_example() {
        // Figure 6: key 13 in a 256-key universe (8 bits -> 4/4 split).
        let (hi, lo) = split_bits(8);
        assert_eq!((hi, lo), (4, 4));
        assert_eq!(high(13, lo), 0);
        assert_eq!(low(13, lo), 13);
        assert_eq!(index(0, 13, lo), 13);
        // And a key with a non-zero high half.
        assert_eq!(high(61, lo), 3);
        assert_eq!(low(61, lo), 13);
        assert_eq!(index(3, 13, lo), 61);
    }

    #[test]
    fn split_bits_odd_width() {
        let (hi, lo) = split_bits(7);
        assert_eq!((hi, lo), (4, 3));
        assert_eq!(hi + lo, 7);
    }

    #[test]
    fn leaf_operations() {
        let mut n = Node::singleton(6, 5);
        assert!(n.contains(5));
        assert!(!n.contains(4));
        assert!(n.insert(9));
        assert!(!n.insert(9));
        assert_eq!(n.min(), 5);
        assert_eq!(n.max(), 9);
        assert_eq!(n.pred(9), Some(5));
        assert_eq!(n.pred(5), None);
        assert_eq!(n.succ(5), Some(9));
        assert_eq!(n.succ(9), None);
        assert_eq!(n.succ(63), None);
        let (present, empty) = n.delete(5);
        assert!(present && !empty);
        let (present, empty) = n.delete(9);
        assert!(present && empty);
    }

    #[test]
    fn internal_header_only_cases() {
        // Two keys live entirely in the header (min/max), no clusters.
        let mut n = Node::singleton(10, 100);
        assert!(n.insert(800));
        match &n {
            Node::Internal(i) => {
                assert!(i.summary.is_none());
                assert_eq!((i.min, i.max), (100, 800));
            }
            _ => panic!("expected internal node"),
        }
        assert_eq!(n.pred(800), Some(100));
        assert_eq!(n.succ(100), Some(800));
        assert_eq!(n.succ(800), None);
        let (present, empty) = n.delete(100);
        assert!(present && !empty);
        assert_eq!(n.min(), 800);
        assert_eq!(n.max(), 800);
    }

    #[test]
    fn count_and_collect() {
        let mut n = Node::singleton(12, 7);
        let keys = [7u64, 1000, 550, 3, 2048, 4095, 12, 13];
        for &k in &keys[1..] {
            assert!(n.insert(k));
        }
        assert_eq!(n.count(), keys.len());
        let mut out = Vec::new();
        n.collect_into(0, &mut out);
        let mut want = keys.to_vec();
        want.sort();
        assert_eq!(out, want);
    }
}
