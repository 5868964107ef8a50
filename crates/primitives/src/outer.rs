//! The outer tree of the two dominant-max stores (Section 4): a level-major
//! merge-sort tree with fractionally cascaded slots, shared by
//! `plis-rangetree` (Fenwick inner trees) and `plis-rangeveb` (Mono-vEB).
//!
//! Points are sorted by `(x, y)`; a point's index in that order is its
//! *position*.  Level `j` cuts the positions into power-of-two-aligned
//! blocks of `2^j` (the last one may be short), so level 0 holds single
//! points and the top level one block of all `n`.  Each level has `n`
//! *slots*: a block's slots are its own positions, filled with its points
//! in `(y, position)` order, so a slot's offset in its block is the point's
//! relabelled key there (Appendix E).  Per level `j ≥ 1` and slot, the tree
//! stores how many of the block's earlier slots hold points of its left
//! child.  A child's order is its parent's with the other child's points
//! removed, so these counts cascade a slot or a count to a child in `O(1)`
//! (fractional cascading, Chazelle & Guibas 1986): [`OuterTree::walk`] and
//! [`OuterTree::path`] do `O(1)` work per level besides the store's own,
//! after one binary search at the top.  The build is a bottom-up merge
//! sort whose merges split by merge path, so its span stays
//! polylogarithmic; the arrays take `O(n log n)` space.

use crate::par::{maybe_join, par_map_collect, parallel_for, GRAIN};
use std::sync::atomic::{AtomicU32, Ordering};

/// The cascaded outer tree over a static set of distinct 2D points.
pub struct OuterTree {
    n: usize,
    /// Index of the top level: blocks of level `height` cover all points.
    height: usize,
    /// The points as `(x, y)` in position order, i.e. sorted.
    points: Vec<(u64, u64)>,
    /// y coordinates of the top level's slots, i.e. sorted by (y, position).
    top_ys: Vec<u64>,
    /// The top-level slot of every position.  Atomic only so the build can
    /// scatter this inverse permutation in parallel without `unsafe`;
    /// `Relaxed` suffices because the scatter's join orders every store
    /// before `new` returns, and the values publish no other data.
    top_slot: Vec<AtomicU32>,
    /// `left_before[(j − 1)·n + s]`: the slots of level-`j` slot `s`'s block
    /// before `s` that hold points of the block's left child.
    left_before: Vec<u32>,
}

impl OuterTree {
    /// Build the tree over `points`.  `O(n log n)` work, polylogarithmic
    /// span.
    ///
    /// # Panics
    /// Panics if two points are identical, or if there are more than
    /// `u32::MAX` points.
    pub fn new(mut points: Vec<(u64, u64)>) -> Self {
        let n = points.len();
        assert!(u32::try_from(n).is_ok(), "at most u32::MAX points are supported");
        crate::par_sort_unstable(&mut points);
        assert!(points.windows(2).all(|w| w[0] != w[1]), "duplicate points are not supported");
        let height = n.next_power_of_two().trailing_zeros() as usize;

        // Bottom-up merge sort by (y, position): level 0 is position order.
        let mut cur: Vec<(u64, u32)> = par_map_collect(n, |p| (points[p].1, p as u32));
        let mut next = vec![(0, 0); n];
        let mut left_before = vec![0u32; height * n];
        if n > 0 {
            for (j, counts) in (1..=height).zip(left_before.chunks_mut(n)) {
                merge_level(&cur, &mut next, counts, 1 << (j - 1));
                std::mem::swap(&mut cur, &mut next);
            }
        }
        let top_ys = par_map_collect(n, |s| cur[s].0);
        let top_slot: Vec<AtomicU32> = par_map_collect(n, |_| AtomicU32::new(0));
        parallel_for(n, |s| top_slot[cur[s].1 as usize].store(s as u32, Ordering::Relaxed));
        OuterTree { n, height, points, top_ys, top_slot, left_before }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Index of the top level (`⌈log2 n⌉`).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of points in the level-`level` block starting at `bs`.
    pub fn block_len(&self, level: usize, bs: usize) -> usize {
        (1usize << level).min(self.n - bs)
    }

    /// Position of a point in the (x, y)-sorted order, if present.
    pub fn position_of(&self, x: u64, y: u64) -> Option<usize> {
        self.points.binary_search(&(x, y)).ok()
    }

    /// `DominantMax(qx, qy)`: the maximum of `full(level, bs, count)`, the
    /// best score among the first `count` slots (the points with `y < qy`),
    /// over the blocks above `scan_level` inside the `x < qx` prefix, and of
    /// `score(pos)` over the rest of the prefix's points with `y < qy`,
    /// which it scans; 0 if no point qualifies.
    pub fn walk(
        &self,
        qx: u64,
        qy: u64,
        scan_level: usize,
        full: impl Fn(usize, usize, usize) -> u64,
        score: impl Fn(usize) -> u64,
    ) -> u64 {
        // Points with x < qx form the position prefix [0, prefix).
        let prefix = self.points.partition_point(|&(x, _)| x < qx);
        // The walk's block starts at `bs` on `level`; its first `count`
        // slots hold its points with y < qy, and `prefix` ends inside it.
        let mut count = if prefix == 0 { 0 } else { self.top_ys.partition_point(|&y| y < qy) };
        let (mut level, mut bs, mut best) = (self.height, 0usize, 0u64);
        while count > 0 {
            let len = self.block_len(level, bs);
            if prefix - bs >= len && level > scan_level {
                return best.max(full(level, bs, count));
            }
            if level <= scan_level + 1 {
                // The rest of the prefix lies in blocks of at most
                // 2^scan_level points.
                let rest = (bs..prefix).filter(|&p| self.points[p].1 < qy);
                return rest.map(score).fold(best, u64::max);
            }
            // Only part of the block is inside the prefix, so it has two
            // children, both above `scan_level`.
            let half = 1usize << (level - 1);
            let left = if count < len {
                self.left_before[(level - 1) * self.n + bs + count] as usize
            } else {
                half.min(len)
            };
            level -= 1;
            if prefix - bs > half {
                best = best.max(full(level, bs, left));
                count -= left;
                bs += half;
            } else {
                count = left;
            }
        }
        best
    }

    /// Call `visit(level, bs, key)` for every level from the top down to
    /// `lowest`, where `bs` starts the level's block holding position `pos`
    /// and `key` is the point's slot offset in that block.
    pub fn path(&self, pos: usize, lowest: usize, mut visit: impl FnMut(usize, usize, usize)) {
        let mut slot = self.top_slot[pos].load(Ordering::Relaxed) as usize;
        let mut level = self.height;
        loop {
            let bs = pos >> level << level;
            visit(level, bs, slot - bs);
            if level <= lowest {
                return;
            }
            // Cascade the slot into the child block holding the point.
            let half = 1usize << (level - 1);
            let left = self.left_before[(level - 1) * self.n + slot] as usize;
            slot = if pos < bs + half { bs + left } else { slot + half - left };
            level -= 1;
        }
    }
}

/// One bottom-up merge-sort pass: merge every pair of sibling blocks of
/// `half` slots in `src` into their parent block in `dst`, and record in
/// `left_before` how many left-child points precede each parent slot.
fn merge_level(src: &[(u64, u32)], dst: &mut [(u64, u32)], left_before: &mut [u32], half: usize) {
    let blocks = dst.len().div_ceil(2 * half);
    if blocks > 1 {
        // Split between blocks; the slices start on block boundaries.
        let mid = blocks / 2 * 2 * half;
        let (src_l, src_r) = src.split_at(mid);
        let (dst_l, dst_r) = dst.split_at_mut(mid);
        let (lb_l, lb_r) = left_before.split_at_mut(mid);
        maybe_join(
            src.len(),
            GRAIN,
            || merge_level(src_l, dst_l, lb_l, half),
            || merge_level(src_r, dst_r, lb_r, half),
        );
    } else {
        let (left, right) = src.split_at(half.min(src.len()));
        merge_block(left, right, dst, left_before, 0);
    }
}

/// Merge the sorted, disjoint runs `a` (from the left child) and `b` into
/// `dst`, writing `before + (a-points among the earlier slots)` into
/// `left_before` for every slot.  Large merges split by merge path.
fn merge_block(
    a: &[(u64, u32)],
    b: &[(u64, u32)],
    dst: &mut [(u64, u32)],
    left_before: &mut [u32],
    before: usize,
) {
    let len = dst.len();
    if len > GRAIN {
        // The first `t` outputs are a[..i] and b[..t − i], for the i that
        // the binary search below finds (keys are distinct).
        let t = len / 2;
        let (mut lo, mut hi) = (t.saturating_sub(b.len()), t.min(a.len()));
        while lo < hi {
            let i = (lo + hi) / 2;
            if a[i] < b[t - i - 1] {
                lo = i + 1;
            } else {
                hi = i;
            }
        }
        let i = lo;
        let (dst_l, dst_r) = dst.split_at_mut(t);
        let (lb_l, lb_r) = left_before.split_at_mut(t);
        rayon::join(
            || merge_block(&a[..i], &b[..t - i], dst_l, lb_l, before),
            || merge_block(&a[i..], &b[t - i..], dst_r, lb_r, before + i),
        );
        return;
    }
    let (mut i, mut k) = (0, 0);
    for (out, count) in dst.iter_mut().zip(left_before.iter_mut()) {
        *count = (before + i) as u32;
        if k == b.len() || (i < a.len() && a[i] < b[k]) {
            *out = a[i];
            i += 1;
        } else {
            *out = b[k];
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_lists_its_points_by_y_then_position() {
        // Sizes around powers of two, so levels end in short blocks and
        // some blocks have no right child; coordinates from a 12 × 12 grid,
        // so x and y repeat.  `path` must give the points of every block
        // distinct keys that order them by (y, position).
        let mut state = 0x0DDB_1A5E_5BADu64;
        for n in [0usize, 1, 2, 3, 31, 32, 33, 100, 144] {
            let mut points: Vec<(u64, u64)> = (0..144).map(|c| (c / 12, c % 12)).collect();
            for i in (1..points.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                points.swap(i, (state % (i as u64 + 1)) as usize);
            }
            points.truncate(n);
            let tree = OuterTree::new(points.clone());
            points.sort_unstable();
            let mut keyed = std::collections::HashMap::new();
            for pos in 0..n {
                tree.path(pos, 0, |level, bs, key| {
                    assert!(key < tree.block_len(level, bs), "n = {n}: key outside the block");
                    assert!(keyed.insert((level, bs + key), pos).is_none(), "n = {n}: shared slot");
                });
            }
            for level in 0..=tree.height() {
                for bs in (0..n).step_by(1 << level) {
                    let slots: Vec<usize> = (0..tree.block_len(level, bs))
                        .map(|key| keyed[&(level, bs + key)])
                        .collect();
                    let mut want: Vec<usize> = (bs..bs + slots.len()).collect();
                    want.sort_by_key(|&p| (points[p].1, p));
                    assert_eq!(slots, want, "n = {n}, level {level}, block {bs}");
                }
            }
        }
    }
}
