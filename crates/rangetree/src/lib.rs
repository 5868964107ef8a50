//! Parallel range tree for 2D *dominant-max* queries (Section 4.1 of the
//! paper).
//!
//! The weighted-LIS algorithm (Algorithm 2) needs a structure over a static
//! set of 2D points `(x, y)`, each carrying a mutable *score* (its `dp`
//! value), that answers
//!
//! > `DominantMax(qx, qy)` — the maximum score among all points with
//! > `x < qx` and `y < qy`
//!
//! and accepts batched score updates (`Update(B)`), where each point's score
//! is written exactly once over the lifetime of the algorithm and scores
//! only ever increase from their initial value of `0`.
//!
//! # Layout
//!
//! Points are sorted by `(x, y)`; a point's index in that order is its
//! *position*.  The outer tree is a merge-sort tree over power-of-two-aligned
//! blocks of positions, stored level by level rather than node by node.
//! Level `j` cuts the positions into blocks of `2^j` (the last one may be
//! short), so level 0 holds single points and the top level one block of
//! all `n`.  Each level is one array of `n` *slots*: a block's slots are the
//! block's own positions, filled with its points in `(y, position)` order.
//! Three arrays describe the levels:
//!
//! * the `y` values in the top level's order, stored once;
//! * per level `j ≥ 1`, for every slot, how many of the block's slots before
//!   it hold points of the left child block (`[bs, bs + 2^(j−1))`) — the
//!   prefix count of the from-left flags of the merge that built the block;
//! * per level, one max-Fenwick array, holding each block's Fenwick tree
//!   over its slots.
//!
//! The prefix counts cascade a slot or a count from a block to a child in
//! `O(1)` (fractional cascading, Chazelle & Guibas 1986).  A child's order
//! is its parent's order with the other child's points removed, so the first
//! `c` slots of a block hold the first `left_before(c)` slots of its left
//! child and the first `c − left_before(c)` slots of its right child.
//!
//! # Operations
//!
//! A dominant-max query finds the `x < qx` prefix of positions with one
//! binary search over the `x` order and the `y < qy` count at the top with
//! one over the top order, then walks down toward the prefix's end.  Where
//! the walk goes right, the left child lies inside the prefix, and its first
//! `c` slots (the points with `y < qy`) are one Fenwick prefix query.  An
//! update starts at the point's top-level slot and cascades the slot down
//! the same way, raising one Fenwick slot chain per level.  Both cost `O(1)`
//! cascading plus one `O(log n)` Fenwick walk per level, `O(log² n)` in all
//! — the bound of Theorem 4.1 — and the arrays take `O(n log n)` space.  The
//! build is a bottom-up merge sort whose merges split by merge path, so its
//! span stays polylogarithmic.
//!
//! The Fenwick slots are atomics raised with `fetch_max`, so a whole batch
//! of updates runs in parallel through `&self` without locks (scores only
//! grow, and `max` is commutative and associative, so the result is
//! identical to any sequential order).

use plis_primitives::par::{maybe_join, par_for_each_chunk, par_map_collect, parallel_for, GRAIN};
use plis_primitives::{DomMaxCounters, DomMaxStats};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A 2D point; `x` and `y` are the coordinates used by dominance queries
/// (for WLIS: `x` is the rank of the input value, `y` the input index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point2 {
    /// First coordinate (compared with `<` against the query's `qx`).
    pub x: u64,
    /// Second coordinate (compared with `<` against the query's `qy`).
    pub y: u64,
}

/// A score update for a point that must already be in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreUpdate {
    /// The point whose score changes.
    pub point: Point2,
    /// Its new score; must be at least the current score (scores are
    /// monotone in the WLIS algorithm).
    pub score: u64,
}

/// The dominant-max range tree (the `RangeStruct` of Algorithm 2).
pub struct RangeMaxTree {
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
    /// `fenwick[j·n + s]`: level `j`'s max-Fenwick slots; the tree of the
    /// block starting at `bs` occupies `bs..bs + len` (1-based index
    /// `s − bs + 1`).
    fenwick: Vec<AtomicU64>,
    /// Telemetry totals (observational only; counted at the
    /// [`DominantMaxStore`](plis_primitives::DominantMaxStore) boundary).
    counters: DomMaxCounters,
}

impl RangeMaxTree {
    /// Build the tree over `points` (all scores start at 0).
    /// `O(n log n)` work, polylogarithmic span.
    ///
    /// # Panics
    /// Panics if two points are identical, or if there are more than
    /// `u32::MAX` points.
    pub fn new(points: &[Point2]) -> Self {
        let n = points.len();
        assert!(u32::try_from(n).is_ok(), "at most u32::MAX points are supported");
        let mut sorted: Vec<(u64, u64)> = points.iter().map(|p| (p.x, p.y)).collect();
        plis_primitives::par_sort_unstable(&mut sorted);
        assert!(sorted.windows(2).all(|w| w[0] != w[1]), "duplicate points are not supported");
        let height = n.next_power_of_two().trailing_zeros() as usize;

        // Bottom-up merge sort by (y, position): level 0 is position order.
        let mut cur: Vec<(u64, u32)> = par_map_collect(n, |p| (sorted[p].1, p as u32));
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
        let fenwick = par_map_collect((height + 1) * n, |_| AtomicU64::new(0));
        RangeMaxTree {
            n,
            height,
            points: sorted,
            top_ys,
            top_slot,
            left_before,
            fenwick,
            counters: DomMaxCounters::new(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `DominantMax(qx, qy)`: maximum score among points with `x < qx` and
    /// `y < qy`; `0` if there is none (matching the WLIS convention that a
    /// missing predecessor contributes `max(0, ·)`).  `O(log² n)`.
    pub fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        // Points with x < qx form the position prefix [0, prefix).
        let prefix = self.points.partition_point(|&(x, _)| x < qx);
        if prefix == 0 {
            return 0;
        }
        // The walk's block starts at `bs` on `level`; its first `count`
        // slots hold its points with y < qy, and `prefix` ends inside it.
        let mut count = self.top_ys.partition_point(|&y| y < qy);
        let (mut level, mut bs, mut best) = (self.height, 0usize, 0u64);
        while count > 0 {
            let len = (1usize << level).min(self.n - bs);
            if prefix - bs >= len {
                return best.max(self.prefix_max(level, bs, count));
            }
            // Only part of the block is inside the prefix, so it has two
            // children (a level-0 block is a single point).
            let half = 1usize << (level - 1);
            let left = if count < len {
                self.left_before[(level - 1) * self.n + bs + count] as usize
            } else {
                half.min(len)
            };
            level -= 1;
            if prefix - bs > half {
                best = best.max(self.prefix_max(level, bs, left));
                count -= left;
                bs += half;
            } else {
                count = left;
            }
        }
        best
    }

    /// Maximum of the first `count` slots of the level-`level` block at `bs`.
    fn prefix_max(&self, level: usize, bs: usize, count: usize) -> u64 {
        let fenwick = &self.fenwick[level * self.n + bs..];
        let mut best = 0u64;
        let mut i = count;
        while i > 0 {
            best = best.max(fenwick[i - 1].load(Ordering::Relaxed));
            i &= i - 1;
        }
        best
    }

    /// `Update(B)`: raise the scores of a batch of points, in parallel.
    /// Each point must exist in the tree; each update costs `O(log² n)`
    /// (an `O(log n)` Fenwick update on each of the `O(log n)` levels).
    ///
    /// # Panics
    /// Panics if an update refers to a point that is not in the tree.
    pub fn update_batch(&self, updates: &[ScoreUpdate]) {
        // Atomic fetch_max makes per-point updates commutative, so chunks
        // can run in any interleaving with identical results.
        par_for_each_chunk(updates, |_, chunk| {
            for u in chunk {
                self.update_one(u);
            }
        });
    }

    /// Raise the score of a single point.
    pub fn update_one(&self, update: &ScoreUpdate) {
        let pos = self.position_of(update.point).unwrap_or_else(|| {
            panic!("point ({}, {}) is not in the tree", update.point.x, update.point.y)
        });
        let n = self.n;
        let mut slot = self.top_slot[pos].load(Ordering::Relaxed) as usize;
        let mut level = self.height;
        loop {
            let bs = pos >> level << level;
            let len = (1usize << level).min(n - bs);
            raise(&self.fenwick[level * n + bs..level * n + bs + len], slot - bs, update.score);
            if level == 0 {
                debug_assert_eq!(slot, pos);
                return;
            }
            // Cascade the slot into the child block holding the point.
            let half = 1usize << (level - 1);
            let left = self.left_before[(level - 1) * n + slot] as usize;
            slot = if pos < bs + half { bs + left } else { slot + half - left };
            level -= 1;
        }
    }

    /// The current score of a point (0 if never raised), or `None` if the
    /// point is not in the tree.
    pub fn score_of(&self, point: Point2) -> Option<u64> {
        // A level-0 block is the point alone, so its one Fenwick slot is
        // the point's score.
        self.position_of(point).map(|pos| self.fenwick[pos].load(Ordering::Relaxed))
    }

    /// Position of a point in the (x, y)-sorted order, if present.
    fn position_of(&self, point: Point2) -> Option<usize> {
        self.points.binary_search(&(point.x, point.y)).ok()
    }
}

/// Raise slot `i` (0-based) of the max-Fenwick tree `fenwick` to at least
/// `score`.  The slots on an update path cover nested ranges, so once a slot
/// already holds `score` every later one does or will: whoever raised it
/// is raising the rest of the same path.
fn raise(fenwick: &[AtomicU64], i: usize, score: u64) {
    let mut i = i + 1;
    while i <= fenwick.len() {
        let slot = &fenwick[i - 1];
        if slot.load(Ordering::Relaxed) >= score
            || slot.fetch_max(score, Ordering::Relaxed) >= score
        {
            return;
        }
        i += i & i.wrapping_neg();
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

/// [`RangeMaxTree`] as a pluggable dominant-max store: the adapter between
/// this crate's typed API ([`Point2`], [`ScoreUpdate`]) and the bare-tuple
/// interface the generic WLIS drivers consume.  Adding another backend
/// means writing exactly this impl next to the new structure.
impl plis_primitives::DominantMaxStore for RangeMaxTree {
    fn build(points: &[(u64, u64)]) -> Self {
        let pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2 { x, y }).collect();
        RangeMaxTree::new(&pts)
    }
    fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        self.counters.count_query();
        RangeMaxTree::dominant_max(self, qx, qy)
    }
    fn update_batch(&mut self, updates: &[(u64, u64, u64)]) {
        self.counters.count_writeback(updates.len());
        let ups: Vec<ScoreUpdate> = updates
            .iter()
            .map(|&(x, y, score)| ScoreUpdate { point: Point2 { x, y }, score })
            .collect();
        RangeMaxTree::update_batch(self, &ups);
    }
    fn name() -> &'static str {
        "range-tree"
    }
    fn stats(&self) -> DomMaxStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_dominant_max(points: &[(Point2, u64)], qx: u64, qy: u64) -> u64 {
        points.iter().filter(|(p, _)| p.x < qx && p.y < qy).map(|(_, s)| *s).max().unwrap_or(0)
    }

    #[test]
    fn empty_tree() {
        let t = RangeMaxTree::new(&[]);
        assert!(t.is_empty());
        assert_eq!(t.dominant_max(10, 10), 0);
    }

    #[test]
    fn single_point() {
        let p = Point2 { x: 5, y: 7 };
        let t = RangeMaxTree::new(&[p]);
        assert_eq!(t.dominant_max(6, 8), 0); // score still 0
        t.update_one(&ScoreUpdate { point: p, score: 42 });
        assert_eq!(t.dominant_max(6, 8), 42);
        assert_eq!(t.dominant_max(5, 8), 0); // x < 5 excludes the point
        assert_eq!(t.dominant_max(6, 7), 0); // y < 7 excludes the point
        assert_eq!(t.score_of(p), Some(42));
        assert_eq!(t.score_of(Point2 { x: 0, y: 0 }), None);
    }

    #[test]
    fn paper_figure_9_example() {
        // Points (x, y, score) from Figure 9; query (10, 6) must return 8,
        // achieved by (6, 1, 8) — the best score in the lower-left region.
        let raw = [
            (3u64, 8u64, 4u64),
            (16, 1, 7),
            (17, 2, 2),
            (12, 2, 5),
            (6, 7, 8),
            (13, 4, 3),
            (14, 7, 3),
            (1, 5, 7),
            (3, 2, 5),
            (6, 1, 8),
            (7, 4, 3),
            (16, 10, 12),
        ];
        let points: Vec<Point2> = raw.iter().map(|&(x, y, _)| Point2 { x, y }).collect();
        let t = RangeMaxTree::new(&points);
        let updates: Vec<ScoreUpdate> =
            raw.iter().map(|&(x, y, s)| ScoreUpdate { point: Point2 { x, y }, score: s }).collect();
        t.update_batch(&updates);
        assert_eq!(t.dominant_max(10, 6), 8);
        // And exhaustive spot checks against brute force.
        let scored: Vec<(Point2, u64)> =
            raw.iter().map(|&(x, y, s)| (Point2 { x, y }, s)).collect();
        for qx in 0..20 {
            for qy in 0..12 {
                assert_eq!(
                    t.dominant_max(qx, qy),
                    brute_dominant_max(&scored, qx, qy),
                    "query ({qx}, {qy})"
                );
            }
        }
    }

    #[test]
    fn incremental_updates_match_brute_force() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || xorshift(&mut state);
        // The larger size has blocks above GRAIN slots, so the build
        // splits their merges by merge path.
        for (n, side) in [(800usize, 200u64), (5000, 1000)] {
            // Unique (x, y) pairs.
            let mut points: Vec<Point2> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            while points.len() < n {
                let p = Point2 { x: rng() % side, y: rng() % side };
                if seen.insert((p.x, p.y)) {
                    points.push(p);
                }
            }
            let tree = RangeMaxTree::new(&points);
            let mut scored: Vec<(Point2, u64)> = points.iter().map(|&p| (p, 0)).collect();
            for round in 0..10 {
                // Raise the scores of a pseudo-random subset.
                let mut updates = Vec::new();
                for entry in scored.iter_mut() {
                    if rng() % 4 == 0 {
                        entry.1 += rng() % 50;
                        updates.push(ScoreUpdate { point: entry.0, score: entry.1 });
                    }
                }
                tree.update_batch(&updates);
                for _ in 0..50 {
                    let qx = rng() % (side + side / 10);
                    let qy = rng() % (side + side / 10);
                    assert_eq!(
                        tree.dominant_max(qx, qy),
                        brute_dominant_max(&scored, qx, qy),
                        "n = {n}, round {round}, query ({qx}, {qy})"
                    );
                }
            }
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Every query whose coordinates sit on or just above a point's, or at
    /// 0 or `u64::MAX`, checked against brute force, plus every score.
    fn check_every_query(tree: &RangeMaxTree, scored: &[(Point2, u64)], label: &str) {
        let edges = |coord: fn(&Point2) -> u64| {
            let mut qs: Vec<u64> = scored
                .iter()
                .flat_map(|(p, _)| [coord(p), coord(p).saturating_add(1)])
                .chain([0, u64::MAX])
                .collect();
            qs.sort_unstable();
            qs.dedup();
            qs
        };
        let (qxs, qys) = (edges(|p| p.x), edges(|p| p.y));
        for &qx in &qxs {
            for &qy in &qys {
                assert_eq!(
                    tree.dominant_max(qx, qy),
                    brute_dominant_max(scored, qx, qy),
                    "{label}: query ({qx}, {qy})"
                );
            }
        }
        for &(p, score) in scored {
            assert_eq!(tree.score_of(p), Some(score), "{label}: score of {p:?}");
        }
    }

    #[test]
    fn every_small_size_matches_brute_force() {
        // Mostly non-powers of two, so most levels end in a short block and
        // some blocks have no right child.  Coordinates come from a 16 × 16
        // grid, so x and y values repeat.
        let mut state = 0x5EED_0F7E_E5F0u64;
        for n in 1..=130usize {
            let mut seen = std::collections::HashSet::new();
            let mut points = Vec::new();
            while points.len() < n {
                let p = Point2 { x: xorshift(&mut state) % 16, y: xorshift(&mut state) % 16 };
                if seen.insert(p) {
                    points.push(p);
                }
            }
            let tree = RangeMaxTree::new(&points);
            let mut scored: Vec<(Point2, u64)> = points.iter().map(|&p| (p, 0)).collect();
            for round in 0..2 {
                let mut updates = Vec::new();
                for entry in scored.iter_mut() {
                    if !xorshift(&mut state).is_multiple_of(3) {
                        entry.1 += 1 + xorshift(&mut state) % 100;
                        updates.push(ScoreUpdate { point: entry.0, score: entry.1 });
                    }
                }
                tree.update_batch(&updates);
                check_every_query(&tree, &scored, &format!("n = {n}, round {round}"));
            }
        }
    }

    #[test]
    fn repeated_coordinates_and_extreme_values() {
        // Duplicate y with distinct x (and the mirror), one shared y, and
        // coordinates at both ends of the u64 range.
        let shapes: Vec<(&str, Vec<Point2>)> = vec![
            ("y = x mod 3", (0..100).map(|i| Point2 { x: i, y: i % 3 }).collect()),
            ("one shared y", (0..70).map(|i| Point2 { x: 3 * i, y: 5 }).collect()),
            ("x = y mod 4", (0..90).map(|i| Point2 { x: i % 4, y: 1000 - i }).collect()),
            (
                "extremes",
                [0, 1, u64::MAX - 1, u64::MAX]
                    .into_iter()
                    .flat_map(|x| [0, 7, u64::MAX].map(|y| Point2 { x, y }))
                    .collect(),
            ),
        ];
        for (label, points) in shapes {
            let tree = RangeMaxTree::new(&points);
            let scored: Vec<(Point2, u64)> =
                points.iter().enumerate().map(|(i, &p)| (p, 1 + (i as u64 * 37) % 101)).collect();
            let updates: Vec<ScoreUpdate> =
                scored.iter().map(|&(point, score)| ScoreUpdate { point, score }).collect();
            tree.update_batch(&updates);
            check_every_query(&tree, &scored, label);
        }
    }

    #[test]
    fn parallel_update_batch_matches_sequential_replay() {
        // 600 points in a 30 × 60 box, so the update paths of neighbours
        // share Fenwick slots on every level; each point is raised several
        // times with different scores, in one batch large enough to split
        // across a 2-thread pool.
        let points: Vec<Point2> =
            (0..600).map(|i| Point2 { x: i % 30, y: (i / 30) * 7 % 20 + 20 * (i % 3) }).collect();
        let mut state = 0xC4A12u64;
        let updates: Vec<ScoreUpdate> = (0..8000)
            .map(|_| ScoreUpdate {
                point: points[(xorshift(&mut state) % 600) as usize],
                score: xorshift(&mut state) % 5000,
            })
            .collect();
        let parallel = RangeMaxTree::new(&points);
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap()
            .install(|| parallel.update_batch(&updates));
        let sequential = RangeMaxTree::new(&points);
        for u in &updates {
            sequential.update_one(u);
        }
        let slots = |t: &RangeMaxTree| -> Vec<u64> {
            t.fenwick.iter().map(|s| s.load(Ordering::Relaxed)).collect()
        };
        assert!(slots(&parallel) == slots(&sequential), "Fenwick slots differ");
        let mut best = std::collections::HashMap::new();
        for u in &updates {
            let e = best.entry(u.point).or_insert(0);
            *e = u.score.max(*e);
        }
        let scored: Vec<(Point2, u64)> =
            points.iter().map(|p| (*p, best.get(p).copied().unwrap_or(0))).collect();
        check_every_query(&parallel, &scored, "parallel batch");
    }

    #[test]
    #[should_panic(expected = "duplicate points")]
    fn duplicate_points_rejected() {
        RangeMaxTree::new(&[Point2 { x: 1, y: 1 }, Point2 { x: 1, y: 1 }]);
    }

    #[test]
    #[should_panic(expected = "not in the tree")]
    fn update_of_unknown_point_panics() {
        let t = RangeMaxTree::new(&[Point2 { x: 1, y: 1 }]);
        t.update_one(&ScoreUpdate { point: Point2 { x: 2, y: 2 }, score: 1 });
    }

    #[test]
    fn scores_only_grow_under_fetch_max() {
        let p = Point2 { x: 3, y: 3 };
        let t = RangeMaxTree::new(&[p, Point2 { x: 1, y: 1 }]);
        t.update_one(&ScoreUpdate { point: p, score: 10 });
        // A lower update must not lower the observable score.
        t.update_one(&ScoreUpdate { point: p, score: 4 });
        assert_eq!(t.dominant_max(10, 10), 10);
    }

    #[test]
    fn query_boundaries_are_strict() {
        // Dominance is strict in both coordinates.
        let pts = [Point2 { x: 2, y: 2 }, Point2 { x: 4, y: 4 }];
        let t = RangeMaxTree::new(&pts);
        t.update_batch(&[
            ScoreUpdate { point: pts[0], score: 5 },
            ScoreUpdate { point: pts[1], score: 9 },
        ]);
        assert_eq!(t.dominant_max(2, 10), 0);
        assert_eq!(t.dominant_max(3, 2), 0);
        assert_eq!(t.dominant_max(3, 3), 5);
        assert_eq!(t.dominant_max(5, 5), 9);
        assert_eq!(t.dominant_max(4, 5), 5);
    }
}
