//! The Range-vEB tree (Section 4.2, Algorithm 3, Appendix E).
//!
//! Like the range tree of `plis-rangetree`, this structure answers 2D
//! dominant-max queries over a static point set, but the inner structures
//! are **Mono-vEB trees**: vEB trees over the points' `y` coordinates that
//! only retain the *staircase* of the scores seen so far.  Because the
//! staircase is monotone, the per-node part of a dominant-max query is a
//! single vEB predecessor lookup (`O(log log n)`), and updates use the
//! parallel batch insertion / deletion and `CoveredBy` operations of the
//! parallel vEB tree (Theorems 5.1, 5.2, D.1).
//!
//! Space efficiency follows Appendix E: the outer tree is a static,
//! perfectly balanced segment tree over the x-sorted order, and each inner
//! Mono-vEB tree is built over a universe equal to the number of points in
//! its outer node, addressed by *relabelled* keys (the rank of the point's
//! `y` among the node's points).  The relabelling tables are the nodes'
//! sorted `y` arrays; translating a query or update point costs one binary
//! search per touched node, which adds an `O(log n)` factor to the query
//! constant but keeps the structure `O(n log n)` space overall.
//!
//! The paper proposes this structure to improve the *theoretical* work bound
//! of WLIS from `O(n log² n)` to `O(n log n log log n)`; the benchmark
//! harness compares both structures head-to-head (experiment E9 in
//! `DESIGN.md`).

use plis_primitives::par::{maybe_join, GRAIN};
use plis_primitives::{DomMaxCounters, DomMaxStats};
use plis_veb::{MonoVeb, ScoredPoint};
use std::cmp::Reverse;

/// `distribute` forks only on at least this many routed updates.  Every
/// `offline-lis` write-back counted has at most 22, so it never forks (the
/// old grain, 2, forked at every outer node and was slower); 64 keeps
/// Algorithm 3's parallel span for larger frontiers, a side no benchmark
/// workload measures (DESIGN.md, "Granularity in the vEB family").
const DISTRIBUTE_GRAIN: usize = 64;

/// A 2D point (same convention as `plis_rangetree::Point2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point2 {
    /// First coordinate (value rank for WLIS).
    pub x: u64,
    /// Second coordinate (input index for WLIS).
    pub y: u64,
}

/// A score update for a point already in the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreUpdate {
    /// The point whose score is being set.
    pub point: Point2,
    /// The new score (scores only grow in the WLIS algorithm).
    pub score: u64,
}

/// One outer node: a contiguous range of the x-sorted order, the sorted `y`
/// values of its points (the Appendix-E relabelling table), and a Mono-vEB
/// staircase over the relabelled keys.
struct VNode {
    lo: usize,
    hi: usize,
    /// Sorted original `y` values of the points in `[lo, hi)`; position in
    /// this array is the relabelled key used in `inner`.
    ys: Vec<u64>,
    /// Staircase of (relabelled key, score).
    inner: MonoVeb,
}

/// The Range-vEB dominant-max structure (`RangeStruct` of Algorithm 3).
pub struct RangeVeb {
    n: usize,
    xs: Vec<u64>,
    ys_by_pos: Vec<u64>,
    nodes: Vec<VNode>,
    /// Telemetry totals (observational only; counted at the
    /// [`DominantMaxStore`](plis_primitives::DominantMaxStore) boundary).
    counters: DomMaxCounters,
}

impl RangeVeb {
    /// Build the structure over `points`; all scores start "absent" (a
    /// dominant-max query over untouched regions returns 0).
    ///
    /// # Panics
    /// Panics if two points are identical.
    pub fn new(points: &[Point2]) -> Self {
        let n = points.len();
        if n == 0 {
            return RangeVeb {
                n,
                xs: Vec::new(),
                ys_by_pos: Vec::new(),
                nodes: Vec::new(),
                counters: DomMaxCounters::new(),
            };
        }
        let mut order: Vec<(u64, u64)> = points.iter().map(|p| (p.x, p.y)).collect();
        plis_primitives::par_sort_unstable(&mut order);
        assert!(order.windows(2).all(|w| w[0] != w[1]), "duplicate points are not supported");
        // The `y` coordinates must be pairwise distinct: they are the keys of
        // the inner Mono-vEB trees (in WLIS they are the input indices, which
        // are unique by construction).
        {
            let mut ys: Vec<u64> = order.iter().map(|p| p.1).collect();
            plis_primitives::par_sort_unstable(&mut ys);
            assert!(ys.windows(2).all(|w| w[0] != w[1]), "y coordinates must be pairwise distinct");
        }
        let xs: Vec<u64> = order.iter().map(|p| p.0).collect();
        let ys_by_pos: Vec<u64> = order.iter().map(|p| p.1).collect();
        let mut nodes: Vec<Option<VNode>> = Vec::new();
        nodes.resize_with(2 * n - 1, || None);
        build(&mut nodes, &ys_by_pos, 0, n);
        let nodes = nodes.into_iter().map(|v| v.expect("build fills every node")).collect();
        RangeVeb { n, xs, ys_by_pos, nodes, counters: DomMaxCounters::new() }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the structure holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `DominantMax(qx, qy)` (Algorithm 3): the maximum score among points
    /// with `x < qx`, `y < qy` whose score has been set; 0 if none.
    pub fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let prefix = self.xs.partition_point(|&x| x < qx);
        if prefix == 0 {
            return 0;
        }
        self.query_node(0, prefix, qy)
    }

    fn query_node(&self, node_idx: usize, prefix: usize, qy: u64) -> u64 {
        let node = &self.nodes[node_idx];
        if prefix >= node.hi - node.lo {
            // In-range inner tree: relabel qy and take the predecessor's
            // score — the staircase makes it the prefix maximum (Line 5).
            let label_bound = node.ys.partition_point(|&y| y < qy) as u64;
            return node.inner.prefix_best(label_bound).unwrap_or(0);
        }
        let left_idx = node_idx + 1;
        let left_size = self.nodes[left_idx].hi - self.nodes[left_idx].lo;
        let right_idx = node_idx + 2 * left_size;
        if prefix <= left_size {
            self.query_node(left_idx, prefix, qy)
        } else {
            let l = self.query_node(left_idx, left_size, qy);
            let r = self.query_node(right_idx, prefix - left_size, qy);
            l.max(r)
        }
    }

    /// `Update(B)` (Algorithm 3 lines 9–20): set the scores of a batch of
    /// points.  Every point is routed to the `O(log n)` outer nodes that
    /// contain it; each affected inner Mono-vEB tree then performs one
    /// staircase update (refine → `CoveredBy` → batch delete → batch
    /// insert), with different inner trees processed in parallel.  A point
    /// named more than once keeps its highest score.
    ///
    /// # Panics
    /// Panics if an update refers to a point not present in the structure.
    pub fn update_batch(&mut self, updates: &[ScoreUpdate]) {
        if updates.is_empty() || self.n == 0 {
            return;
        }
        // Route updates by their x-sorted position so the recursion can
        // split them contiguously at every outer node.
        let mut routed: Vec<(usize, u64, u64)> =
            plis_primitives::par_map_collect(updates.len(), |i| {
                let u = &updates[i];
                let pos = self.position_of(u.point).unwrap_or_else(|| {
                    panic!("point ({}, {}) is not in the structure", u.point.x, u.point.y)
                });
                (pos, u.point.y, u.score)
            });
        plis_primitives::par_sort_unstable(&mut routed);
        let nodes = &mut self.nodes[..];
        distribute(nodes, &routed);
    }

    /// Convenience for a single update (wraps [`update_batch`](Self::update_batch)).
    pub fn update_one(&mut self, update: ScoreUpdate) {
        self.update_batch(std::slice::from_ref(&update));
    }

    fn position_of(&self, point: Point2) -> Option<usize> {
        let lo = self.xs.partition_point(|&x| x < point.x);
        let hi = self.xs.partition_point(|&x| x <= point.x);
        self.ys_by_pos[lo..hi].binary_search(&point.y).ok().map(|i| lo + i)
    }
}

/// [`RangeVeb`] as a pluggable dominant-max store (the bare-tuple interface
/// consumed by the generic WLIS drivers).  Adding another backend means
/// writing exactly this impl next to the new structure.
impl plis_primitives::DominantMaxStore for RangeVeb {
    fn build(points: &[(u64, u64)]) -> Self {
        let pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2 { x, y }).collect();
        RangeVeb::new(&pts)
    }
    fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        self.counters.count_query();
        RangeVeb::dominant_max(self, qx, qy)
    }
    fn update_batch(&mut self, updates: &[(u64, u64, u64)]) {
        self.counters.count_writeback(updates.len());
        let ups: Vec<ScoreUpdate> = updates
            .iter()
            .map(|&(x, y, score)| ScoreUpdate { point: Point2 { x, y }, score })
            .collect();
        RangeVeb::update_batch(self, &ups);
    }
    fn name() -> &'static str {
        "range-veb"
    }
    fn stats(&self) -> DomMaxStats {
        self.counters.snapshot()
    }
}

/// Build the contiguous-layout outer tree; every node gets its sorted `y`
/// table (by merging children) and an empty Mono-vEB over `[0, size)`.
fn build(nodes: &mut [Option<VNode>], ys_by_pos: &[u64], lo: usize, hi: usize) {
    let m = hi - lo;
    debug_assert_eq!(nodes.len(), 2 * m - 1);
    if m == 1 {
        nodes[0] = Some(VNode { lo, hi, ys: vec![ys_by_pos[lo]], inner: MonoVeb::new(1) });
        return;
    }
    let half = m.div_ceil(2);
    let (this, rest) = nodes.split_first_mut().expect("non-empty");
    let (left, right) = rest.split_at_mut(2 * half - 1);
    maybe_join(
        m,
        GRAIN,
        || build(left, ys_by_pos, lo, lo + half),
        || build(right, ys_by_pos, lo + half, hi),
    );
    let lys = &left[0].as_ref().expect("left built").ys;
    let rys = &right[0].as_ref().expect("right built").ys;
    let merged = plis_primitives::parallel_merge(lys, rys);
    let inner = MonoVeb::new(merged.len() as u64);
    *this = Some(VNode { lo, hi, ys: merged, inner });
}

/// Push the routed updates `(position, y, score)` (sorted by position) down
/// the outer tree: every node on a point's root-to-leaf path receives it.
/// The node's own staircase update and the two child recursions are all
/// independent, so they run under a fork-join.
fn distribute(nodes: &mut [VNode], updates: &[(usize, u64, u64)]) {
    if updates.is_empty() {
        return;
    }
    let m = nodes[0].hi - nodes[0].lo;
    if m == 1 {
        apply_to_node(&mut nodes[0], updates);
        return;
    }
    let half = m.div_ceil(2);
    let (this, rest) = nodes.split_first_mut().expect("non-empty");
    let split_pos = this.lo + half;
    let cut = updates.partition_point(|&(pos, _, _)| pos < split_pos);
    let (upd_l, upd_r) = updates.split_at(cut);
    let (left, right) = rest.split_at_mut(2 * half - 1);
    maybe_join(
        updates.len(),
        DISTRIBUTE_GRAIN,
        || apply_to_node(this, updates),
        || {
            maybe_join(
                updates.len(),
                DISTRIBUTE_GRAIN,
                || distribute(left, upd_l),
                || distribute(right, upd_r),
            );
        },
    );
}

/// Relabel the updates into the node's local key space and perform one
/// staircase update on its inner Mono-vEB tree.  A point named more than
/// once keeps its highest score.
fn apply_to_node(node: &mut VNode, updates: &[(usize, u64, u64)]) {
    let mut batch: Vec<ScoredPoint> = updates
        .iter()
        .map(|&(_, y, score)| {
            let label = node.ys.binary_search(&y).expect("point belongs to this node") as u64;
            ScoredPoint { key: label, score }
        })
        .collect();
    batch.sort_unstable_by_key(|p| (p.key, Reverse(p.score)));
    batch.dedup_by_key(|p| p.key);
    node.inner.insert_staircase(&batch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(points: &[(Point2, Option<u64>)], qx: u64, qy: u64) -> u64 {
        points
            .iter()
            .filter(|(p, s)| p.x < qx && p.y < qy && s.is_some())
            .map(|(_, s)| s.unwrap())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn empty_structure() {
        let r = RangeVeb::new(&[]);
        assert!(r.is_empty());
        assert_eq!(r.dominant_max(5, 5), 0);
    }

    #[test]
    fn single_point_strict_dominance() {
        let p = Point2 { x: 3, y: 4 };
        let mut r = RangeVeb::new(&[p]);
        assert_eq!(r.dominant_max(10, 10), 0);
        r.update_one(ScoreUpdate { point: p, score: 6 });
        assert_eq!(r.dominant_max(4, 5), 6);
        assert_eq!(r.dominant_max(3, 5), 0);
        assert_eq!(r.dominant_max(4, 4), 0);
    }

    #[test]
    fn paper_figure_9_example() {
        // The Figure-9 point set, restricted to one point per y coordinate
        // (the Range-vEB keys its inner trees by y, which in WLIS is the
        // unique input index).
        let raw = [
            (3u64, 8u64, 4u64),
            (16, 1, 7),
            (17, 2, 2),
            (13, 4, 3),
            (14, 7, 3),
            (1, 5, 7),
            (16, 10, 12),
            (9, 3, 6),
            (5, 0, 2),
            (11, 6, 9),
        ];
        let points: Vec<Point2> = raw.iter().map(|&(x, y, _)| Point2 { x, y }).collect();
        let mut r = RangeVeb::new(&points);
        let updates: Vec<ScoreUpdate> =
            raw.iter().map(|&(x, y, s)| ScoreUpdate { point: Point2 { x, y }, score: s }).collect();
        r.update_batch(&updates);
        assert_eq!(r.dominant_max(10, 6), 7);
        let scored: Vec<(Point2, Option<u64>)> =
            raw.iter().map(|&(x, y, s)| (Point2 { x, y }, Some(s))).collect();
        for qx in 0..20 {
            for qy in 0..12 {
                assert_eq!(r.dominant_max(qx, qy), brute(&scored, qx, qy), "query ({qx},{qy})");
            }
        }
    }

    #[test]
    fn incremental_rounds_match_brute_force() {
        // Every round updates about a third of the points, more than
        // `distribute`'s grain, on one thread and on a 2-thread pool.
        let mut state = 0xA24BAED4963EE407u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 400usize;
        // Distinct y coordinates (as in WLIS, where y is the input index).
        let mut ys: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            ys.swap(i, (rng() as usize) % (i + 1));
        }
        let points: Vec<Point2> = (0..n).map(|i| Point2 { x: rng() % 150, y: ys[i] }).collect();
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let two = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let mut seq = RangeVeb::new(&points);
        let mut par = RangeVeb::new(&points);
        let mut scored: Vec<(Point2, Option<u64>)> = points.iter().map(|&p| (p, None)).collect();
        for round in 0..8 {
            let mut updates = Vec::new();
            for entry in scored.iter_mut() {
                if rng() % 3 == 0 {
                    let new_score = entry.1.unwrap_or(0) + 1 + rng() % 40;
                    entry.1 = Some(new_score);
                    updates.push(ScoreUpdate { point: entry.0, score: new_score });
                }
            }
            assert!(updates.len() > DISTRIBUTE_GRAIN, "round {round}: frontier below the grain");
            one.install(|| seq.update_batch(&updates));
            two.install(|| par.update_batch(&updates));
            for _ in 0..60 {
                let qx = rng() % 160;
                let qy = rng() % (n as u64 + 10);
                let want = brute(&scored, qx, qy);
                assert_eq!(seq.dominant_max(qx, qy), want, "round {round}, 1 thread ({qx},{qy})");
                assert_eq!(par.dominant_max(qx, qy), want, "round {round}, 2 threads ({qx},{qy})");
            }
        }
    }

    #[test]
    fn repeated_points_keep_their_highest_score() {
        // Each chosen point is named twice in one batch with two new scores,
        // the higher one first or second at random; like the range tree's
        // `fetch_max`, the point must keep the higher one.
        let mut state = 0xBB67AE8584CAA73Bu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20u64 {
            let n = 40 + 7 * trial;
            let points: Vec<Point2> = (0..n).map(|y| Point2 { x: rng() % 30, y }).collect();
            let mut r = RangeVeb::new(&points);
            let mut scored: Vec<(Point2, Option<u64>)> =
                points.iter().map(|&p| (p, None)).collect();
            for round in 0..4 {
                let mut updates = Vec::new();
                for entry in scored.iter_mut() {
                    if rng() % 3 != 0 {
                        continue;
                    }
                    let low = entry.1.unwrap_or(0) + 1 + rng() % 20;
                    let high = low + 1 + rng() % 20;
                    entry.1 = Some(high);
                    let pair = [low, high];
                    let first = (rng() % 2) as usize;
                    for score in [pair[first], pair[1 - first]] {
                        updates.push(ScoreUpdate { point: entry.0, score });
                    }
                }
                r.update_batch(&updates);
                for qx in 0..=31 {
                    for qy in 0..=n {
                        assert_eq!(
                            r.dominant_max(qx, qy),
                            brute(&scored, qx, qy),
                            "trial {trial} round {round} query ({qx},{qy})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the structure")]
    fn unknown_point_update_panics() {
        let mut r = RangeVeb::new(&[Point2 { x: 1, y: 1 }]);
        r.update_one(ScoreUpdate { point: Point2 { x: 9, y: 9 }, score: 3 });
    }

    #[test]
    #[should_panic(expected = "duplicate points")]
    fn duplicate_points_rejected() {
        RangeVeb::new(&[Point2 { x: 2, y: 2 }, Point2 { x: 2, y: 2 }]);
    }
}
