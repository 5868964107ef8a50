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
//! The outer tree is `plis_primitives::OuterTree`; each of its levels keeps
//! one max-Fenwick array, holding every block's Fenwick tree over its slots.
//! A query takes a Fenwick prefix maximum in each block of its prefix that
//! the walk passes, and an update raises one Fenwick chain per level:
//! `O(log² n)` each (Theorem 4.1), in `O(n log n)` space.
//!
//! The Fenwick slots are atomics, read with relaxed loads by a frontier's
//! parallel queries.  `update_batch` takes `&mut self`.  A batch small
//! enough to run as one piece raises its chains with plain writes through
//! `AtomicU64::get_mut`; a larger one splits into pieces that raise theirs
//! with `fetch_max` at once, without locks (scores only grow, and `max` is
//! commutative and associative, so the result is identical to any
//! sequential order).

use plis_primitives::par::{
    adaptive_grain, par_for_each_chunk, par_map_collect, MIN_ADAPTIVE_GRAIN,
};
use plis_primitives::{DomMaxCounters, DomMaxStats, OuterTree};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

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
    outer: OuterTree,
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
        let outer = OuterTree::new(points.iter().map(|p| (p.x, p.y)).collect());
        let fenwick = par_map_collect((outer.height() + 1) * outer.len(), |_| AtomicU64::new(0));
        RangeMaxTree { outer, fenwick, counters: DomMaxCounters::new() }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// True when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty()
    }

    /// `DominantMax(qx, qy)`: maximum score among points with `x < qx` and
    /// `y < qy`; `0` if there is none (matching the WLIS convention that a
    /// missing predecessor contributes `max(0, ·)`).  `O(log² n)`.
    pub fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        // A level-0 block is one point, whose one Fenwick slot is its score.
        self.outer.walk(
            qx,
            qy,
            0,
            |level, bs, count| self.prefix_max(level, bs, count),
            |pos| self.fenwick[pos].load(Ordering::Relaxed),
        )
    }

    /// Maximum of the first `count` slots of the level-`level` block at `bs`.
    fn prefix_max(&self, level: usize, bs: usize, count: usize) -> u64 {
        let fenwick = &self.fenwick[level * self.outer.len() + bs..];
        let mut best = 0u64;
        let mut i = count;
        while i > 0 {
            best = best.max(fenwick[i - 1].load(Ordering::Relaxed));
            i &= i - 1;
        }
        best
    }

    /// `Update(B)`: raise the scores of a batch of points.  Each point must
    /// exist in the tree; each update costs `O(log² n)` (an `O(log n)`
    /// Fenwick update on each of the `O(log n)` levels).  A batch that
    /// [`par_for_each_chunk`] would run as one piece — at most
    /// `adaptive_grain(len, MIN_ADAPTIVE_GRAIN)` updates, so every batch on
    /// a one-thread pool — raises its Fenwick chains with plain writes.  A
    /// larger batch splits into pieces that raise theirs in parallel with
    /// `fetch_max`, which keeps Theorem 4.1's span.
    ///
    /// # Panics
    /// Panics if an update refers to a point that is not in the tree.
    pub fn update_batch(&mut self, updates: &[ScoreUpdate]) {
        if updates.len() <= adaptive_grain(updates.len(), MIN_ADAPTIVE_GRAIN) {
            for u in updates {
                self.update_one(u);
            }
            return;
        }
        // Atomic fetch_max makes per-point updates commutative, so chunks
        // can run in any interleaving with identical results.
        let RangeMaxTree { outer, fenwick, .. } = &*self;
        par_for_each_chunk(updates, |_, chunk| {
            for u in chunk {
                chains(outer, u.point, |slots, key| raise_shared(&fenwick[slots], key, u.score));
            }
        });
    }

    /// Raise the score of a single point.
    ///
    /// # Panics
    /// Panics if the point is not in the tree.
    pub fn update_one(&mut self, update: &ScoreUpdate) {
        let RangeMaxTree { outer, fenwick, .. } = self;
        chains(outer, update.point, |slots, key| raise(&mut fenwick[slots], key, update.score));
    }

    /// The current score of a point (0 if never raised), or `None` if the
    /// point is not in the tree.
    pub fn score_of(&self, point: Point2) -> Option<u64> {
        // A level-0 block is the point alone, so its one Fenwick slot is
        // the point's score.
        let pos = self.outer.position_of(point.x, point.y)?;
        Some(self.fenwick[pos].load(Ordering::Relaxed))
    }
}

/// Visit the Fenwick tree of every block on `point`'s update path, top
/// level first, as its range of slots in the `fenwick` array and the
/// point's slot offset in it.
fn chains(outer: &OuterTree, point: Point2, mut visit: impl FnMut(Range<usize>, usize)) {
    let Point2 { x, y } = point;
    let pos = outer.position_of(x, y);
    let pos = pos.unwrap_or_else(|| panic!("point ({x}, {y}) is not in the tree"));
    let n = outer.len();
    outer.path(pos, 0, |level, bs, key| {
        let start = level * n + bs;
        visit(start..start + outer.block_len(level, bs), key);
    });
}

/// Raise slot `i` (0-based) of the max-Fenwick tree `fenwick` to at least
/// `score`.  The slots on an update path cover nested ranges, so once a
/// slot already holds `score` every later one does.
fn raise(fenwick: &mut [AtomicU64], i: usize, score: u64) {
    let mut i = i + 1;
    while i <= fenwick.len() {
        let slot = fenwick[i - 1].get_mut();
        if *slot >= score {
            return;
        }
        *slot = score;
        i += i & i.wrapping_neg();
    }
}

/// [`raise`] through a shared reference, for a batch split across threads.
/// Once a slot already holds `score` every later one does or will: whoever
/// raised it is raising the rest of the same path.
fn raise_shared(fenwick: &[AtomicU64], i: usize, score: u64) {
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
        let mut t = RangeMaxTree::new(&[p]);
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
        let mut t = RangeMaxTree::new(&points);
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
            let mut tree = RangeMaxTree::new(&points);
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
            let mut tree = RangeMaxTree::new(&points);
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
            let mut tree = RangeMaxTree::new(&points);
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
        // times with different scores.  Batches of 512 and 513 updates sit
        // on both sides of MIN_ADAPTIVE_GRAIN, where a batch on a
        // multi-thread pool stops being written as one exclusive piece and
        // forks into pieces raised with `fetch_max`; 8000 forks further.
        // Each runs on the PLIS_BENCH_THREADS pool (default 2) and must
        // equal a one-thread replay and brute force.
        let threads = std::env::var("PLIS_BENCH_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&t: &usize| t > 0)
            .unwrap_or(2);
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let full = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let points: Vec<Point2> =
            (0..600).map(|i| Point2 { x: i % 30, y: (i / 30) * 7 % 20 + 20 * (i % 3) }).collect();
        let mut state = 0xC4A12u64;
        for len in [MIN_ADAPTIVE_GRAIN, MIN_ADAPTIVE_GRAIN + 1, 8000] {
            if threads > 1 {
                let forks = len > full.install(|| adaptive_grain(len, MIN_ADAPTIVE_GRAIN));
                assert_eq!(forks, len > MIN_ADAPTIVE_GRAIN, "{len} updates");
            }
            let updates: Vec<ScoreUpdate> = (0..len)
                .map(|_| ScoreUpdate {
                    point: points[(xorshift(&mut state) % 600) as usize],
                    score: xorshift(&mut state) % 5000,
                })
                .collect();
            let mut parallel = RangeMaxTree::new(&points);
            full.install(|| parallel.update_batch(&updates));
            let mut sequential = RangeMaxTree::new(&points);
            one.install(|| {
                for u in &updates {
                    sequential.update_one(u);
                }
            });
            let slots = |t: &RangeMaxTree| -> Vec<u64> {
                t.fenwick.iter().map(|s| s.load(Ordering::Relaxed)).collect()
            };
            assert!(slots(&parallel) == slots(&sequential), "Fenwick slots differ ({len} updates)");
            let mut best = std::collections::HashMap::new();
            for u in &updates {
                let e = best.entry(u.point).or_insert(0);
                *e = u.score.max(*e);
            }
            let scored: Vec<(Point2, u64)> =
                points.iter().map(|p| (*p, best.get(p).copied().unwrap_or(0))).collect();
            check_every_query(&parallel, &scored, &format!("{len} updates, {threads} threads"));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate points")]
    fn duplicate_points_rejected() {
        RangeMaxTree::new(&[Point2 { x: 1, y: 1 }, Point2 { x: 1, y: 1 }]);
    }

    #[test]
    #[should_panic(expected = "not in the tree")]
    fn update_of_unknown_point_panics() {
        let mut t = RangeMaxTree::new(&[Point2 { x: 1, y: 1 }]);
        t.update_one(&ScoreUpdate { point: Point2 { x: 2, y: 2 }, score: 1 });
    }

    #[test]
    fn scores_only_grow_under_fetch_max() {
        let p = Point2 { x: 3, y: 3 };
        let mut t = RangeMaxTree::new(&[p, Point2 { x: 1, y: 1 }]);
        t.update_one(&ScoreUpdate { point: p, score: 10 });
        // A lower update must not lower the observable score.
        t.update_one(&ScoreUpdate { point: p, score: 4 });
        assert_eq!(t.dominant_max(10, 10), 10);
    }

    #[test]
    fn query_boundaries_are_strict() {
        // Dominance is strict in both coordinates.
        let pts = [Point2 { x: 2, y: 2 }, Point2 { x: 4, y: 4 }];
        let mut t = RangeMaxTree::new(&pts);
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
