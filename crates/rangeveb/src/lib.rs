//! The Range-vEB tree (Section 4.2, Algorithm 3, Appendix E).
//!
//! The range tree of `plis-rangetree` with **Mono-vEB** inner trees, on the
//! same outer tree, `plis_primitives::OuterTree`.  A Mono-vEB tree keeps
//! only the *staircase* of the scores seen so far, so a block's part of a
//! query is one vEB predecessor lookup (`O(log log n)`), and updates use the
//! vEB tree's batch insertion / deletion and `CoveredBy` (Theorems 5.1, 5.2,
//! D.1).  A block of more than 32 points keeps one, keyed by slot offset:
//! Appendix E's relabelling, which the outer tree cascades in `O(1)` per
//! level.  Smaller blocks keep only each position's best score, which
//! queries scan.  An update makes one staircase update per touched block of
//! every level, in parallel across blocks and levels.
//!
//! The paper proposes this structure to improve the *theoretical* work bound
//! of WLIS from `O(n log² n)` to `O(n log n log log n)`; the benchmark
//! harness compares both structures head-to-head (experiment E9 in
//! `DESIGN.md`).

use plis_primitives::par::{par_chunks_mut_for, par_map_collect};
use plis_primitives::{DomMaxCounters, DomMaxStats, OuterTree};
use plis_veb::{MonoVeb, ScoredPoint};
use std::cmp::Reverse;

/// Blocks of at most `2^SCAN_LEVEL` points keep no Mono-vEB tree, and
/// queries scan their positions instead.  32 points, the tournament tree's
/// leaf block, was the fastest of 16, 32, 64 and 128 on `offline-lis` and
/// E9 (DESIGN.md, "Offline tree layouts").
const SCAN_LEVEL: usize = 5;

/// An update batch forks across blocks and levels only once it holds this
/// many points.  Every `offline-lis` write-back counted holds at most 23, so
/// it never forks; 64 keeps Algorithm 3's parallel span for larger
/// frontiers (DESIGN.md, "Granularity in the vEB family").
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

/// The Range-vEB dominant-max structure (`RangeStruct` of Algorithm 3).
pub struct RangeVeb {
    outer: OuterTree,
    /// The Mono-vEB trees of the blocks above `SCAN_LEVEL`, level by level
    /// from the top: the level-`j` block at `bs` owns
    /// `monos[first_mono[j] + (bs >> j)]`.
    monos: Vec<MonoVeb>,
    first_mono: Vec<usize>,
    /// Every position's best score, which the blocks at or below
    /// `SCAN_LEVEL` answer with.
    best: Vec<u64>,
    /// Telemetry totals (observational only; counted at the
    /// [`DominantMaxStore`](plis_primitives::DominantMaxStore) boundary).
    counters: DomMaxCounters,
}

/// One staircase update: Mono-vEB `mono` gets the points `lo..hi` of the
/// batch, whose keys sit at `row` of their key chains.
struct Task {
    mono: usize,
    row: usize,
    lo: usize,
    hi: usize,
}

impl RangeVeb {
    /// Build the structure over `points`; all scores start "absent" (a
    /// dominant-max query over untouched regions returns 0).
    ///
    /// # Panics
    /// Panics if two points are identical.
    pub fn new(points: &[Point2]) -> Self {
        let outer = OuterTree::new(points.iter().map(|p| (p.x, p.y)).collect());
        let (n, height) = (outer.len(), outer.height());
        let (mut monos, mut first_mono) = (Vec::new(), vec![0; height + 1]);
        for level in (SCAN_LEVEL + 1..=height).rev() {
            first_mono[level] = monos.len();
            let block = |b: usize| MonoVeb::new(outer.block_len(level, b << level) as u64);
            monos.extend(par_map_collect(n.div_ceil(1 << level), block));
        }
        RangeVeb { outer, monos, first_mono, best: vec![0; n], counters: DomMaxCounters::new() }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// True when the structure holds no points.
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty()
    }

    /// `DominantMax(qx, qy)` (Algorithm 3): the maximum score among points
    /// with `x < qx`, `y < qy` whose score has been set; 0 if none.
    pub fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        // The staircase makes the predecessor's score the prefix maximum
        // (Line 5).
        let mono = |level: usize, bs: usize| &self.monos[self.first_mono[level] + (bs >> level)];
        self.outer.walk(
            qx,
            qy,
            SCAN_LEVEL,
            |level, bs, count| mono(level, bs).prefix_best(count as u64).unwrap_or(0),
            |pos| self.best[pos],
        )
    }

    /// `Update(B)` (Algorithm 3 lines 9–20): set the scores of a batch of
    /// points.  Every point's key is cascaded down the `O(log n)` blocks
    /// that hold it; each touched Mono-vEB tree then performs one staircase
    /// update (refine → `CoveredBy` → batch delete → batch insert), with
    /// different trees processed in parallel.  A point named more than once
    /// keeps its highest score.
    ///
    /// # Panics
    /// Panics if an update refers to a point not present in the structure.
    pub fn update_batch(&mut self, updates: &[ScoreUpdate]) {
        if updates.is_empty() || self.outer.is_empty() {
            return;
        }
        let mut points: Vec<(usize, Reverse<u64>)> = par_map_collect(updates.len(), |i| {
            let u = &updates[i];
            let pos = self.outer.position_of(u.point.x, u.point.y).unwrap_or_else(|| {
                panic!("point ({}, {}) is not in the structure", u.point.x, u.point.y)
            });
            (pos, Reverse(u.score))
        });
        plis_primitives::par_sort_unstable(&mut points);
        points.dedup_by_key(|p| p.0);
        for &(pos, Reverse(score)) in &points {
            self.best[pos] = self.best[pos].max(score);
        }
        let (m, height) = (points.len(), self.outer.height());
        if height <= SCAN_LEVEL {
            return;
        }
        // Every point's key on every Mono-vEB level, top level first,
        // cascaded in parallel pieces of `group` points.
        let levels = height - SCAN_LEVEL;
        let group = m.min(DISTRIBUTE_GRAIN);
        let mut chains = vec![ScoredPoint { key: 0, score: 0 }; m * levels];
        par_chunks_mut_for(&mut chains, group * levels, |piece, chunk| {
            let piece_points = &points[piece * group..];
            for (chain, &(pos, Reverse(score))) in chunk.chunks_mut(levels).zip(piece_points) {
                self.outer.path(pos, SCAN_LEVEL + 1, |level, _, key| {
                    chain[height - level] = ScoredPoint { key: key as u64, score };
                });
            }
        });
        // The points of one block are contiguous in position order.
        let mut tasks = Vec::new();
        for level in (SCAN_LEVEL + 1..=height).rev() {
            let mut lo = 0;
            while lo < m {
                let block = points[lo].0 >> level;
                let hi = lo + points[lo..].partition_point(|p| p.0 >> level == block);
                let mono = self.first_mono[level] + block;
                tasks.push(Task { mono, row: height - level, lo, hi });
                lo = hi;
            }
        }
        let grain = if m < DISTRIBUTE_GRAIN { usize::MAX } else { DISTRIBUTE_GRAIN };
        apply(&mut self.monos, 0, &tasks, &chains, levels, grain);
    }

    /// Convenience for a single update (wraps [`update_batch`](Self::update_batch)).
    pub fn update_one(&mut self, update: ScoreUpdate) {
        self.update_batch(std::slice::from_ref(&update));
    }
}

/// Run `tasks` (in Mono-vEB order) on `monos`, which starts at Mono-vEB
/// `first`, halving the task list in parallel while it holds at least
/// `grain` points.  `chains` holds every point's `levels` keys.
fn apply(
    monos: &mut [MonoVeb],
    first: usize,
    tasks: &[Task],
    chains: &[ScoredPoint],
    levels: usize,
    grain: usize,
) {
    let m = chains.len() / levels;
    let (head, tail) = (&tasks[0], &tasks[tasks.len() - 1]);
    if tasks.len() > 1 && (tail.row * m + tail.hi) - (head.row * m + head.lo) >= grain {
        let (left, right) = tasks.split_at(tasks.len() / 2);
        let (left_monos, right_monos) = monos.split_at_mut(right[0].mono - first);
        rayon::join(
            || apply(left_monos, first, left, chains, levels, grain),
            || apply(right_monos, right[0].mono, right, chains, levels, grain),
        );
        return;
    }
    let mut batch = Vec::new();
    for task in tasks {
        batch.clear();
        batch.extend((task.lo..task.hi).map(|i| chains[i * levels + task.row]));
        batch.sort_unstable_by_key(|p| p.key);
        monos[task.mono - first].insert_staircase(&batch);
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
        // A lower score later must not lower the point's.
        r.update_one(ScoreUpdate { point: p, score: 2 });
        assert_eq!(r.dominant_max(4, 5), 6);
        assert_eq!(r.dominant_max(3, 5), 0);
        assert_eq!(r.dominant_max(4, 4), 0);
    }

    #[test]
    fn paper_figure_9_example() {
        // The full Figure-9 point set, as in the range tree's test (y = 1,
        // 2 and 7 repeat); query (10, 6) must return 8, achieved by
        // (6, 1, 8).
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
        let mut r = RangeVeb::new(&points);
        let updates: Vec<ScoreUpdate> =
            raw.iter().map(|&(x, y, s)| ScoreUpdate { point: Point2 { x, y }, score: s }).collect();
        r.update_batch(&updates);
        assert_eq!(r.dominant_max(10, 6), 8);
        let scored: Vec<(Point2, Option<u64>)> =
            raw.iter().map(|&(x, y, s)| (Point2 { x, y }, Some(s))).collect();
        check_every_query(&r, &scored, "Figure 9");
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Every query whose coordinates sit on or just above a point's, or at
    /// 0 or `u64::MAX`, checked against brute force.
    fn check_every_query(r: &RangeVeb, scored: &[(Point2, Option<u64>)], label: &str) {
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
        for qx in edges(|p| p.x) {
            for qy in edges(|p| p.y) {
                let want = brute(scored, qx, qy);
                assert_eq!(r.dominant_max(qx, qy), want, "{label}: query ({qx}, {qy})");
            }
        }
    }

    #[test]
    fn incremental_rounds_match_brute_force() {
        // Sizes on both sides of the scanned 32-point blocks and of the
        // first Mono-vEB level, on a grid so that x and y repeat, plus one
        // shared y and the ends of the u64 range.  Each round raises about
        // a third of the points, some named twice with two scores, on a
        // 1-thread pool and on the PLIS_BENCH_THREADS pool (default 2).  At
        // n = 1000 every batch exceeds DISTRIBUTE_GRAIN, so the update forks,
        // and the top blocks get more than POINT_OP_CUTOFF points, so their
        // Mono-vEB trees take the refine / CoveredBy / batch path.
        let threads = std::env::var("PLIS_BENCH_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&t: &usize| t > 0)
            .unwrap_or(2);
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let full = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let mut state = 0xA24BAED4963EE407u64;
        let mut shapes: Vec<(String, Vec<Point2>)> = Vec::new();
        for n in [1usize, 31, 32, 33, 63, 64, 65, 129, 1000] {
            let side = (n as f64).sqrt() as u64 + 2;
            let mut seen = std::collections::HashSet::new();
            let mut points = Vec::new();
            while points.len() < n {
                let p = Point2 { x: xorshift(&mut state) % side, y: xorshift(&mut state) % side };
                if seen.insert(p) {
                    points.push(p);
                }
            }
            shapes.push((format!("n = {n}"), points));
        }
        shapes.push(("one shared y".into(), (0..70).map(|i| Point2 { x: 3 * i, y: 5 }).collect()));
        let extremes = [0, 1, u64::MAX - 1, u64::MAX]
            .into_iter()
            .flat_map(|x| [0, 7, u64::MAX].map(|y| Point2 { x, y }))
            .collect();
        shapes.push(("extremes".into(), extremes));
        for (label, points) in shapes {
            let mut seq = RangeVeb::new(&points);
            let mut par = RangeVeb::new(&points);
            let mut scored: Vec<(Point2, Option<u64>)> =
                points.iter().map(|&p| (p, None)).collect();
            for round in 0..4 {
                let mut updates = Vec::new();
                for entry in scored.iter_mut() {
                    if !xorshift(&mut state).is_multiple_of(3) {
                        continue;
                    }
                    let low = entry.1.unwrap_or(0) + 1 + xorshift(&mut state) % 40;
                    let high = low + xorshift(&mut state) % 20;
                    entry.1 = Some(high);
                    if xorshift(&mut state).is_multiple_of(4) {
                        updates.push(ScoreUpdate { point: entry.0, score: low });
                    }
                    updates.push(ScoreUpdate { point: entry.0, score: high });
                }
                if points.len() == 1000 {
                    assert!(updates.len() > DISTRIBUTE_GRAIN.max(plis_veb::POINT_OP_CUTOFF));
                }
                one.install(|| seq.update_batch(&updates));
                full.install(|| par.update_batch(&updates));
                check_every_query(&seq, &scored, &format!("{label}, round {round}, 1 thread"));
                let label = format!("{label}, round {round}, {threads} threads");
                check_every_query(&par, &scored, &label);
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
