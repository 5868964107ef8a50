//! The Mono-vEB tree (Section 4.2) and the `CoveredBy` operation
//! (Algorithm 7, Appendix D).
//!
//! A Mono-vEB tree stores the *staircase* of a set of scored points: keys
//! (the paper's `y` coordinates, i.e. input indices) with a score (the `dp`
//! value), such that no stored point *covers* another.  Point `p1` covers
//! `p2` when `p1.key < p2.key` and `p1.score >= p2.score`; consequently the
//! scores of the stored points are strictly increasing in the key.  This
//! monotonicity is what makes the dominant-max query of the Range-vEB tree a
//! single predecessor lookup: the best score among keys `< q` is exactly the
//! score of `q`'s predecessor.
//!
//! [`MonoVeb::insert_staircase`] performs one staircase update exactly as
//! the `Update` function of Algorithm 3 prescribes for a single inner tree:
//! refine the incoming list, find the existing points that the new points
//! cover (`CoveredBy`), batch-delete them, batch-insert the new points.
//! A batch below [`POINT_OP_CUTOFF`] is inserted one point at a time
//! instead; the staircase is a function of its point set, so the result is
//! the same.

use crate::batch::POINT_OP_CUTOFF;
use crate::tree::VebTree;
use plis_primitives::par::{adaptive_grain, par_map_collect_with_grain, GRAIN};

/// A `(key, score)` pair; the key is the paper's `y` coordinate (an input
/// index) and the score its `dp` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredPoint {
    /// Key in the Mono-vEB universe.
    pub key: u64,
    /// Score (dp value) associated with the key.
    pub score: u64,
}

/// A vEB tree over `[0, universe)` whose keys carry scores and which
/// maintains the staircase invariant (scores strictly increase with keys).
#[derive(Debug, Clone)]
pub struct MonoVeb {
    veb: VebTree,
    /// `scores[key]` is meaningful only while `key` is stored in `veb`.
    scores: Vec<u64>,
}

impl MonoVeb {
    /// An empty Mono-vEB tree over the universe `[0, universe)`.
    pub fn new(universe: u64) -> Self {
        MonoVeb { veb: VebTree::new(universe), scores: vec![0; universe as usize] }
    }

    /// Number of points on the staircase.
    pub fn len(&self) -> usize {
        self.veb.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.veb.is_empty()
    }

    /// The universe size.
    pub fn universe(&self) -> u64 {
        self.veb.universe()
    }

    /// Score of `key` if it is currently on the staircase.
    pub fn score_of(&self, key: u64) -> Option<u64> {
        if self.veb.contains(key) {
            Some(self.scores[key as usize])
        } else {
            None
        }
    }

    /// The maximum score among stored keys strictly smaller than `query`
    /// (the `Pred` step of `DominantMax` in Algorithm 3).  Because scores
    /// increase with keys, this is simply the score of the predecessor.
    /// `O(log log U)`.
    pub fn prefix_best(&self, query: u64) -> Option<u64> {
        self.veb.pred(query).map(|k| self.scores[k as usize])
    }

    /// All stored points in increasing key order (test/debug helper).
    pub fn points(&self) -> Vec<ScoredPoint> {
        self.veb
            .iter_keys()
            .into_iter()
            .map(|key| ScoredPoint { key, score: self.scores[key as usize] })
            .collect()
    }

    /// Verify the staircase invariant (strictly increasing scores along
    /// increasing keys); test helper.
    pub fn is_staircase(&self) -> bool {
        let pts = self.points();
        pts.windows(2).all(|w| w[0].key < w[1].key && w[0].score < w[1].score)
    }

    /// Refine an incoming batch (sorted by key, unique keys): drop every
    /// point that is covered by an earlier point of the batch or by a point
    /// already on the staircase (Lines 14–16 of Algorithm 3).
    pub fn refine_batch(&self, batch: &[ScoredPoint]) -> Vec<ScoredPoint> {
        assert_sorted(batch);
        let mut best_so_far: u64 = 0;
        let mut have_prev = false;
        let mut out = Vec::with_capacity(batch.len());
        for p in batch {
            // Covered by an earlier batch point: an earlier key with a
            // score >= ours.
            if have_prev && best_so_far >= p.score {
                continue;
            }
            // Covered by the staircase: the predecessor already achieves at
            // least our score.
            if let Some(prev_score) = self.prefix_best(p.key) {
                if prev_score >= p.score {
                    continue;
                }
            }
            // A point replacing an existing key only survives if it improves
            // the score there.
            if let Some(existing) = self.score_of(p.key) {
                if existing >= p.score {
                    continue;
                }
            }
            best_so_far = p.score;
            have_prev = true;
            out.push(*p);
        }
        out
    }

    /// `CoveredBy` (Algorithm 7): return, in increasing key order, every
    /// stored key that is covered by some point of `batch` (sorted by key).
    /// Work `O((|batch| + |output|) log log U)`, polylogarithmic span.
    pub fn covered_by(&self, batch: &[ScoredPoint]) -> Vec<u64> {
        assert_sorted(batch);
        if batch.is_empty() || self.is_empty() {
            return Vec::new();
        }
        let universe = self.veb.universe();
        let b = batch.len();
        // Each batch point is responsible for the stored keys between itself
        // and the next batch point (Lines 4–8); the per-point ranges are
        // disjoint so they can be collected in parallel and concatenated.
        // A point costs a few vEB searches, so pieces go down to
        // `GRAIN / 64 + 1` points rather than the element floor.
        let grain = adaptive_grain(b, GRAIN / 64 + 1);
        let pieces: Vec<Vec<u64>> = par_map_collect_with_grain(b, grain, |i| {
            let upper = if i + 1 < b { batch[i + 1].key } else { universe };
            let start = match self.veb.succ(batch[i].key) {
                Some(s) => s,
                None => return Vec::new(),
            };
            if start >= upper {
                return Vec::new();
            }
            let end = if i + 1 < b {
                match self.veb.pred(upper) {
                    Some(e) if e >= start => e,
                    _ => return Vec::new(),
                }
            } else {
                self.veb.max().expect("non-empty tree")
            };
            if start > end {
                return Vec::new();
            }
            // Tight upper bound: last key in [start, end] whose score is
            // <= the covering point's score (FindIndex).
            match self.find_last_at_most(batch[i].score, start, end) {
                Some(e2) => self.veb.range(start, e2),
                None => Vec::new(),
            }
        });
        pieces.concat()
    }

    /// `FindIndex` (Alg. 7 lines 11–18): the last stored key in `[s, e]`
    /// whose score is at most `limit`, or `None` if even `s` exceeds it.
    /// Walks `Succ` for up to `log U` steps before switching to a key-space
    /// binary search, which is what makes `covered_by` output-sensitive.
    fn find_last_at_most(&self, limit: u64, s: u64, e: u64) -> Option<u64> {
        debug_assert!(self.veb.contains(s) && self.veb.contains(e) && s <= e);
        if self.scores[s as usize] > limit {
            return None;
        }
        if s == e {
            return Some(s);
        }
        let budget = 64 - (self.veb.universe().saturating_sub(1)).leading_zeros();
        let mut cur = s;
        for _ in 0..budget.max(1) {
            let nxt = match self.veb.succ(cur) {
                Some(x) if x <= e => x,
                _ => return Some(cur),
            };
            if self.scores[nxt as usize] > limit {
                return Some(cur);
            }
            if nxt == e {
                return Some(e);
            }
            cur = nxt;
        }
        // Binary search over the key space [cur, e] using predecessor
        // queries to land on stored keys; scores are monotone so the usual
        // invariant (low always <= limit, high's successor-side > limit)
        // applies.
        let mut lo = cur;
        let mut hi = e;
        while lo < hi {
            let mid_point = lo + (hi - lo).div_ceil(2);
            let mid = if self.veb.contains(mid_point) {
                mid_point
            } else {
                self.veb.pred(mid_point).expect("lo < mid_point implies a predecessor")
            };
            if mid <= lo {
                // No stored key in (lo, mid_point): move the search up.
                match self.veb.succ(mid_point) {
                    Some(nxt) if nxt <= hi && self.scores[nxt as usize] <= limit => lo = nxt,
                    _ => break,
                }
                continue;
            }
            if self.scores[mid as usize] <= limit {
                lo = mid;
            } else {
                hi = self.veb.pred(mid).expect("s <= pred since score[s] <= limit");
            }
        }
        Some(lo)
    }

    /// One staircase update (the per-inner-tree part of `Update` in
    /// Algorithm 3): refine `batch`, remove the stored points the refined
    /// batch covers, insert the refined batch and record its scores.
    /// Returns the number of points actually inserted.  A batch below
    /// [`POINT_OP_CUTOFF`] points is inserted one point at a time instead,
    /// with the same result.
    ///
    /// `batch` must be sorted by key with unique keys.
    pub fn insert_staircase(&mut self, batch: &[ScoredPoint]) -> usize {
        // Every `offline-lis` per-block batch counted is below the cutoff
        // (at most 23 points), so no `perfbench` workload times the batch
        // path below; E9 runs it at k ≤ 100, and it is kept for Algorithm
        // 3's parallel span on large frontiers.
        if batch.len() < POINT_OP_CUTOFF {
            assert_sorted(batch);
            return batch.iter().filter(|p| self.insert_point(**p)).count();
        }
        let refined = self.refine_batch(batch);
        if refined.is_empty() {
            return 0;
        }
        let covered = self.covered_by(&refined);
        // A refined point may share its key with a stored point it improves
        // on; that stored key is reported by covered_by (score <= ours ⇒
        // covered) or simply overwritten by the insertion below.
        self.veb.batch_delete(&covered);
        let keys: Vec<u64> = refined.iter().map(|p| p.key).collect();
        self.veb.batch_insert(&keys);
        for p in &refined {
            self.scores[p.key as usize] = p.score;
        }
        refined.len()
    }

    /// Insert one point: reject it if the nearest stored key at or below
    /// its key already scores at least as much, otherwise delete the run of
    /// keys above it that it covers and store it.  Returns whether it was
    /// stored.
    fn insert_point(&mut self, p: ScoredPoint) -> bool {
        if self.veb.pred(p.key + 1).is_some_and(|k| self.scores[k as usize] >= p.score) {
            return false;
        }
        // Scores increase along the staircase, so the covered keys are the
        // successors of `p.key` up to the first one scoring above `p`.
        let mut next = self.veb.succ(p.key);
        while let Some(k) = next.filter(|&k| self.scores[k as usize] <= p.score) {
            next = self.veb.succ(k);
            self.veb.delete(k);
        }
        self.veb.insert(p.key);
        self.scores[p.key as usize] = p.score;
        true
    }

    /// Direct access to the underlying key set (read-only).
    pub fn keys(&self) -> Vec<u64> {
        self.veb.iter_keys()
    }
}

fn assert_sorted(batch: &[ScoredPoint]) {
    debug_assert!(
        batch.windows(2).all(|w| w[0].key < w[1].key),
        "batch must be sorted by key with unique keys"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(u64, u64)]) -> Vec<ScoredPoint> {
        raw.iter().map(|&(key, score)| ScoredPoint { key, score }).collect()
    }

    /// Reference staircase: insert points one by one, keep only maximal ones.
    #[derive(Default)]
    struct NaiveStaircase {
        points: std::collections::BTreeMap<u64, u64>,
    }
    impl NaiveStaircase {
        fn insert_batch(&mut self, batch: &[ScoredPoint]) {
            for p in batch {
                // Covered by an existing point with smaller-or-equal key?
                let covered = self
                    .points
                    .range(..=p.key)
                    .next_back()
                    .map(|(&k, &s)| k <= p.key && s >= p.score)
                    .unwrap_or(false);
                if covered {
                    continue;
                }
                // Remove the points this one covers.
                let doomed: Vec<u64> = self
                    .points
                    .range(p.key..)
                    .filter(|&(_, &s)| s <= p.score)
                    .map(|(&k, _)| k)
                    .collect();
                for k in doomed {
                    self.points.remove(&k);
                }
                self.points.insert(p.key, p.score);
            }
        }
        fn as_vec(&self) -> Vec<ScoredPoint> {
            self.points.iter().map(|(&key, &score)| ScoredPoint { key, score }).collect()
        }
    }

    #[test]
    fn empty_tree_basics() {
        let m = MonoVeb::new(100);
        assert!(m.is_empty());
        assert_eq!(m.prefix_best(50), None);
        assert_eq!(m.score_of(3), None);
        assert!(m.covered_by(&pts(&[(1, 10)])).is_empty());
        assert!(m.is_staircase());
    }

    #[test]
    fn paper_figure_10_staircase() {
        // The staircase points of Figure 10: (2,1) (4,2) (6,4) (10,6) (14,7) (16,10).
        let mut m = MonoVeb::new(32);
        let stair = pts(&[(2, 1), (4, 2), (6, 4), (10, 6), (14, 7), (16, 10)]);
        assert_eq!(m.insert_staircase(&stair), 6);
        assert!(m.is_staircase());
        assert_eq!(m.points(), stair);
        // Points covered by the staircase are rejected.
        let rejected = pts(&[(8, 1), (9, 3), (12, 2), (13, 5), (15, 4), (16, 1), (17, 2), (18, 6)]);
        assert_eq!(m.insert_staircase(&rejected), 0);
        assert_eq!(m.points(), stair);
    }

    #[test]
    fn paper_figure_11_insertions_remove_covered_points() {
        // Figure 11: inserting (3,5) and (12,8) into the Figure-10 staircase
        // removes (4,2), (6,4) (covered by (3,5)) and (14,7) (covered by (12,8)).
        let mut m = MonoVeb::new(32);
        m.insert_staircase(&pts(&[(2, 1), (4, 2), (6, 4), (10, 6), (14, 7), (16, 10)]));
        m.insert_staircase(&pts(&[(3, 5), (12, 8)]));
        assert!(m.is_staircase());
        assert_eq!(m.points(), pts(&[(2, 1), (3, 5), (10, 6), (12, 8), (16, 10)]));
    }

    #[test]
    fn covered_by_reports_expected_keys() {
        let mut m = MonoVeb::new(32);
        m.insert_staircase(&pts(&[(2, 1), (4, 2), (6, 4), (10, 6), (14, 7), (16, 10)]));
        // (3,5) covers keys 4 and 6; (12,8) covers 14.
        let covered = m.covered_by(&pts(&[(3, 5), (12, 8)]));
        assert_eq!(covered, vec![4, 6, 14]);
        // A point below everything covers nothing.
        assert!(m.covered_by(&pts(&[(20, 1)])).is_empty());
        // A point that dominates everything after key 0 covers all keys.
        assert_eq!(m.covered_by(&pts(&[(0, 100)])), vec![2, 4, 6, 10, 14, 16]);
    }

    #[test]
    fn prefix_best_is_monotone_queries() {
        let mut m = MonoVeb::new(64);
        m.insert_staircase(&pts(&[(5, 3), (10, 7), (20, 9)]));
        assert_eq!(m.prefix_best(5), None);
        assert_eq!(m.prefix_best(6), Some(3));
        assert_eq!(m.prefix_best(10), Some(3));
        assert_eq!(m.prefix_best(11), Some(7));
        assert_eq!(m.prefix_best(63), Some(9));
    }

    #[test]
    fn same_key_score_improvement_replaces() {
        let mut m = MonoVeb::new(16);
        m.insert_staircase(&pts(&[(4, 5)]));
        // Lower score at the same key is rejected.
        assert_eq!(m.insert_staircase(&pts(&[(4, 3)])), 0);
        assert_eq!(m.score_of(4), Some(5));
        // Higher score replaces.
        assert_eq!(m.insert_staircase(&pts(&[(4, 9)])), 1);
        assert_eq!(m.score_of(4), Some(9));
        assert_eq!(m.len(), 1);
        assert!(m.is_staircase());
    }

    #[test]
    fn randomized_staircase_matches_naive() {
        let mut state = 0x853C49E6748FEA9Bu64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..15 {
            let universe = 256u64;
            let mut m = MonoVeb::new(universe);
            let mut naive = NaiveStaircase::default();
            for _round in 0..12 {
                let mut batch: Vec<ScoredPoint> = (0..(1 + rng() % 20))
                    .map(|_| ScoredPoint { key: rng() % universe, score: 1 + rng() % 100 })
                    .collect();
                batch.sort_by_key(|p| p.key);
                batch.dedup_by_key(|p| p.key);
                m.insert_staircase(&batch);
                naive.insert_batch(&batch);
                assert!(m.is_staircase(), "trial {trial}: staircase invariant broken");
                assert_eq!(m.points(), naive.as_vec(), "trial {trial}: staircase mismatch");
            }
        }
    }

    #[test]
    fn staircase_matches_naive_across_the_cutoff() {
        // Batch sizes from 1 to 4x the cutoff, so both the point path and
        // the refine / CoveredBy / batch path run.  Scores track the key,
        // so the staircase is long; every third round raises the base past
        // every stored score, and a few points jump ahead, so one batch
        // can cover far more than a cutoff's worth of stored keys.
        let mut state = 0x2F8B3C1D4E5A6978u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let universe = 4096u64;
        let mut m = MonoVeb::new(universe);
        let mut naive = NaiveStaircase::default();
        let mut most_removed = 0;
        for round in 0..60u64 {
            let size = 1 + (round * 37 + rng()) % (4 * POINT_OP_CUTOFF as u64);
            let mut batch: Vec<ScoredPoint> = (0..size)
                .map(|_| {
                    let key = rng() % universe;
                    let jump = if rng() % 64 == 0 { 8 * (64 + rng() % 512) } else { 0 };
                    ScoredPoint { key, score: 8 * key + 100_000 * (round / 3) + rng() % 8 + jump }
                })
                .collect();
            batch.sort_by_key(|p| p.key);
            batch.dedup_by_key(|p| p.key);
            let before = m.len();
            let inserted = m.insert_staircase(&batch);
            naive.insert_batch(&batch);
            assert!(m.is_staircase(), "round {round}: staircase invariant broken");
            assert_eq!(m.points(), naive.as_vec(), "round {round}: staircase mismatch");
            most_removed = most_removed.max(before + inserted - m.len());
        }
        assert!(most_removed >= POINT_OP_CUTOFF, "no batch covered a cutoff's worth of keys");
    }
}
