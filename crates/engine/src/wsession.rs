//! A streaming *weighted*-LIS session: incremental Algorithm-2 state over
//! an append-only stream of `(value, weight)` pairs, ingested batch by
//! batch.
//!
//! # State
//!
//! The weighted dp recurrence (Equation 2 of the paper) is
//! `dp[i] = w_i + max(0, max_{j<i, A_j<A_i} dp[j])`.  Like a rank in the
//! unweighted session, an element's dp value (*score*) only depends on the
//! elements before it, so scores are exact and final the moment an element
//! is ingested.
//!
//! The streaming summary of the prefix is the **Pareto frontier** of the
//! `(value, score)` pairs seen so far: the entries not dominated by any
//! other (an entry is useless iff some element has value `≤` it and score
//! `≥` it).  The frontier is strictly increasing in both coordinates, and
//! for any probe `x`, `max {dp[j] : A_j < x}` over the whole prefix equals
//! the score of the last frontier entry with value `< x` — the frontier is
//! to weighted LIS exactly what the patience `tails` array is to unweighted
//! LIS (where it degenerates to `tails`: the `r`-th tail is the smallest
//! value with score `≥ r + 1`).
//!
//! Scores are `u64`, and no score exceeds the sum of the stream's weights,
//! so a session keeps that *weight total* within `u64`:
//! [`WeightedStreamingLis::ingest`] refuses a batch that would push it past
//! `u64::MAX` (the engine turns that into a typed `OpError::ScoreOverflow`
//! before ingest, and snapshot validation holds a captured stream, which
//! restore ingests as one batch, to the same bound).
//!
//! # Batch ingestion
//!
//! A batch is ingested element by element, in arrival order: each element
//! binary-searches the frontier for its best predecessor score (the last
//! entry with a smaller value), and the frontier is repaired in place.  The
//! session uses no dominant-max store: the frontier answers every probe
//! itself.  This is the only ingest path; the oracle suites check every
//! ingest against the offline Algorithm 2 ([`plis_lis::wlis_kind`]) on
//! both of its stores, the range tree and the Range-vEB tree.
//!
//! # Queries
//!
//! Scores are final on ingest, so the session serves a live query plane:
//! [`WeightedStreamingLis::count_at_score`] answers from a maintained
//! score-multiplicity map in `O(1)`, [`WeightedStreamingLis::top_k`] scans
//! the score array with a size-`k` heap (`O(n log k)`), and
//! [`WeightedStreamingLis::reconstruct_wlis`] recovers a maximum-weight
//! increasing subsequence from the maintained scores with one backward
//! scan ([`plis_lis::wlis_indices_from_scores`], `O(n)`) — deterministic,
//! and bit-identical to the same function run offline on the prefix.

use std::collections::HashMap;

/// What one [`WeightedStreamingLis::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedIngestReport {
    /// Number of `(value, weight)` pairs appended by this call.
    pub ingested: usize,
    /// Best (maximum) dp score of the stream before the batch.
    pub score_before: u64,
    /// Best (maximum) dp score of the stream after the batch.
    pub score_after: u64,
    /// Pareto-frontier size after the batch.
    pub frontier_len: usize,
}

/// Incremental weighted LIS (Algorithm 2) over an append-only stream of
/// `(value, weight)` pairs.  See the module docs for the algorithm; see
/// [`crate::Engine`] for multiplexing weighted sessions next to unweighted
/// ones.
#[derive(Debug, Clone)]
pub struct WeightedStreamingLis {
    /// Every ingested value, in arrival order.
    values: Vec<u64>,
    /// Every ingested weight, in arrival order.
    weights: Vec<u64>,
    /// `scores[i]` = dp value of element `i` (Equation 2); exact and final.
    scores: Vec<u64>,
    /// Pareto frontier of `(value, score)` pairs: strictly increasing in
    /// both coordinates, scores all `≥ 1` (zero-score entries answer no
    /// probe that `max(0, ·)` doesn't already).
    frontier: Vec<(u64, u64)>,
    /// Multiplicity of every dp score seen so far (`score → count`),
    /// maintained on ingest so count-at-score queries are `O(1)`.
    score_counts: HashMap<u64, usize>,
    /// Sum of every ingested weight; bounds every dp score and is kept
    /// within `u64` (see [`WeightedStreamingLis::admits`]).
    weight_total: u64,
    /// Unit-weight pair staging for [`WeightedStreamingLis::ingest_plain`]:
    /// cleared, never freed, so plain traffic stays off the allocator.
    plain_pairs: Vec<(u64, u64)>,
    universe: u64,
}

impl WeightedStreamingLis {
    /// Create a session over the value universe `[0, universe)`.
    ///
    /// # Panics
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        WeightedStreamingLis {
            values: Vec::new(),
            weights: Vec::new(),
            scores: Vec::new(),
            frontier: Vec::new(),
            score_counts: HashMap::new(),
            weight_total: 0,
            plain_pairs: Vec::new(),
            universe,
        }
    }

    /// Pre-size every internal buffer for `additional` more elements, so a
    /// workload of known size never grows them mid-ingest.  Purely a
    /// capacity hint: state and outcomes are unaffected.  (Each element
    /// introduces at most one previously unseen score, so the
    /// score-multiplicity map is covered too.)
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.weights.reserve(additional);
        self.scores.reserve(additional);
        self.frontier.reserve(additional);
        self.score_counts.reserve(additional);
        self.plain_pairs.reserve(additional);
    }

    /// Number of elements ingested so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True before the first element arrives.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The universe this session was created over.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Every ingested value, in arrival order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Every ingested weight, in arrival order.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Per-element dp scores (Equation 2).  `scores()[i]` is exact and
    /// final from the moment element `i` is ingested — the weighted
    /// analogue of [`crate::StreamingLis::ranks`].
    pub fn scores(&self) -> &[u64] {
        &self.scores
    }

    /// The dp score of the `i`-th ingested element, if it exists.
    pub fn score_of(&self, i: usize) -> Option<u64> {
        self.scores.get(i).copied()
    }

    /// The maximum-weight increasing subsequence total — the best dp score
    /// so far (0 for an empty stream).
    pub fn best_score(&self) -> u64 {
        self.frontier.last().map_or(0, |&(_, s)| s)
    }

    /// Sum of every ingested weight (0 for an empty stream): an upper
    /// bound on every dp score.
    pub fn weight_total(&self) -> u64 {
        self.weight_total
    }

    /// Whether a batch whose weights sum to `batch_weight` keeps the
    /// stream's weight total within `u64`, so that no dp score can
    /// overflow.  This is the one bound a weighted stream is held to: the
    /// engine checks it before an append, [`WeightedStreamingLis::ingest`]
    /// asserts it, and snapshot validation checks the whole captured
    /// stream against an empty session's total of 0 (restore ingests it as
    /// one batch).
    pub fn admits(&self, batch_weight: u64) -> bool {
        self.weight_total.checked_add(batch_weight).is_some()
    }

    /// The current Pareto frontier of `(value, score)` pairs (strictly
    /// increasing in both coordinates).
    pub fn frontier(&self) -> &[(u64, u64)] {
        &self.frontier
    }

    /// Best dp score among elements with value strictly below `x` — the
    /// score a hypothetical next element `(x, 0)` would receive.
    pub fn best_score_below(&self, x: u64) -> u64 {
        let pos = self.frontier.partition_point(|&(v, _)| v < x);
        pos.checked_sub(1).map_or(0, |i| self.frontier[i].1)
    }

    /// Number of ingested elements whose dp score is exactly `score`.
    /// `O(1)`: a score-multiplicity map is maintained on ingest.  (Unlike
    /// unweighted ranks, scores are sparse, so most probes count zero.)
    pub fn count_at_score(&self, score: u64) -> usize {
        self.score_counts.get(&score).copied().unwrap_or(0)
    }

    /// The `k` best elements by dp score: `(index, score)` pairs ordered
    /// by descending score, ties by ascending index.  `O(n log k)` — a
    /// single scan with a size-`k` heap (weighted scores are unbounded, so
    /// there is no frontier list to walk as in the unweighted session).
    /// Returns fewer than `k` pairs when the stream is shorter than `k`.
    pub fn top_k(&self, k: usize) -> Vec<(usize, u64)> {
        use std::cmp::Reverse;
        if k == 0 {
            return Vec::new();
        }
        // Min-heap of the current best k: the key orders "better" as
        // (higher score, then smaller index), so the heap top — the
        // minimum key under Reverse — is the weakest kept candidate.  The
        // heap never holds more than min(k, n) + 1 entries, so cap the
        // allocation by the stream length (a huge k must not OOM/panic).
        let mut heap: std::collections::BinaryHeap<Reverse<(u64, Reverse<usize>)>> =
            std::collections::BinaryHeap::with_capacity(k.min(self.scores.len()) + 1);
        for (i, &s) in self.scores.iter().enumerate() {
            heap.push(Reverse((s, Reverse(i))));
            if heap.len() > k {
                heap.pop();
            }
        }
        let mut out: Vec<(usize, u64)> =
            heap.into_iter().map(|Reverse((s, Reverse(i)))| (i, s)).collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Indices (in arrival order) of one **maximum-weight** increasing
    /// subsequence of the whole stream, recovered from the maintained dp
    /// scores with one backward scan
    /// ([`plis_lis::wlis_indices_from_scores`]).  The total weight along
    /// the returned indices equals [`WeightedStreamingLis::best_score`];
    /// empty when the stream is empty or all weights are zero.
    pub fn reconstruct_wlis(&self) -> Vec<usize> {
        plis_lis::wlis_indices_from_scores(&self.values, &self.weights, &self.scores)
    }

    /// Append a batch of `(value, weight)` pairs and update all state:
    /// one frontier probe and one in-place frontier repair per element.
    ///
    /// # Panics
    /// Panics if any value is outside the session universe, or if the
    /// batch would push the stream's weight total past `u64::MAX` (see
    /// [`WeightedStreamingLis::admits`]).
    pub fn ingest(&mut self, batch: &[(u64, u64)]) -> WeightedIngestReport {
        for &(v, _) in batch {
            assert!(v < self.universe, "value {v} outside session universe {}", self.universe);
        }
        let Some(batch_weight) = weight_sum(batch).filter(|&w| self.admits(w)) else {
            panic!("batch weights would push the weight total past u64::MAX");
        };
        self.weight_total += batch_weight;
        let score_before = self.best_score();
        for &(x, w) in batch {
            let score = self.best_score_below(x) + w;
            self.values.push(x);
            self.weights.push(w);
            self.scores.push(score);
            *self.score_counts.entry(score).or_default() += 1;
            self.frontier_insert(x, score);
        }
        WeightedIngestReport {
            ingested: batch.len(),
            score_before,
            score_after: self.best_score(),
            frontier_len: self.frontier.len(),
        }
    }

    /// Append unweighted values as unit-weight pairs (every element weighs
    /// 1), so plain traffic can feed a weighted session.
    pub fn ingest_plain(&mut self, batch: &[u64]) -> WeightedIngestReport {
        // Stage through the reusable pair buffer (taken out for the
        // duration of the ingest call, which borrows `self` mutably).
        let mut pairs = std::mem::take(&mut self.plain_pairs);
        pairs.clear();
        pairs.extend(batch.iter().map(|&v| (v, 1)));
        let report = self.ingest(&pairs);
        self.plain_pairs = pairs;
        report
    }

    /// Insert `(x, score)` into the frontier, dropping whatever it
    /// dominates (entries with value `≥ x` and score `≤ score`).
    fn frontier_insert(&mut self, x: u64, score: u64) {
        if score == 0 {
            return;
        }
        let pos = self.frontier.partition_point(|&(v, _)| v < x);
        // Dominated by a predecessor (value ≤ x, score ≥ score)?
        if pos > 0 && self.frontier[pos - 1].1 >= score {
            return;
        }
        if let Some(&(v, s)) = self.frontier.get(pos) {
            if v == x && s >= score {
                return;
            }
        }
        // Entries from `pos` on have value ≥ x; drop the run that the new
        // entry dominates (score ≤ score), then place the new entry.
        let mut end = pos;
        while end < self.frontier.len() && self.frontier[end].1 <= score {
            end += 1;
        }
        if end == pos {
            self.frontier.insert(pos, (x, score));
        } else {
            self.frontier[pos] = (x, score);
            self.frontier.drain(pos + 1..end);
        }
    }

    /// Rough heap footprint of the session in bytes: the value, weight
    /// and score arrays, the Pareto frontier, the plain-batch staging
    /// buffer, and an estimate of the score-multiplicity map.  Intended for occasional
    /// telemetry snapshots, not the hot path.
    pub fn approx_bytes(&self) -> usize {
        // HashMap: one (key, value) slot plus a control byte per bucket.
        let map_bytes = self.score_counts.capacity() * (std::mem::size_of::<(u64, usize)>() + 1);
        std::mem::size_of::<Self>()
            + self.values.capacity() * std::mem::size_of::<u64>()
            + self.weights.capacity() * std::mem::size_of::<u64>()
            + self.scores.capacity() * std::mem::size_of::<u64>()
            + self.frontier.capacity() * std::mem::size_of::<(u64, u64)>()
            + self.arena_bytes()
            + map_bytes
    }

    /// Heap bytes held by the plain-batch staging buffer — the telemetry
    /// plane's "arena high-water" accounting (weighted side).
    pub fn arena_bytes(&self) -> usize {
        self.plain_pairs.capacity() * std::mem::size_of::<(u64, u64)>()
    }

    /// Cross-check every invariant; used by the test suites.
    pub fn check_invariants(&self) {
        assert_eq!(self.values.len(), self.weights.len());
        assert_eq!(self.values.len(), self.scores.len());
        assert!(
            self.frontier.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
            "frontier must be strictly increasing in value and score"
        );
        assert!(self.frontier.iter().all(|&(_, s)| s > 0), "zero-score frontier entries");
        assert_eq!(
            self.best_score(),
            self.scores.iter().copied().max().unwrap_or(0),
            "best_score must equal the max dp score"
        );
        let mut want_counts: HashMap<u64, usize> = HashMap::new();
        for &s in &self.scores {
            *want_counts.entry(s).or_default() += 1;
        }
        assert_eq!(self.score_counts, want_counts, "score multiplicities out of sync");
        assert_eq!(
            Some(self.weight_total),
            self.weights.iter().try_fold(0u64, |acc, &w| acc.checked_add(w)),
            "weight total out of sync"
        );
        let expect =
            pareto_staircase(self.values.iter().zip(&self.scores).map(|(&v, &s)| (v, s)).collect());
        assert_eq!(self.frontier, expect, "frontier must be the Pareto staircase of the stream");
    }
}

/// Sum of the weights of `batch`, or `None` if it overflows `u64`.
pub(crate) fn weight_sum(batch: &[(u64, u64)]) -> Option<u64> {
    batch.iter().try_fold(0u64, |acc, &(_, w)| acc.checked_add(w))
}

/// The Pareto staircase of a bag of `(value, score)` pairs: for every
/// value keep the best score, then keep only entries whose score strictly
/// exceeds every entry at a smaller value.  Zero scores are dropped (the
/// `max(0, ·)` in the recurrence makes them vacuous).
fn pareto_staircase(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    let mut kept = 0usize;
    for i in 0..pairs.len() {
        let (v, s) = pairs[i];
        if s == 0 {
            continue;
        }
        if kept > 0 && pairs[kept - 1].0 == v {
            if s > pairs[kept - 1].1 {
                pairs[kept - 1].1 = s;
            }
        } else if kept > 0 && s <= pairs[kept - 1].1 {
            // Dominated by a smaller value with an equal-or-better score.
        } else {
            pairs[kept] = (v, s);
            kept += 1;
        }
    }
    pairs.truncate(kept);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_pairs;
    use plis_lis::{wlis_kind, DominantMaxKind};

    /// Stream `pairs` through a session in chunks, checking scores against
    /// the offline oracle on `kind` after every batch.
    fn check_against_offline(
        pairs: &[(u64, u64)],
        universe: u64,
        kind: DominantMaxKind,
        chunk: usize,
    ) {
        let mut session = WeightedStreamingLis::new(universe);
        let mut prefix: Vec<(u64, u64)> = Vec::new();
        for batch in pairs.chunks(chunk) {
            session.ingest(batch);
            prefix.extend_from_slice(batch);
            let values: Vec<u64> = prefix.iter().map(|&(v, _)| v).collect();
            let weights: Vec<u64> = prefix.iter().map(|&(_, w)| w).collect();
            let want = wlis_kind(kind, &values, &weights);
            assert_eq!(session.scores(), want.as_slice(), "scores diverged from offline oracle");
            session.check_invariants();
        }
    }

    #[test]
    fn unit_weights_track_the_unweighted_session() {
        let input = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let mut s = WeightedStreamingLis::new(64);
        let report = s.ingest_plain(&input);
        assert_eq!(report.ingested, 8);
        assert_eq!(report.score_after, 3);
        assert_eq!(s.scores(), &[1, 1, 2, 1, 3, 1, 2, 3]);
        // Unit weights: the frontier degenerates to the patience tails.
        assert_eq!(s.frontier(), &[(10, 1), (39, 2), (44, 3)]);
        s.check_invariants();
    }

    #[test]
    fn heavy_object_dominates() {
        let mut s = WeightedStreamingLis::new(100);
        s.ingest(&[(1, 1), (2, 100), (3, 1), (4, 1)]);
        assert_eq!(s.scores(), &[1, 101, 102, 103]);
        assert_eq!(s.best_score(), 103);
        s.check_invariants();
    }

    #[test]
    fn duplicates_do_not_chain() {
        let mut s = WeightedStreamingLis::new(10);
        s.ingest(&[(5, 2), (5, 3), (5, 4)]);
        assert_eq!(s.scores(), &[2, 3, 4]);
        assert_eq!(s.frontier(), &[(5, 4)]);
        s.check_invariants();
    }

    #[test]
    fn zero_weights_are_handled() {
        let mut s = WeightedStreamingLis::new(10);
        s.ingest(&[(3, 0), (1, 0), (4, 5), (5, 0)]);
        assert_eq!(s.scores(), &[0, 0, 5, 5]);
        assert_eq!(s.frontier(), &[(4, 5)]);
        s.check_invariants();
    }

    #[test]
    fn streaming_matches_offline_oracle_on_both_backends() {
        let pairs = random_pairs(900, 400, 30, 0xABCD);
        for kind in [DominantMaxKind::RangeTree, DominantMaxKind::RangeVeb] {
            check_against_offline(&pairs, 400, kind, 111);
            check_against_offline(&pairs, 400, kind, 37);
        }
    }

    #[test]
    fn increasing_stream_keeps_full_frontier() {
        let pairs: Vec<(u64, u64)> = (0..300u64).map(|v| (v, 2)).collect();
        let mut s = WeightedStreamingLis::new(300);
        for chunk in pairs.chunks(70) {
            s.ingest(chunk);
        }
        assert_eq!(s.best_score(), 600);
        assert_eq!(s.frontier().len(), 300);
        s.check_invariants();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut s = WeightedStreamingLis::new(50);
        s.ingest(&[(3, 2), (1, 7)]);
        let frontier = s.frontier().to_vec();
        let r = s.ingest(&[]);
        assert_eq!(r.ingested, 0);
        assert_eq!(r.score_before, r.score_after);
        assert_eq!(s.frontier(), frontier.as_slice());
    }

    #[test]
    #[should_panic(expected = "would push the weight total past u64::MAX")]
    fn overflowing_weights_panic() {
        // The elements do not chain, so the best score stays at 2^63; the
        // weight total reaches u64::MAX exactly, and one more unit is refused.
        let mut s = WeightedStreamingLis::new(16);
        s.ingest(&[(10, 1 << 63)]);
        s.ingest(&[(5, (1 << 63) - 1)]);
        assert_eq!((s.best_score(), s.weight_total()), (1 << 63, u64::MAX));
        s.check_invariants();
        s.ingest(&[(4, 1)]);
    }

    #[test]
    #[should_panic(expected = "outside session universe")]
    fn out_of_universe_value_panics() {
        let mut s = WeightedStreamingLis::new(16);
        s.ingest(&[(16, 1)]);
    }

    #[test]
    fn score_queries_match_the_score_array() {
        let pairs = random_pairs(1_000, 600, 25, 0xC0DE);
        let mut s = WeightedStreamingLis::new(600);
        for chunk in pairs.chunks(75) {
            s.ingest(chunk);
        }
        // count_at_score against a scan of the score array.
        for probe in s.scores().iter().copied().chain([0, 1, u64::MAX]) {
            let want = s.scores().iter().filter(|&&x| x == probe).count();
            assert_eq!(s.count_at_score(probe), want, "score {probe}");
        }
        // top_k: descending score, ties by ascending index, prefix-closed.
        let full = s.top_k(s.len() + 10);
        assert_eq!(full.len(), s.len());
        assert!(full.windows(2).all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        for &(idx, dp) in &full {
            assert_eq!(s.scores()[idx], dp);
        }
        assert_eq!(s.top_k(9), full[..9]);
        assert_eq!(full[0].1, s.best_score());
        assert!(s.top_k(0).is_empty());
        // Huge k must not overflow the heap allocation.
        assert_eq!(s.top_k(usize::MAX), full);
        // The certificate carries the claimed total weight.
        let cert = s.reconstruct_wlis();
        assert!(cert.windows(2).all(|w| w[0] < w[1]));
        assert!(cert.windows(2).all(|w| s.values()[w[0]] < s.values()[w[1]]));
        assert_eq!(cert.iter().map(|&i| s.weights()[i]).sum::<u64>(), s.best_score());
        s.check_invariants();
    }

    #[test]
    fn queries_on_an_empty_weighted_session_are_well_defined() {
        let s = WeightedStreamingLis::new(64);
        assert_eq!(s.count_at_score(0), 0);
        assert_eq!(s.count_at_score(1), 0);
        assert!(s.top_k(5).is_empty());
        assert!(s.reconstruct_wlis().is_empty());
        s.check_invariants();
    }

    #[test]
    fn pareto_staircase_basics() {
        assert_eq!(pareto_staircase(vec![]), vec![]);
        assert_eq!(pareto_staircase(vec![(3, 0)]), vec![]);
        assert_eq!(
            pareto_staircase(vec![(5, 2), (3, 4), (7, 4), (6, 9), (5, 3)]),
            vec![(3, 4), (6, 9)]
        );
        // Equal values keep the best score; equal scores keep the smallest
        // value.
        assert_eq!(pareto_staircase(vec![(2, 1), (2, 6), (4, 6), (9, 6)]), vec![(2, 6)]);
    }
}
