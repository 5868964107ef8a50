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
//! # Batch ingestion
//!
//! Small batches take the sequential path: each element binary-searches the
//! frontier for its best predecessor score and the frontier is repaired in
//! place.
//!
//! Large batches take the **parallel merge path**, mirroring the
//! `tails ++ batch` argument of the unweighted session (see `DESIGN.md`):
//! encode the frontier as a weighted sequence — frontier values in
//! increasing order, each weighted by its score *increment* over the
//! previous entry — and run the one generic Algorithm-2 driver
//! ([`plis_lis::wlis_with`], dispatched through [`DominantMaxKind`]) over
//! `frontier ++ batch`.  Feeding the frontier this way reproduces each
//! frontier entry's own score (the entries are increasing in value, so
//! entry `r` scores `increment_r + score_{r-1} = score_r` by induction),
//! and because the frontier answers every dominant-max probe of the prefix
//! exactly, the dp values that come back at the batch positions are exactly
//! the scores of the batch elements in the full stream.  The new frontier
//! is the Pareto staircase of the old frontier and the batch points.
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
//!
//! # Backends
//!
//! The dominant-max structure used by the parallel path is selected by
//! [`DominantMaxKind`] — the same open [`plis_primitives::DominantMaxStore`]
//! trait surface the offline driver uses, so both structures (range tree
//! and Range-vEB) serve streaming sessions with no per-backend code here.

use crate::cost::PathPolicy;
use crate::session::IngestPath;
use plis_lis::{wlis_kind_stats, DominantMaxKind};
use std::collections::HashMap;

/// Reusable staging buffers for the weighted parallel merge path (and the
/// plain-batch adapter), owned per session: cleared, never freed, so
/// steady-state ingestion stays off the allocator.  The weighted analogue
/// of the unweighted session's scratch arena.
#[derive(Debug, Clone, Default)]
struct WScratchArena {
    /// Values of `frontier ++ batch`, the Algorithm-2 input.
    merged_values: Vec<u64>,
    /// Weights of `frontier ++ batch` (frontier entries carry their score
    /// *increment*).
    merged_weights: Vec<u64>,
    /// Frontier-rebuild staging: old frontier plus batch points, compacted
    /// to the Pareto staircase in place, then swapped with the frontier
    /// (the two buffers ping-pong across ingests).
    candidates: Vec<(u64, u64)>,
    /// Unit-weight pair staging for [`WeightedStreamingLis::ingest_plain`].
    plain_pairs: Vec<(u64, u64)>,
}

impl WScratchArena {
    fn reserve(&mut self, additional: usize) {
        self.merged_values.reserve(additional);
        self.merged_weights.reserve(additional);
        self.candidates.reserve(additional);
        self.plain_pairs.reserve(additional);
    }

    /// Heap bytes currently held across all staging buffers (capacity).
    fn approx_bytes(&self) -> usize {
        (self.merged_values.capacity() + self.merged_weights.capacity())
            * std::mem::size_of::<u64>()
            + (self.candidates.capacity() + self.plain_pairs.capacity())
                * std::mem::size_of::<(u64, u64)>()
    }
}

/// What one [`WeightedStreamingLis::ingest`] call did.
///
/// Equality is structural in the sense of [`crate::TickOutcome`]'s
/// invariant: the telemetry tallies ([`WeightedIngestReport::dommax_queries`],
/// [`WeightedIngestReport::dommax_writeback_elems`]) and the store-routing
/// record ([`WeightedIngestReport::dommax_used`]) are observational and
/// excluded from `==`, so reports stay comparable across backends and
/// paths.
#[derive(Debug, Clone, Copy)]
pub struct WeightedIngestReport {
    /// Number of `(value, weight)` pairs appended by this call.
    pub ingested: usize,
    /// Best (maximum) dp score of the stream before the batch.
    pub score_before: u64,
    /// Best (maximum) dp score of the stream after the batch.
    pub score_after: u64,
    /// Code path taken.
    pub path: IngestPath,
    /// Pareto-frontier size after the batch.
    pub frontier_len: usize,
    /// The concrete dominant-max store the parallel path ran with (what
    /// [`DominantMaxKind::Auto`] resolved to for this call's merged size;
    /// `None` on the sequential path, which uses no store).  Telemetry
    /// only — excluded from `==`.
    pub dommax_used: Option<DominantMaxKind>,
    /// Dominant-max point queries the parallel path issued (one per
    /// element of the `frontier ++ batch` run; 0 on the sequential
    /// path).  Telemetry only — excluded from `==`.
    pub dommax_queries: u64,
    /// Elements the parallel path wrote back to the dominant-max store.
    /// Telemetry only — excluded from `==`.
    pub dommax_writeback_elems: u64,
}

impl PartialEq for WeightedIngestReport {
    /// Field-wise equality, excluding the observational dominant-max
    /// tallies (see the type docs).
    fn eq(&self, other: &Self) -> bool {
        self.ingested == other.ingested
            && self.score_before == other.score_before
            && self.score_after == other.score_after
            && self.path == other.path
            && self.frontier_len == other.frontier_len
    }
}

impl Eq for WeightedIngestReport {}

impl WeightedIngestReport {
    fn empty(score: u64, frontier_len: usize) -> Self {
        WeightedIngestReport {
            ingested: 0,
            score_before: score,
            score_after: score,
            path: IngestPath::Sequential,
            frontier_len,
            dommax_used: None,
            dommax_queries: 0,
            dommax_writeback_elems: 0,
        }
    }
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
    /// Dominant-max store selector for the parallel merge path, as
    /// configured.  [`DominantMaxKind::Auto`] is kept un-resolved so each
    /// parallel ingest can pick per merged size — the store is built
    /// fresh inside every merge run, so the choice is free to vary call
    /// to call.
    kind: DominantMaxKind,
    /// Reusable staging buffers for the parallel merge path.
    scratch: WScratchArena,
    universe: u64,
    /// How ingest picks between the sequential and parallel merge path.
    policy: PathPolicy,
}

impl WeightedStreamingLis {
    /// Create a session over the value universe `[0, universe)` using the
    /// chosen dominant-max store for parallel ingests.
    ///
    /// # Panics
    /// Panics if `universe == 0`.
    pub fn new(universe: u64, kind: DominantMaxKind) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        WeightedStreamingLis {
            values: Vec::new(),
            weights: Vec::new(),
            scores: Vec::new(),
            frontier: Vec::new(),
            score_counts: HashMap::new(),
            kind,
            scratch: WScratchArena::default(),
            universe,
            policy: PathPolicy::default(),
        }
    }

    /// Force a fixed batch-size threshold for the parallel merge path —
    /// shorthand for [`PathPolicy::Fixed`] (mainly for tests, benchmarks,
    /// and reproducing the historical behaviour).
    pub fn with_par_threshold(self, threshold: usize) -> Self {
        self.with_path_policy(PathPolicy::Fixed(threshold.max(1)))
    }

    /// Set how ingest decides between the sequential and the parallel
    /// merge path.  Both paths are exact, so the policy affects timing
    /// only — never scores or the frontier.
    pub fn with_path_policy(mut self, policy: PathPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active ingest path policy.
    pub fn path_policy(&self) -> PathPolicy {
        self.policy
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
        self.scratch.reserve(additional);
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

    /// Name of the dominant-max store selector serving the parallel path
    /// (`"auto"` for [`DominantMaxKind::Auto`], which picks a concrete
    /// store per ingest — see [`WeightedIngestReport::dommax_used`]).
    pub fn backend_name(&self) -> &'static str {
        self.kind.name()
    }

    /// The configured dominant-max store selector (possibly
    /// [`DominantMaxKind::Auto`]).
    pub fn dommax_kind(&self) -> DominantMaxKind {
        self.kind
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

    /// Append a batch of `(value, weight)` pairs and update all state.
    ///
    /// # Panics
    /// Panics if any value is outside the session universe.
    pub fn ingest(&mut self, batch: &[(u64, u64)]) -> WeightedIngestReport {
        for &(v, _) in batch {
            assert!(v < self.universe, "value {v} outside session universe {}", self.universe);
        }
        if batch.is_empty() {
            return WeightedIngestReport::empty(self.best_score(), self.frontier.len());
        }
        match self.policy.choose_weighted(batch.len(), self.frontier.len()) {
            IngestPath::ParallelMerge => self.ingest_parallel(batch),
            IngestPath::Sequential => self.ingest_sequential(batch),
        }
    }

    /// Append unweighted values as unit-weight pairs (every element weighs
    /// 1), so plain traffic can feed a weighted session.
    pub fn ingest_plain(&mut self, batch: &[u64]) -> WeightedIngestReport {
        // Stage through the arena's pair buffer (taken out for the
        // duration of the ingest call, which borrows `self` mutably).
        let mut pairs = std::mem::take(&mut self.scratch.plain_pairs);
        pairs.clear();
        pairs.extend(batch.iter().map(|&v| (v, 1)));
        let report = self.ingest(&pairs);
        self.scratch.plain_pairs = pairs;
        report
    }

    /// The sequential path: per-element frontier probe + in-place repair.
    fn ingest_sequential(&mut self, batch: &[(u64, u64)]) -> WeightedIngestReport {
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
            path: IngestPath::Sequential,
            frontier_len: self.frontier.len(),
            dommax_used: None,
            dommax_queries: 0,
            dommax_writeback_elems: 0,
        }
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

    /// The parallel merge path: the one generic Algorithm-2 driver over
    /// `frontier ++ batch`, then a Pareto rebuild of the frontier.  All
    /// staging goes through the session's [`WScratchArena`] — steady state
    /// performs no heap allocation here beyond what the dominant-max
    /// driver needs internally.
    fn ingest_parallel(&mut self, batch: &[(u64, u64)]) -> WeightedIngestReport {
        let score_before = self.best_score();
        let k = self.frontier.len();

        // Encode the frontier as a weighted prefix: increasing values, each
        // weighted by its score increment, so the driver reproduces every
        // entry's own score (see the module docs for why this is exact).
        let scratch = &mut self.scratch;
        scratch.merged_values.clear();
        scratch.merged_weights.clear();
        scratch.merged_values.reserve(k + batch.len());
        scratch.merged_weights.reserve(k + batch.len());
        let mut prev_score = 0u64;
        for &(v, s) in &self.frontier {
            scratch.merged_values.push(v);
            scratch.merged_weights.push(s - prev_score);
            prev_score = s;
        }
        for &(v, w) in batch {
            scratch.merged_values.push(v);
            scratch.merged_weights.push(w);
        }
        // Resolve `Auto` per call: the store is built fresh over the
        // merged run, so the routing can follow the merged size.
        let used = self.kind.resolve_for(scratch.merged_values.len());
        let (dp, dommax_stats) =
            wlis_kind_stats(used, &scratch.merged_values, &scratch.merged_weights);
        debug_assert!(
            dp[..k].iter().zip(&self.frontier).all(|(&d, &(_, s))| d == s),
            "the encoded frontier must reproduce its own scores"
        );

        let batch_scores = &dp[k..];
        for &s in batch_scores {
            *self.score_counts.entry(s).or_default() += 1;
        }
        self.scores.extend_from_slice(batch_scores);
        self.values.extend(batch.iter().map(|&(v, _)| v));
        self.weights.extend(batch.iter().map(|&(_, w)| w));

        // New frontier: Pareto staircase of the old entries and the batch,
        // compacted in place and swapped with the live frontier (the two
        // buffers ping-pong, both staying at high-water capacity).
        scratch.candidates.clear();
        scratch.candidates.extend_from_slice(&self.frontier);
        scratch.candidates.extend(batch.iter().zip(batch_scores).map(|(&(v, _), &s)| (v, s)));
        pareto_staircase_inplace(&mut scratch.candidates);
        std::mem::swap(&mut self.frontier, &mut scratch.candidates);

        WeightedIngestReport {
            ingested: batch.len(),
            score_before,
            score_after: self.best_score(),
            path: IngestPath::ParallelMerge,
            frontier_len: self.frontier.len(),
            dommax_used: Some(used),
            dommax_queries: dommax_stats.queries,
            dommax_writeback_elems: dommax_stats.writeback_elems,
        }
    }

    /// Rough heap footprint of the session in bytes: the value, weight
    /// and score arrays, the Pareto frontier, the scratch arena, and an
    /// estimate of the score-multiplicity map.  Intended for occasional
    /// telemetry snapshots, not the hot path.
    pub fn approx_bytes(&self) -> usize {
        // HashMap: one (key, value) slot plus a control byte per bucket.
        let map_bytes = self.score_counts.capacity() * (std::mem::size_of::<(u64, usize)>() + 1);
        std::mem::size_of::<Self>()
            + self.values.capacity() * std::mem::size_of::<u64>()
            + self.weights.capacity() * std::mem::size_of::<u64>()
            + self.scores.capacity() * std::mem::size_of::<u64>()
            + self.frontier.capacity() * std::mem::size_of::<(u64, u64)>()
            + self.scratch.approx_bytes()
            + map_bytes
    }

    /// Heap bytes held by the reusable staging buffers — the telemetry
    /// plane's "arena high-water" accounting (weighted side).
    pub fn arena_bytes(&self) -> usize {
        self.scratch.approx_bytes()
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
        let expect =
            pareto_staircase(self.values.iter().zip(&self.scores).map(|(&v, &s)| (v, s)).collect());
        assert_eq!(self.frontier, expect, "frontier must be the Pareto staircase of the stream");
    }
}

/// The Pareto staircase of a bag of `(value, score)` pairs: for every
/// value keep the best score, then keep only entries whose score strictly
/// exceeds every entry at a smaller value.  Zero scores are dropped (the
/// `max(0, ·)` in the recurrence makes them vacuous).
fn pareto_staircase(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pareto_staircase_inplace(&mut pairs);
    pairs
}

/// In-place form of [`pareto_staircase`]: sorts `pairs` and compacts the
/// staircase into its prefix (no allocation; the hot path reuses one
/// staging buffer across ingests).
fn pareto_staircase_inplace(pairs: &mut Vec<(u64, u64)>) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_pairs;
    use plis_lis::wlis_rangetree;

    /// Stream `pairs` through a session in chunks, checking scores against
    /// the offline oracle after every batch.
    fn check_against_offline(
        pairs: &[(u64, u64)],
        universe: u64,
        kind: DominantMaxKind,
        chunk: usize,
        par_threshold: usize,
    ) {
        let mut session =
            WeightedStreamingLis::new(universe, kind).with_par_threshold(par_threshold);
        let mut prefix: Vec<(u64, u64)> = Vec::new();
        for batch in pairs.chunks(chunk) {
            session.ingest(batch);
            prefix.extend_from_slice(batch);
            let values: Vec<u64> = prefix.iter().map(|&(v, _)| v).collect();
            let weights: Vec<u64> = prefix.iter().map(|&(_, w)| w).collect();
            let want = wlis_rangetree(&values, &weights);
            assert_eq!(session.scores(), want.as_slice(), "scores diverged from offline oracle");
            session.check_invariants();
        }
    }

    #[test]
    fn unit_weights_track_the_unweighted_session() {
        let input = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let mut s = WeightedStreamingLis::new(64, DominantMaxKind::Auto);
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
        let mut s = WeightedStreamingLis::new(100, DominantMaxKind::RangeTree);
        s.ingest(&[(1, 1), (2, 100), (3, 1), (4, 1)]);
        assert_eq!(s.scores(), &[1, 101, 102, 103]);
        assert_eq!(s.best_score(), 103);
        s.check_invariants();
    }

    #[test]
    fn duplicates_do_not_chain() {
        let mut s = WeightedStreamingLis::new(10, DominantMaxKind::Auto);
        s.ingest(&[(5, 2), (5, 3), (5, 4)]);
        assert_eq!(s.scores(), &[2, 3, 4]);
        assert_eq!(s.frontier(), &[(5, 4)]);
        s.check_invariants();
    }

    #[test]
    fn zero_weights_are_handled() {
        let mut s = WeightedStreamingLis::new(10, DominantMaxKind::Auto);
        s.ingest(&[(3, 0), (1, 0), (4, 5), (5, 0)]);
        assert_eq!(s.scores(), &[0, 0, 5, 5]);
        assert_eq!(s.frontier(), &[(4, 5)]);
        s.check_invariants();
    }

    #[test]
    fn sequential_and_parallel_paths_agree() {
        let pairs = random_pairs(1_200, 700, 40, 0xFEED5EED);
        let mut seq =
            WeightedStreamingLis::new(700, DominantMaxKind::Auto).with_par_threshold(usize::MAX);
        let mut par = WeightedStreamingLis::new(700, DominantMaxKind::Auto).with_par_threshold(1);
        for chunk in pairs.chunks(83) {
            let rs = seq.ingest(chunk);
            let rp = par.ingest(chunk);
            assert_eq!(rs.path, IngestPath::Sequential);
            assert_eq!(rp.path, IngestPath::ParallelMerge);
            assert_eq!(rs.score_after, rp.score_after);
            assert_eq!(rs.frontier_len, rp.frontier_len);
        }
        assert_eq!(seq.scores(), par.scores());
        assert_eq!(seq.frontier(), par.frontier());
        seq.check_invariants();
        par.check_invariants();
    }

    /// Property: the final state is bit-identical across *any* forced
    /// threshold on the weighted path too.
    #[test]
    fn any_forced_threshold_yields_identical_state() {
        let pairs = random_pairs(1_500, 900, 35, 0x0DDBA11);
        let reference = {
            let mut s = WeightedStreamingLis::new(900, DominantMaxKind::Auto)
                .with_par_threshold(usize::MAX);
            for chunk in pairs.chunks(91) {
                s.ingest(chunk);
            }
            s
        };
        for threshold in [1usize, 3, 16, 64, 90, 91, 92, 512] {
            let mut s =
                WeightedStreamingLis::new(900, DominantMaxKind::Auto).with_par_threshold(threshold);
            for chunk in pairs.chunks(91) {
                s.ingest(chunk);
            }
            assert_eq!(s.scores(), reference.scores(), "threshold {threshold}");
            assert_eq!(s.frontier(), reference.frontier(), "threshold {threshold}");
            s.check_invariants();
        }
    }

    /// The cost policy produces the same state as any fixed policy —
    /// calibration changes timing only, never scores.
    #[test]
    fn cost_policy_state_matches_fixed_policies() {
        let pairs = random_pairs(1_000, 700, 20, 0xBEEFCAFE);
        let mut cost = WeightedStreamingLis::new(700, DominantMaxKind::Auto)
            .with_path_policy(PathPolicy::Cost);
        let mut fixed =
            WeightedStreamingLis::new(700, DominantMaxKind::Auto).with_par_threshold(128);
        assert_eq!(cost.path_policy(), PathPolicy::Cost);
        for chunk in pairs.chunks(77) {
            let rc = cost.ingest(chunk);
            let rf = fixed.ingest(chunk);
            assert_eq!(rc.ingested, rf.ingested);
            assert_eq!(rc.score_before, rf.score_before);
            assert_eq!(rc.score_after, rf.score_after);
            assert_eq!(rc.frontier_len, rf.frontier_len);
        }
        assert_eq!(cost.scores(), fixed.scores());
        assert_eq!(cost.frontier(), fixed.frontier());
        cost.check_invariants();
    }

    /// Auto sessions record which concrete store each parallel ingest ran
    /// with; sequential ingests record none.  The record is observational:
    /// reports differing only in it still compare equal.
    #[test]
    fn auto_records_the_store_each_parallel_ingest_used() {
        let pairs = random_pairs(400, 300, 15, 0x5EED);
        let mut auto =
            WeightedStreamingLis::new(300, DominantMaxKind::Auto).with_par_threshold(100);
        let mut veb =
            WeightedStreamingLis::new(300, DominantMaxKind::RangeVeb).with_par_threshold(100);
        for chunk in pairs.chunks(200) {
            let ra = auto.ingest(chunk);
            let rv = veb.ingest(chunk);
            assert_eq!(ra.path, IngestPath::ParallelMerge);
            // Below the points threshold Auto must route around the
            // Range-vEB write-back and pick the range tree.
            assert_eq!(ra.dommax_used, Some(DominantMaxKind::RangeTree));
            assert_eq!(rv.dommax_used, Some(DominantMaxKind::RangeVeb));
            // dommax_used is excluded from structural equality.
            assert_eq!(ra, rv);
        }
        let seq_report = auto.ingest(&[(5, 1)]);
        veb.ingest(&[(5, 1)]);
        assert_eq!(seq_report.path, IngestPath::Sequential);
        assert_eq!(seq_report.dommax_used, None);
        assert_eq!(auto.backend_name(), "auto");
        assert_eq!(auto.dommax_kind(), DominantMaxKind::Auto);
        assert_eq!(auto.scores(), veb.scores());
    }

    #[test]
    fn streaming_matches_offline_oracle_on_both_backends() {
        let pairs = random_pairs(900, 400, 30, 0xABCD);
        for kind in [DominantMaxKind::RangeTree, DominantMaxKind::RangeVeb] {
            // Mixed paths: threshold between the chunk sizes used.
            check_against_offline(&pairs, 400, kind, 111, 64);
            check_against_offline(&pairs, 400, kind, 37, 64);
        }
    }

    #[test]
    fn increasing_stream_keeps_full_frontier() {
        let pairs: Vec<(u64, u64)> = (0..300u64).map(|v| (v, 2)).collect();
        let mut s = WeightedStreamingLis::new(300, DominantMaxKind::Auto).with_par_threshold(50);
        for chunk in pairs.chunks(70) {
            s.ingest(chunk);
        }
        assert_eq!(s.best_score(), 600);
        assert_eq!(s.frontier().len(), 300);
        s.check_invariants();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut s = WeightedStreamingLis::new(50, DominantMaxKind::Auto);
        s.ingest(&[(3, 2), (1, 7)]);
        let frontier = s.frontier().to_vec();
        let r = s.ingest(&[]);
        assert_eq!(r.ingested, 0);
        assert_eq!(r.score_before, r.score_after);
        assert_eq!(s.frontier(), frontier.as_slice());
    }

    #[test]
    #[should_panic(expected = "outside session universe")]
    fn out_of_universe_value_panics() {
        let mut s = WeightedStreamingLis::new(16, DominantMaxKind::Auto);
        s.ingest(&[(16, 1)]);
    }

    #[test]
    fn score_queries_match_the_score_array() {
        let pairs = random_pairs(1_000, 600, 25, 0xC0DE);
        let mut s = WeightedStreamingLis::new(600, DominantMaxKind::Auto).with_par_threshold(90);
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
        let s = WeightedStreamingLis::new(64, DominantMaxKind::Auto);
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
