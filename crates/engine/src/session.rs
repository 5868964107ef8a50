//! A single streaming-LIS session: incremental LIS state over an
//! append-only stream of `u64` values, ingested batch by batch.
//!
//! # State
//!
//! The session keeps the *patience* invariant of Seq-BS: after ingesting a
//! prefix, `tails[r]` is the smallest value that ends an increasing
//! subsequence of length `r + 1` within the prefix.  `tails` is strictly
//! increasing, its length is the current LIS length, and it is the complete
//! summary of the prefix as far as future dp values are concerned.  The
//! session also records every element's *rank* (the length of the LIS ending
//! at it — its dp value).  A rank only depends on the elements before it, so
//! ranks never change once computed: streaming queries are exact, not
//! approximate.
//!
//! # Batch ingestion
//!
//! Small batches take the sequential path: each element binary-searches
//! `tails` (`O(log k)`) and overwrites one slot.
//!
//! Large batches take the **parallel merge path**, which is where the
//! paper's machinery earns its keep.  Observe that for dp purposes the
//! entire old prefix is interchangeable with the array `tails` itself: an
//! increasing subsequence of length `r` with all values `< x` exists in the
//! prefix iff `tails[r - 1] < x`, and `tails` is strictly increasing, so
//! within `tails` alone every `tails[j]` has dp exactly `j + 1`.  Hence
//! running Algorithm 1 — the parallel tournament-tree LIS ([`lis_ranks_u64`])
//! — over the concatenation `tails ++ batch` yields, at the batch positions,
//! exactly the dp values of the batch elements in the full stream.  The new
//! tails array is then `new_tails[r] = min(old_tails[r], min {b : b in batch,
//! dp(b) = r + 1})`, computed by a direct per-rank min fold over the batch
//! ranks.
//!
//! # Memory discipline
//!
//! Steady-state ingestion is **allocation-free**: every buffer the hot
//! paths need lives either on the session itself (`values`, `ranks`,
//! `tails`, the flat rank index replacing per-rank `Vec`s) or in a
//! per-session scratch arena of reusable staging buffers, all of which
//! grow to a high-water mark and are then only ever cleared, never freed.
//! [`StreamingLis::reserve`] pre-sizes everything for a known workload;
//! the `alloc_discipline` integration test pins the zero-allocation claim
//! with a counting global allocator.  See `DESIGN.md` ("Memory & allocation
//! discipline").
//!
//! # Queries
//!
//! Ranks are final on ingest, so the session can serve a live *query
//! plane* next to ingestion.  Alongside `values`/`ranks`/`tails` it
//! maintains the per-rank **frontiers** — the indices of the rank-`r`
//! elements, in arrival order (which is increasing-index order, because
//! ranks never change) — packed into one flat block pool:
//! `O(batch)` upkeep per ingest, and every read is output-sensitive —
//! [`StreamingLis::count_at_rank`] is `O(1)`,
//! [`StreamingLis::top_k`] is `O(k)`, and
//! [`StreamingLis::reconstruct_lis`] walks the frontiers directly
//! (`O(k log n)`, Appendix A) instead of re-grouping the rank array per
//! query.
//!
//! # Value-domain probes
//!
//! [`StreamingLis::tail_pred`], [`StreamingLis::tail_succ`] and
//! [`StreamingLis::lis_length_below`] binary-search `tails` itself
//! (`O(log k)`).  The session keeps no value-domain mirror of the tails:
//! Algorithm 1 and the patience tails need none (the paper's vEB tree
//! serves Algorithm 2's Range-vEB store).

use crate::cost::PathPolicy;
use crate::rankindex::RankIndex;
use plis_lis::lis_ranks_u64;
use plis_primitives::sorted_diff_counts;

/// The historical fixed batch-size threshold at which ingestion switched
/// to the parallel merge path.  Sessions now default to cost-based
/// selection ([`PathPolicy::Cost`]); this constant remains as the
/// reference point for [`PathPolicy::Fixed`] configurations and for the
/// bench sweeps that reproduce the old behaviour.
pub const DEFAULT_PAR_THRESHOLD: usize = 512;

/// Which code path an ingest took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestPath {
    /// Per-element binary search + point updates.
    Sequential,
    /// Algorithm 1 over `tails ++ batch`, then a per-rank min rebuild of
    /// the tails.
    ParallelMerge,
}

/// What one [`StreamingLis::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Number of elements appended by this call.
    pub ingested: usize,
    /// LIS length of the stream before the batch.
    pub lis_before: u32,
    /// LIS length of the stream after the batch.
    pub lis_after: u32,
    /// Code path taken.
    pub path: IngestPath,
    /// Values inserted into the tail set (new or replacement tails).
    pub tail_inserts: usize,
    /// Values removed from the tail set (tails displaced by better ones).
    pub tail_removals: usize,
}

impl IngestReport {
    fn empty(k: u32, path: IngestPath) -> Self {
        IngestReport {
            ingested: 0,
            lis_before: k,
            lis_after: k,
            path,
            tail_inserts: 0,
            tail_removals: 0,
        }
    }
}

/// Reusable staging buffers for the parallel merge path, owned per
/// session.  Every field is cleared (keeping capacity) at the start of the
/// ingest that uses it, so after a warm-up phase the hot path never
/// touches the allocator: buffers grow to the workload's high-water mark
/// and stay there.
#[derive(Debug, Clone, Default)]
struct ScratchArena {
    /// `tails ++ batch`, the Algorithm-1 input.
    merged: Vec<u64>,
    /// The rebuilt tails array, swapped with the session's on completion.
    new_tails: Vec<u64>,
    /// Per-rank minimum of the batch values (`u64::MAX` where the batch
    /// has no element of that rank).
    rank_min: Vec<u64>,
}

impl ScratchArena {
    fn reserve(&mut self, additional: usize) {
        self.merged.reserve(additional);
        self.new_tails.reserve(additional);
        self.rank_min.reserve(additional);
    }

    /// Heap bytes currently held across all staging buffers (capacity).
    fn approx_bytes(&self) -> usize {
        (self.merged.capacity() + self.new_tails.capacity() + self.rank_min.capacity())
            * std::mem::size_of::<u64>()
    }
}

/// Incremental LIS over an append-only stream.  See the module docs for
/// the algorithm; see [`crate::Engine`] for multiplexing many sessions.
#[derive(Debug, Clone)]
pub struct StreamingLis {
    /// Every ingested value, in arrival order.
    values: Vec<u64>,
    /// `ranks[i]` = dp value of `values[i]` (length of the LIS ending there).
    ranks: Vec<u32>,
    /// The patience tails: `tails[r]` = smallest value ending an increasing
    /// subsequence of length `r + 1`.  Strictly increasing.
    tails: Vec<u64>,
    /// Per-rank frontiers (rank `r + 1` ↦ indices in increasing order),
    /// packed into one flat block pool.  Ranks are final, so frontiers only
    /// grow at the end; this is exactly the grouping Appendix A walks.
    by_rank: RankIndex,
    /// Reusable staging buffers for the parallel merge path.
    scratch: ScratchArena,
    universe: u64,
    /// How ingest picks between the sequential and parallel merge path.
    policy: PathPolicy,
}

impl StreamingLis {
    /// Create a session over the value universe `[0, universe)`.
    ///
    /// # Panics
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        StreamingLis {
            values: Vec::new(),
            ranks: Vec::new(),
            tails: Vec::new(),
            by_rank: RankIndex::new(),
            scratch: ScratchArena::default(),
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
    /// only — never ranks, tails, or LIS lengths.
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
    /// capacity hint: state and outcomes are unaffected.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.ranks.reserve(additional);
        self.tails.reserve(additional);
        self.by_rank.reserve(additional, additional);
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

    /// Current LIS length of the whole stream.
    pub fn lis_length(&self) -> u32 {
        self.tails.len() as u32
    }

    /// The universe this session was created over.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Every ingested value, in arrival order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Per-element ranks (dp values).  `ranks()[i]` is the length of the
    /// longest increasing subsequence ending at element `i`; it is exact and
    /// final from the moment element `i` is ingested.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// The rank of the `i`-th ingested element, if it exists.
    pub fn rank_of(&self, i: usize) -> Option<u32> {
        self.ranks.get(i).copied()
    }

    /// The current patience tails (strictly increasing; one entry per LIS
    /// length `1..=k`).
    pub fn tails(&self) -> &[u64] {
        &self.tails
    }

    /// Length of the longest increasing subsequence all of whose values are
    /// strictly below `x` — the rank a hypothetical next element `x` would
    /// receive, minus one.
    pub fn lis_length_below(&self, x: u64) -> u32 {
        self.tails.partition_point(|&t| t < x) as u32
    }

    /// Largest tail value strictly below `x`, if any.  `O(log k)`.
    pub fn tail_pred(&self, x: u64) -> Option<u64> {
        let p = self.tails.partition_point(|&t| t < x);
        p.checked_sub(1).map(|i| self.tails[i])
    }

    /// Smallest tail value at or above `x`, if any.  `O(log k)`.  Probes at
    /// or beyond the universe return `None` (all tails are inside the
    /// universe).
    pub fn tail_succ(&self, x: u64) -> Option<u64> {
        self.tails.get(self.tails.partition_point(|&t| t < x)).copied()
    }

    /// Number of ingested elements whose rank (dp value) is exactly
    /// `rank`.  `O(1)`: the per-rank frontiers are maintained on ingest.
    /// Rank 0 and ranks above the current LIS length count zero elements.
    pub fn count_at_rank(&self, rank: u32) -> usize {
        match rank.checked_sub(1) {
            Some(r) => self.by_rank.count(r as usize),
            None => 0,
        }
    }

    /// The indices of every rank-`rank` element, in increasing order —
    /// one frontier of the streaming grouping Appendix A reconstructs
    /// from.  Output-sensitive; allocates only the returned vector.
    pub fn frontier(&self, rank: u32) -> Vec<usize> {
        match rank.checked_sub(1) {
            Some(r) => self.by_rank.iter_rank(r as usize).map(|i| i as usize).collect(),
            None => Vec::new(),
        }
    }

    /// The `k` best elements by dp value: `(index, rank)` pairs ordered by
    /// descending rank, ties by ascending index.  Output-sensitive
    /// (`O(k)`): walks the maintained frontiers from the top rank down.
    /// Returns fewer than `k` pairs when the stream is shorter than `k`.
    pub fn top_k(&self, k: usize) -> Vec<(usize, u64)> {
        let mut out = Vec::with_capacity(k.min(self.values.len()));
        for r in (0..self.by_rank.ranks()).rev() {
            for idx in self.by_rank.iter_rank(r) {
                if out.len() == k {
                    return out;
                }
                out.push((idx as usize, r as u64 + 1));
            }
        }
        out
    }

    /// Indices (in arrival order) of one longest increasing subsequence of
    /// the whole stream, recovered by walking the maintained per-rank
    /// frontiers as in Appendix A (`O(k log n)` per call; no per-query
    /// grouping pass).  Deterministic, and bit-identical to the offline
    /// [`plis_lis::lis_indices_from_ranks`] on the same prefix.
    pub fn reconstruct_lis(&self) -> Vec<usize> {
        let k = self.by_rank.ranks();
        if k == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(k);
        // Start from the first (leftmost) object of the top frontier and
        // walk down one rank at a time, taking the last valid predecessor
        // (Lemmas A.1/A.2: the last rank-(r-1) index before the current
        // one carries the smallest such value).
        let mut current = self.by_rank.first(k - 1).expect("top rank must be populated");
        out.push(current as usize);
        for r in (1..k).rev() {
            let chosen = self
                .by_rank
                .last_below(r - 1, current)
                .unwrap_or_else(|| panic!("a rank-{r} predecessor must exist before {current}"));
            debug_assert!(
                self.values[chosen as usize] < self.values[current as usize],
                "best decision must be smaller"
            );
            out.push(chosen as usize);
            current = chosen;
        }
        out.reverse();
        out
    }

    /// Append `batch` to the stream and update all LIS state.
    ///
    /// # Panics
    /// Panics if any value is outside the session universe, or if the
    /// stream would exceed `u32::MAX` elements (the rank index addresses
    /// elements with 32 bits).
    pub fn ingest(&mut self, batch: &[u64]) -> IngestReport {
        for &v in batch {
            assert!(v < self.universe, "value {v} outside session universe {}", self.universe);
        }
        assert!(
            self.values.len() + batch.len() <= u32::MAX as usize,
            "stream exceeds u32 element addressing"
        );
        if batch.is_empty() {
            return IngestReport::empty(self.lis_length(), IngestPath::Sequential);
        }
        match self.policy.choose(batch.len(), self.tails.len()) {
            IngestPath::ParallelMerge => self.ingest_parallel(batch),
            IngestPath::Sequential => self.ingest_sequential(batch),
        }
    }

    /// The sequential path: seeded patience, one element at a time.
    fn ingest_sequential(&mut self, batch: &[u64]) -> IngestReport {
        let lis_before = self.lis_length();
        let mut inserts = 0usize;
        let mut removals = 0usize;
        let base = self.values.len();
        for (offset, &x) in batch.iter().enumerate() {
            let pos = self.tails.partition_point(|&t| t < x);
            self.ranks.push(pos as u32 + 1);
            self.by_rank.push(pos, (base + offset) as u32);
            if pos == self.tails.len() {
                self.tails.push(x);
                inserts += 1;
            } else if x < self.tails[pos] {
                self.tails[pos] = x;
                inserts += 1;
                removals += 1;
            }
        }
        self.values.extend_from_slice(batch);
        IngestReport {
            ingested: batch.len(),
            lis_before,
            lis_after: self.lis_length(),
            path: IngestPath::Sequential,
            tail_inserts: inserts,
            tail_removals: removals,
        }
    }

    /// The parallel merge path: Algorithm 1 over `tails ++ batch`, then a
    /// per-rank min rebuild of the tails.  All staging goes through the
    /// session's [`ScratchArena`] — steady state performs no heap
    /// allocation here beyond what [`lis_ranks_u64`] needs internally.
    fn ingest_parallel(&mut self, batch: &[u64]) -> IngestReport {
        let lis_before = self.lis_length();
        let k = self.tails.len();

        self.scratch.merged.clear();
        self.scratch.merged.reserve(k + batch.len());
        self.scratch.merged.extend_from_slice(&self.tails);
        self.scratch.merged.extend_from_slice(batch);
        let (merged_ranks, new_k) = lis_ranks_u64(&self.scratch.merged);
        debug_assert!(
            merged_ranks[..k].iter().enumerate().all(|(j, &r)| r == j as u32 + 1),
            "strictly increasing tails must have dp == position + 1"
        );

        let batch_ranks = &merged_ranks[k..];
        let base = self.values.len();
        for (offset, &r) in batch_ranks.iter().enumerate() {
            self.by_rank.push((r - 1) as usize, (base + offset) as u32);
        }
        self.ranks.extend_from_slice(batch_ranks);
        self.values.extend_from_slice(batch);

        // Per-rank minimum of the batch: a direct min fold — no
        // counting-sort staging, no per-rank lists.
        let scratch = &mut self.scratch;
        scratch.rank_min.clear();
        scratch.rank_min.resize(new_k as usize, u64::MAX);
        for (offset, &r) in batch_ranks.iter().enumerate() {
            let slot = &mut scratch.rank_min[(r - 1) as usize];
            *slot = (*slot).min(batch[offset]);
        }
        scratch.new_tails.clear();
        {
            let tails = &self.tails;
            let rank_min = &scratch.rank_min;
            scratch.new_tails.extend((0..new_k as usize).map(|r| {
                let from_old = tails.get(r).copied().unwrap_or(u64::MAX);
                from_old.min(rank_min[r])
            }));
        }
        debug_assert!(
            scratch.new_tails.windows(2).all(|w| w[0] < w[1]),
            "tails must stay strictly increasing"
        );

        // Count the tail delta.  After the swap `scratch.new_tails` holds
        // the *old* tails (and its buffer is reused next ingest).
        std::mem::swap(&mut self.tails, &mut scratch.new_tails);
        let (tail_removals, tail_inserts) = sorted_diff_counts(&scratch.new_tails, &self.tails);

        IngestReport {
            ingested: batch.len(),
            lis_before,
            lis_after: self.lis_length(),
            path: IngestPath::ParallelMerge,
            tail_inserts,
            tail_removals,
        }
    }

    /// Rough heap footprint of the session in bytes: the value/rank/tail
    /// arrays, the flat rank index and the scratch arena.  Intended for
    /// occasional telemetry snapshots, not the hot path.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.values.capacity() * std::mem::size_of::<u64>()
            + self.ranks.capacity() * std::mem::size_of::<u32>()
            + self.tails.capacity() * std::mem::size_of::<u64>()
            + self.by_rank.approx_bytes()
            + self.scratch.approx_bytes()
    }

    /// Heap bytes held by the reusable staging buffers (the scratch arena
    /// plus the flat rank-index pool) — the telemetry plane's
    /// "arena high-water" accounting.
    pub fn arena_bytes(&self) -> usize {
        self.scratch.approx_bytes() + self.by_rank.approx_bytes()
    }

    /// Cross-check every invariant; used by the test suites.
    pub fn check_invariants(&self) {
        assert_eq!(self.values.len(), self.ranks.len());
        assert!(self.tails.windows(2).all(|w| w[0] < w[1]), "tails not strictly increasing");
        let k = self.ranks.iter().copied().max().unwrap_or(0);
        assert_eq!(k, self.lis_length(), "max rank must equal the tail count");
        assert_eq!(self.by_rank.ranks(), self.tails.len(), "one frontier per rank");
        let grouped: usize = (0..self.by_rank.ranks()).map(|r| self.by_rank.count(r)).sum();
        assert_eq!(grouped, self.ranks.len(), "frontiers must cover every element");
        for r in 0..self.by_rank.ranks() {
            let frontier: Vec<u32> = self.by_rank.iter_rank(r).collect();
            assert_eq!(frontier.len(), self.by_rank.count(r), "frontier {r} count drift");
            assert!(frontier.windows(2).all(|w| w[0] < w[1]), "frontier {r} not increasing");
            assert!(
                frontier.iter().all(|&i| self.ranks[i as usize] as usize == r + 1),
                "frontier {r} holds a wrong-rank element"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::xorshift;

    #[test]
    fn paper_example_one_batch() {
        let input = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let mut s = StreamingLis::new(64);
        let report = s.ingest(&input);
        assert_eq!(report.ingested, 8);
        assert_eq!(report.lis_after, 3);
        assert_eq!(s.ranks(), &[1, 1, 2, 1, 3, 1, 2, 3]);
        assert_eq!(s.lis_length(), 3);
        s.check_invariants();
    }

    #[test]
    fn sequential_and_parallel_paths_agree() {
        let mut state = 0x5DEECE66Du64;
        let input: Vec<u64> = (0..3_000).map(|_| xorshift(&mut state) % 10_000).collect();
        let mut seq = StreamingLis::new(10_000).with_par_threshold(usize::MAX);
        let mut par = StreamingLis::new(10_000).with_par_threshold(1);
        for chunk in input.chunks(97) {
            let rs = seq.ingest(chunk);
            let rp = par.ingest(chunk);
            assert_eq!(rs.path, IngestPath::Sequential);
            assert_eq!(rp.path, IngestPath::ParallelMerge);
            assert_eq!(rs.lis_after, rp.lis_after);
        }
        assert_eq!(seq.ranks(), par.ranks());
        assert_eq!(seq.tails(), par.tails());
        seq.check_invariants();
        par.check_invariants();
    }

    /// Property: the final state is bit-identical across *any* forced
    /// threshold — every crossover a cost model could pick routes some
    /// batches differently, and none of it may show in ranks or tails.
    #[test]
    fn any_forced_threshold_yields_identical_state() {
        let mut state = 0xA5A5_1234u64;
        let input: Vec<u64> = (0..4_000).map(|_| xorshift(&mut state) % 20_000).collect();
        let reference = {
            let mut s = StreamingLis::new(20_000).with_par_threshold(usize::MAX);
            for chunk in input.chunks(113) {
                s.ingest(chunk);
            }
            s
        };
        for threshold in [1usize, 2, 7, 32, 64, 100, 113, 114, 512, 4_096] {
            let mut s = StreamingLis::new(20_000).with_par_threshold(threshold);
            for chunk in input.chunks(113) {
                s.ingest(chunk);
            }
            assert_eq!(s.ranks(), reference.ranks(), "threshold {threshold}");
            assert_eq!(s.tails(), reference.tails(), "threshold {threshold}");
            assert_eq!(s.lis_length(), reference.lis_length(), "threshold {threshold}");
            s.check_invariants();
        }
    }

    /// The cost policy (whatever calibration measured on this machine)
    /// must produce the same state as any fixed policy — calibration can
    /// change timing only, never outcomes.
    #[test]
    fn cost_policy_state_matches_fixed_policies() {
        let mut state = 0xDEAD_10CCu64;
        let input: Vec<u64> = (0..3_500).map(|_| xorshift(&mut state) % 9_000).collect();
        let mut cost = StreamingLis::new(9_000).with_path_policy(PathPolicy::Cost);
        let mut fixed = StreamingLis::new(9_000).with_par_threshold(256);
        assert_eq!(cost.path_policy(), PathPolicy::Cost);
        for chunk in input.chunks(301) {
            let rc = cost.ingest(chunk);
            let rf = fixed.ingest(chunk);
            // Reports agree on everything except possibly the path taken
            // and the resulting tail-churn accounting.
            assert_eq!(rc.ingested, rf.ingested);
            assert_eq!(rc.lis_before, rf.lis_before);
            assert_eq!(rc.lis_after, rf.lis_after);
        }
        assert_eq!(cost.ranks(), fixed.ranks());
        assert_eq!(cost.tails(), fixed.tails());
        cost.check_invariants();

        // And the cost decision is deterministic: replaying the same
        // stream takes the same path at every batch.
        let mut replay = StreamingLis::new(9_000).with_path_policy(PathPolicy::Cost);
        let mut paths = Vec::new();
        for chunk in input.chunks(301) {
            paths.push(replay.ingest(chunk).path);
        }
        let mut replay2 = StreamingLis::new(9_000).with_path_policy(PathPolicy::Cost);
        for (i, chunk) in input.chunks(301).enumerate() {
            assert_eq!(replay2.ingest(chunk).path, paths[i], "batch {i}");
        }
    }

    #[test]
    fn reports_track_tail_churn() {
        let mut s = StreamingLis::new(1 << 10);
        let r = s.ingest(&[10, 20, 30]);
        assert_eq!(r.tail_inserts, 3);
        assert_eq!(r.tail_removals, 0);
        assert_eq!(r.lis_after, 3);
        // 5 displaces 10; 15 displaces 20.
        let r = s.ingest(&[5, 15]);
        assert_eq!(r.tail_inserts, 2);
        assert_eq!(r.tail_removals, 2);
        assert_eq!(r.lis_after, 3);
        assert_eq!(s.tails(), &[5, 15, 30]);
        s.check_invariants();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut s = StreamingLis::new(100);
        s.ingest(&[3, 1, 4]);
        let before = s.tails().to_vec();
        let r = s.ingest(&[]);
        assert_eq!(r.ingested, 0);
        assert_eq!(r.lis_before, r.lis_after);
        assert_eq!(s.tails(), before.as_slice());
    }

    #[test]
    fn reconstruction_is_valid_and_optimal() {
        let mut state = 0x1234_5678u64;
        let input: Vec<u64> = (0..1_500).map(|_| xorshift(&mut state) % 2_000).collect();
        let mut s = StreamingLis::new(2_000).with_par_threshold(200);
        for chunk in input.chunks(170) {
            s.ingest(chunk);
        }
        let lis = s.reconstruct_lis();
        assert_eq!(lis.len() as u32, s.lis_length());
        assert!(lis.windows(2).all(|w| w[0] < w[1]));
        assert!(lis.windows(2).all(|w| input[w[0]] < input[w[1]]));
        // The flat-index walk matches the shared offline reconstruction on
        // the same prefix (bit-identical, not merely both-valid).
        assert_eq!(lis, plis_lis::lis_indices_from_ranks(s.values(), s.ranks(), s.lis_length()));
    }

    #[test]
    fn reserve_changes_capacity_not_outcomes() {
        let mut state = 0xCAFE_D00Du64;
        let input: Vec<u64> = (0..2_000).map(|_| xorshift(&mut state) % 5_000).collect();
        let mut plain = StreamingLis::new(5_000).with_par_threshold(150);
        let mut sized = StreamingLis::new(5_000).with_par_threshold(150);
        sized.reserve(input.len());
        for chunk in input.chunks(123) {
            assert_eq!(plain.ingest(chunk), sized.ingest(chunk));
        }
        assert_eq!(plain.ranks(), sized.ranks());
        assert_eq!(plain.tails(), sized.tails());
        assert_eq!(plain.reconstruct_lis(), sized.reconstruct_lis());
        sized.check_invariants();
        assert!(sized.arena_bytes() > 0, "arena accounting must see the staging buffers");
    }

    #[test]
    #[should_panic(expected = "outside session universe")]
    fn out_of_universe_value_panics() {
        let mut s = StreamingLis::new(16);
        s.ingest(&[16]);
    }

    #[test]
    fn rank_queries_match_the_rank_array() {
        let mut state = 0xFACEB00Cu64;
        let input: Vec<u64> = (0..2_500).map(|_| xorshift(&mut state) % 3_000).collect();
        let mut s = StreamingLis::new(3_000).with_par_threshold(150);
        for chunk in input.chunks(130) {
            s.ingest(chunk);
        }
        // count_at_rank against a scan of the rank array.
        for rank in 0..=s.lis_length() + 2 {
            let want = s.ranks().iter().filter(|&&r| r == rank).count();
            assert_eq!(s.count_at_rank(rank), want, "rank {rank}");
        }
        // frontier() lists exactly the rank-r indices, in order.
        for rank in 1..=s.lis_length() {
            let want: Vec<usize> = (0..s.len()).filter(|&i| s.ranks()[i] == rank).collect();
            assert_eq!(s.frontier(rank), want, "frontier {rank}");
        }
        assert!(s.frontier(0).is_empty());
        // top_k: descending rank, ties by ascending index, prefix-closed.
        let full = s.top_k(s.len() + 10);
        assert_eq!(full.len(), s.len());
        assert!(full.windows(2).all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        for &(idx, dp) in &full {
            assert_eq!(s.ranks()[idx] as u64, dp);
        }
        assert_eq!(s.top_k(7), full[..7]);
        assert_eq!(full[0].1, s.lis_length() as u64);
        s.check_invariants();
    }

    #[test]
    fn queries_on_an_empty_session_are_well_defined() {
        let s = StreamingLis::new(64);
        assert_eq!(s.count_at_rank(0), 0);
        assert_eq!(s.count_at_rank(1), 0);
        assert!(s.top_k(5).is_empty());
        assert!(s.reconstruct_lis().is_empty());
        assert!(s.frontier(1).is_empty());
        s.check_invariants();
    }
}
