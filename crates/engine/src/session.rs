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
//! A batch is ingested element by element, in arrival order: each element
//! binary-searches `tails` (`O(log k)`), takes `position + 1` as its rank,
//! and overwrites or appends one slot.  This is Seq-BS seeded with the
//! tails of the prefix, so a batch costs `O(m log k)` with one binary
//! search per element and no staging.  Sessions have no other ingest path:
//! rerunning Algorithm 1 over `tails ++ batch` is exact too, but the tails
//! form an increasing run, so it takes at least `k` rounds and never beat
//! this loop on a recorded benchmark cell (`DESIGN.md`, "Why sessions
//! ingest sequentially").  The oracle suites check every ingest against the
//! offline Algorithm 1 ([`plis_lis::lis_ranks_u64`]) on the whole prefix.
//!
//! # Memory discipline
//!
//! Steady-state ingestion is **allocation-free**: ingest stages nothing,
//! and every buffer it writes lives on the session itself (`values`,
//! `ranks`, `tails`, and the flat rank index replacing per-rank `Vec`s),
//! growing to a high-water mark and never freed.
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

use crate::rankindex::RankIndex;

/// What one [`StreamingLis::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Number of elements appended by this call.
    pub ingested: usize,
    /// LIS length of the stream before the batch.
    pub lis_before: u32,
    /// LIS length of the stream after the batch.
    pub lis_after: u32,
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
    universe: u64,
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
            universe,
        }
    }

    /// Pre-size every internal buffer for `additional` more elements, so a
    /// workload of known size never grows them mid-ingest.  Purely a
    /// capacity hint: state and outcomes are unaffected.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.ranks.reserve(additional);
        self.tails.reserve(additional);
        self.by_rank.reserve(additional, additional);
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

    /// Append `batch` to the stream and update all LIS state: seeded
    /// patience, one binary search over the tails per element.
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
        let lis_before = self.lis_length();
        let base = self.values.len();
        for (offset, &x) in batch.iter().enumerate() {
            let pos = self.tails.partition_point(|&t| t < x);
            self.ranks.push(pos as u32 + 1);
            self.by_rank.push(pos, (base + offset) as u32);
            if pos == self.tails.len() {
                self.tails.push(x);
            } else if x < self.tails[pos] {
                self.tails[pos] = x;
            }
        }
        self.values.extend_from_slice(batch);
        IngestReport { ingested: batch.len(), lis_before, lis_after: self.lis_length() }
    }

    /// Rough heap footprint of the session in bytes: the value/rank/tail
    /// arrays and the flat rank index.  Intended for occasional telemetry
    /// snapshots, not the hot path.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.values.capacity() * std::mem::size_of::<u64>()
            + self.ranks.capacity() * std::mem::size_of::<u32>()
            + self.tails.capacity() * std::mem::size_of::<u64>()
            + self.by_rank.approx_bytes()
    }

    /// Heap bytes held by the flat rank-index pool — the telemetry plane's
    /// "arena high-water" accounting.
    pub fn arena_bytes(&self) -> usize {
        self.by_rank.approx_bytes()
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
    fn reports_track_tail_churn() {
        let mut s = StreamingLis::new(1 << 10);
        let r = s.ingest(&[10, 20, 30]);
        assert_eq!(r.lis_after, 3);
        // 5 displaces 10; 15 displaces 20.
        let r = s.ingest(&[5, 15]);
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
        let mut s = StreamingLis::new(2_000);
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
        let mut plain = StreamingLis::new(5_000);
        let mut sized = StreamingLis::new(5_000);
        sized.reserve(input.len());
        for chunk in input.chunks(123) {
            assert_eq!(plain.ingest(chunk), sized.ingest(chunk));
        }
        assert_eq!(plain.ranks(), sized.ranks());
        assert_eq!(plain.tails(), sized.tails());
        assert_eq!(plain.reconstruct_lis(), sized.reconstruct_lis());
        sized.check_invariants();
        assert!(sized.arena_bytes() > 0, "arena accounting must see the rank-index pool");
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
        let mut s = StreamingLis::new(3_000);
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
