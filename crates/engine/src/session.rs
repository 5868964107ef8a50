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
//! `ranks` and `parent` per element, `tails` and the rank summaries per
//! rank), growing to a high-water mark and never freed.
//! [`StreamingLis::reserve`] pre-sizes everything for a known workload;
//! the `alloc_discipline` integration test pins the zero-allocation claim
//! with a counting global allocator.  See `DESIGN.md` ("Memory & allocation
//! discipline").
//!
//! # Queries
//!
//! Ranks are final on ingest, so the session can serve a live *query
//! plane* next to ingestion.  Next to each element's rank it keeps its
//! *parent*: the last element of rank `r - 1` before it, the back pointer
//! patience sorting draws to the top card of the previous pile.  Next to
//! each tail it keeps a rank summary: the rank's first and latest element
//! and its element count.  Ingest pays one more sequential push and `O(1)`
//! rank-indexed work per element, and the reads cost:
//!
//! * [`StreamingLis::count_at_rank`]: `O(1)`, the summary's count.
//! * [`StreamingLis::reconstruct_lis`]: `O(k)`.  It starts at the top
//!   rank's first element and follows parents.  Lemmas A.1/A.2 pick the
//!   last rank-`(r - 1)` element before the current one as its
//!   predecessor, which is exactly the parent, so this is the Appendix-A
//!   walk and stays bit-identical to [`plis_lis::lis_indices_from_ranks`].
//! * [`StreamingLis::top_k`]: the counts find the lowest rank `low` the
//!   answer reaches.  Every element of a higher rank comes after `low`'s
//!   first element, so one forward scan of `ranks` from there, stopped
//!   after `k` hits, collects the answer.  The scan cannot stop before it
//!   has passed every element of a rank above `low`, so it is not bounded
//!   by `k`: it costs `O(n - first(low))`, which is `O(n)` even for a small
//!   `k` when a high-rank element arrives last.
//! * [`StreamingLis::frontier`]: a scan of `ranks` between the rank's
//!   first and latest element.
//!
//! # Value-domain probes
//!
//! [`StreamingLis::tail_pred`], [`StreamingLis::tail_succ`] and
//! [`StreamingLis::lis_length_below`] binary-search `tails` itself
//! (`O(log k)`).  The session keeps no value-domain mirror of the tails:
//! Algorithm 1 and the patience tails need none (the paper's vEB tree
//! serves Algorithm 2's Range-vEB store).

/// `parent` of a rank-1 element, which has no predecessor.  No element
/// index reaches it: a session holds at most `u32::MAX` elements.
const NO_PARENT: u32 = u32::MAX;

/// Where one rank's elements sit in the stream, and how many there are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RankSummary {
    /// Index of the rank's first element.
    first: u32,
    /// Index of the rank's latest element.
    last: u32,
    /// Number of elements of the rank.
    count: u32,
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
}

/// Incremental LIS over an append-only stream.  See the module docs for
/// the algorithm; see [`crate::Engine`] for multiplexing many sessions.
#[derive(Debug, Clone)]
pub struct StreamingLis {
    /// Every ingested value, in arrival order.
    values: Vec<u64>,
    /// `ranks[i]` = dp value of `values[i]` (length of the LIS ending there).
    ranks: Vec<u32>,
    /// `parent[i]` = the last element of rank `ranks[i] - 1` before `i`
    /// (the step of the Appendix-A walk), or [`NO_PARENT`] at rank 1.
    parent: Vec<u32>,
    /// The patience tails: `tails[r]` = smallest value ending an increasing
    /// subsequence of length `r + 1`.  Strictly increasing.
    tails: Vec<u64>,
    /// `summaries[r]` describes the rank-`(r + 1)` elements; pushed
    /// whenever `tails` grows.
    summaries: Vec<RankSummary>,
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
            parent: Vec::new(),
            tails: Vec::new(),
            summaries: Vec::new(),
            universe,
        }
    }

    /// Pre-size every internal buffer for `additional` more elements, so a
    /// workload of known size never grows them mid-ingest.  Purely a
    /// capacity hint: state and outcomes are unaffected.  (Each element
    /// opens at most one new rank, so the per-rank arrays are covered too.)
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.ranks.reserve(additional);
        self.parent.reserve(additional);
        self.tails.reserve(additional);
        self.summaries.reserve(additional);
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

    /// The summary of rank `rank`, if that rank is populated.
    fn summary(&self, rank: u32) -> Option<&RankSummary> {
        self.summaries.get(rank.checked_sub(1)? as usize)
    }

    /// Number of ingested elements whose rank (dp value) is exactly
    /// `rank`.  `O(1)`: the rank summaries count on ingest.  Rank 0 and
    /// ranks above the current LIS length count zero elements.
    pub fn count_at_rank(&self, rank: u32) -> usize {
        self.summary(rank).map_or(0, |s| s.count as usize)
    }

    /// The indices of every rank-`rank` element, in increasing order —
    /// one frontier of the grouping Appendix A reconstructs from.  Scans
    /// `ranks` between the rank's first and latest element; allocates only
    /// the returned vector.
    pub fn frontier(&self, rank: u32) -> Vec<usize> {
        self.summary(rank).map_or_else(Vec::new, |s| {
            (s.first as usize..=s.last as usize).filter(|&i| self.ranks[i] == rank).collect()
        })
    }

    /// The `k` best elements by dp value: `(index, rank)` pairs ordered by
    /// descending rank, ties by ascending index.  The rank counts give the
    /// lowest rank `low` the answer reaches; one forward scan of `ranks`
    /// from `low`'s first element then stops after `k` hits.  Returns
    /// fewer than `k` pairs when the stream is shorter than `k`.
    ///
    /// Worst case `O(n - first(low))`, not `O(k)`: the `k`-th hit can be
    /// the last element of the stream.  On `[100, 0, 0, ..., 0, 200]`,
    /// `top_k(2)` fills its rank-1 slot at index 0 and then walks every
    /// `0` to reach the one rank-2 element.
    pub fn top_k(&self, k: usize) -> Vec<(usize, u64)> {
        let k = k.min(self.ranks.len());
        if k == 0 {
            return Vec::new();
        }
        // The answer lists the top rank's elements, then the next rank's,
        // and so on: `next[j]` is the output slot of the next hit of rank
        // `top - j`.  Walk down until the counts cover `k`; the last rank
        // reached, `low`, may be cut short.
        let top = self.summaries.len();
        let mut next = Vec::new();
        let mut covered = 0;
        while covered < k {
            next.push(covered);
            covered += self.summaries[top - next.len()].count as usize;
        }
        let low = top + 1 - next.len();
        let mut out = vec![(0, 0); k];
        let mut hits = 0;
        // Every element of a rank above `low` has a rank-`low` element
        // somewhere before it, so none comes before `low`'s first element.
        let start = self.summaries[low - 1].first as usize;
        for (&r, i) in self.ranks[start..].iter().zip(start..) {
            let r = r as usize;
            if r < low {
                continue;
            }
            let slot = &mut next[top - r];
            // Only rank `low` can run out of slots.
            if *slot < k {
                out[*slot] = (i, r as u64);
                *slot += 1;
                hits += 1;
                if hits == k {
                    break;
                }
            }
        }
        out
    }

    /// Indices (in arrival order) of one longest increasing subsequence of
    /// the whole stream: the top rank's first element and its chain of
    /// parents, `O(k)`.  This is the Appendix-A walk (see the module
    /// docs), so the answer is deterministic and bit-identical to the
    /// offline [`plis_lis::lis_indices_from_ranks`] on the same prefix.
    pub fn reconstruct_lis(&self) -> Vec<usize> {
        let Some(top) = self.summaries.last() else {
            return Vec::new();
        };
        let mut out = vec![0; self.summaries.len()];
        let mut current = top.first;
        for slot in out.iter_mut().rev() {
            *slot = current as usize;
            current = self.parent[*slot];
        }
        out
    }

    /// Append `batch` to the stream and update all LIS state: seeded
    /// patience, one binary search over the tails per element.
    ///
    /// # Panics
    /// Panics if any value is outside the session universe, or if the
    /// stream would exceed `u32::MAX` elements (the parents and rank
    /// summaries address elements with 32 bits).
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
        for (&x, i) in batch.iter().zip(base as u32..) {
            let pos = self.tails.partition_point(|&t| t < x);
            self.ranks.push(pos as u32 + 1);
            self.parent.push(pos.checked_sub(1).map_or(NO_PARENT, |p| self.summaries[p].last));
            if pos == self.tails.len() {
                self.tails.push(x);
                self.summaries.push(RankSummary { first: i, last: i, count: 1 });
            } else {
                // `x <= tails[pos]`; an equal `x` is still the rank's
                // latest element, which the next rank's parents point at.
                self.tails[pos] = x;
                let summary = &mut self.summaries[pos];
                summary.last = i;
                summary.count += 1;
            }
        }
        self.values.extend_from_slice(batch);
        IngestReport { ingested: batch.len(), lis_before, lis_after: self.lis_length() }
    }

    /// Rough heap footprint of the session in bytes: the per-element
    /// value, rank and parent arrays and the per-rank tails and summaries.
    /// Intended for occasional telemetry snapshots, not the hot path.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.values.capacity() * std::mem::size_of::<u64>()
            + self.ranks.capacity() * std::mem::size_of::<u32>()
            + self.parent.capacity() * std::mem::size_of::<u32>()
            + self.tails.capacity() * std::mem::size_of::<u64>()
            + self.summaries.capacity() * std::mem::size_of::<RankSummary>()
    }

    /// Cross-check every invariant; used by the test suites.  Recomputes
    /// every parent and rank summary from the rank array alone.
    pub fn check_invariants(&self) {
        assert_eq!(self.values.len(), self.ranks.len());
        assert_eq!(self.values.len(), self.parent.len());
        assert!(self.tails.windows(2).all(|w| w[0] < w[1]), "tails not strictly increasing");
        let mut summaries: Vec<RankSummary> = Vec::new();
        for (&rank, i) in self.ranks.iter().zip(0u32..) {
            let r = rank as usize;
            assert!((1..=summaries.len() + 1).contains(&r), "element {i} has rank {rank}");
            let parent = r.checked_sub(2).map_or(NO_PARENT, |p| summaries[p].last);
            assert_eq!(self.parent[i as usize], parent, "parent of element {i}");
            if parent != NO_PARENT {
                assert!(
                    self.values[parent as usize] < self.values[i as usize],
                    "parent of element {i} is not smaller"
                );
            }
            match summaries.get_mut(r - 1) {
                Some(s) => {
                    s.last = i;
                    s.count += 1;
                }
                None => summaries.push(RankSummary { first: i, last: i, count: 1 }),
            }
        }
        assert_eq!(self.summaries, summaries, "rank summaries out of sync");
        assert_eq!(self.tails.len(), summaries.len(), "one tail per rank");
        assert!(
            self.tails.iter().zip(&summaries).all(|(&t, s)| t == self.values[s.last as usize]),
            "each tail must be the value of its rank's latest element"
        );
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
        // The parent walk matches the shared offline reconstruction on the
        // same prefix (bit-identical, not merely both-valid).
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

    /// Streams that stress the rank summaries and parents: every element
    /// its own rank, one rank only, repeats of tail values, a top rank
    /// reached early and followed by a long low-rank tail, and `top_k`'s
    /// worst case, a lone rank-2 element after a long rank-1 run.
    fn shaped_streams() -> Vec<(&'static str, Vec<u64>)> {
        let mut state = 0x0DD5_EED5u64;
        vec![
            ("decreasing", (0..300).rev().collect()),
            ("constant", vec![7; 300]),
            ("increasing", (0..300).collect()),
            ("sawtooth", (0..300).map(|i| i % 17).collect()),
            ("duplicate-heavy", (0..300).map(|_| xorshift(&mut state) % 6).collect()),
            ("early top rank", (10..50).chain((0..260).map(|i| i % 3)).collect()),
            ("late top rank", [100].into_iter().chain([0; 298]).chain([200]).collect()),
        ]
    }

    #[test]
    fn summary_reads_match_the_rank_array() {
        for (name, input) in shaped_streams() {
            for batch in [1, 7, input.len()] {
                let mut s = StreamingLis::new(1_000);
                for chunk in input.chunks(batch) {
                    s.ingest(chunk);
                }
                s.check_invariants();
                let label = format!("{name}, batches of {batch}");
                let mut want: Vec<(usize, u64)> =
                    s.ranks().iter().enumerate().map(|(i, &r)| (i, r as u64)).collect();
                want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                for k in 0..=s.len() + 1 {
                    assert_eq!(s.top_k(k), want[..k.min(s.len())], "{label}: top {k}");
                }
                assert_eq!(
                    s.reconstruct_lis(),
                    plis_lis::lis_indices_from_ranks(s.values(), s.ranks(), s.lis_length()),
                    "{label}: certificate"
                );
                for rank in 0..=s.lis_length() + 1 {
                    let frontier: Vec<usize> =
                        (0..s.len()).filter(|&i| s.ranks()[i] == rank).collect();
                    assert_eq!(s.count_at_rank(rank), frontier.len(), "{label}: count {rank}");
                    assert_eq!(s.frontier(rank), frontier, "{label}: frontier {rank}");
                }
            }
        }
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
