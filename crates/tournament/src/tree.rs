//! The tournament tree itself (Algorithm 1's `T` array, `PrefixMin`, and
//! `ProcessFrontier`).

use plis_primitives::par::{maybe_join, GRAIN};

/// Leaves per block: the min-tree stops at blocks of this many consecutive
/// leaves, and `PrefixMin` takes a block's prefix-min objects with one
/// linear scan.  Every block the traversal reaches yields at least one
/// extraction, so the scans add `O(n · BLOCK)` = `O(n)` work over a whole
/// run.  Sized by a sweep of 16, 32 and 64 on the benchmark's Algorithm 1
/// jobs (DESIGN.md, "Offline tree layouts").
const BLOCK: usize = 32;

/// Fork gate for the per-round frontier traversal, in leaves, deliberately
/// coarser than the build-time [`GRAIN`].  `PrefixMin` runs once per rank
/// round — `k` times over the same tree — so a fork must buy more than the
/// few microseconds a small subtree's sequential walk costs.  Re-measured
/// on the work-stealing pool with the blocked leaves (DESIGN.md, "Offline
/// tree layouts").  The one-shot `build` keeps the finer grain: it forks
/// `O(n / GRAIN)` times total, not per round.
const ROUND_GRAIN: usize = 4 * GRAIN;

/// Statistics reported by one frontier extraction, used by the work-bound
/// validation experiment (Theorem 3.2) and by the LIS driver to know when to
/// stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontierStats {
    /// Number of leaves extracted in this round (`m_r = |F_r|`).
    pub frontier_size: usize,
    /// Work of the traversal: every tree node it visited (relevant nodes
    /// plus their skipped children) plus every leaf slot it scanned in the
    /// blocks it reached.  Each reached block yields an extraction, so this
    /// stays within `O(m_r · (log(n / m_r) + BLOCK))` and remains an upper
    /// bound on the round's work.
    pub nodes_visited: usize,
}

/// A min-tournament tree over a fixed sequence of `n` objects supporting
/// parallel extraction of all current prefix-min objects (one *frontier* of
/// the phase-parallel LIS algorithm) per call.
///
/// The type parameter `T` is the object type; `inf` is a caller-supplied
/// sentinel strictly greater than every real object (the paper's `+∞`),
/// which marks removed leaves and empty subtrees.
#[derive(Debug, Clone)]
pub struct TournamentTree<T> {
    /// The `n` objects in input order; a removed object holds `inf`.
    leaves: Vec<T>,
    /// Min-tree over the blocks of [`BLOCK`] consecutive leaves, in the
    /// contiguous-subtree layout (`2·⌈n / BLOCK⌉ − 1` slots, see crate docs).
    tree: Vec<T>,
    /// The `+∞` sentinel.
    inf: T,
    /// Number of leaves not yet removed.
    remaining: usize,
}

impl<T: Ord + Copy + Send + Sync> TournamentTree<T> {
    /// Build the tree from `values` in `O(n)` work and `O(log n)` span.
    ///
    /// # Panics
    /// Panics if any value is `>= inf`.
    pub fn new(values: &[T], inf: T) -> Self {
        assert!(
            values.iter().all(|v| *v < inf),
            "every value must be strictly smaller than the +infinity sentinel"
        );
        let n = values.len();
        let mut tree = vec![inf; (2 * n.div_ceil(BLOCK)).saturating_sub(1)];
        if n > 0 {
            build(&mut tree, values);
        }
        Self { leaves: values.to_vec(), tree, inf, remaining: n }
    }

    /// Number of objects the tree was built over.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the tree was built over an empty sequence *or* every object
    /// has been removed (`T[1] = +∞` in the paper's notation).
    pub fn is_empty(&self) -> bool {
        self.tree.first().is_none_or(|&min| min == self.inf)
    }

    /// Number of objects not yet extracted.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The minimum value still present, or `None` if the tree is empty.
    pub fn min(&self) -> Option<T> {
        if self.is_empty() {
            None
        } else {
            Some(self.tree[0])
        }
    }

    /// The current value stored at leaf `i` (the original object, or the
    /// sentinel if it has been removed).
    pub fn leaf(&self, i: usize) -> T {
        assert!(i < self.leaves.len(), "leaf index out of range");
        self.leaves[i]
    }

    /// `ProcessFrontier` (Alg. 1 lines 10–11): find every current prefix-min
    /// object, write `round` into `rank` at its original index, and remove it
    /// from the tree.  Returns the extraction statistics.
    ///
    /// Work `O(m log(n/m))` where `m` is the frontier size; span `O(log n)`.
    ///
    /// # Panics
    /// Panics if `rank.len()` differs from the input length.
    pub fn process_frontier(&mut self, round: u32, rank: &mut [u32]) -> FrontierStats {
        self.extract(round, rank, &mut NoCollect)
    }

    /// Like [`process_frontier`](Self::process_frontier) but also returns the
    /// extracted frontier as the original indices in increasing order
    /// (Appendix A uses this to reconstruct an actual LIS).  The values at
    /// those indices are non-increasing (Lemma A.2).
    pub fn process_frontier_collect(
        &mut self,
        round: u32,
        rank: &mut [u32],
    ) -> (FrontierStats, Vec<usize>) {
        let mut out = Collect(Vec::new());
        let stats = self.extract(round, rank, &mut out);
        (stats, out.0)
    }

    fn extract<S: Sink>(&mut self, round: u32, rank: &mut [u32], out: &mut S) -> FrontierStats {
        assert_eq!(rank.len(), self.leaves.len(), "rank array length mismatch");
        if self.is_empty() {
            return FrontierStats::default();
        }
        let inf = self.inf;
        let stats = prefix_min(&mut self.tree, &mut self.leaves, rank, 0, inf, round, inf, out);
        self.remaining -= stats.frontier_size;
        stats
    }

    /// Extract every frontier until the tree is empty, returning all ranks
    /// and the number of rounds (= the LIS length).  This is the main loop of
    /// Algorithm 1 packaged as a convenience; the `plis-lis` crate wraps it
    /// with input preprocessing.
    pub fn extract_all_ranks(mut self) -> (Vec<u32>, u32) {
        let mut rank = vec![0u32; self.leaves.len()];
        let mut round = 0u32;
        while !self.is_empty() {
            round += 1;
            self.process_frontier(round, &mut rank);
        }
        (rank, round)
    }
}

/// Frontier sink: either discard the extracted indices or collect them.
/// Collecting appends the right child's results after the left child's, so
/// indices come out in increasing original order.
trait Sink: Send {
    fn push(&mut self, idx: usize);
    fn split(&self) -> Self
    where
        Self: Sized;
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;
}

struct NoCollect;
impl Sink for NoCollect {
    fn push(&mut self, _idx: usize) {}
    fn split(&self) -> Self {
        NoCollect
    }
    fn absorb(&mut self, _other: Self) {}
}

struct Collect(Vec<usize>);
impl Sink for Collect {
    fn push(&mut self, idx: usize) {
        self.0.push(idx);
    }
    fn split(&self) -> Self {
        Collect(Vec::new())
    }
    fn absorb(&mut self, mut other: Self) {
        if self.0.is_empty() {
            self.0 = std::mem::take(&mut other.0);
        } else {
            self.0.append(&mut other.0);
        }
    }
}

/// Build the min-tree over the blocks of `leaves`; `tree.len()` is
/// `2·⌈leaves.len() / BLOCK⌉ − 1`.  The left subtree takes the first
/// `⌈m/2⌉` of the subtree's `m` blocks, which are all full, so only the
/// last block of the whole tree can be short.
fn build<T: Ord + Copy + Send + Sync>(tree: &mut [T], leaves: &[T]) {
    if tree.len() == 1 {
        tree[0] = *leaves.iter().min().expect("a block holds at least one leaf");
        return;
    }
    let half = tree.len().div_ceil(2).div_ceil(2);
    let (root, rest) = tree.split_first_mut().expect("non-empty tree");
    let (left, right) = rest.split_at_mut(2 * half - 1);
    let (leaves_l, leaves_r) = leaves.split_at(half * BLOCK);
    maybe_join(leaves.len(), GRAIN, || build(left, leaves_l), || build(right, leaves_r));
    *root = left[0].min(right[0]);
}

/// `PrefixMin` (Alg. 1 lines 12–21) over the blocked layout.
///
/// `tree` is the subtree's slice of the min-tree, `leaves` and `rank` the
/// matching slices of the leaf and rank arrays, and `base` the original
/// index of `leaves[0]`.  `lmin` is the minimum of every object before the
/// subtree, taken before this round's removals.
#[allow(clippy::too_many_arguments)]
fn prefix_min<T, S>(
    tree: &mut [T],
    leaves: &mut [T],
    rank: &mut [u32],
    base: usize,
    inf: T,
    round: u32,
    lmin: T,
    out: &mut S,
) -> FrontierStats
where
    T: Ord + Copy + Send + Sync,
    S: Sink,
{
    // Line 13: if the subtree minimum exceeds LMin, nothing here can be a
    // prefix-min object; skip the subtree (still counts as one visited node).
    // A subtree whose minimum is the +∞ sentinel is empty (all removed) and
    // is skipped as well — this covers the corner case LMin = +∞ where the
    // paper's `>` comparison alone would revisit removed leaves.
    if tree[0] > lmin || tree[0] == inf {
        return FrontierStats { frontier_size: 0, nodes_visited: 1 };
    }
    if tree.len() == 1 {
        // Lines 14–16 for every leaf of the block, in order: a leaf no
        // larger than LMin and every earlier leaf of the block is a
        // prefix-min object.  Only an extraction can lower that running
        // minimum, since a kept leaf is larger than it.
        let mut cur = lmin;
        let mut kept_min = inf;
        let mut extracted = 0;
        for (i, (leaf, r)) in leaves.iter_mut().zip(rank.iter_mut()).enumerate() {
            let v = *leaf;
            if v <= cur && v != inf {
                cur = v;
                *r = round;
                *leaf = inf;
                out.push(base + i);
                extracted += 1;
            } else {
                kept_min = kept_min.min(v);
            }
        }
        // Line 21 for the block.
        tree[0] = kept_min;
        return FrontierStats { frontier_size: extracted, nodes_visited: 1 + leaves.len() };
    }
    let half = tree.len().div_ceil(2).div_ceil(2);
    let size = leaves.len();
    let (root, rest) = tree.split_first_mut().expect("internal node");
    let (left, right) = rest.split_at_mut(2 * half - 1);
    let (leaves_l, leaves_r) = leaves.split_at_mut(half * BLOCK);
    let (rank_l, rank_r) = rank.split_at_mut(half * BLOCK);
    // Line 20: the right child's LMin additionally accounts for the minimum
    // of the left subtree *before* this round's removals.
    let rmin = lmin.min(left[0]);

    let mut out_l = out.split();
    let mut out_r = out.split();
    // Fork only when a fork can pay off: the subtree is above the grain size
    // *and* both children will actually be descended into.  When the frontier
    // is sparse most relevant nodes have a single relevant child (the
    // traversal degenerates to a path), and forking for a child that is
    // immediately pruned would just burn scheduler overhead — this matters for
    // large-k inputs where Algorithm 1 runs thousands of tiny rounds.
    let left_pruned = left[0] > lmin || left[0] == inf;
    let right_pruned = right[0] > rmin || right[0] == inf;
    let fork_size = if left_pruned || right_pruned { 0 } else { size };
    let (stats_l, stats_r) = maybe_join(
        fork_size,
        ROUND_GRAIN,
        || prefix_min(left, leaves_l, rank_l, base, inf, round, lmin, &mut out_l),
        || prefix_min(right, leaves_r, rank_r, base + half * BLOCK, inf, round, rmin, &mut out_r),
    );
    out.absorb(out_l);
    out.absorb(out_r);
    // Line 21: refresh the subtree minimum after removals.
    *root = left[0].min(right[0]);
    FrontierStats {
        frontier_size: stats_l.frontier_size + stats_r.frontier_size,
        nodes_visited: 1 + stats_l.nodes_visited + stats_r.nodes_visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force one phase-parallel round: ranks via repeated prefix-min
    /// removal, used as the oracle.
    fn oracle_ranks(a: &[u64]) -> Vec<u32> {
        let mut rank = vec![0u32; a.len()];
        let mut removed = vec![false; a.len()];
        let mut round = 0;
        while removed.iter().any(|r| !r) {
            round += 1;
            let mut cur_min = u64::MAX;
            let mut this_round = Vec::new();
            for i in 0..a.len() {
                if removed[i] {
                    continue;
                }
                if a[i] <= cur_min {
                    this_round.push(i);
                }
                cur_min = cur_min.min(a[i]);
            }
            for i in this_round {
                rank[i] = round;
                removed[i] = true;
            }
        }
        rank
    }

    #[test]
    fn paper_running_example() {
        // Figure 3 of the paper.
        let input = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let tree = TournamentTree::new(&input, u64::MAX);
        let (rank, rounds) = tree.extract_all_ranks();
        assert_eq!(rank, vec![1, 1, 2, 1, 3, 1, 2, 3]);
        assert_eq!(rounds, 3);
    }

    #[test]
    fn empty_input() {
        let tree: TournamentTree<u64> = TournamentTree::new(&[], u64::MAX);
        assert!(tree.is_empty());
        let (rank, rounds) = tree.extract_all_ranks();
        assert!(rank.is_empty());
        assert_eq!(rounds, 0);
    }

    #[test]
    fn single_element() {
        let tree = TournamentTree::new(&[7u64], u64::MAX);
        let (rank, rounds) = tree.extract_all_ranks();
        assert_eq!(rank, vec![1]);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn strictly_increasing_takes_n_rounds() {
        let a: Vec<u64> = (1..=50).collect();
        let tree = TournamentTree::new(&a, u64::MAX);
        let (rank, rounds) = tree.extract_all_ranks();
        assert_eq!(rounds, 50);
        assert_eq!(rank, (1..=50u32).collect::<Vec<_>>());
    }

    #[test]
    fn strictly_decreasing_takes_one_round() {
        let a: Vec<u64> = (1..=1000).rev().collect();
        let tree = TournamentTree::new(&a, u64::MAX);
        let mut rank = vec![0u32; a.len()];
        let mut tree = tree;
        let stats = tree.process_frontier(1, &mut rank);
        assert_eq!(stats.frontier_size, 1000);
        // The round reaches every node and scans every leaf slot.
        assert_eq!(stats.nodes_visited, 2 * 1000usize.div_ceil(BLOCK) - 1 + 1000);
        assert!(tree.is_empty());
        assert!(rank.iter().all(|&r| r == 1));
    }

    #[test]
    fn duplicates_share_rank_one_when_non_increasing() {
        // Equal elements: A_i <= A_j counts as prefix-min, so equal runs all
        // get rank 1 in a constant sequence.
        let a = vec![5u64; 64];
        let tree = TournamentTree::new(&a, u64::MAX);
        let (rank, rounds) = tree.extract_all_ranks();
        assert_eq!(rounds, 1);
        assert!(rank.iter().all(|&r| r == 1));
    }

    /// `n` pseudo-random values below `range` from an LCG seeded by `seed`.
    fn lcg_values(n: usize, range: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 24) % range
            })
            .collect()
    }

    /// Lengths on both sides of every block boundary the layout has: one
    /// short block, exactly one block, one leaf into the second and third
    /// blocks, and a few thousand leaves a leaf short of / past a block.
    const BLOCK_EDGE_SIZES: [usize; 7] =
        [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 100 * BLOCK - 1, 100 * BLOCK + 1];

    #[test]
    fn ranks_match_oracle_on_random_inputs() {
        let mut state = 0x243F6A8885A308D3u64;
        for trial in 0..20 {
            let n = 1 + (trial * 137) % 3000;
            let a: Vec<u64> = (0..n)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    state >> 40
                })
                .collect();
            let tree = TournamentTree::new(&a, u64::MAX);
            let (rank, _rounds) = tree.extract_all_ranks();
            assert_eq!(rank, oracle_ranks(&a), "mismatch on trial {trial} (n={n})");
        }
        // Block-edge lengths, with wide values and with many duplicates.
        for n in BLOCK_EDGE_SIZES {
            for range in [1u64 << 40, 16] {
                let a = lcg_values(n, range, n as u64 ^ range);
                let (rank, _rounds) = TournamentTree::new(&a, u64::MAX).extract_all_ranks();
                assert_eq!(rank, oracle_ranks(&a), "mismatch at n={n}, values below {range}");
            }
        }
    }

    #[test]
    fn collect_returns_sorted_indices_with_nonincreasing_values() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let xorshift: Vec<u64> = (0..5000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 10_000
            })
            .collect();
        let inputs = std::iter::once(xorshift)
            .chain(BLOCK_EDGE_SIZES.iter().map(|&n| lcg_values(n, 1_000, 0xC011EC7 + n as u64)));
        for a in inputs {
            let mut tree = TournamentTree::new(&a, u64::MAX);
            let mut rank = vec![0u32; a.len()];
            let mut round = 0;
            let mut total = 0usize;
            while !tree.is_empty() {
                round += 1;
                let (stats, frontier) = tree.process_frontier_collect(round, &mut rank);
                assert_eq!(stats.frontier_size, frontier.len());
                total += frontier.len();
                // Indices strictly increasing.
                assert!(frontier.windows(2).all(|w| w[0] < w[1]));
                // Lemma A.2: values along a frontier are non-increasing.
                assert!(frontier.windows(2).all(|w| a[w[0]] >= a[w[1]]));
                // All extracted objects carry this round's rank.
                assert!(frontier.iter().all(|&i| rank[i] == round));
            }
            assert_eq!(total, a.len());
            assert_eq!(rank, oracle_ranks(&a), "n = {}", a.len());
        }
    }

    #[test]
    fn one_and_two_thread_pools_agree() {
        // Large enough, with few enough distinct values, that every
        // frontier spans both children of subtrees above ROUND_GRAIN
        // leaves, so the 2-thread pool really forks.
        let n = 6 * ROUND_GRAIN + BLOCK / 2;
        let a = lcg_values(n, 64, 0x7A0);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut tree = TournamentTree::new(&a, u64::MAX);
                let mut rank = vec![0u32; n];
                let mut rounds = Vec::new();
                while !tree.is_empty() {
                    let round = rounds.len() as u32 + 1;
                    rounds.push(tree.process_frontier_collect(round, &mut rank));
                }
                (rank, rounds)
            })
        };
        let (rank1, rounds1) = run(1);
        let (rank2, rounds2) = run(2);
        assert_eq!(rank1, oracle_ranks(&a));
        assert_eq!(rank1, rank2);
        assert_eq!(rounds1, rounds2, "per-round stats and frontiers differ across pools");
    }

    #[test]
    fn leaf_accessor_reflects_removals() {
        let a = [9u64, 2, 7, 4];
        let mut tree = TournamentTree::new(&a, u64::MAX);
        for (i, &v) in a.iter().enumerate() {
            assert_eq!(tree.leaf(i), v);
        }
        let mut rank = vec![0u32; 4];
        tree.process_frontier(1, &mut rank);
        // Prefix-min objects of [9,2,7,4] are 9 and 2.
        assert_eq!(tree.leaf(0), u64::MAX);
        assert_eq!(tree.leaf(1), u64::MAX);
        assert_eq!(tree.leaf(2), 7);
        assert_eq!(tree.leaf(3), 4);
        assert_eq!(tree.remaining(), 2);
        assert_eq!(tree.min(), Some(4));
    }

    #[test]
    fn nodes_visited_is_positive_and_bounded_by_tree_size() {
        let a: Vec<u64> = (0..10_000u64).map(|i| (i * 48271) % 65_536).collect();
        let mut tree = TournamentTree::new(&a, u64::MAX);
        let mut rank = vec![0u32; a.len()];
        let stats = tree.process_frontier(1, &mut rank);
        assert!(stats.nodes_visited >= stats.frontier_size);
        assert!(stats.nodes_visited < 2 * a.len());
    }

    #[test]
    #[should_panic(expected = "strictly smaller than the +infinity sentinel")]
    fn sentinel_collision_is_rejected() {
        TournamentTree::new(&[1u64, u64::MAX], u64::MAX);
    }

    #[test]
    #[should_panic(expected = "rank array length mismatch")]
    fn rank_length_mismatch_is_rejected() {
        let mut tree = TournamentTree::new(&[1u64, 2], u64::MAX);
        let mut rank = vec![0u32; 1];
        tree.process_frontier(1, &mut rank);
    }

    #[test]
    fn work_bound_scales_like_n_log_k() {
        // Theorem 3.2 sanity check: for a sequence with small LIS length k,
        // total visited nodes should be far below n log2(n).
        let n: usize = 1 << 14;
        let k = 4usize;
        // k descending blocks => LIS length k.
        let a: Vec<u64> = (0..n)
            .map(|i| {
                let block = i / (n / k);
                (block as u64) * 1_000_000 + (n as u64 - i as u64)
            })
            .collect();
        let mut tree = TournamentTree::new(&a, u64::MAX);
        let mut rank = vec![0u32; n];
        let mut visited = 0usize;
        let mut round = 0;
        while !tree.is_empty() {
            round += 1;
            visited += tree.process_frontier(round, &mut rank).nodes_visited;
        }
        assert_eq!(round as usize, k);
        let n_log_n = n * (usize::BITS - n.leading_zeros()) as usize;
        assert!(
            visited < n_log_n,
            "visited {visited} should be well below n·log n = {n_log_n} for k = {k}"
        );
    }
}
