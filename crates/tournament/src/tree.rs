//! The tournament tree itself (Algorithm 1's `T` array, `PrefixMin`, and
//! `ProcessFrontier`).

use plis_primitives::par::{maybe_join, GRAIN};

/// Fork gate for the per-round frontier traversal, deliberately coarser
/// than the build-time [`GRAIN`].  `PrefixMin` runs once per rank round —
/// `k` times over the same tree — so a tree just above `GRAIN` leaves
/// would pay one fork per round for subtrees whose sequential walk costs a
/// few microseconds.  The gate was sized when every fork spawned a scoped
/// OS thread (tens of microseconds); a fork on the work-stealing pool is a
/// task push, and the value is kept until a measured retune.  The one-shot
/// `build` keeps the finer grain: it forks `O(n / GRAIN)` times total, not
/// per round.
const ROUND_GRAIN: usize = 4 * GRAIN;

/// Statistics reported by one frontier extraction, used by the work-bound
/// validation experiment (Theorem 3.2) and by the LIS driver to know when to
/// stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontierStats {
    /// Number of leaves extracted in this round (`m_r = |F_r|`).
    pub frontier_size: usize,
    /// Number of tree nodes visited by the traversal (relevant nodes plus
    /// their skipped children); Theorem 3.1 bounds this by
    /// `O(m_r · log(n / m_r))`.
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
    /// Contiguous-subtree layout, `2n − 1` slots (see crate docs).
    tree: Vec<T>,
    /// Number of leaves (original input length).
    n: usize,
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
        if n == 0 {
            return Self { tree: Vec::new(), n, inf, remaining: 0 };
        }
        let mut tree = vec![inf; 2 * n - 1];
        build(&mut tree, values);
        Self { tree, n, inf, remaining: n }
    }

    /// Number of objects the tree was built over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the tree was built over an empty sequence *or* every object
    /// has been removed (`T[1] = +∞` in the paper's notation).
    pub fn is_empty(&self) -> bool {
        self.n == 0 || self.tree[0] == self.inf
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
        assert!(i < self.n, "leaf index out of range");
        leaf_value(&self.tree, i)
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
        assert_eq!(rank.len(), self.n, "rank array length mismatch");
        if self.is_empty() {
            return FrontierStats::default();
        }
        let inf = self.inf;
        let mut out = NoCollect;
        let stats = prefix_min(&mut self.tree, rank, self.n, inf, round, inf, &mut out);
        self.remaining -= stats.frontier_size;
        stats
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
        assert_eq!(rank.len(), self.n, "rank array length mismatch");
        if self.is_empty() {
            return (FrontierStats::default(), Vec::new());
        }
        let inf = self.inf;
        let mut out = Collect(Vec::new());
        let stats = prefix_min(&mut self.tree, rank, self.n, inf, round, inf, &mut out);
        self.remaining -= stats.frontier_size;
        (stats, out.0)
    }

    /// Extract every frontier until the tree is empty, returning all ranks
    /// and the number of rounds (= the LIS length).  This is the main loop of
    /// Algorithm 1 packaged as a convenience; the `plis-lis` crate wraps it
    /// with input preprocessing.
    pub fn extract_all_ranks(mut self) -> (Vec<u32>, u32) {
        let mut rank = vec![0u32; self.n];
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

/// Build the contiguous-layout tree over `values`; `tree.len() == 2·values.len() − 1`.
fn build<T: Ord + Copy + Send + Sync>(tree: &mut [T], values: &[T]) {
    let m = values.len();
    debug_assert_eq!(tree.len(), 2 * m - 1);
    if m == 1 {
        tree[0] = values[0];
        return;
    }
    let half = m.div_ceil(2);
    let (root, rest) = tree.split_first_mut().expect("non-empty tree");
    let (left, right) = rest.split_at_mut(2 * half - 1);
    let ((), ()) =
        maybe_join(m, GRAIN, || build(left, &values[..half]), || build(right, &values[half..]));
    *root = left[0].min(right[0]);
}

/// Read the current value of original leaf `i` by walking down the layout.
fn leaf_value<T: Copy>(tree: &[T], mut i: usize) -> T {
    let mut m = tree.len().div_ceil(2);
    let mut off = 0usize;
    loop {
        if m == 1 {
            return tree[off];
        }
        let half = m.div_ceil(2);
        if i < half {
            off += 1;
            m = half;
        } else {
            off += 2 * half; // skip root (1) + left subtree (2·half − 1)
            i -= half;
            m -= half;
        }
    }
}

/// `PrefixMin` (Alg. 1 lines 12–21) over the contiguous layout.
///
/// `tree` is the subtree slice (2m−1 slots), `rank` the matching slice of the
/// rank array (m slots), `base` the original index of the first leaf in this
/// subtree... — actually the original index is recovered from the rank-slice
/// offset, so we pass `base` explicitly.  Returns the visit statistics.
#[allow(clippy::too_many_arguments)]
fn prefix_min<T, S>(
    tree: &mut [T],
    rank: &mut [u32],
    base_len: usize,
    inf: T,
    round: u32,
    lmin: T,
    out: &mut S,
) -> FrontierStats
where
    T: Ord + Copy + Send + Sync,
    S: Sink,
{
    // The recursion below threads the original index through the slice
    // offsets, so wrap the real worker with base = 0.
    debug_assert_eq!(rank.len(), base_len);
    go(tree, rank, 0, inf, round, lmin, out)
}

fn go<T, S>(
    tree: &mut [T],
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
    let m = rank.len();
    debug_assert_eq!(tree.len(), 2 * m - 1);
    // Line 13: if the subtree minimum exceeds LMin, nothing here can be a
    // prefix-min object; skip the subtree (still counts as one visited node).
    // A subtree whose minimum is the +∞ sentinel is empty (all removed) and
    // is skipped as well — this covers the corner case LMin = +∞ where the
    // paper's `>` comparison alone would revisit removed leaves.
    if tree[0] > lmin || tree[0] == inf {
        return FrontierStats { frontier_size: 0, nodes_visited: 1 };
    }
    if m == 1 {
        // Lines 14–16: a leaf that passed the check is a prefix-min object.
        rank[0] = round;
        tree[0] = inf;
        out.push(base);
        return FrontierStats { frontier_size: 1, nodes_visited: 1 };
    }
    let half = m.div_ceil(2);
    let (root, rest) = tree.split_first_mut().expect("internal node");
    let (left, right) = rest.split_at_mut(2 * half - 1);
    let (rank_l, rank_r) = rank.split_at_mut(half);
    // Line 20: the right child's LMin additionally accounts for the minimum
    // of the left subtree *before* this round's removals.
    let left_min_before = left[0];
    let rmin = lmin.min(left_min_before);

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
    let fork_size = if left_pruned || right_pruned { 0 } else { m };
    let (stats_l, stats_r) = maybe_join(
        fork_size,
        ROUND_GRAIN,
        || go(left, rank_l, base, inf, round, lmin, &mut out_l),
        || go(right, rank_r, base + half, inf, round, rmin, &mut out_r),
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
    }

    #[test]
    fn collect_returns_sorted_indices_with_nonincreasing_values() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let a: Vec<u64> = (0..5000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 10_000
            })
            .collect();
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
