//! Parallel tournament trees.
//!
//! Section 3 of "Parallel Longest Increasing Subsequence and van Emde Boas
//! Trees" (SPAA 2023) drives its work-efficient LIS algorithm with a
//! *tournament tree*: a complete binary tree whose leaves hold the input
//! objects and whose internal nodes hold the minimum of their subtree.  In
//! every round the algorithm extracts the current *prefix-min objects*
//! (Definition 3.1) — the objects that are no larger than everything before
//! them — assigns them the current round number as their rank, removes them,
//! and repeats.  Theorem 3.1 bounds the number of tree nodes touched when a
//! frontier of `m` leaves is extracted by `O(m log(n/m))`, which is what
//! makes the whole LIS algorithm `O(n log k)` work.
//!
//! # Layout
//!
//! The `n` objects sit in one flat array in input order, and the min-tree is
//! built over *blocks* of `BLOCK` = 32 consecutive objects (the last block
//! may be short).  Instead of the paper's power-of-two heap layout (`T[2i]`,
//! `T[2i+1]`), the min-tree stores every subtree *contiguously*: a subtree
//! over `m` blocks occupies exactly `2m − 1` consecutive slots, with the
//! root first, the left subtree (over the first `⌈m/2⌉` blocks) next, and
//! the right subtree after it.  Three things follow:
//!
//! * no padding to a power of two is needed (the tree has exactly
//!   `2·⌈n / BLOCK⌉ − 1` nodes for any `n`);
//! * the recursion of `PrefixMin` can split the tree slice, the object
//!   slice and the rank slice with `split_at_mut` and hand disjoint halves
//!   to [`rayon::join`], so the whole traversal is safe Rust with no atomics
//!   and no `unsafe`; and
//! * `PrefixMin` stops at each block it reaches and takes the block's
//!   prefix-min objects with one linear scan against `LMin`, instead of
//!   descending `log2 BLOCK` more levels of nodes one leaf at a time.
//!
//! A block is reached only if its minimum is at most `LMin`, and then its
//! first minimum is a prefix-min object, so every scan pays for itself with
//! an extraction.  The scans add `O(n · BLOCK)` = `O(n)` work over a whole
//! run, and the `O(n log k)` work bound of Theorem 3.2 is unchanged.
//!
//! # Counters
//!
//! Every extraction reports its work as the number of tree nodes it visited
//! plus the number of object slots it scanned in the blocks it reached
//! ([`FrontierStats::nodes_visited`]), so the count stays an upper bound on
//! the traversal's work.  The benchmark harness uses it to validate the
//! `O(n log k)` work bound of Theorem 3.2 empirically (experiment E7 in
//! `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use plis_tournament::TournamentTree;
//!
//! // The running example of Figure 3 in the paper.
//! let input = [52u64, 31, 45, 26, 61, 10, 39, 44];
//! let mut tree = TournamentTree::new(&input, u64::MAX);
//! let mut rank = vec![0u32; input.len()];
//!
//! let mut round = 0;
//! while !tree.is_empty() {
//!     round += 1;
//!     tree.process_frontier(round, &mut rank);
//! }
//! assert_eq!(rank, vec![1, 1, 2, 1, 3, 1, 2, 3]);
//! assert_eq!(round, 3); // the LIS length
//! ```

mod tree;

pub use tree::{FrontierStats, TournamentTree};
