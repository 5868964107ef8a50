//! Sequential and parallel van Emde Boas (vEB) trees.
//!
//! This crate reproduces Section 5 of "Parallel Longest Increasing
//! Subsequence and van Emde Boas Trees" (SPAA 2023): the first parallel
//! version of the vEB tree.  It provides
//!
//! * the classic **sequential vEB tree** over an integer universe `[0, U)`
//!   with `O(log log U)` insertion, deletion, lookup, min/max, predecessor
//!   and successor ([`VebTree`]),
//! * **parallel batch insertion** of a sorted batch (Algorithm 4,
//!   Theorem 5.1: `O(m log log U)` work),
//! * **parallel batch deletion** (Algorithm 5, Theorem 5.2:
//!   `O(m log log U)` work).  Both run bottom-up: a node updates its
//!   clusters first and then repairs its `min`/`max` from them, so
//!   deletion needs none of the paper's survivor mappings and neither
//!   operation filters the batch against the tree first (see the `batch`
//!   module),
//! * a **parallel range query** that reports all keys in `[lo, hi]`: each
//!   call walks `Succ` through up to `GRAIN` keys and divides only the rest
//!   of its range over the key space (Algorithm 6, Theorem C.1), and
//! * the **Mono-vEB tree** ([`MonoVeb`]) — a vEB tree that maintains a
//!   *staircase* of `(key, score)` points (scores strictly increase with the
//!   key) — together with the `CoveredBy` operation (Algorithm 7,
//!   Theorem D.1) used by the Range-vEB structure of Section 4.2.
//!
//! # Representation
//!
//! Keys are `u64` values in `[0, U)` where `U` is rounded up to a power of
//! two.  A node whose universe has at most [`LEAF_BITS`] bits is a bitset
//! leaf (a single `u64`), which shortens the recursion by two levels and
//! avoids allocating tiny nodes.  Larger nodes follow the textbook layout:
//! `min` and `max` are stored in the node and *not* in any cluster (the
//! convention the paper's batch algorithms rely on), the high halves of the
//! remaining keys live in a `summary` vEB tree, and the low halves live in
//! one recursive cluster per distinct high half.  Clusters are allocated
//! lazily.  Everything is safe Rust: the tree is an owned recursive
//! structure, and the parallel batch operations split the cluster vector
//! with `split_at_mut` so disjoint clusters can be processed by
//! [`rayon::join`] without locks or atomics.  They fork only where at
//! least `GRAIN` keys are being split.  Batches (and per-node
//! sub-batches) below [`POINT_OP_CUTOFF`] keys run as point operations,
//! which build the same tree.
//!
//! The paper's span bounds (`O(log U)` for Theorem 5.1,
//! `O(log U log log U)` for Theorem 5.2) assume that a node groups its
//! batch by high half in parallel.  Here that grouping is one sequential
//! pass per node, so the span of a batch operation is `O(m)` at the root.
//!
//! # Example
//!
//! ```
//! use plis_veb::VebTree;
//!
//! let mut v = VebTree::new(256);
//! for &k in &[2u64, 4, 8, 10, 13, 15, 23, 28, 61] {
//!     v.insert(k);
//! }
//! assert_eq!(v.min(), Some(2));
//! assert_eq!(v.max(), Some(61));
//! assert_eq!(v.pred(13), Some(10));
//! assert_eq!(v.succ(13), Some(15));
//!
//! // Parallel batch operations take sorted, duplicate-free batches.
//! v.batch_insert(&[1, 3, 5, 7]);
//! v.batch_delete(&[2, 8, 61]);
//! assert_eq!(v.iter_keys(), vec![1, 3, 4, 5, 7, 10, 13, 15, 23, 28]);
//! assert_eq!(v.range(4, 14), vec![4, 5, 7, 10, 13]);
//! ```

mod batch;
mod mono;
mod node;
mod pool;
mod range;
mod tree;

pub use crate::batch::POINT_OP_CUTOFF;
pub use crate::mono::{MonoVeb, ScoredPoint};
pub use crate::node::LEAF_BITS;
pub use crate::tree::VebTree;
