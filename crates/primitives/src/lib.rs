//! Parallel primitives in the binary fork-join model.
//!
//! The SPAA 2023 paper "Parallel Longest Increasing Subsequence and van Emde
//! Boas Trees" assumes the classic multithreaded binary-forking model and is
//! implemented in the paper on top of ParlayLib.  This crate provides the
//! small set of primitives the algorithms need, built on top of
//! [`rayon::join`] (which implements exactly the binary fork-join model with
//! a randomized work-stealing scheduler):
//!
//! * [`scan`] — exclusive scans (prefix sums) with an arbitrary
//!   associative operation.
//! * [`pack()`] — parallel filter / pack of the elements selected by a flag
//!   vector or predicate.
//! * [`merge`] — parallel merge of two sorted sequences.
//! * [`sort`] — parallel (merge) sort and a stable sort-by-key.
//! * [`group`] — grouping elements by small integer keys (used to split the
//!   rank array into frontiers), i.e. a counting sort.
//! * [`par`] — granularity-controlled parallel-for helpers and `maybe_join`.
//! * [`dommax`] — the [`DominantMaxStore`] trait: the `RangeStruct`
//!   interface of Algorithm 2, implemented by `plis-rangetree` and
//!   `plis-rangeveb` and consumed generically by the WLIS drivers.
//!
//! Every primitive has a sequential fallback below a granularity threshold so
//! small inputs do not pay the fork-join overhead; the defaults follow the
//! usual ParlayLib block size of a few thousand elements.

pub mod dommax;
pub mod group;
pub mod merge;
pub mod pack;
pub mod par;
pub mod scan;
pub mod sort;

pub use dommax::{DomMaxCounters, DomMaxStats, DominantMaxStore};
pub use group::{group_by_rank, histogram};
pub use merge::{merge_by, merge_by_key, parallel_merge};
pub use pack::{pack, pack_index, pack_indices_where, partition_flags};
pub use par::{
    adaptive_grain, maybe_join, par_chunks_mut_for, par_for_each_chunk, par_map_collect,
    par_map_collect_with_grain, parallel_for, GRAIN, MIN_ADAPTIVE_GRAIN,
};
pub use scan::{exclusive_scan, scan_inplace};
pub use sort::{par_sort, par_sort_by, par_sort_by_key, par_sort_unstable};
