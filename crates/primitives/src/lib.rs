//! Parallel primitives in the binary fork-join model.
//!
//! The SPAA 2023 paper "Parallel Longest Increasing Subsequence and van Emde
//! Boas Trees" assumes the classic multithreaded binary-forking model and is
//! implemented in the paper on top of ParlayLib.  This crate provides the
//! small set of primitives the algorithms need, built on top of
//! [`rayon::join`] (which implements exactly the binary fork-join model with
//! a randomized work-stealing scheduler):
//!
//! * [`merge`] — parallel merge of two sorted sequences.
//! * [`outer`] — the cascaded outer tree of the two dominant-max stores
//!   (the range tree and the Range-vEB tree of Section 4).
//! * [`sort`] — parallel (merge) sort, stable with a custom comparator.
//! * [`par`] — granularity-controlled parallel loops and `maybe_join`: the
//!   only fork surface of the workspace, all on [`rayon::join`].
//! * [`dommax`] — the [`DominantMaxStore`] trait: the `RangeStruct`
//!   interface of Algorithm 2, implemented by `plis-rangetree` and
//!   `plis-rangeveb` and consumed generically by the WLIS drivers.
//!
//! Every primitive has a sequential fallback below a granularity threshold so
//! small inputs do not pay the fork-join overhead; the defaults follow the
//! usual ParlayLib block size of a few thousand elements.

pub mod dommax;
pub mod merge;
pub mod outer;
pub mod par;
pub mod sort;

pub use dommax::{DomMaxCounters, DomMaxStats, DominantMaxStore};
pub use merge::merge_by;
pub use outer::OuterTree;
pub use par::{
    adaptive_grain, maybe_join, par_chunks_mut_for, par_for_each_chunk, par_map_collect,
    par_map_collect_with_grain, par_map_mut, parallel_for, GRAIN, MIN_ADAPTIVE_GRAIN,
};
pub use sort::{par_sort_by, par_sort_unstable};
