//! Work-efficient parallel LIS and weighted LIS — the core contribution of
//! "Parallel Longest Increasing Subsequence and van Emde Boas Trees"
//! (SPAA 2023).
//!
//! * [`lis_ranks`] / [`lis_ranks_u64`] — Algorithm 1: compute every object's
//!   *rank* (the length of the LIS ending at it, i.e. its `dp` value) with a
//!   parallel tournament tree.  `O(n log k)` work, `O(k log n)` span,
//!   `O(n)` space (Theorem 1.1).
//! * [`lis_length`] — just the LIS length `k`.
//! * [`lis_indices`] — an actual longest increasing subsequence, recovered
//!   from the ranks as in Appendix A; [`lis_indices_from_ranks`] starts
//!   from computed ranks.  [`wlis_indices_from_scores`] is the
//!   weighted reconstruction from dp scores, which is how the
//!   `plis-engine` query plane serves weighted certificates; unweighted
//!   sessions follow per-element parent pointers instead and are checked
//!   against [`lis_indices_from_ranks`].
//! * [`wlis_with`] — Algorithm 2: the single generic weighted-LIS driver
//!   over the [`DominantMaxStore`] trait; [`wlis_kind`] dispatches it
//!   through the [`DominantMaxKind`] factory, and [`wlis_rangetree`] /
//!   [`wlis_rangeveb`] pin the practical (Theorem 4.1, `O(n log² n)` work)
//!   and theoretical (Theorem 1.2) stores respectively.
//!
//! # Quick start
//!
//! ```
//! let a = vec![52u64, 31, 45, 26, 61, 10, 39, 44];
//!
//! // dp values (Figure 2/3 of the paper) and the LIS length.
//! let (ranks, k) = plis_lis::lis_ranks_u64(&a);
//! assert_eq!(ranks, vec![1, 1, 2, 1, 3, 1, 2, 3]);
//! assert_eq!(k, 3);
//!
//! // An actual LIS.
//! let lis = plis_lis::lis_indices(&a);
//! assert_eq!(lis.len(), 3);
//! assert!(lis.windows(2).all(|w| w[0] < w[1] && a[w[0]] < a[w[1]]));
//!
//! // Weighted LIS with unit weights equals the LIS length.
//! let dp = plis_lis::wlis_rangetree(&a, &vec![1u64; a.len()]);
//! assert_eq!(dp.iter().max(), Some(&3));
//! ```

#![warn(missing_docs)]

mod compress;
mod ranks;
mod reconstruct;
mod wlis;

pub use compress::compress_to_ranks;
pub use plis_primitives::DominantMaxStore;
pub use ranks::{lis_length, lis_ranks, lis_ranks_u64, lis_ranks_u64_with_stats, LisStats};
pub use reconstruct::{lis_indices, lis_indices_from_ranks, wlis_indices_from_scores};
pub use wlis::{
    wlis_kind, wlis_rangetree, wlis_rangeveb, wlis_with, wlis_with_stats, DominantMaxKind,
};
