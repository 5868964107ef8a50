//! `plis` — Parallel Longest Increasing Subsequence and van Emde Boas trees.
//!
//! This is the umbrella crate of the workspace reproducing the SPAA 2023
//! paper *"Parallel Longest Increasing Subsequence and van Emde Boas
//! Trees"* (Gu, Men, Shen, Sun, Wan).  It re-exports the public API of the
//! member crates so applications can depend on a single crate:
//!
//! * [`lis`] — Algorithm 1/2: parallel LIS ranks, LIS reconstruction, and
//!   weighted LIS over a range tree or a Range-vEB tree.
//! * [`veb`] — sequential and parallel van Emde Boas trees (batch insert /
//!   delete, parallel range query, Mono-vEB staircases).
//! * [`tournament`] — the parallel tournament tree that drives Algorithm 1.
//! * [`rangetree`] / [`rangeveb`] — the two dominant-max structures used by
//!   the weighted-LIS algorithm.
//! * [`baselines`] — Seq-BS, Seq-AVL, the SWGS-style baseline, and the
//!   reference oracles from the evaluation section.
//! * [`workloads`] — the line-pattern / range-pattern input generators of
//!   the evaluation, plus batched streaming arrivals.
//! * [`primitives`] — the fork-join scan/merge/sort/group substrate, and
//!   the `join`-based parallel loops that every other crate forks through.
//! * [`engine`] — the streaming-LIS engine: incremental per-session LIS
//!   state over batched arrivals, multiplexed and sharded across sessions
//!   and driven through one typed command plane (`Op` ticks executed by
//!   `Engine::execute`, the one tick executor; `Engine::execute_read`
//!   runs read-only ticks through it).
//!
//! # Quick start
//!
//! ```
//! use plis::prelude::*;
//!
//! let input = vec![52u64, 31, 45, 26, 61, 10, 39, 44];
//! let (ranks, k) = lis_ranks_u64(&input);
//! assert_eq!(k, 3);
//! assert_eq!(ranks, vec![1, 1, 2, 1, 3, 1, 2, 3]);
//!
//! let weights = vec![1u64; input.len()];
//! let dp = wlis_rangetree(&input, &weights);
//! assert_eq!(dp.iter().max(), Some(&3));
//! ```

pub use plis_baselines as baselines;
pub use plis_engine as engine;
pub use plis_lis as lis;
pub use plis_primitives as primitives;
pub use plis_rangetree as rangetree;
pub use plis_rangeveb as rangeveb;
pub use plis_tournament as tournament;
pub use plis_veb as veb;
pub use plis_workloads as workloads;

/// Compile the README's code blocks as doctests (`cargo test --doc`), so
/// the quickstart examples — including the query-plane one — can't rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used items, importable with `use plis::prelude::*`.
pub mod prelude {
    pub use plis_baselines::{seq_avl, seq_bs, seq_bs_length, swgs_lis, swgs_wlis};
    pub use plis_engine::{
        replay_journal, replay_journal_from, EngineSnapshot, ReplayReport, SessionSnapshot,
        SnapshotError, TickJournal,
    };
    pub use plis_engine::{
        BatchReport, Certificate, Engine, EngineConfig, IngestReport, Op, OpError, OpOutput,
        OpResult, Query, QueryAnswer, QueryBatch, QueryReport, ReadOutcome, ReadTick, SessionId,
        SessionKind, StreamingLis, Tick, TickOutcome, WeightedIngestReport, WeightedStreamingLis,
    };
    pub use plis_engine::{HistogramSnapshot, MemorySink, Metrics, MetricsSnapshot, TraceSink};
    pub use plis_lis::{
        lis_indices, lis_length, lis_ranks, lis_ranks_u64, wlis_indices_from_scores,
        wlis_rangetree, wlis_rangeveb, wlis_with, DominantMaxStore,
    };
    pub use plis_rangetree::RangeMaxTree;
    pub use plis_rangeveb::RangeVeb;
    pub use plis_tournament::TournamentTree;
    pub use plis_veb::{MonoVeb, ScoredPoint, VebTree};
    pub use plis_workloads::{line_pattern, range_pattern, uniform_weights, with_target_rank};
}
