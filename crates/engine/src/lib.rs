//! `plis-engine` — an online/streaming LIS engine on top of the paper's
//! parallel LIS and weighted-LIS algorithms.
//!
//! The offline algorithms of the paper answer "what is the LIS of this
//! array" one-shot.  This crate turns them into a *service*: data arrives
//! continuously in batches, and LIS state is maintained incrementally
//! instead of recomputed from scratch.
//!
//! * [`StreamingLis`] — a single unweighted session.  It keeps the classic
//!   *tails* array `B[r]` = smallest value ending an increasing
//!   subsequence of length `r + 1` over everything ingested so far, and
//!   answers value-domain probes by binary search over it.
//!   [`StreamingLis::ingest`] appends a batch by seeded patience (one
//!   binary search over the tails per element) and returns an
//!   [`IngestReport`] — see the module docs of [`session`].
//! * [`WeightedStreamingLis`] — a single *weighted* session serving
//!   Algorithm 2 as live traffic: per-element dp scores (Equation 2) over
//!   `(value, weight)` streams.  Its summary structure is the Pareto
//!   frontier of `(value, score)` pairs, which answers each element's
//!   predecessor probe by binary search — see [`wsession`].
//!
//! Both session kinds have one ingest path, the sequential one: no
//! recorded benchmark cell shows rerunning the paper's Algorithm 1 or 2
//! over `summary ++ batch` beating it (`DESIGN.md`, "Why sessions ingest
//! sequentially").  The paper's algorithms meet the engine in its oracle
//! suites, which check every ingest against offline Algorithm 1 and 2.
//! * [`Engine`] — a front that multiplexes many independent named sessions
//!   ([`SessionId`]) of **both kinds** ([`SessionKind`]), shards them
//!   across the fork-join pool, and executes whole command ticks in
//!   parallel: the "heavy traffic" shape of the ROADMAP.
//! * The **command plane** ([`op`]) — the single typed submission API:
//!   one [`Op`] enum covering appends ([`Op::Append`] /
//!   [`Op::AppendWeighted`]), reads ([`Op::Query`]), and explicit
//!   lifecycle ([`Op::CreateSession`] / [`Op::RemoveSession`]); a
//!   [`Tick`] builder grouping ops per session in submission order;
//!   [`Engine::execute`], the one tick executor; and
//!   [`Engine::execute_read`], an adapter that runs a read-only
//!   [`ReadTick`] through it as query slots.  Every op resolves to a
//!   typed [`Result<OpOutput, OpError>`]
//!   — unknown sessions, kind mismatches, universe overflows, and
//!   create-twice races degrade per op instead of panicking or vanishing.
//! * The **query vocabulary** ([`query`]) — typed reads served from live
//!   sessions: per-element dp values ([`Query::RankOf`]), dp-value counts
//!   ([`Query::CountAt`]), top-k by dp ([`Query::TopK`]), and full
//!   LIS/WLIS certificate reconstruction ([`Query::Certificate`]),
//!   batched per session ([`QueryBatch`]).
//! * The **persistence plane** ([`snapshot`]) — versioned, checksummed
//!   binary snapshots of session and engine state
//!   ([`SessionSnapshot`] / [`EngineSnapshot`], hand-rolled codec, typed
//!   [`SnapshotError`]s, never panics on foreign bytes) that persist only
//!   the ingested streams and restore by re-ingesting them, checkpoint ops
//!   on the command plane ([`Op::Snapshot`] / [`Op::Restore`]) so
//!   checkpoints are tick-ordered like every other command, and a tick
//!   journal + replay driver ([`TickJournal`], [`replay_journal_from`])
//!   whose restore-then-replay outcome is bit-identical to a
//!   never-stopped engine.
//! * The **telemetry plane** ([`metrics`]) — per-engine counters and
//!   log-scale latency histograms with one runtime switch
//!   ([`Metrics::set_enabled`]), read through
//!   [`Engine::metrics_snapshot`] as a typed [`MetricsSnapshot`], with an
//!   optional JSON-lines trace sink ([`Engine::set_trace_sink`]).  Purely
//!   observational: outcomes are bit-identical with telemetry on or off.
//!
//! # Quick start
//!
//! ```
//! use plis_engine::{Engine, EngineConfig, Op, SessionKind, Tick};
//!
//! let mut engine = Engine::new(EngineConfig { universe: 1 << 16, ..EngineConfig::default() });
//!
//! // One tick, every kind of command: explicit lifecycle, plain and
//! // weighted appends, and a read that sees the writes before it.
//! use plis_engine::{Query, QueryAnswer};
//! let tick = Tick::new()
//!     .create("alice", SessionKind::Unweighted)
//!     .create("orders", SessionKind::Weighted)
//!     .append("alice", vec![5u64, 3, 4, 8])
//!     .append_weighted("orders", vec![(100u64, 5u64), (200, 9)])
//!     .append("alice", vec![6u64, 9])
//!     .query("alice", Query::RankOf(5));
//! let outcome = engine.execute(&tick);
//! assert!(outcome.fully_applied());
//! assert_eq!(outcome.total_ingested, 8);
//! assert_eq!(engine.lis_length("alice"), Some(4)); // 3 < 4 < 6 < 9
//! assert_eq!(engine.best_score("orders"), Some(14)); // 100 < 200: 5 + 9
//!
//! // Every op resolved to a typed Result; the query saw both writes.
//! let answered = outcome.outcomes[5].1.as_ref().unwrap().as_answered().unwrap();
//! assert_eq!(answered.answers[0], QueryAnswer::Rank(Some(4))); // ...6 < 9
//!
//! // Malformed ops fail typed instead of panicking or being skipped.
//! use plis_engine::{OpError, ReadTick};
//! let bad = engine.execute(&Tick::new().append("ghost", vec![1]));
//! assert_eq!(bad.outcomes[0].1, Err(OpError::UnknownSession));
//!
//! // Read-only traffic: the query batches run as one tick of query slots.
//! let reads = engine.execute_read(&ReadTick::new().query("alice", Query::TopK(1)));
//! assert_eq!(
//!     reads.outcomes[0].1.as_ref().unwrap().answers[0],
//!     QueryAnswer::TopK(vec![(5, 4)]) // value 9, dp 4
//! );
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod op;
pub mod query;
pub mod session;
pub mod snapshot;
#[cfg(test)]
mod testutil;
pub mod wire;
pub mod wsession;

pub use engine::{BatchReport, Engine, EngineConfig, SessionId, SessionKind, SessionState};
pub use metrics::{Metrics, MetricsSnapshot, TickDigest};
pub use op::{Op, OpError, OpOutput, OpResult, ReadOutcome, ReadTick, Tick, TickOutcome};
pub use plis_telemetry::{HistogramSnapshot, MemorySink, TraceSink};
pub use query::{Certificate, Query, QueryAnswer, QueryBatch, QueryReport};
pub use session::{IngestReport, StreamingLis};
pub use snapshot::{
    replay_journal, replay_journal_from, EngineSnapshot, ReplayReport, SessionSnapshot,
    SnapshotError, TickJournal,
};
pub use wire::{
    decode_read_outcome, decode_read_tick, decode_tick, decode_tick_outcome, encode_read_outcome,
    encode_read_tick, encode_tick, encode_tick_outcome,
};
pub use wsession::{WeightedIngestReport, WeightedStreamingLis};
