//! The multi-session front: shard many streaming sessions — unweighted
//! ([`StreamingLis`]) and weighted ([`WeightedStreamingLis`]) side by side
//! — and process whole traffic ticks in parallel.
//!
//! Sessions are owned by *shards* (session id → shard by FNV-1a hash).  A
//! [`Tick`] is a list of `(SessionId, Op)` slots — appends, queries, and
//! explicit lifecycle ops — and [`Engine::execute`] partitions the tick by
//! shard and processes the shards through the join-splitting `par_iter`
//! surface with a one-shard grain (disjoint shards, no locks — the same
//! isolation argument the vEB batch operations use for disjoint clusters),
//! then returns one typed [`OpResult`] per slot in the original tick
//! order.  Ops addressed to the same session within one tick apply in
//! tick order, because a session lives in exactly one shard and each
//! shard replays its work list sequentially — so reads observe every
//! write that precedes them in the tick.  [`TickOutcome::worker_threads`]
//! exposes how many distinct worker threads actually participated, which
//! the determinism and parallelism tests assert on.
//!
//! Read-only traffic goes through [`Engine::execute_read`], which takes
//! `&self`, mutates nothing, and runs the same one-shard-grain parallel
//! pass over a [`ReadTick`] of query batches.
//!
//! # Session kinds
//!
//! Every session has a [`SessionKind`]: *unweighted* sessions serve plain
//! LIS state, *weighted* sessions serve Algorithm-2 dp scores.  A session's
//! kind is fixed when it is created — explicitly via [`Op::CreateSession`]
//! (or the [`Engine::create_session_kind`] convenience), or, when a tick
//! opts into [`Tick::auto_create`], implicitly on first contact: a
//! weighted batch creates a weighted session, a plain batch creates a
//! session of the configured [`EngineConfig::default_kind`].  Plain
//! batches into a weighted session ingest with unit weights; weighted
//! batches into an unweighted session fail that op with
//! [`OpError::KindMismatch`] — a malformed tick degrades per op, it never
//! panics.

use crate::metrics::{Metrics, MetricsSnapshot, TickDigest};
use crate::op::{Op, OpError, OpOutput, OpResult, ReadOutcome, ReadTick, Tick, TickOutcome};
use crate::query::{QueryBatch, QueryReport};
use crate::session::{IngestReport, StreamingLis};
use crate::snapshot::{EngineSnapshot, SessionSnapshot};
use crate::wsession::{weight_sum, WeightedIngestReport, WeightedStreamingLis};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Name of one independent stream within an [`Engine`].
///
/// Internally an `Arc<str>`: ids are cloned into every per-op outcome and
/// into the shard maps, so cloning must be a reference bump, not a heap
/// copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(Arc<str>);

impl SessionId {
    /// The session name as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared key, for maps keyed on the same allocation.
    fn key(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }

    /// Internal constructor sharing an existing allocation.
    pub(crate) fn from_key(key: Arc<str>) -> Self {
        SessionId(key)
    }

    /// Whether two ids share the same backing allocation (test hook).
    #[cfg(test)]
    pub(crate) fn shares_allocation(&self, other: &SessionId) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<&str> for SessionId {
    fn from(s: &str) -> Self {
        SessionId(Arc::from(s))
    }
}

impl From<String> for SessionId {
    fn from(s: String) -> Self {
        SessionId(Arc::from(s))
    }
}

impl From<&SessionId> for SessionId {
    fn from(id: &SessionId) -> Self {
        id.clone()
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Which algorithm a session serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Plain LIS state ([`StreamingLis`]): ranks, tails, LIS length.
    Unweighted,
    /// Weighted LIS state ([`WeightedStreamingLis`]): dp scores and the
    /// Pareto frontier, served by Algorithm 2.
    Weighted,
}

/// Borrowed view of one append batch (what the shard workers consume).
#[derive(Debug, Clone, Copy)]
enum BatchRef<'a> {
    Plain(&'a [u64]),
    Weighted(&'a [(u64, u64)]),
}

impl BatchRef<'_> {
    /// Number of elements in the batch.
    fn len(self) -> usize {
        match self {
            BatchRef::Plain(b) => b.len(),
            BatchRef::Weighted(b) => b.len(),
        }
    }

    /// The kind a session implicitly created by this batch should get:
    /// weighted data forces a weighted session; plain data defers to the
    /// engine default.
    fn implied_kind(self, default_kind: SessionKind) -> SessionKind {
        match self {
            BatchRef::Plain(_) => default_kind,
            BatchRef::Weighted(_) => SessionKind::Weighted,
        }
    }

    /// First value outside `[0, universe)`, if any.
    fn overflow(self, universe: u64) -> Option<u64> {
        match self {
            BatchRef::Plain(b) => b.iter().copied().find(|&v| v >= universe),
            BatchRef::Weighted(b) => b.iter().map(|&(v, _)| v).find(|&v| v >= universe),
        }
    }

    /// Sum of the batch's weights (1 per element of a plain batch), or
    /// `None` if it overflows `u64`.
    fn weight_sum(self) -> Option<u64> {
        match self {
            BatchRef::Plain(b) => Some(b.len() as u64),
            BatchRef::Weighted(b) => weight_sum(b),
        }
    }
}

/// Borrowed view of one tick slot (the executor's working shape).
#[derive(Debug, Clone, Copy)]
enum OpRef<'a> {
    Append(BatchRef<'a>),
    Query(&'a QueryBatch),
    Create(SessionKind),
    Remove,
    Snapshot,
    Restore(&'a SessionSnapshot),
}

impl Op {
    /// Lower an owned op to the borrowed view the shard workers consume.
    fn as_op_ref(&self) -> OpRef<'_> {
        match self {
            Op::Append(b) => OpRef::Append(BatchRef::Plain(b)),
            Op::AppendWeighted(b) => OpRef::Append(BatchRef::Weighted(b)),
            Op::Query(q) => OpRef::Query(q),
            Op::CreateSession { kind } => OpRef::Create(*kind),
            Op::RemoveSession => OpRef::Remove,
            Op::Snapshot => OpRef::Snapshot,
            Op::Restore(snapshot) => OpRef::Restore(snapshot),
        }
    }
}

/// Engine-wide configuration, applied to every session it creates.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Value universe `[0, universe)` for every session.
    pub universe: u64,
    /// Kind given to sessions created without an explicit kind (by
    /// [`Engine::create_session`] or implicitly by a plain batch under
    /// [`Tick::auto_create`]).
    pub default_kind: SessionKind,
    /// Number of shards sessions are spread over.  Defaults to the
    /// hardware parallelism.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            universe: 1 << 32,
            default_kind: SessionKind::Unweighted,
            // The cached pool width, NOT std::thread::available_parallelism:
            // the latter re-reads cgroup state on every call (~10µs), which
            // is exactly the cost the vendored rayon caches away.
            shards: rayon::current_num_threads(),
        }
    }
}

impl EngineConfig {
    /// Build a fresh session of the given kind under this configuration.
    fn new_session(&self, kind: SessionKind) -> SessionState {
        match kind {
            SessionKind::Unweighted => SessionState::Unweighted(StreamingLis::new(self.universe)),
            SessionKind::Weighted => {
                SessionState::Weighted(WeightedStreamingLis::new(self.universe))
            }
        }
    }
}

/// A live session of either kind.
#[derive(Debug, Clone)]
pub enum SessionState {
    /// An unweighted (plain-LIS) session.
    Unweighted(StreamingLis),
    /// A weighted (Algorithm-2) session.
    Weighted(WeightedStreamingLis),
}

impl SessionState {
    /// Which kind this session is.
    pub fn kind(&self) -> SessionKind {
        match self {
            SessionState::Unweighted(_) => SessionKind::Unweighted,
            SessionState::Weighted(_) => SessionKind::Weighted,
        }
    }

    /// The plain session, if this is one.
    pub fn as_unweighted(&self) -> Option<&StreamingLis> {
        match self {
            SessionState::Unweighted(s) => Some(s),
            SessionState::Weighted(_) => None,
        }
    }

    /// The weighted session, if this is one.
    pub fn as_weighted(&self) -> Option<&WeightedStreamingLis> {
        match self {
            SessionState::Weighted(s) => Some(s),
            SessionState::Unweighted(_) => None,
        }
    }

    /// Rough heap footprint of the session in bytes, whatever the kind
    /// (see `StreamingLis::approx_bytes` /
    /// `WeightedStreamingLis::approx_bytes`).  Used by the telemetry
    /// plane's per-shard memory accounting at snapshot time.
    pub fn approx_bytes(&self) -> usize {
        match self {
            SessionState::Unweighted(s) => s.approx_bytes(),
            SessionState::Weighted(s) => s.approx_bytes(),
        }
    }

    /// Bytes held by the session's reusable ingest scratch — the memory
    /// a zero-allocation steady state retains beyond the session's own
    /// state.  Only a weighted session keeps scratch (its plain-batch
    /// staging buffer); an unweighted one reports 0.  A subset of
    /// [`SessionState::approx_bytes`]; reported separately by
    /// [`Engine::metrics_snapshot`].
    pub fn arena_bytes(&self) -> usize {
        match self {
            SessionState::Unweighted(_) => 0,
            SessionState::Weighted(s) => s.arena_bytes(),
        }
    }

    fn check_invariants(&self) {
        match self {
            SessionState::Unweighted(s) => s.check_invariants(),
            SessionState::Weighted(s) => s.check_invariants(),
        }
    }
}

/// What one landed append did — the per-kind ingest report, carried by
/// [`OpOutput::Appended`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchReport {
    /// Report from an unweighted session.
    Unweighted(IngestReport),
    /// Report from a weighted session.
    Weighted(WeightedIngestReport),
}

impl BatchReport {
    /// Number of elements the batch ingested, whatever the kind.
    pub fn ingested(&self) -> usize {
        match self {
            BatchReport::Unweighted(r) => r.ingested,
            BatchReport::Weighted(r) => r.ingested,
        }
    }

    /// The unweighted report, if this batch hit a plain session.
    pub fn as_unweighted(&self) -> Option<&IngestReport> {
        match self {
            BatchReport::Unweighted(r) => Some(r),
            BatchReport::Weighted(_) => None,
        }
    }

    /// The weighted report, if this batch hit a weighted session.
    pub fn as_weighted(&self) -> Option<&WeightedIngestReport> {
        match self {
            BatchReport::Weighted(r) => Some(r),
            BatchReport::Unweighted(_) => None,
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    sessions: HashMap<Arc<str>, SessionState>,
    /// Reusable routing buffer: the tick-slot indices addressed to this
    /// shard, refilled by [`Engine::route_tick`] every write tick.  Held
    /// on the shard so steady-state ticks build no per-tick partition
    /// vectors — the buffers reach their high-water capacity once and
    /// stay there.  Slot indices are `u32`; [`Engine::execute`] asserts
    /// the tick bound.
    route: Vec<u32>,
}

/// What one shard hands back from a tick: position-labeled results plus
/// the worker thread that produced them.
type ShardOutput<R> = (Vec<(usize, SessionId, R)>, std::thread::ThreadId);

/// The last stage of every tick path: merge per-shard outputs back into
/// tick order and count the distinct worker threads that participated
/// (at least 1, so empty ticks still report the calling thread).
fn reassemble<R>(per_shard: Vec<ShardOutput<R>>, expected: usize) -> (Vec<(SessionId, R)>, usize) {
    let worker_threads =
        per_shard.iter().map(|(_, id)| *id).collect::<std::collections::HashSet<_>>().len().max(1);
    let mut labeled: Vec<(usize, SessionId, R)> =
        per_shard.into_iter().flat_map(|(results, _)| results).collect();
    labeled.sort_unstable_by_key(|slot| slot.0);
    debug_assert_eq!(labeled.len(), expected);
    (labeled.into_iter().map(|(_, id, r)| (id, r)).collect(), worker_threads)
}

/// One query batch of a read-only tick: original tick position, target
/// session, queries.
type QueryItem<'a> = (usize, &'a SessionId, &'a QueryBatch);

/// Ticks whose total estimated work stays under this many element-units
/// run inline on the calling thread.  Each piece of the per-shard
/// parallel spine costs a fork, which swamps light ticks: the query sweep
/// lost 2x going from 1 to 4 shards before this gate existed, when every
/// join spawned a scoped OS thread (tens of microseconds).  A fork on the
/// work-stealing pool is cheaper, but waking a sleeping worker still costs
/// microseconds, and the value is kept until a measured retune.  Heavy
/// ticks still take the spine, restricted to the shards that actually
/// have work.  The gate reads only tick content — never pool width — so
/// the inline/spine decision is identical at one thread and at the full
/// pool.
const INLINE_TICK_WEIGHT: usize = 256;

/// Estimated work of one tick slot, in ingest-element units: appends
/// charge their batch length, reads charge [`query_weight`], lifecycle
/// ops charge 1.  A snapshot copies the session's stream (a
/// certificate-weight read); a restore re-ingests the captured stream, so
/// it charges the stream length.
fn op_weight(op: &OpRef<'_>) -> usize {
    match op {
        OpRef::Append(batch) => batch.len(),
        OpRef::Query(batch) => query_weight(batch),
        OpRef::Create(_) | OpRef::Remove => 1,
        OpRef::Snapshot => 64,
        OpRef::Restore(snapshot) => snapshot.len().max(1),
    }
}

/// Estimated work of one query batch: 1 per read, a flat heavy charge per
/// certificate.  The charges are not fitted to the read costs and stay
/// until a measured retune of [`INLINE_TICK_WEIGHT`].  On an unweighted
/// session a count is `O(1)`, a certificate follows `k` parent pointers
/// and a top-k scans `ranks` from one rank's first element, `O(n)` in the
/// worst case; on a weighted session counts, top-k and certificates each
/// scan the whole score array.  So a top-k and a weighted count are
/// under-priced at 1.
fn query_weight(batch: &QueryBatch) -> usize {
    batch
        .queries()
        .iter()
        .map(|q| match q {
            crate::query::Query::Certificate => 64,
            _ => 1,
        })
        .sum()
}

/// Whether a partitioned tick is light enough to run inline: at most one
/// shard has work (a single piece gains nothing from the spine), or the
/// total estimated weight is under [`INLINE_TICK_WEIGHT`].
fn tick_is_light<T>(work: &[Vec<T>], weight: impl Fn(&T) -> usize) -> bool {
    let busy = work.iter().filter(|w| !w.is_empty()).count();
    busy <= 1 || work.iter().flatten().map(weight).sum::<usize>() < INLINE_TICK_WEIGHT
}

impl Shard {
    /// Apply this shard's slice of a tick, in tick order.  `route` holds
    /// the tick-slot indices addressed to this shard (taken off the
    /// shard's own reusable buffer by the caller, so `&mut self` stays
    /// free for the sessions) and `slots` is the whole borrowed tick.
    /// Every op resolves to a typed [`OpResult`]; a rejected op never
    /// touches the session and never disturbs its neighbours.
    /// `create_missing` controls whether appends create their target on
    /// first contact ([`Tick::auto_create`]); queries and removes never
    /// do.
    fn process(
        &mut self,
        route: &[u32],
        slots: &[(SessionId, Op)],
        config: &EngineConfig,
        create_missing: bool,
        metrics: &Metrics,
    ) -> Vec<(usize, SessionId, OpResult)> {
        route
            .iter()
            .map(|&index| {
                let (id, op) = &slots[index as usize];
                let index = index as usize;
                let timer = metrics.start_timer();
                let result = match op.as_op_ref() {
                    OpRef::Append(batch) => self.append(id, batch, config, create_missing),
                    OpRef::Query(batch) => self
                        .answer(id, batch)
                        .map(OpOutput::Answered)
                        .ok_or(OpError::UnknownSession),
                    OpRef::Create(kind) => match self.sessions.entry(id.key()) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            Err(OpError::SessionExists { kind: e.get().kind() })
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(config.new_session(kind));
                            Ok(OpOutput::Created)
                        }
                    },
                    OpRef::Remove => self
                        .sessions
                        .remove(id.as_str())
                        .map(|_| OpOutput::Removed)
                        .ok_or(OpError::UnknownSession),
                    OpRef::Snapshot => self
                        .sessions
                        .get(id.as_str())
                        .map(|state| {
                            OpOutput::Snapshotted(Box::new(SessionSnapshot::capture(state)))
                        })
                        .ok_or(OpError::UnknownSession),
                    OpRef::Restore(snapshot) => match self.sessions.entry(id.key()) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            Err(OpError::SessionExists { kind: e.get().kind() })
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            snapshot.restore_state(config).map(|state| {
                                e.insert(state);
                                OpOutput::Restored
                            })
                        }
                    },
                };
                metrics.record_op_since(timer);
                (index, id.clone(), result)
            })
            .collect()
    }

    /// One append op: validate the batch against the universe and a
    /// weighted session's `u64` weight total, resolve (or create) the
    /// target session, check the kind axis, ingest.
    fn append(
        &mut self,
        id: &SessionId,
        batch: BatchRef<'_>,
        config: &EngineConfig,
        create_missing: bool,
    ) -> OpResult {
        // Deliberately redundant with the asserts inside the session
        // ingest paths: these pre-scans are what make a rejected batch
        // *atomic* (a typed error before any element mutates the session),
        // while the session-level asserts keep guarding callers that drive
        // StreamingLis/WeightedStreamingLis directly.
        if let Some(value) = batch.overflow(config.universe) {
            return Err(OpError::UniverseOverflow { value, universe: config.universe });
        }
        let weight_sum = batch.weight_sum().ok_or(OpError::ScoreOverflow)?;
        let state = match self.sessions.entry(id.key()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) if create_missing => {
                e.insert(config.new_session(batch.implied_kind(config.default_kind)))
            }
            std::collections::hash_map::Entry::Vacant(_) => return Err(OpError::UnknownSession),
        };
        let report = match (state, batch) {
            (SessionState::Unweighted(s), BatchRef::Plain(b)) => {
                BatchReport::Unweighted(s.ingest(b))
            }
            // The weight total bounds every dp score, so neither ingest
            // path needs its own check.
            (SessionState::Weighted(s), _) if !s.admits(weight_sum) => {
                return Err(OpError::ScoreOverflow)
            }
            (SessionState::Weighted(s), BatchRef::Plain(b)) => {
                BatchReport::Weighted(s.ingest_plain(b))
            }
            (SessionState::Weighted(s), BatchRef::Weighted(b)) => {
                BatchReport::Weighted(s.ingest(b))
            }
            (SessionState::Unweighted(_), BatchRef::Weighted(_)) => {
                return Err(OpError::KindMismatch {
                    session: SessionKind::Unweighted,
                    batch: SessionKind::Weighted,
                })
            }
        };
        Ok(OpOutput::Appended(report))
    }

    /// Answer one query batch against this shard's copy of the session
    /// (`None` when the session does not exist — queries never create).
    fn answer(&self, id: &SessionId, batch: &QueryBatch) -> Option<QueryReport> {
        self.sessions.get(id.as_str()).map(|state| state.answer_batch(batch))
    }

    /// Answer this shard's slice of a read-only tick, in tick order.
    fn read(
        &self,
        work: &[QueryItem<'_>],
        metrics: &Metrics,
    ) -> Vec<(usize, SessionId, Result<QueryReport, OpError>)> {
        work.iter()
            .map(|&(index, id, batch)| {
                let timer = metrics.start_timer();
                let result = self.answer(id, batch).ok_or(OpError::UnknownSession);
                metrics.record_op_since(timer);
                (index, id.clone(), result)
            })
            .collect()
    }

    /// Rough heap footprint of every session in this shard, in bytes.
    fn approx_bytes(&self) -> usize {
        self.sessions.values().map(SessionState::approx_bytes).sum()
    }
}

/// A sharded multiplexer of independent streaming sessions, weighted and
/// unweighted side by side.
///
/// See the crate docs for a usage example.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    shards: Vec<Shard>,
    /// The telemetry registry (a no-op ZST without the `telemetry`
    /// feature).  Purely observational — see [`crate::metrics`].
    metrics: Metrics,
    /// Allocation-meter baseline captured at construction, so snapshots
    /// report allocations attributable to this engine's lifetime.  Stays
    /// all-zero (and costs nothing) unless the binary installs the
    /// counting global allocator (`plis-testalloc`).
    alloc_base: plis_telemetry::AllocTally,
    /// Optional JSON-lines trace sink: one event per executed tick.
    #[cfg(feature = "telemetry")]
    trace: Option<plis_telemetry::TraceSink>,
}

impl Engine {
    /// An engine under the given configuration (shard count floored at 1).
    pub fn new(mut config: EngineConfig) -> Self {
        config.shards = config.shards.max(1);
        let shards = (0..config.shards).map(|_| Shard::default()).collect();
        Engine {
            config,
            shards,
            metrics: Metrics::new(),
            alloc_base: plis_telemetry::alloc_tally(),
            #[cfg(feature = "telemetry")]
            trace: None,
        }
    }

    /// Engine with default config over the given universe.
    pub fn with_universe(universe: u64) -> Self {
        Engine::new(EngineConfig { universe, ..EngineConfig::default() })
    }

    /// The configuration every session of this engine is created under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's telemetry registry — use it to toggle recording at
    /// runtime ([`Metrics::set_enabled`]).  A no-op handle when the
    /// `telemetry` feature is off.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A point-in-time copy of the whole telemetry plane: the cumulative
    /// counters and latency histograms, plus live-session and per-shard
    /// memory accounting computed by walking the shards now (`O(sessions)`
    /// plus the store walks — snapshot-time cost, never per-op).  All-zero
    /// when the `telemetry` feature is off (session accounting included,
    /// so a feature-off build is observably inert).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.counters_snapshot();
        if cfg!(feature = "telemetry") {
            snap.sessions = self.session_count() as u64;
            snap.shard_bytes = self.shards.iter().map(|s| s.approx_bytes() as u64).collect();
            snap.session_bytes = snap.shard_bytes.iter().sum();
            let allocs = plis_telemetry::alloc_tally().since(self.alloc_base);
            snap.alloc_count = allocs.allocs;
            snap.allocs_per_elem = allocs.allocs.checked_div(snap.elems_ingested).unwrap_or(0);
            snap.arena_bytes = self
                .shards
                .iter()
                .flat_map(|s| s.sessions.values())
                .map(|s| s.arena_bytes() as u64)
                .sum();
        }
        snap
    }

    /// Install (or clear) a JSON-lines trace sink: after every
    /// [`Engine::execute`] / [`Engine::execute_read`] the engine emits one
    /// event with the tick's latency, op counts, and ingest count.
    /// Emission follows the runtime [`Metrics::set_enabled`] toggle.  A
    /// no-op when the `telemetry` feature is off.
    pub fn set_trace_sink(&mut self, sink: Option<plis_telemetry::TraceSink>) {
        #[cfg(feature = "telemetry")]
        {
            self.trace = sink;
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = sink;
    }

    fn shard_index(&self, id: &str) -> usize {
        // FNV-1a; any stable hash works, but the std RandomState hasher is
        // seeded per-process and would make shard assignment (and therefore
        // parallel schedules) non-reproducible across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Create an empty session of the engine's default kind; returns
    /// `false` if the id already exists.  Convenience over
    /// [`Op::CreateSession`] for administrative callers outside a tick.
    pub fn create_session(&mut self, id: impl Into<SessionId>) -> bool {
        let kind = self.config.default_kind;
        self.create_session_kind(id, kind)
    }

    /// Create an empty session of an explicit kind; returns `false` if the
    /// id already exists (whatever its kind).
    pub fn create_session_kind(&mut self, id: impl Into<SessionId>, kind: SessionKind) -> bool {
        let id = id.into();
        let shard = self.shard_index(id.as_str());
        let config = &self.config;
        match self.shards[shard].sessions.entry(id.key()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(config.new_session(kind));
                true
            }
        }
    }

    /// Drop a session and all its state; returns `true` if it existed.
    /// Convenience over [`Op::RemoveSession`] for administrative callers
    /// outside a tick.
    pub fn remove_session(&mut self, id: &str) -> bool {
        let shard = self.shard_index(id);
        self.shards[shard].sessions.remove(id).is_some()
    }

    /// Number of live sessions (of both kinds).
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// All session ids, in deterministic sorted order (shard maps iterate
    /// in hash order, which is never exposed).  Ids are `Arc`-backed, so
    /// this clones references, not strings.
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|s| s.sessions.keys().map(|k| SessionId::from_key(Arc::clone(k))))
            .collect();
        ids.sort();
        ids
    }

    /// A session of either kind, if it exists.
    pub fn session_state(&self, id: &str) -> Option<&SessionState> {
        self.shards[self.shard_index(id)].sessions.get(id)
    }

    /// The kind of a session, if it exists.
    pub fn session_kind(&self, id: &str) -> Option<SessionKind> {
        self.session_state(id).map(SessionState::kind)
    }

    /// Read access to an unweighted session's full query API (`None` if
    /// the id is missing or the session is weighted).
    pub fn session(&self, id: &str) -> Option<&StreamingLis> {
        self.session_state(id).and_then(SessionState::as_unweighted)
    }

    /// Read access to a weighted session's full query API (`None` if the
    /// id is missing or the session is unweighted).
    pub fn weighted_session(&self, id: &str) -> Option<&WeightedStreamingLis> {
        self.session_state(id).and_then(SessionState::as_weighted)
    }

    /// Current LIS length of an unweighted session, if it exists.
    pub fn lis_length(&self, id: &str) -> Option<u32> {
        self.session(id).map(StreamingLis::lis_length)
    }

    /// Current best dp score of a weighted session, if it exists.
    pub fn best_score(&self, id: &str) -> Option<u64> {
        self.weighted_session(id).map(WeightedStreamingLis::best_score)
    }

    /// Snapshot one session's ingested stream, if it exists.
    /// Convenience over [`Op::Snapshot`] for administrative callers
    /// outside a tick; use the op form when the checkpoint must be
    /// ordered against other traffic.
    pub fn snapshot_session(&self, id: &str) -> Option<SessionSnapshot> {
        self.session_state(id).map(SessionSnapshot::capture)
    }

    /// Restore a session from a snapshot under a fresh id by ingesting its
    /// stream.  Validates the snapshot first and fails with a typed
    /// [`OpError`] — never a panic, never a partially restored session —
    /// when the id is taken, the universe disagrees, or the stream cannot
    /// be ingested.
    /// Convenience over [`Op::Restore`] for administrative callers
    /// outside a tick.
    pub fn restore_session(
        &mut self,
        id: impl Into<SessionId>,
        snapshot: &SessionSnapshot,
    ) -> Result<(), OpError> {
        let id = id.into();
        let shard = self.shard_index(id.as_str());
        if self.shards[shard].sessions.contains_key(id.as_str()) {
            let kind = self.shards[shard].sessions[id.as_str()].kind();
            return Err(OpError::SessionExists { kind });
        }
        let state = snapshot.restore_state(&self.config)?;
        self.shards[shard].sessions.insert(id.key(), state);
        Ok(())
    }

    /// Snapshot the whole engine: every live session, keyed and sorted by
    /// id (the [`Engine::session_ids`] order).
    pub fn snapshot(&self) -> EngineSnapshot {
        let sessions = self
            .session_ids()
            .into_iter()
            .map(|id| {
                let snapshot =
                    SessionSnapshot::capture(self.session_state(id.as_str()).expect("listed id"));
                (id.as_str().to_string(), snapshot)
            })
            .collect();
        EngineSnapshot { universe: self.config.universe, sessions }
    }

    /// Build a fresh engine from an engine snapshot under the given
    /// configuration.  `config.universe` must match the snapshot's; the
    /// shard count and the default kind are free to differ (outcomes are
    /// deterministic across shard counts).  All-or-nothing: any rejected
    /// session means no engine.
    pub fn restore(config: EngineConfig, snapshot: &EngineSnapshot) -> Result<Engine, OpError> {
        if config.universe != snapshot.universe {
            return Err(OpError::UniverseMismatch {
                snapshot: snapshot.universe,
                universe: config.universe,
            });
        }
        let mut engine = Engine::new(config);
        for (id, session) in &snapshot.sessions {
            engine.restore_session(id.as_str(), session)?;
        }
        Ok(engine)
    }

    /// Execute one tick of commands — the engine's **single write/mixed
    /// entry point**.  The tick is partitioned by shard and the disjoint
    /// shards are processed through the parallel-iterator surface (one
    /// piece per shard — shards are few but heavy, so the default
    /// element-count grain would under-split); results come back as one
    /// typed [`OpResult`] per slot, in submission order.
    ///
    /// Ops for the same session apply in submission order, so a
    /// [`Op::Query`] slot observes every earlier slot of the same tick
    /// addressed to its session (read-your-writes), an append lands in a
    /// session created by an earlier [`Op::CreateSession`] of the same
    /// tick, and an append after [`Op::RemoveSession`] fails with
    /// [`OpError::UnknownSession`] (unless the tick opted into
    /// [`Tick::auto_create`]).
    ///
    /// The tick is borrowed: callers that replay a prepared schedule
    /// (benchmarks, log replays) build their [`Tick`]s once and execute
    /// them any number of times without deep-copying batches.
    pub fn execute(&mut self, tick: &Tick) -> TickOutcome {
        let timer = self.metrics.start_timer();
        self.route_tick(tick);

        let slots = tick.slots();
        let config = &self.config;
        let metrics = &self.metrics;
        let create_missing = tick.creates_missing();
        let busy_shards = self.shards.iter().filter(|s| !s.route.is_empty()).count();
        let inline = busy_shards <= 1
            || slots.iter().map(|(_, op)| op_weight(&op.as_op_ref())).sum::<usize>()
                < INLINE_TICK_WEIGHT;
        let busy: Vec<&mut Shard> =
            self.shards.iter_mut().filter(|s| !s.route.is_empty()).collect();
        let run = |shard: &mut Shard| {
            // Take the route buffer off the shard so `&mut self` is free
            // for the sessions, then hand it back for the next tick.
            let route = std::mem::take(&mut shard.route);
            let results = shard.process(&route, slots, config, create_missing, metrics);
            shard.route = route;
            (results, std::thread::current().id())
        };
        let per_shard: Vec<ShardOutput<OpResult>> = if inline {
            busy.into_iter().map(run).collect()
        } else {
            busy.into_par_iter().with_max_len(1).map(run).collect()
        };
        let (outcomes, worker_threads) = reassemble(per_shard, tick.len());
        let mut outcome = TickOutcome::collect(outcomes, worker_threads);
        outcome.elapsed_ns = Metrics::elapsed_ns(timer);
        let digest = self.metrics.record_tick(&outcome, inline);
        self.trace_tick(&outcome, digest);
        outcome
    }

    /// Execute one read-only tick — the engine's **single read entry
    /// point**.  Takes `&self`: reads mutate nothing, never create
    /// sessions (absent ids fail their slot with
    /// [`OpError::UnknownSession`]), and answers come back in submission
    /// order, served shard-parallel with the same one-shard grain as
    /// [`Engine::execute`].
    pub fn execute_read(&self, tick: &ReadTick) -> ReadOutcome {
        let timer = self.metrics.start_timer();
        let work = self.partition_by_shard(tick.slots().iter().map(|(id, batch)| (id, batch)));
        let metrics = &self.metrics;
        let inline = tick_is_light(&work, |(_, _, batch)| query_weight(batch));
        let busy: Vec<(&Shard, &Vec<QueryItem<'_>>)> =
            self.shards.iter().zip(work.iter()).filter(|(_, work)| !work.is_empty()).collect();
        let run = |(shard, work): (&Shard, &Vec<QueryItem<'_>>)| {
            (shard.read(work, metrics), std::thread::current().id())
        };
        let per_shard: Vec<ShardOutput<Result<QueryReport, OpError>>> = if inline {
            busy.into_iter().map(run).collect()
        } else {
            busy.into_par_iter().with_max_len(1).map(run).collect()
        };
        let (outcomes, worker_threads) = reassemble(per_shard, tick.len());
        let mut outcome = ReadOutcome::collect(outcomes, worker_threads);
        outcome.elapsed_ns = Metrics::elapsed_ns(timer);
        self.metrics.record_read(&outcome, inline);
        self.trace_read(&outcome);
        outcome
    }

    /// Emit one trace event for an executed write tick (no-op without a
    /// sink, with recording disabled, or without the `telemetry` feature).
    #[cfg(feature = "telemetry")]
    fn trace_tick(&self, outcome: &TickOutcome, digest: TickDigest) {
        use plis_telemetry::JsonValue;
        let Some(trace) = &self.trace else { return };
        if !self.metrics.is_enabled() {
            return;
        }
        trace.emit(&[
            ("event", JsonValue::from("tick")),
            ("elapsed_us", JsonValue::from(outcome.elapsed_ns as f64 / 1_000.0)),
            ("ops", JsonValue::from(outcome.outcomes.len())),
            ("ingested", JsonValue::from(outcome.total_ingested)),
            ("queries", JsonValue::from(outcome.total_queries)),
            ("failed", JsonValue::from(outcome.failed_ops)),
            ("seq_ingests", JsonValue::from(digest.seq_ingests)),
            ("worker_threads", JsonValue::from(outcome.worker_threads)),
        ]);
    }

    #[cfg(not(feature = "telemetry"))]
    fn trace_tick(&self, _outcome: &TickOutcome, _digest: TickDigest) {}

    /// Emit one trace event for an executed read tick (same gating as
    /// [`Engine::trace_tick`]).
    #[cfg(feature = "telemetry")]
    fn trace_read(&self, outcome: &ReadOutcome) {
        use plis_telemetry::JsonValue;
        let Some(trace) = &self.trace else { return };
        if !self.metrics.is_enabled() {
            return;
        }
        trace.emit(&[
            ("event", JsonValue::from("read_tick")),
            ("elapsed_us", JsonValue::from(outcome.elapsed_ns as f64 / 1_000.0)),
            ("ops", JsonValue::from(outcome.outcomes.len())),
            ("queries", JsonValue::from(outcome.total_queries)),
            ("missing", JsonValue::from(outcome.sessions_missing)),
            ("worker_threads", JsonValue::from(outcome.worker_threads)),
        ]);
    }

    #[cfg(not(feature = "telemetry"))]
    fn trace_read(&self, _outcome: &ReadOutcome) {}

    /// The first stage of the write path: refill every shard's reusable
    /// routing buffer with the tick-slot indices addressed to it.  No
    /// per-tick vectors — the buffers live on the shards and keep their
    /// capacity across ticks ([`Shard::route`]).
    fn route_tick(&mut self, tick: &Tick) {
        assert!(tick.len() <= u32::MAX as usize, "tick exceeds u32 slot addressing");
        for shard in &mut self.shards {
            shard.route.clear();
        }
        for (index, (id, _)) in tick.slots().iter().enumerate() {
            let shard = self.shard_index(id.as_str());
            self.shards[shard].route.push(index as u32);
        }
    }

    /// The first stage of the read path: partition tick slots by shard,
    /// remembering original positions so results can be reassembled in
    /// tick order.  Reads take `&self` (many read ticks may run
    /// concurrently), so they cannot share the write path's mutable
    /// routing buffers; query batches are rarer and heavier than appends,
    /// so the per-tick partition build stays acceptable here.
    fn partition_by_shard<'a, P>(
        &self,
        slots: impl Iterator<Item = (&'a SessionId, P)>,
    ) -> Vec<Vec<(usize, &'a SessionId, P)>> {
        let mut work: Vec<Vec<(usize, &'a SessionId, P)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (index, (id, payload)) in slots.enumerate() {
            work[self.shard_index(id.as_str())].push((index, id, payload));
        }
        work
    }

    /// Cross-check invariants of every session; used by the test suites.
    pub fn check_invariants(&self) {
        for shard in &self.shards {
            for session in shard.sessions.values() {
                session.check_invariants();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryAnswer};
    use crate::testutil::xorshift;

    /// The landed ingest reports of an outcome, in tick order.
    fn ingests(outcome: &TickOutcome) -> Vec<(SessionId, BatchReport)> {
        outcome
            .outcomes
            .iter()
            .filter_map(|(id, r)| {
                r.as_ref().ok().and_then(OpOutput::as_appended).map(|b| (id.clone(), *b))
            })
            .collect()
    }

    #[test]
    fn tick_outcomes_preserve_input_order() {
        let mut engine =
            Engine::new(EngineConfig { universe: 1 << 16, shards: 4, ..EngineConfig::default() });
        let tick: Tick = (0..20)
            .map(|i| (format!("s{}", i % 7), vec![i as u64, i as u64 + 1]))
            .collect::<Tick>()
            .auto_create();
        let expect_ids: Vec<&str> = tick.slots().iter().map(|(id, _)| id.as_str()).collect();
        let outcome = engine.execute(&tick);
        let got_ids: Vec<&str> = outcome.outcomes.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(got_ids, expect_ids);
        assert!(outcome.fully_applied());
        assert_eq!(outcome.total_ingested, 40);
        assert_eq!(outcome.sessions_touched, 7);
        assert_eq!(outcome.weighted_sessions_touched, 0);
        assert_eq!(engine.session_count(), 7);
        engine.check_invariants();
    }

    #[test]
    fn multiplexed_sessions_match_dedicated_sessions() {
        let mut state = 0xFEED_BEEFu64;
        let universe = 1u64 << 14;
        let session_names = ["alpha", "bravo", "charlie", "delta", "echo"];
        let mut engine =
            Engine::new(EngineConfig { universe, shards: 3, ..EngineConfig::default() });
        let mut reference: HashMap<&str, StreamingLis> =
            session_names.iter().map(|&name| (name, StreamingLis::new(universe))).collect();
        for &name in &session_names {
            assert!(engine.create_session(name));
        }
        for _round in 0..12 {
            let mut tick = Tick::new();
            for &name in &session_names {
                let len = (xorshift(&mut state) % 200) as usize;
                let batch: Vec<u64> = (0..len).map(|_| xorshift(&mut state) % universe).collect();
                reference.get_mut(name).unwrap().ingest(&batch);
                tick.push(name, Op::Append(batch));
            }
            assert!(engine.execute(&tick).fully_applied());
        }
        for &name in &session_names {
            let live = engine.session(name).expect("session exists");
            let want = &reference[name];
            assert_eq!(live.ranks(), want.ranks(), "session {name}");
            assert_eq!(live.tails(), want.tails(), "session {name}");
        }
        engine.check_invariants();
    }

    #[test]
    fn same_session_twice_in_one_tick_applies_in_order() {
        let mut engine = Engine::with_universe(1 << 10);
        let outcome = engine.execute(
            &Tick::new()
                .create("s", SessionKind::Unweighted)
                .append("s", vec![100, 200])
                .append("s", vec![150, 300]),
        );
        assert_eq!(outcome.outcomes.len(), 3);
        assert_eq!(outcome.sessions_touched, 1);
        assert_eq!(outcome.sessions_created, 1);
        assert!(outcome.fully_applied());
        // 100 < 200 then 150 does not extend, 300 does: LIS = 100, 200, 300.
        assert_eq!(engine.lis_length("s"), Some(3));
        let session = engine.session("s").unwrap();
        assert_eq!(session.values(), &[100, 200, 150, 300]);
        assert_eq!(session.ranks(), &[1, 2, 2, 3]);
    }

    #[test]
    fn lifecycle_ops_ride_the_tick_in_order() {
        let mut engine = Engine::with_universe(1 << 10);
        let outcome = engine.execute(
            &Tick::new()
                .create("s", SessionKind::Unweighted)
                .append("s", vec![1, 2, 3])
                .remove("s")
                .create("s", SessionKind::Weighted)
                .append_weighted("s", vec![(4, 9), (5, 2)]),
        );
        assert!(outcome.fully_applied(), "errors: {:?}", outcome.errors().collect::<Vec<_>>());
        assert_eq!(outcome.sessions_created, 2);
        assert_eq!(outcome.sessions_removed, 1);
        // One distinct session received data, even though its kind
        // flipped across the mid-tick removal; the weighted axis counts
        // it because it took weighted data at some point.
        assert_eq!(outcome.sessions_touched, 1);
        assert_eq!(outcome.weighted_sessions_touched, 1);
        // The surviving session is the weighted re-creation.
        assert_eq!(engine.session_kind("s"), Some(SessionKind::Weighted));
        assert_eq!(engine.best_score("s"), Some(11));
        engine.check_invariants();
    }

    #[test]
    fn create_remove_and_lookup() {
        let mut engine = Engine::with_universe(1 << 8);
        assert!(engine.create_session("x"));
        assert!(!engine.create_session("x"));
        assert_eq!(engine.session_count(), 1);
        assert_eq!(engine.lis_length("x"), Some(0));
        assert_eq!(engine.lis_length("missing"), None);
        assert!(engine.remove_session("x"));
        assert!(!engine.remove_session("x"));
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn single_shard_engine_still_works() {
        let mut engine =
            Engine::new(EngineConfig { universe: 1 << 10, shards: 1, ..EngineConfig::default() });
        let outcome = engine.execute(
            &Tick::new().append("a", vec![1, 2, 3]).append("b", vec![3, 2, 1]).auto_create(),
        );
        assert_eq!(outcome.total_ingested, 6);
        assert_eq!(engine.lis_length("a"), Some(3));
        assert_eq!(engine.lis_length("b"), Some(1));
    }

    #[test]
    fn session_ids_are_sorted_and_complete() {
        let mut engine = Engine::with_universe(64);
        for name in ["zeta", "alpha", "mid", "bravo", "yankee", "delta"] {
            engine.create_session(name);
        }
        let ids: Vec<String> =
            engine.session_ids().iter().map(|id| id.as_str().to_string()).collect();
        assert_eq!(ids, vec!["alpha", "bravo", "delta", "mid", "yankee", "zeta"]);
    }

    #[test]
    fn weighted_sessions_multiplex_next_to_plain_ones() {
        let mut engine =
            Engine::new(EngineConfig { universe: 1 << 10, shards: 3, ..EngineConfig::default() });
        let tick = Tick::new()
            .append("plain", vec![5u64, 7, 6, 8])
            .append_weighted("heavy", vec![(5u64, 10u64), (7, 1), (6, 20), (8, 1)])
            .auto_create();
        let outcome = engine.execute(&tick);
        assert_eq!(outcome.total_ingested, 8);
        assert_eq!(outcome.sessions_touched, 2);
        assert_eq!(outcome.weighted_sessions_touched, 1);
        assert_eq!(engine.session_kind("plain"), Some(SessionKind::Unweighted));
        assert_eq!(engine.session_kind("heavy"), Some(SessionKind::Weighted));
        assert_eq!(engine.lis_length("plain"), Some(3)); // 5 < 6 < 8
        assert_eq!(engine.lis_length("heavy"), None);
        assert_eq!(engine.best_score("heavy"), Some(31)); // 5 + 6 + 8 weights
        let heavy = engine.weighted_session("heavy").unwrap();
        assert_eq!(heavy.scores(), &[10, 11, 30, 31]);
        engine.check_invariants();
    }

    #[test]
    fn plain_batches_feed_weighted_sessions_with_unit_weights() {
        let mut engine = Engine::new(EngineConfig {
            universe: 1 << 10,
            default_kind: SessionKind::Weighted,
            ..EngineConfig::default()
        });
        let outcome = engine.execute(&Tick::new().append("w", vec![3, 1, 4, 1, 5]).auto_create());
        assert_eq!(outcome.weighted_sessions_touched, 1);
        let session = engine.weighted_session("w").expect("created weighted by default kind");
        assert_eq!(session.scores(), &[1, 1, 2, 1, 3]);
        assert_eq!(engine.best_score("w"), Some(3));
        match ingests(&outcome)[0].1 {
            BatchReport::Weighted(r) => assert_eq!(r.score_after, 3),
            other => panic!("expected a weighted report, got {other:?}"),
        }
    }

    #[test]
    fn weighted_batch_into_plain_session_fails_typed_without_touching_it() {
        let mut engine = Engine::with_universe(1 << 8);
        engine.create_session("p");
        let outcome =
            engine.execute(&Tick::new().append("p", vec![9]).append_weighted("p", vec![(1, 1)]));
        assert_eq!(outcome.failed_ops, 1);
        assert_eq!(
            outcome.outcomes[1].1,
            Err(OpError::KindMismatch {
                session: SessionKind::Unweighted,
                batch: SessionKind::Weighted,
            })
        );
        // The plain append before it landed; the session is untouched by
        // the rejected op.
        assert_eq!(outcome.total_ingested, 1);
        assert_eq!(engine.session("p").unwrap().values(), &[9]);
        engine.check_invariants();
    }

    #[test]
    fn universe_overflow_rejects_the_whole_batch_atomically() {
        let mut engine = Engine::with_universe(8);
        engine.create_session("s");
        let outcome = engine.execute(&Tick::new().append("s", vec![1, 2, 99, 3]));
        assert_eq!(
            outcome.outcomes[0].1,
            Err(OpError::UniverseOverflow { value: 99, universe: 8 })
        );
        assert_eq!(engine.session("s").unwrap().len(), 0, "no element of the batch may land");
        // Weighted overflow reports the first offending value too.
        engine.create_session_kind("w", SessionKind::Weighted);
        let outcome = engine.execute(&Tick::new().append_weighted("w", vec![(3, 1), (8, 2)]));
        assert_eq!(outcome.outcomes[0].1, Err(OpError::UniverseOverflow { value: 8, universe: 8 }));
        assert_eq!(engine.weighted_session("w").unwrap().len(), 0);
    }

    #[test]
    fn strict_ticks_require_explicit_creation() {
        let mut engine = Engine::with_universe(1 << 8);
        let outcome = engine.execute(&Tick::new().append("ghost", vec![1]));
        assert_eq!(outcome.outcomes[0].1, Err(OpError::UnknownSession));
        assert_eq!(engine.session_count(), 0, "strict appends never create sessions");
        // The same tick with an explicit create succeeds end to end.
        let outcome = engine.execute(
            &Tick::new().create("ghost", SessionKind::Unweighted).append("ghost", vec![1]),
        );
        assert!(outcome.fully_applied());
        assert_eq!(engine.lis_length("ghost"), Some(1));
    }

    #[test]
    fn explicit_kind_creation_wins_over_default() {
        let mut engine = Engine::with_universe(1 << 8);
        assert!(engine.create_session_kind("w", SessionKind::Weighted));
        assert!(!engine.create_session("w"), "id taken regardless of kind");
        assert_eq!(engine.session_kind("w"), Some(SessionKind::Weighted));
        assert_eq!(engine.best_score("w"), Some(0));
        assert_eq!(engine.lis_length("w"), None, "kind-mismatched accessor returns None");
        // The op-level create reports the occupant's kind.
        let outcome = engine.execute(&Tick::new().create("w", SessionKind::Unweighted));
        assert_eq!(
            outcome.outcomes[0].1,
            Err(OpError::SessionExists { kind: SessionKind::Weighted })
        );
    }

    #[test]
    fn read_ticks_answer_in_order_and_flag_missing_sessions() {
        let mut engine =
            Engine::new(EngineConfig { universe: 1 << 10, shards: 4, ..EngineConfig::default() });
        engine.execute(
            &Tick::new()
                .append("a", vec![1, 5, 3, 7])
                .append_weighted("w", vec![(2u64, 10u64), (4, 20)])
                .auto_create(),
        );

        let tick = ReadTick::new()
            .query("a", vec![Query::RankOf(3), Query::CountAt(1)])
            .query("ghost", Query::Certificate)
            .query("w", vec![Query::RankOf(1), Query::TopK(1)])
            .query("a", Query::Certificate);
        let outcome = engine.execute_read(&tick);
        assert_eq!(outcome.outcomes.len(), 4);
        assert_eq!(outcome.total_queries, 5, "missing sessions answer nothing");
        assert_eq!(outcome.sessions_queried, 2);
        assert_eq!(outcome.sessions_missing, 1);
        assert!(!outcome.fully_answered());
        let ids: Vec<&str> = outcome.outcomes.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec!["a", "ghost", "w", "a"]);
        let a = outcome.outcomes[0].1.as_ref().unwrap();
        assert_eq!(a.answers[0], QueryAnswer::Rank(Some(3)));
        assert_eq!(a.answers[1], QueryAnswer::Count(1));
        assert_eq!(outcome.outcomes[1].1, Err(OpError::UnknownSession));
        let w = outcome.outcomes[2].1.as_ref().unwrap();
        assert_eq!(w.answers[0], QueryAnswer::Rank(Some(30)));
        assert_eq!(w.answers[1], QueryAnswer::TopK(vec![(1, 30)]));
        let QueryAnswer::Certificate(cert) = &outcome.outcomes[3].1.as_ref().unwrap().answers[0]
        else {
            panic!("expected a certificate");
        };
        assert_eq!(cert.claimed, 3); // 1 < 5 < 7 (or 1 < 3 < 7)
                                     // Queries never create sessions.
        assert_eq!(engine.session_count(), 2);
    }

    #[test]
    fn mixed_read_write_ticks_read_their_own_writes() {
        let mut engine =
            Engine::new(EngineConfig { universe: 1 << 10, shards: 2, ..EngineConfig::default() });
        let tick = Tick::new()
            // Query before the session exists: typed error, no session
            // created (auto_create only applies to appends).
            .query("s", Query::RankOf(0))
            .append("s", vec![10u64, 20])
            // Query between two writes to the same session sees the first.
            .query("s", vec![Query::RankOf(1), Query::RankOf(2)])
            .append("s", vec![30u64])
            .query("s", Query::RankOf(2))
            .auto_create();
        let outcome = engine.execute(&tick);
        assert_eq!(outcome.total_ingested, 3);
        assert_eq!(outcome.total_queries, 3, "the missing-session batch answers nothing");
        assert_eq!(outcome.sessions_touched, 1);
        assert_eq!(outcome.weighted_sessions_touched, 0);
        assert_eq!(outcome.sessions_queried, 1);
        assert_eq!(outcome.failed_ops, 1);
        assert_eq!(outcome.outcomes[0].1, Err(OpError::UnknownSession));
        let mid = outcome.outcomes[2].1.as_ref().unwrap().as_answered().unwrap();
        assert_eq!(mid.answers, vec![QueryAnswer::Rank(Some(2)), QueryAnswer::Rank(None)]);
        let last = outcome.outcomes[4].1.as_ref().unwrap().as_answered().unwrap();
        assert_eq!(last.answers, vec![QueryAnswer::Rank(Some(3))]);
        assert_eq!(engine.lis_length("s"), Some(3));
    }

    #[test]
    fn session_ids_share_the_arc_allocation() {
        let id = SessionId::from("shared");
        let clone = id.clone();
        assert!(id.shares_allocation(&clone), "cloning must bump the refcount, not copy");
        let mut engine = Engine::with_universe(64);
        engine.execute(&Tick::new().append(id.clone(), vec![1, 2]).auto_create());
        let ids = engine.session_ids();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0], id);
    }
}
