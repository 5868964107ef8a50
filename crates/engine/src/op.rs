//! The engine's **command plane**: one typed submission API for every
//! kind of traffic the engine serves.
//!
//! * [`Op`] — one command: append a batch (plain or weighted), answer a
//!   query batch, or an **explicit lifecycle step**
//!   ([`Op::CreateSession`] / [`Op::RemoveSession`]), so session
//!   creation stops being an implicit side effect of ingest.
//! * [`Tick`] — a builder that groups ops per [`SessionId`] in
//!   submission order.  Ops addressed to the same session apply in
//!   exactly that order (a session lives in one shard, and each shard
//!   replays its slice of the tick sequentially), so reads observe every
//!   earlier write of the same tick.
//! * [`Engine::execute`](crate::Engine::execute) — the one tick
//!   executor, returning a [`TickOutcome`].
//!   [`Engine::execute_read`](crate::Engine::execute_read) is an adapter
//!   over it: it lowers a [`ReadTick`] of query batches into
//!   [`Op::Query`] slots and hands back a [`ReadOutcome`].
//! * Every op resolves to a typed [`Result<OpOutput, OpError>`]: a
//!   malformed slot ([`OpError::KindMismatch`],
//!   [`OpError::UniverseOverflow`], [`OpError::UnknownSession`],
//!   [`OpError::SessionExists`]) degrades *per op* instead of killing
//!   the process or vanishing from the report.

use crate::engine::{BatchReport, SessionId, SessionKind};
use crate::query::{Query, QueryBatch, QueryReport};
use crate::snapshot::{SessionSnapshot, SnapshotError};

/// One command addressed to a session — the unit of every [`Tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Append a batch of plain values to an unweighted session (or to a
    /// weighted one, which ingests them with unit weights).
    Append(Vec<u64>),
    /// Append a batch of `(value, weight)` pairs to a weighted session.
    /// Aimed at an unweighted session this fails with
    /// [`OpError::KindMismatch`] — it does not panic and does not touch
    /// the session.
    AppendWeighted(Vec<(u64, u64)>),
    /// Answer a batch of queries against the session state so far —
    /// including every earlier op of the *same tick* addressed to it.
    Query(QueryBatch),
    /// Create an empty session of the given kind.  Fails with
    /// [`OpError::SessionExists`] if the id is already live (whatever
    /// its kind).
    CreateSession {
        /// The kind the new session serves.
        kind: SessionKind,
    },
    /// Drop the session and all its state.  Fails with
    /// [`OpError::UnknownSession`] if the id is not live.
    RemoveSession,
    /// Capture a point-in-time [`SessionSnapshot`] of the session; the
    /// snapshot rides back on [`OpOutput::Snapshotted`].  Running the
    /// capture as an op makes checkpointing **tick-ordered** like every
    /// other command: the snapshot observes every earlier op of the same
    /// tick addressed to this session and none after it.  Fails with
    /// [`OpError::UnknownSession`] if the id is not live.
    Snapshot,
    /// Rebuild a session under this id by ingesting the snapshot's stream
    /// (boxed: a snapshot carries a whole stream and would otherwise
    /// dominate the size of every `Op`).  Fails with
    /// [`OpError::SessionExists`] if the id is already live,
    /// [`OpError::UniverseMismatch`] if the snapshot was taken over a
    /// different universe, and [`OpError::InvalidSnapshot`] if its stream
    /// could not be ingested (an empty universe, a value outside it, or an
    /// unweighted stream too long to address); on any failure nothing is
    /// created.
    Restore(Box<SessionSnapshot>),
}

impl Op {
    /// Elements this op would append (0 for non-appends).
    pub fn appends(&self) -> usize {
        match self {
            Op::Append(b) => b.len(),
            Op::AppendWeighted(b) => b.len(),
            _ => 0,
        }
    }

    /// Queries this op would answer (0 for non-queries).
    pub fn queries(&self) -> usize {
        match self {
            Op::Query(q) => q.len(),
            _ => 0,
        }
    }
}

impl From<Vec<u64>> for Op {
    fn from(batch: Vec<u64>) -> Self {
        Op::Append(batch)
    }
}

impl From<Vec<(u64, u64)>> for Op {
    fn from(batch: Vec<(u64, u64)>) -> Self {
        Op::AppendWeighted(batch)
    }
}

impl From<QueryBatch> for Op {
    fn from(batch: QueryBatch) -> Self {
        Op::Query(batch)
    }
}

impl From<Query> for Op {
    fn from(query: Query) -> Self {
        Op::Query(query.into())
    }
}

impl From<plis_workloads::streaming::ReadWriteOp<u64>> for Op {
    /// The canonical 1:1 map from the workload generator's
    /// engine-agnostic read/write ops onto live commands: `Write`
    /// batches become [`Op::Append`], `Read` specs become [`Op::Query`]
    /// via the shared [`QuerySpec`](plis_workloads::streaming::QuerySpec)
    /// → [`Query`] conversion.
    fn from(op: plis_workloads::streaming::ReadWriteOp<u64>) -> Self {
        use plis_workloads::streaming::ReadWriteOp;
        match op {
            ReadWriteOp::Write(batch) => Op::Append(batch),
            ReadWriteOp::Read(specs) => {
                Op::Query(QueryBatch::new(specs.into_iter().map(Query::from).collect()))
            }
        }
    }
}

impl From<plis_workloads::streaming::ReadWriteOp<(u64, u64)>> for Op {
    /// The weighted leg of the 1:1 map: `Write` batches of
    /// `(value, weight)` pairs become [`Op::AppendWeighted`].
    fn from(op: plis_workloads::streaming::ReadWriteOp<(u64, u64)>) -> Self {
        use plis_workloads::streaming::ReadWriteOp;
        match op {
            ReadWriteOp::Write(batch) => Op::AppendWeighted(batch),
            ReadWriteOp::Read(specs) => {
                Op::Query(QueryBatch::new(specs.into_iter().map(Query::from).collect()))
            }
        }
    }
}

/// One tick of commands: `(session, op)` slots in submission order, the
/// single input shape of [`Engine::execute`](crate::Engine::execute).
///
/// Build one with the chainable methods ([`Tick::append`],
/// [`Tick::query`], [`Tick::create`], …), with [`Tick::push`], or collect
/// one from any iterator of `(id, op)` pairs whose parts convert into
/// [`SessionId`] / [`Op`].
///
/// By default the tick is **strict**: every op addressed to a session
/// that does not exist fails with [`OpError::UnknownSession`], and
/// sessions come into being only through [`Op::CreateSession`].
/// [`Tick::auto_create`] opts appends into creating their target on
/// first contact (plain batches create the
/// configured default kind, weighted batches create a weighted session);
/// queries never create sessions under either policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tick {
    slots: Vec<(SessionId, Op)>,
    create_missing: bool,
}

impl Tick {
    /// An empty strict tick.
    pub fn new() -> Self {
        Tick::default()
    }

    /// Let append ops create their target session on first contact
    /// instead of failing with [`OpError::UnknownSession`].
    pub fn auto_create(mut self) -> Self {
        self.create_missing = true;
        self
    }

    /// Whether appends create missing sessions (see [`Tick::auto_create`]).
    pub fn creates_missing(&self) -> bool {
        self.create_missing
    }

    /// Add one op for `id` (chainable).
    pub fn op(mut self, id: impl Into<SessionId>, op: impl Into<Op>) -> Self {
        self.push(id, op);
        self
    }

    /// Append a plain batch to `id` (chainable).
    pub fn append(self, id: impl Into<SessionId>, batch: Vec<u64>) -> Self {
        self.op(id, Op::Append(batch))
    }

    /// Append a weighted batch to `id` (chainable).
    pub fn append_weighted(self, id: impl Into<SessionId>, batch: Vec<(u64, u64)>) -> Self {
        self.op(id, Op::AppendWeighted(batch))
    }

    /// Answer a query batch against `id` (chainable).
    pub fn query(self, id: impl Into<SessionId>, batch: impl Into<QueryBatch>) -> Self {
        self.op(id, Op::Query(batch.into()))
    }

    /// Create an empty session of `kind` under `id` (chainable).
    pub fn create(self, id: impl Into<SessionId>, kind: SessionKind) -> Self {
        self.op(id, Op::CreateSession { kind })
    }

    /// Remove the session under `id` (chainable).
    pub fn remove(self, id: impl Into<SessionId>) -> Self {
        self.op(id, Op::RemoveSession)
    }

    /// Capture a tick-ordered snapshot of the session under `id`
    /// (chainable).
    pub fn snapshot(self, id: impl Into<SessionId>) -> Self {
        self.op(id, Op::Snapshot)
    }

    /// Restore a session from `snapshot` under `id` (chainable).
    pub fn restore(self, id: impl Into<SessionId>, snapshot: SessionSnapshot) -> Self {
        self.op(id, Op::Restore(Box::new(snapshot)))
    }

    /// Add one op for `id` without consuming the builder.
    pub fn push(&mut self, id: impl Into<SessionId>, op: impl Into<Op>) {
        self.slots.push((id.into(), op.into()));
    }

    /// The slots, in submission order.
    pub fn slots(&self) -> &[(SessionId, Op)] {
        &self.slots
    }

    /// Take the slots out, in submission order (moves the ops; the
    /// [`Tick::creates_missing`] flag is dropped).
    pub fn into_slots(self) -> Vec<(SessionId, Op)> {
        self.slots
    }

    /// Number of ops in the tick.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the tick holds no ops.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<I: Into<SessionId>, O: Into<Op>> FromIterator<(I, O)> for Tick {
    fn from_iter<T: IntoIterator<Item = (I, O)>>(iter: T) -> Self {
        Tick {
            slots: iter.into_iter().map(|(id, op)| (id.into(), op.into())).collect(),
            create_missing: false,
        }
    }
}

impl<I: Into<SessionId>, O: Into<Op>> Extend<(I, O)> for Tick {
    fn extend<T: IntoIterator<Item = (I, O)>>(&mut self, iter: T) {
        self.slots.extend(iter.into_iter().map(|(id, op)| (id.into(), op.into())));
    }
}

/// One read-only tick: `(session, queries)` slots in submission order,
/// the input shape of [`Engine::execute_read`](crate::Engine::execute_read).
///
/// Each slot runs as one [`Op::Query`] slot of a strict [`Tick`]: reads
/// mutate no session and never create one, and a slot addressed to an
/// absent session fails with [`OpError::UnknownSession`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadTick {
    slots: Vec<(SessionId, QueryBatch)>,
}

impl ReadTick {
    /// An empty read tick.
    pub fn new() -> Self {
        ReadTick::default()
    }

    /// Add one query batch for `id` (chainable).
    pub fn query(mut self, id: impl Into<SessionId>, batch: impl Into<QueryBatch>) -> Self {
        self.push(id, batch);
        self
    }

    /// Add one query batch for `id` without consuming the builder.
    pub fn push(&mut self, id: impl Into<SessionId>, batch: impl Into<QueryBatch>) {
        self.slots.push((id.into(), batch.into()));
    }

    /// The slots, in submission order.
    pub fn slots(&self) -> &[(SessionId, QueryBatch)] {
        &self.slots
    }

    /// Take the slots out, in submission order (moves the query batches).
    pub fn into_slots(self) -> Vec<(SessionId, QueryBatch)> {
        self.slots
    }

    /// Number of query batches in the tick.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the tick holds no query batches.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<I: Into<SessionId>, Q: Into<QueryBatch>> FromIterator<(I, Q)> for ReadTick {
    fn from_iter<T: IntoIterator<Item = (I, Q)>>(iter: T) -> Self {
        ReadTick { slots: iter.into_iter().map(|(id, q)| (id.into(), q.into())).collect() }
    }
}

/// What one successfully executed [`Op`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// An append landed; the per-kind ingest report.
    Appended(BatchReport),
    /// A query batch was answered, in batch order.
    Answered(QueryReport),
    /// [`Op::CreateSession`] created the session.
    Created,
    /// [`Op::RemoveSession`] dropped the session.
    Removed,
    /// [`Op::Snapshot`] captured the session; the snapshot rides the
    /// outcome (boxed for the same size reason as [`Op::Restore`]).
    Snapshotted(Box<SessionSnapshot>),
    /// [`Op::Restore`] rebuilt the session from its snapshot.
    Restored,
}

impl OpOutput {
    /// Elements ingested by this op (0 for non-appends).
    pub fn ingested(&self) -> usize {
        match self {
            OpOutput::Appended(r) => r.ingested(),
            _ => 0,
        }
    }

    /// Queries answered by this op (0 for non-queries).
    pub fn queries(&self) -> usize {
        match self {
            OpOutput::Answered(r) => r.answers.len(),
            _ => 0,
        }
    }

    /// The ingest report, if this op was an append.
    pub fn as_appended(&self) -> Option<&BatchReport> {
        match self {
            OpOutput::Appended(r) => Some(r),
            _ => None,
        }
    }

    /// The query report, if this op was a query.
    pub fn as_answered(&self) -> Option<&QueryReport> {
        match self {
            OpOutput::Answered(r) => Some(r),
            _ => None,
        }
    }

    /// The captured snapshot, if this op was a [`Op::Snapshot`].
    pub fn as_snapshot(&self) -> Option<&SessionSnapshot> {
        match self {
            OpOutput::Snapshotted(s) => Some(s),
            _ => None,
        }
    }
}

/// Why one [`Op`] was rejected.  A rejected op never touches the session
/// (appends are validated before any element is ingested), and never
/// affects its tick neighbours — the rest of the tick executes normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The op addressed a session that does not exist (and, for appends,
    /// the tick did not opt into [`Tick::auto_create`]).
    UnknownSession,
    /// The batch kind does not fit the session kind: today this is
    /// exactly a weighted batch aimed at an unweighted session.  (Plain
    /// batches into weighted sessions are fine — they ingest with unit
    /// weights.)
    KindMismatch {
        /// Kind of the live session the op addressed.
        session: SessionKind,
        /// Kind the batch payload implied.
        batch: SessionKind,
    },
    /// An appended value falls outside the engine's value universe
    /// `[0, universe)`.  The whole batch is rejected atomically.
    UniverseOverflow {
        /// The offending value (the first one found).
        value: u64,
        /// The configured universe bound.
        universe: u64,
    },
    /// A weighted append whose weights (1 per element of a plain batch)
    /// would push the session's weight total past `u64::MAX`.  The total
    /// bounds every dp score, so below it no score can overflow.  The
    /// whole batch is rejected atomically.
    ScoreOverflow,
    /// [`Op::CreateSession`] addressed an id that is already live.
    SessionExists {
        /// Kind of the session already holding the id.
        kind: SessionKind,
    },
    /// [`Op::Restore`] offered a snapshot taken over a different value
    /// universe than the engine is configured with.
    UniverseMismatch {
        /// Universe the snapshot was captured over.
        snapshot: u64,
        /// Universe the engine is configured with.
        universe: u64,
    },
    /// [`Op::Restore`] offered a snapshot built in code whose stream
    /// cannot be ingested; the embedded [`SnapshotError`] names the check
    /// of [`SessionSnapshot::validate`] that failed.  Nothing was
    /// restored.
    InvalidSnapshot(SnapshotError),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::UnknownSession => write!(f, "session does not exist"),
            OpError::KindMismatch { session, batch } => {
                write!(f, "{batch:?} batch sent to {session:?} session")
            }
            OpError::UniverseOverflow { value, universe } => {
                write!(f, "value {value} outside the universe [0, {universe})")
            }
            OpError::ScoreOverflow => {
                write!(f, "batch weights would push the weight total past u64::MAX")
            }
            OpError::SessionExists { kind } => {
                write!(f, "session already exists (kind {kind:?})")
            }
            OpError::UniverseMismatch { snapshot, universe } => {
                write!(f, "snapshot universe {snapshot} does not match engine universe {universe}")
            }
            OpError::InvalidSnapshot(e) => {
                write!(f, "snapshot rejected: {e}")
            }
        }
    }
}

impl std::error::Error for OpError {}

/// The typed result of one op: what it did, or why it was rejected.
pub type OpResult = Result<OpOutput, OpError>;

/// What one [`Engine::execute`](crate::Engine::execute) call did: one
/// [`OpResult`] per submitted op, in submission order, plus aggregate
/// counters over them.
///
/// # Equality is structural
///
/// This is the canonical statement of the outcome-equality invariant
/// (both outcome types follow it): `==` compares only the *algorithmic*
/// content of an outcome — per-op results and their aggregates — and
/// excludes every observational field, i.e. anything that varies run to
/// run under an identical schedule: [`TickOutcome::worker_threads`]
/// (scheduling-dependent) and [`TickOutcome::elapsed_ns`] (wall-clock,
/// and zero when telemetry is disabled).  So whole outcomes from a
/// 1-thread run, a full-pool run, and a telemetry-off run of the same
/// schedule all compare equal — the determinism guarantee the test
/// suites assert.  Any new timing or telemetry field on an outcome type
/// must join this exclusion list.
#[derive(Debug, Clone)]
pub struct TickOutcome {
    /// One result per input op, in the original tick order.
    pub outcomes: Vec<(SessionId, OpResult)>,
    /// Total elements ingested by the append ops that landed.
    pub total_ingested: usize,
    /// Total queries answered by the query ops that landed.
    pub total_queries: usize,
    /// Number of distinct sessions that received data.
    pub sessions_touched: usize,
    /// Of [`TickOutcome::sessions_touched`], how many were weighted
    /// sessions — the session-kind axis of the tick.
    pub weighted_sessions_touched: usize,
    /// Number of distinct sessions that answered queries.
    pub sessions_queried: usize,
    /// Sessions created by explicit [`Op::CreateSession`] ops.
    pub sessions_created: usize,
    /// Sessions dropped by [`Op::RemoveSession`] ops.
    pub sessions_removed: usize,
    /// Sessions captured by [`Op::Snapshot`] ops.
    pub sessions_snapshotted: usize,
    /// Sessions rebuilt by [`Op::Restore`] ops.
    pub sessions_restored: usize,
    /// Number of ops rejected with an [`OpError`].
    pub failed_ops: usize,
    /// Number of distinct worker threads that processed shards in this
    /// tick.  Purely observational (scheduling-dependent): it is 1 under
    /// a 1-thread pool and may exceed 1 when the pool and the
    /// helper-thread budget allow real parallelism.  Excluded from
    /// `==` so determinism comparisons can use whole outcomes.
    pub worker_threads: usize,
    /// Wall-clock time the tick took, in nanoseconds.  Observational:
    /// 0 when telemetry is disabled, and excluded from `==` like
    /// [`TickOutcome::worker_threads`] (see the type docs).
    pub elapsed_ns: u64,
}

impl PartialEq for TickOutcome {
    /// Field-wise equality, excluding the observational
    /// [`TickOutcome::worker_threads`] and [`TickOutcome::elapsed_ns`]
    /// (see the type docs for the invariant).
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.total_ingested == other.total_ingested
            && self.total_queries == other.total_queries
            && self.sessions_touched == other.sessions_touched
            && self.weighted_sessions_touched == other.weighted_sessions_touched
            && self.sessions_queried == other.sessions_queried
            && self.sessions_created == other.sessions_created
            && self.sessions_removed == other.sessions_removed
            && self.sessions_snapshotted == other.sessions_snapshotted
            && self.sessions_restored == other.sessions_restored
            && self.failed_ops == other.failed_ops
    }
}

impl Eq for TickOutcome {}

impl TickOutcome {
    /// Build the outcome (aggregates included) from reassembled per-op
    /// results.
    pub(crate) fn collect(outcomes: Vec<(SessionId, OpResult)>, worker_threads: usize) -> Self {
        let total_ingested =
            outcomes.iter().map(|(_, r)| r.as_ref().map_or(0, |o| o.ingested())).sum();
        let total_queries =
            outcomes.iter().map(|(_, r)| r.as_ref().map_or(0, |o| o.queries())).sum();
        let (sessions_touched, weighted_sessions_touched) =
            distinct_sessions(outcomes.iter().filter_map(|(id, r)| {
                r.as_ref()
                    .ok()
                    .and_then(OpOutput::as_appended)
                    .map(|report| (id.as_str(), matches!(report, BatchReport::Weighted(_))))
            }));
        let (sessions_queried, _) = distinct_sessions(outcomes.iter().filter_map(|(id, r)| {
            r.as_ref().ok().and_then(OpOutput::as_answered).map(|_| (id.as_str(), false))
        }));
        let count = |want: &OpOutput| {
            outcomes.iter().filter(|(_, r)| r.as_ref().ok() == Some(want)).count()
        };
        TickOutcome {
            total_ingested,
            total_queries,
            sessions_touched,
            weighted_sessions_touched,
            sessions_queried,
            sessions_created: count(&OpOutput::Created),
            sessions_removed: count(&OpOutput::Removed),
            sessions_snapshotted: outcomes
                .iter()
                .filter(|(_, r)| matches!(r, Ok(OpOutput::Snapshotted(_))))
                .count(),
            sessions_restored: count(&OpOutput::Restored),
            failed_ops: outcomes.iter().filter(|(_, r)| r.is_err()).count(),
            worker_threads,
            elapsed_ns: 0,
            outcomes,
        }
    }

    /// Rebuild a whole outcome from per-op results plus the observational
    /// gauges — the aggregates are re-derived from the results, so they
    /// can never disagree with them.  This is how the service plane
    /// reconstitutes outcomes on the far side of a wire (and how the
    /// server slices one combined batch outcome back into per-request
    /// outcomes).
    pub fn from_parts(
        outcomes: Vec<(SessionId, OpResult)>,
        worker_threads: usize,
        elapsed_ns: u64,
    ) -> Self {
        let mut outcome = TickOutcome::collect(outcomes, worker_threads);
        outcome.elapsed_ns = elapsed_ns;
        outcome
    }

    /// The ops that landed, in tick order.
    pub fn outputs(&self) -> impl Iterator<Item = (&SessionId, &OpOutput)> {
        self.outcomes.iter().filter_map(|(id, r)| r.as_ref().ok().map(|o| (id, o)))
    }

    /// The ops that were rejected, in tick order.
    pub fn errors(&self) -> impl Iterator<Item = (&SessionId, &OpError)> {
        self.outcomes.iter().filter_map(|(id, r)| r.as_ref().err().map(|e| (id, e)))
    }

    /// True when every op of the tick landed.
    pub fn fully_applied(&self) -> bool {
        self.failed_ops == 0
    }
}

/// What one [`Engine::execute_read`](crate::Engine::execute_read) call
/// did: one typed result per query batch, in submission order.  Built
/// from the results of the batches' [`Op::Query`] slots by
/// [`ReadOutcome::from_query_results`].
///
/// Equality is structural, exactly like [`TickOutcome`] (see its type
/// docs for the invariant): [`ReadOutcome::worker_threads`] and
/// [`ReadOutcome::elapsed_ns`] are observational and excluded from `==`.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// One result per input query batch, in the original tick order.
    pub outcomes: Vec<(SessionId, Result<QueryReport, OpError>)>,
    /// Total queries answered across the batches that landed.
    pub total_queries: usize,
    /// Number of distinct existing sessions that answered queries.
    pub sessions_queried: usize,
    /// Number of distinct session ids addressed that do not exist.
    pub sessions_missing: usize,
    /// Number of distinct worker threads that served shards (see
    /// [`TickOutcome::worker_threads`]; excluded from `==` like there).
    pub worker_threads: usize,
    /// Wall-clock time of the tick that answered the batches, in
    /// nanoseconds.  0 when telemetry is disabled; excluded from `==` (see
    /// [`TickOutcome`]).
    pub elapsed_ns: u64,
}

impl PartialEq for ReadOutcome {
    /// Field-wise equality, excluding the observational
    /// [`ReadOutcome::worker_threads`] and [`ReadOutcome::elapsed_ns`].
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.total_queries == other.total_queries
            && self.sessions_queried == other.sessions_queried
            && self.sessions_missing == other.sessions_missing
    }
}

impl Eq for ReadOutcome {}

impl ReadOutcome {
    /// Rebuild a whole outcome from per-slot results plus the
    /// observational gauges (see [`TickOutcome::from_parts`]).
    pub fn from_parts(
        outcomes: Vec<(SessionId, Result<QueryReport, OpError>)>,
        worker_threads: usize,
        elapsed_ns: u64,
    ) -> Self {
        let total_queries =
            outcomes.iter().map(|(_, r)| r.as_ref().map_or(0, |q| q.answers.len())).sum();
        let (sessions_queried, _) = distinct_sessions(
            outcomes.iter().filter(|(_, r)| r.is_ok()).map(|(id, _)| (id.as_str(), false)),
        );
        let (sessions_missing, _) = distinct_sessions(
            outcomes.iter().filter(|(_, r)| r.is_err()).map(|(id, _)| (id.as_str(), false)),
        );
        ReadOutcome {
            total_queries,
            sessions_queried,
            sessions_missing,
            worker_threads,
            elapsed_ns,
            outcomes,
        }
    }

    /// The read outcome of [`Op::Query`] slots executed in a [`Tick`]:
    /// their [`OpResult`]s, in slot order, plus the tick's observational
    /// gauges.  [`Engine::execute_read`](crate::Engine::execute_read) and
    /// the server's read replies both build their outcomes here.
    ///
    /// # Panics
    /// Panics on a result that no query slot produces (an append's,
    /// lifecycle op's or checkpoint's output).
    pub fn from_query_results(
        results: impl IntoIterator<Item = (SessionId, OpResult)>,
        worker_threads: usize,
        elapsed_ns: u64,
    ) -> Self {
        let outcomes = results
            .into_iter()
            .map(|(id, result)| {
                let answered = result.map(|output| match output {
                    OpOutput::Answered(report) => report,
                    other => panic!("a query slot resolved to {other:?}"),
                });
                (id, answered)
            })
            .collect();
        ReadOutcome::from_parts(outcomes, worker_threads, elapsed_ns)
    }

    /// The query batches that landed, in tick order.
    pub fn answers(&self) -> impl Iterator<Item = (&SessionId, &QueryReport)> {
        self.outcomes.iter().filter_map(|(id, r)| r.as_ref().ok().map(|q| (id, q)))
    }

    /// True when every addressed session existed and answered.
    pub fn fully_answered(&self) -> bool {
        self.sessions_missing == 0
    }
}

/// Distinct sessions among `(name, flag)` pairs: `(total, flagged)`
/// counts — the session-axis summaries of the tick outcomes.  `total`
/// dedups on the *name* alone and `flagged` counts names carrying the
/// flag on any of their pairs: a session whose kind flips within one
/// tick (remove + re-create, now expressible with explicit lifecycle
/// ops) is still one touched session.
fn distinct_sessions<'a>(pairs: impl Iterator<Item = (&'a str, bool)>) -> (usize, usize) {
    let mut names: Vec<(&str, bool)> = pairs.collect();
    names.sort_unstable();
    names.dedup_by(|next, kept| {
        if next.0 == kept.0 {
            kept.1 |= next.1;
            true
        } else {
            false
        }
    });
    let flagged = names.iter().filter(|&&(_, flag)| flag).count();
    (names.len(), flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_builder_preserves_submission_order() {
        let tick = Tick::new()
            .create("a", SessionKind::Unweighted)
            .append("a", vec![1, 2])
            .query("a", Query::RankOf(0))
            .append_weighted("w", vec![(1, 5)])
            .remove("a");
        assert_eq!(tick.len(), 5);
        assert!(!tick.is_empty());
        assert!(!tick.creates_missing());
        let kinds: Vec<&Op> = tick.slots().iter().map(|(_, op)| op).collect();
        assert!(matches!(kinds[0], Op::CreateSession { kind: SessionKind::Unweighted }));
        assert!(matches!(kinds[1], Op::Append(_)));
        assert!(matches!(kinds[2], Op::Query(_)));
        assert!(matches!(kinds[3], Op::AppendWeighted(_)));
        assert!(matches!(kinds[4], Op::RemoveSession));
        assert_eq!(tick.slots()[1].0.as_str(), "a");
        assert_eq!(tick.slots()[3].0.as_str(), "w");
    }

    #[test]
    fn ticks_collect_from_op_convertible_pairs() {
        let tick: Tick = vec![("a", vec![1u64, 2]), ("b", vec![3u64])].into_iter().collect();
        assert_eq!(tick.len(), 2);
        assert_eq!(tick.slots()[0].1, Op::Append(vec![1, 2]));
        assert!(!tick.creates_missing());
        let tick = tick.auto_create();
        assert!(tick.creates_missing());

        let mut tick = Tick::new();
        tick.extend(vec![("w", vec![(1u64, 2u64)])]);
        assert_eq!(tick.slots()[0].1, Op::AppendWeighted(vec![(1, 2)]));
    }

    #[test]
    fn read_write_ops_map_one_to_one() {
        use plis_workloads::streaming::{QuerySpec, ReadWriteOp};
        assert_eq!(Op::from(ReadWriteOp::Write(vec![7u64])), Op::Append(vec![7]));
        assert_eq!(
            Op::from(ReadWriteOp::Write(vec![(7u64, 3u64)])),
            Op::AppendWeighted(vec![(7, 3)])
        );
        let read: ReadWriteOp<u64> = ReadWriteOp::Read(vec![QuerySpec::TopK(2)]);
        assert_eq!(Op::from(read), Op::Query(Query::TopK(2).into()));
        assert_eq!(Op::from(QueryBatch::from(Query::Certificate)).queries(), 1);
    }

    #[test]
    fn op_counters_match_payloads() {
        assert_eq!(Op::Append(vec![1, 2, 3]).appends(), 3);
        assert_eq!(Op::AppendWeighted(vec![(1, 1)]).appends(), 1);
        assert_eq!(Op::Append(vec![1]).queries(), 0);
        assert_eq!(Op::from(Query::Certificate).queries(), 1);
        assert_eq!(Op::RemoveSession.appends(), 0);
        assert_eq!(Op::CreateSession { kind: SessionKind::Weighted }.queries(), 0);
    }

    #[test]
    fn op_errors_render_and_compare() {
        let mismatch = OpError::KindMismatch {
            session: SessionKind::Unweighted,
            batch: SessionKind::Weighted,
        };
        assert_eq!(mismatch.to_string(), "Weighted batch sent to Unweighted session");
        assert_eq!(OpError::UnknownSession.to_string(), "session does not exist");
        assert_eq!(
            OpError::UniverseOverflow { value: 9, universe: 8 }.to_string(),
            "value 9 outside the universe [0, 8)"
        );
        assert!(OpError::SessionExists { kind: SessionKind::Weighted }
            .to_string()
            .contains("already exists"));
        let err: &dyn std::error::Error = &mismatch;
        assert!(err.source().is_none());
    }

    #[test]
    fn read_tick_builder_collects_query_batches() {
        let tick: ReadTick =
            vec![("a", QueryBatch::from(Query::Certificate))].into_iter().collect();
        assert_eq!(tick.len(), 1);
        let tick = tick.query("b", vec![Query::RankOf(0), Query::CountAt(1)]);
        assert_eq!(tick.len(), 2);
        assert_eq!(tick.slots()[1].1.len(), 2);
        assert!(!tick.is_empty());
        assert!(ReadTick::new().is_empty());
    }
}
