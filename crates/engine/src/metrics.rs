//! The engine's telemetry plane: a registry of atomic counters and
//! log-scale latency histograms, plus the typed [`MetricsSnapshot`] read
//! surface.
//!
//! # Design
//!
//! Telemetry is **purely observational**: every instrumentation point reads
//! state the engine computes anyway (tick outcomes, ingest reports) or
//! wall-clock time, and writes only to relaxed atomics.  Outcomes are
//! bit-identical with telemetry enabled or disabled, at one thread or the
//! full pool — the determinism suite asserts this.
//!
//! One switch controls cost: [`Metrics::set_enabled`].  Disabled, the
//! timer helpers return `None`, the per-op clock reads are skipped, and
//! the tick recorder returns at once, so each op pays one relaxed load.
//!
//! Latencies go into [`plis_telemetry::AtomicHistogram`]s (fixed log-scale
//! buckets, ≤ 6.25 % relative error, lock-free merge), counters into
//! [`plis_telemetry::Counter`]s.

use crate::op::{OpOutput, TickOutcome};
use plis_telemetry::{json_line, AtomicHistogram, Counter, HistogramSnapshot, JsonValue};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Per-tick digest derived from one [`TickOutcome`] — what the tick
/// recorder just added to the cumulative registry, returned so the trace
/// sink can stamp the individual tick without re-deriving it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickDigest {
    /// Ingests in this tick, one per landed append.  Every ingest takes
    /// the sequential path, the only one sessions have.
    pub seq_ingests: u64,
}

/// The telemetry registry: cumulative counters and latency histograms
/// for one [`crate::Engine`].  All updates are relaxed atomics — safe
/// to hit from every worker thread of a tick with no synchronization
/// beyond the counters themselves.
#[derive(Debug, Default)]
pub struct Metrics {
    enabled: AtomicBool,
    ticks: Counter,
    ops_appended: Counter,
    ops_queried: Counter,
    ops_created: Counter,
    ops_removed: Counter,
    ops_snapshotted: Counter,
    ops_restored: Counter,
    ops_failed: Counter,
    elems_ingested: Counter,
    queries_answered: Counter,
    seq_ingests: Counter,
    inline_ticks: Counter,
    tick_ns: AtomicHistogram,
    op_ns: AtomicHistogram,
}

impl Metrics {
    /// A fresh registry, enabled.
    pub fn new() -> Self {
        let m = Metrics::default();
        m.enabled.store(true, Ordering::Relaxed);
        m
    }

    /// Turn recording on or off at runtime.  Disabled, the timer
    /// helpers return `None` (no clock reads on the hot path);
    /// outcomes are unaffected either way.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the registry is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start a wall-clock timer, or `None` when disabled.
    #[inline]
    pub(crate) fn start_timer(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Nanoseconds since `started` (0 when the timer never started).
    #[inline]
    pub(crate) fn elapsed_ns(started: Option<Instant>) -> u64 {
        started.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Record one op's latency from its timer (no-op if disabled).
    #[inline]
    pub(crate) fn record_op_since(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.op_ns.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Fold one executed tick into the registry (counters from the
    /// outcome's per-op results, latency from `elapsed_ns`) and return
    /// the tick's own digest for the trace sink.  `inline` says whether
    /// the executor processed the tick on the calling thread instead of
    /// the per-shard parallel spine.
    pub(crate) fn record_tick(&self, outcome: &TickOutcome, inline: bool) -> TickDigest {
        if !self.is_enabled() {
            return TickDigest::default();
        }
        self.ticks.inc();
        if inline {
            self.inline_ticks.inc();
        }
        if outcome.elapsed_ns != 0 {
            self.tick_ns.record(outcome.elapsed_ns);
        }
        self.elems_ingested.add(outcome.total_ingested as u64);
        self.queries_answered.add(outcome.total_queries as u64);
        self.ops_failed.add(outcome.failed_ops as u64);
        let mut digest = TickDigest::default();
        for (_, result) in &outcome.outcomes {
            match result {
                Ok(OpOutput::Appended(_)) => {
                    self.ops_appended.inc();
                    digest.seq_ingests += 1;
                }
                Ok(OpOutput::Answered(_)) => self.ops_queried.inc(),
                Ok(OpOutput::Created) => self.ops_created.inc(),
                Ok(OpOutput::Removed) => self.ops_removed.inc(),
                Ok(OpOutput::Snapshotted(_)) => self.ops_snapshotted.inc(),
                Ok(OpOutput::Restored) => self.ops_restored.inc(),
                Err(_) => {}
            }
        }
        self.seq_ingests.add(digest.seq_ingests);
        digest
    }

    /// Cumulative totals as a plain-data snapshot.  Session/memory
    /// fields are zero here; [`crate::Engine::metrics_snapshot`] fills
    /// them by walking the shards.
    pub(crate) fn counters_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            ticks: self.ticks.get(),
            ops_appended: self.ops_appended.get(),
            ops_queried: self.ops_queried.get(),
            ops_created: self.ops_created.get(),
            ops_removed: self.ops_removed.get(),
            ops_snapshotted: self.ops_snapshotted.get(),
            ops_restored: self.ops_restored.get(),
            ops_failed: self.ops_failed.get(),
            elems_ingested: self.elems_ingested.get(),
            queries_answered: self.queries_answered.get(),
            seq_ingests: self.seq_ingests.get(),
            inline_ticks: self.inline_ticks.get(),
            tick_latency: self.tick_ns.snapshot(),
            op_latency: self.op_ns.snapshot(),
            ..MetricsSnapshot::default()
        }
    }
}

/// A point-in-time copy of the whole telemetry plane: cumulative counters,
/// latency histograms, and the per-shard memory accounting the engine
/// fills in at snapshot time.  Plain data — `Clone`, comparable, and
/// serializable to the workspace's hand-rolled JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Ticks executed ([`crate::Engine::execute`], including the ticks
    /// [`crate::Engine::execute_read`] runs).
    pub ticks: u64,
    /// Append ops that succeeded.
    pub ops_appended: u64,
    /// Query ops that succeeded.
    pub ops_queried: u64,
    /// Create-session ops that succeeded.
    pub ops_created: u64,
    /// Remove-session ops that succeeded.
    pub ops_removed: u64,
    /// Snapshot ops that succeeded ([`crate::Op::Snapshot`]).
    pub ops_snapshotted: u64,
    /// Restore ops that succeeded ([`crate::Op::Restore`]).
    pub ops_restored: u64,
    /// Ops that resolved to a typed error.
    pub ops_failed: u64,
    /// Elements ingested across all append ops.
    pub elems_ingested: u64,
    /// Individual queries answered across all query ops.
    pub queries_answered: u64,
    /// Ingests, one per landed append.  Every ingest takes the sequential
    /// path, the only one sessions have.
    pub seq_ingests: u64,
    /// Always 0: sessions have no parallel merge ingest.  The field
    /// remains because the repository's benchmark harness (`perfbench`)
    /// reads it.
    pub par_merge_ingests: u64,
    /// Always 0, for the same reason as
    /// [`MetricsSnapshot::par_merge_ingests`].
    pub par_merge_elems: u64,
    /// Always 0, for the same reason as
    /// [`MetricsSnapshot::par_merge_ingests`].
    pub veb_delta_elems: u64,
    /// Always 0: sessions use no dominant-max store, so no ingest picks
    /// one.  The field remains because `perfbench` reads it.
    pub dommax_tree_picks: u64,
    /// Always 0, for the same reason as
    /// [`MetricsSnapshot::dommax_tree_picks`].
    pub dommax_veb_picks: u64,
    /// Always 0: sessions keep no vEB tail mirror, so no ingest picks one.
    /// The field remains because `perfbench` reads it.
    pub tailset_veb_picks: u64,
    /// Always 0, for the same reason as
    /// [`MetricsSnapshot::tailset_veb_picks`].
    pub tailset_sorted_picks: u64,
    /// Ticks with work for at most one shard, which run inline on the
    /// calling thread without a fork.
    pub inline_ticks: u64,
    /// Tick wall-time histogram (nanoseconds), reads included.
    pub tick_latency: HistogramSnapshot,
    /// Always empty: reads run as ticks and are timed in
    /// [`MetricsSnapshot::tick_latency`].  The field remains because
    /// `perfbench` reads its `sum`.
    pub read_latency: HistogramSnapshot,
    /// Per-op wall-time histogram (nanoseconds).
    pub op_latency: HistogramSnapshot,
    /// Live sessions at snapshot time.
    pub sessions: u64,
    /// Approximate heap footprint of all live sessions, in bytes.
    pub session_bytes: u64,
    /// The same footprint broken down per shard (index = shard).
    pub shard_bytes: Vec<u64>,
    /// Heap allocations observed since the engine was constructed, read
    /// from [`plis_telemetry::allocmeter`] at snapshot time.  Zero unless
    /// the binary installs a counting global allocator
    /// (`plis-testalloc`) — production builds never pay for this.
    pub alloc_count: u64,
    /// `alloc_count / elems_ingested`, floored — the steady-state
    /// allocation discipline figure.  Once a session's buffers have grown
    /// to their high-water capacity, ingest performs no per-element heap
    /// traffic and this is 0; the allocation-discipline tests and the
    /// streaming bench assert on it.  (Engine envelope allocations are
    /// `O(1)` per tick and vanish under the floor at any realistic batch
    /// size.)
    pub allocs_per_elem: u64,
    /// Capacity bytes of the weighted sessions' plain-batch staging
    /// buffers, summed over all live sessions (unweighted sessions keep no
    /// ingest scratch and count 0; see [`crate::SessionState::arena_bytes`]).
    pub arena_bytes: u64,
}

/// Nanoseconds to fractional microseconds for the JSON surface.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

impl MetricsSnapshot {
    /// Merge another snapshot's counters and histograms into this one
    /// (elementwise add; shard byte vectors are added index-wise).
    /// Associative and commutative, like the underlying histograms.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.ticks += other.ticks;
        self.ops_appended += other.ops_appended;
        self.ops_queried += other.ops_queried;
        self.ops_created += other.ops_created;
        self.ops_removed += other.ops_removed;
        self.ops_snapshotted += other.ops_snapshotted;
        self.ops_restored += other.ops_restored;
        self.ops_failed += other.ops_failed;
        self.elems_ingested += other.elems_ingested;
        self.queries_answered += other.queries_answered;
        self.seq_ingests += other.seq_ingests;
        self.inline_ticks += other.inline_ticks;
        self.tick_latency.merge(&other.tick_latency);
        self.op_latency.merge(&other.op_latency);
        self.sessions += other.sessions;
        self.session_bytes += other.session_bytes;
        if self.shard_bytes.len() < other.shard_bytes.len() {
            self.shard_bytes.resize(other.shard_bytes.len(), 0);
        }
        for (mine, theirs) in self.shard_bytes.iter_mut().zip(&other.shard_bytes) {
            *mine += theirs;
        }
        self.alloc_count += other.alloc_count;
        self.arena_bytes += other.arena_bytes;
        // A ratio, not a counter: recompute over the merged totals rather
        // than adding the per-snapshot floors.
        self.allocs_per_elem = self.alloc_count.checked_div(self.elems_ingested).unwrap_or(0);
    }

    /// One JSON object (no trailing newline) with every counter and the
    /// headline latency percentiles in microseconds — the same hand-rolled
    /// format the bench bins emit, so snapshot lines mix into their
    /// output.
    pub fn to_json_line(&self) -> String {
        json_line(&[
            ("ticks", JsonValue::from(self.ticks)),
            ("ops_appended", JsonValue::from(self.ops_appended)),
            ("ops_queried", JsonValue::from(self.ops_queried)),
            ("ops_created", JsonValue::from(self.ops_created)),
            ("ops_removed", JsonValue::from(self.ops_removed)),
            ("ops_snapshotted", JsonValue::from(self.ops_snapshotted)),
            ("ops_restored", JsonValue::from(self.ops_restored)),
            ("ops_failed", JsonValue::from(self.ops_failed)),
            ("elems_ingested", JsonValue::from(self.elems_ingested)),
            ("queries_answered", JsonValue::from(self.queries_answered)),
            ("seq_ticks", JsonValue::from(self.seq_ingests)),
            ("inline_ticks", JsonValue::from(self.inline_ticks)),
            ("tick_p50_us", JsonValue::from(us(self.tick_latency.p50()))),
            ("tick_p90_us", JsonValue::from(us(self.tick_latency.p90()))),
            ("tick_p99_us", JsonValue::from(us(self.tick_latency.p99()))),
            ("tick_max_us", JsonValue::from(us(self.tick_latency.max))),
            ("op_p99_us", JsonValue::from(us(self.op_latency.p99()))),
            ("sessions", JsonValue::from(self.sessions)),
            ("session_bytes", JsonValue::from(self.session_bytes)),
            ("alloc_count", JsonValue::from(self.alloc_count)),
            ("allocs_per_elem", JsonValue::from(self.allocs_per_elem)),
            ("arena_bytes", JsonValue::from(self.arena_bytes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_is_elementwise() {
        let mut a = MetricsSnapshot { ticks: 2, elems_ingested: 10, ..Default::default() };
        a.shard_bytes = vec![5, 7];
        let mut b = MetricsSnapshot { ticks: 3, session_bytes: 40, ..Default::default() };
        b.shard_bytes = vec![1, 2, 3];
        a.merge(&b);
        assert_eq!(a.ticks, 5);
        assert_eq!(a.elems_ingested, 10);
        assert_eq!(a.session_bytes, 40);
        assert_eq!(a.shard_bytes, vec![6, 9, 3]);
    }

    #[test]
    fn json_line_has_the_bench_fields() {
        let snap = MetricsSnapshot { ticks: 7, session_bytes: 1234, ..Default::default() };
        let line = snap.to_json_line();
        for key in ["\"ticks\": 7", "\"tick_p50_us\"", "\"tick_p99_us\"", "\"session_bytes\": 1234"]
        {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}
