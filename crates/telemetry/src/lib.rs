//! Dependency-free telemetry primitives for the workspace.
//!
//! The build environment has no network access to a crates registry, so the
//! usual observability stack (`hdrhistogram`, `metrics`, `serde_json`) is
//! unavailable; this crate provides the minimal pieces the engine needs,
//! hand-rolled:
//!
//! * [`AtomicHistogram`] / [`HistogramSnapshot`] — a fixed-bucket log-scale
//!   latency histogram in the HdrHistogram family: exact below 16, then 16
//!   log-linear sub-buckets per power of two (≤ 6.25 % relative error),
//!   covering all of `u64` in 976 buckets.  Recording is three relaxed
//!   atomic operations; snapshots merge associatively and answer
//!   p50/p90/p99/max.
//! * [`Counter`] — a relaxed [`AtomicU64`] event counter.
//! * [`allocmeter`] — process-wide and per-thread heap-allocation
//!   counters fed by a counting global allocator (`plis-testalloc`), read
//!   by the engine's allocations-per-element telemetry and the
//!   allocation-discipline tests.
//! * [`TraceSink`] / [`MemorySink`] — a cloneable JSON-lines event writer
//!   behind a shared handle, for per-tick trace events.
//! * [`JournalWriter`] / [`read_journal`] — an append-only length-prefixed
//!   binary record log (each record CRC-64 checksummed) that tolerates a
//!   torn trailing write; the engine's tick journal and snapshot files are
//!   framed with it.  [`crc64`] is the shared checksum.
//! * [`json_line`] / [`JsonValue`] — the hand-rolled single-line JSON
//!   object renderer the `BENCH_*.json` perf-trajectory files use (moved
//!   here from `plis-bench` so engine snapshots and bench cells serialize
//!   identically; `plis-bench` re-exports them).
//!
//! Everything here is *observational*: nothing in this crate influences
//! algorithm results, so instrumented code paths stay bit-identical to
//! uninstrumented ones (the engine's telemetry test layer asserts this).

#![warn(missing_docs)]

pub mod allocmeter;
mod hist;
mod journal;
mod json;
mod trace;

pub use allocmeter::{alloc_tally, record_alloc, thread_alloc_tally, AllocTally};
pub use hist::{AtomicHistogram, HistogramSnapshot, BUCKETS};
pub use journal::{
    crc64, decode_frame_header, encode_frame_header, read_journal, JournalContents, JournalCorrupt,
    JournalTail, JournalWriter, FRAME_HEADER_BYTES,
};
pub use json::{json_line, JsonValue};
pub use trace::{MemorySink, TraceSink};

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter: relaxed atomic increments, suitable for hot
/// paths (one uncontended `fetch_add` per event).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `delta` events.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }
}
