//! The *dominant-max store* abstraction: the `RangeStruct` interface of
//! Algorithm 2, factored out of the weighted-LIS driver so that new
//! structures plug in without touching the algorithm.
//!
//! A dominant-max store is built once over a static set of 2D points, each
//! carrying a mutable score that starts at 0 and only ever grows.  It
//! answers strict 2D dominance maxima and accepts batched score write-backs
//! — exactly the three operations the phase-parallel WLIS driver issues per
//! frontier.
//!
//! Implementations live next to their data structures (one file per
//! backend): `plis-rangetree` implements it for `RangeMaxTree` (Theorem
//! 4.1, the practical configuration) and `plis-rangeveb` for `RangeVeb`
//! (Theorem 1.2, the theoretical configuration).  The oracle test suite
//! adds probe implementations the same way — implement the trait for a new
//! type in its own crate and every generic driver (offline `wlis_with`,
//! the engine's weighted streaming sessions) accepts it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative usage totals of one dominant-max store instance, read back by
/// the telemetry plane after a WLIS run.
///
/// The totals are *observational*: they describe work the store performed
/// and never feed back into algorithm results, so two runs that differ only
/// in whether anyone reads them still produce bit-identical dp vectors.
/// Counts may legitimately differ between backends (and between versions of
/// one backend), which is why outcome equality in the engine ignores them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomMaxStats {
    /// `dominant_max` queries answered.
    pub queries: u64,
    /// `update_batch` calls accepted.
    pub writeback_batches: u64,
    /// Total `(x, y, score)` entries written back across all batches.
    pub writeback_elems: u64,
}

impl DomMaxStats {
    /// Fold another store's totals into this one (associative).
    pub fn merge(&mut self, other: &DomMaxStats) {
        self.queries += other.queries;
        self.writeback_batches += other.writeback_batches;
        self.writeback_elems += other.writeback_elems;
    }
}

/// Relaxed atomic accumulator for [`DomMaxStats`], embeddable in a store.
///
/// `dominant_max` takes `&self` and runs under a parallel map, so the
/// counters must be atomics; relaxed ordering suffices because the totals
/// are only read after the run quiesces.
#[derive(Debug, Default)]
pub struct DomMaxCounters {
    queries: AtomicU64,
    writeback_batches: AtomicU64,
    writeback_elems: AtomicU64,
}

impl DomMaxCounters {
    /// Fresh counters at zero.
    pub fn new() -> Self {
        DomMaxCounters::default()
    }

    /// Count one `dominant_max` query.
    #[inline]
    pub fn count_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `update_batch` call of `elems` entries.
    #[inline]
    pub fn count_writeback(&self, elems: usize) {
        self.writeback_batches.fetch_add(1, Ordering::Relaxed);
        self.writeback_elems.fetch_add(elems as u64, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> DomMaxStats {
        DomMaxStats {
            queries: self.queries.load(Ordering::Relaxed),
            writeback_batches: self.writeback_batches.load(Ordering::Relaxed),
            writeback_elems: self.writeback_elems.load(Ordering::Relaxed),
        }
    }
}

/// A dominant-max structure usable by the WLIS driver (the `RangeStruct` of
/// Algorithm 2): built once over the full point set, queried with strict 2D
/// dominance, updated frontier by frontier.
///
/// `Sync` is required because one frontier's queries run as a parallel map
/// over a shared reference to the store.
pub trait DominantMaxStore: Sized + Sync {
    /// Build the structure over `points = (x, y)` pairs (scores start at 0).
    fn build(points: &[(u64, u64)]) -> Self;
    /// Maximum score among points with `x < qx` and `y < qy`, or 0.
    fn dominant_max(&self, qx: u64, qy: u64) -> u64;
    /// Set the scores of a batch of `(x, y, score)` entries.  Scores are
    /// monotone in the WLIS algorithm: a write never lowers a score.  A
    /// point named more than once in one batch keeps its maximum score.
    fn update_batch(&mut self, updates: &[(u64, u64, u64)]);
    /// Short human-readable name used by benchmark and engine reports.
    fn name() -> &'static str;
    /// Cumulative usage totals for the telemetry plane.  Purely
    /// observational — see [`DomMaxStats`].  The default (all zero) keeps
    /// probe implementations in test suites trivially conformant.
    fn stats(&self) -> DomMaxStats {
        DomMaxStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let c = DomMaxCounters::new();
        c.count_query();
        c.count_query();
        c.count_writeback(5);
        let mut total = c.snapshot();
        assert_eq!(total, DomMaxStats { queries: 2, writeback_batches: 1, writeback_elems: 5 });
        c.count_writeback(3);
        total.merge(&c.snapshot());
        assert_eq!(total.queries, 4);
        assert_eq!(total.writeback_batches, 3);
        assert_eq!(total.writeback_elems, 13);
    }
}
