//! Cost-based ingest path selection.
//!
//! The session types have two exact ways to apply a batch: the sequential
//! per-element path (`O(m log k)` with a tiny constant — one binary search
//! and at most one summary update per element) and the parallel merge
//! path (Algorithm 1 or 2 over `summary ++ batch`, then a summary rebuild —
//! asymptotically work-efficient, but it rebuilds a tournament tree over
//! `m + k` elements and pays fork/join and batch write-back constants).
//! Which one is faster depends on the batch size `m`, the summary size `k`
//! (tails or Pareto frontier), and how much real parallelism the machine
//! offers — not on any fixed batch-size threshold.
//!
//! Historically sessions switched paths at a fixed `batch >= 512`, which
//! routed every large batch onto the merge path even on machines where the
//! merge constant is 3–30x the sequential constant; `BENCH_streaming.json`
//! recorded the resulting cliff (batch 2048 ~40x slower per element than
//! batch 256).  This module replaces the fixed threshold with a measured
//! model:
//!
//! * [`CostModel`] — per-element constants for both paths, turned into
//!   predicted costs `seq ≈ m · c_seq · log2(k + 2)` and
//!   `par ≈ c_fixed + (m + k) · c_par · log2(m + k + 2)`.
//! * [`calibration`] — a cheap one-time (per process, lazy per session
//!   kind) measurement of those constants on synthetic streams, through
//!   the real session code.  On a machine with genuine parallel speedup
//!   the measured `c_par` shrinks with the pool and a crossover appears;
//!   on a single-core host calibration discovers that the merge path
//!   never wins at realistic sizes and routes everything sequential.
//! * [`PathPolicy`] — the session knob: `Fixed(t)` keeps the historical
//!   behaviour (`batch >= t` goes parallel; what `with_par_threshold`
//!   configures), `Cost` asks the calibrated model per batch.
//!
//! Determinism: the model is calibrated at most once per process and the
//! decision is a pure function of `(batch_len, summary_len)` thereafter —
//! it never reads the ambient pool size at decision time — so replaying a
//! schedule under `num_threads(1)` and under the full pool takes identical
//! paths and produces identical [`crate::IngestReport`]s.  Calibration can
//! differ *between* processes (it is a timing measurement); both paths are
//! exact, so only timing, never outcomes, depends on the decision.

use crate::session::IngestPath;
use std::sync::OnceLock;
use std::time::Instant;

/// Per-path cost constants, in nanoseconds.  See the module docs for the
/// formulas they feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Sequential cost per batch element per `log2` of the summary size.
    pub seq_ns: f64,
    /// Parallel-merge cost per *merged* element (`batch + summary`) per
    /// `log2` of the merged size.
    pub par_ns: f64,
    /// Fixed per-call overhead of the parallel path (tree allocation,
    /// fork setup, batch write-back floor).
    pub par_fixed_ns: f64,
}

fn log2p2(n: usize) -> f64 {
    ((n + 2) as f64).log2()
}

impl CostModel {
    /// Predicted nanoseconds for the sequential path on a `batch`-element
    /// batch against a `summary`-entry tails array / frontier.
    pub fn seq_cost_ns(&self, batch: usize, summary: usize) -> f64 {
        batch as f64 * self.seq_ns * log2p2(summary)
    }

    /// Predicted nanoseconds for the parallel merge path on the same call.
    pub fn par_cost_ns(&self, batch: usize, summary: usize) -> f64 {
        let merged = batch + summary;
        self.par_fixed_ns + merged as f64 * self.par_ns * log2p2(merged)
    }

    /// The cheaper path for this call.  Ties go sequential (it has the
    /// smaller memory footprint and no fork traffic).
    pub fn choose(&self, batch: usize, summary: usize) -> IngestPath {
        if self.par_cost_ns(batch, summary) < self.seq_cost_ns(batch, summary) {
            IngestPath::ParallelMerge
        } else {
            IngestPath::Sequential
        }
    }

    /// Smallest batch size at which the parallel path wins against a
    /// `summary`-entry summary, if one exists below 2^26.  `None` means
    /// the model never prefers the merge path at realistic sizes (the
    /// single-core outcome).  Exposed for diagnostics and the bench bin.
    pub fn crossover_batch(&self, summary: usize) -> Option<usize> {
        // par/seq cost ratio is monotone decreasing in the batch size, so
        // a doubling search suffices.
        let mut m = 1usize;
        while m <= (1 << 26) {
            if self.choose(m, summary) == IngestPath::ParallelMerge {
                // Binary-search the exact boundary inside [m/2, m].
                let (mut lo, mut hi) = (m / 2, m);
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.choose(mid, summary) == IngestPath::ParallelMerge {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                return Some(hi);
            }
            m *= 2;
        }
        None
    }
}

/// How a session decides between the sequential and the parallel-merge
/// ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathPolicy {
    /// The historical knob: batches of at least this many elements take
    /// the parallel path, smaller ones the sequential path.
    Fixed(usize),
    /// Ask the calibrated [`CostModel`] per batch (the default).
    #[default]
    Cost,
}

impl PathPolicy {
    /// Decide the path for an unweighted ingest of `batch` elements
    /// against `tails` current tails.
    pub fn choose(self, batch: usize, tails: usize) -> IngestPath {
        match self {
            PathPolicy::Fixed(t) => {
                if batch >= t {
                    IngestPath::ParallelMerge
                } else {
                    IngestPath::Sequential
                }
            }
            PathPolicy::Cost => calibration::unweighted().choose(batch, tails),
        }
    }

    /// Decide the path for a weighted ingest of `batch` pairs against a
    /// `frontier`-entry Pareto frontier.
    pub fn choose_weighted(self, batch: usize, frontier: usize) -> IngestPath {
        match self {
            PathPolicy::Fixed(t) => {
                if batch >= t {
                    IngestPath::ParallelMerge
                } else {
                    IngestPath::Sequential
                }
            }
            PathPolicy::Cost => calibration::weighted().choose(batch, frontier),
        }
    }

    /// Parse a policy spec: `"cost"` or `"fixed:N"` (also bare `"N"`).
    /// Used by the bench bin's `PLIS_BENCH_PATH_POLICY` knob.
    pub fn parse(s: &str) -> Option<PathPolicy> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("cost") {
            return Some(PathPolicy::Cost);
        }
        let t = s.strip_prefix("fixed:").unwrap_or(s);
        t.parse::<usize>().ok().map(|n| PathPolicy::Fixed(n.max(1)))
    }

    /// Short display name (`"cost"` or `"fixed:N"`), the inverse of
    /// [`PathPolicy::parse`].
    pub fn name(self) -> String {
        match self {
            PathPolicy::Fixed(t) => format!("fixed:{t}"),
            PathPolicy::Cost => "cost".to_string(),
        }
    }
}

/// One-time measurement of the [`CostModel`] constants, through the real
/// session code on synthetic streams.
pub mod calibration {
    use super::*;
    use crate::session::StreamingLis;
    use crate::wsession::WeightedStreamingLis;
    use plis_lis::DominantMaxKind;

    /// The calibrated unweighted model (memoised per process).
    pub fn unweighted() -> &'static CostModel {
        static MODEL: OnceLock<CostModel> = OnceLock::new();
        MODEL.get_or_init(measure_unweighted)
    }

    /// The calibrated weighted model (memoised per process, lazily — an
    /// unweighted-only workload never pays the weighted probe).
    pub fn weighted() -> &'static CostModel {
        static MODEL: OnceLock<CostModel> = OnceLock::new();
        MODEL.get_or_init(measure_weighted)
    }

    /// Deterministic synthetic stream with a mildly increasing bias, so
    /// the session grows a non-trivial summary during the probe.
    fn stream(n: usize, universe: u64) -> Vec<u64> {
        let mut state = 0x9E3779B97F4A7C15u64;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let jitter = (state >> 33) % (universe / 4).max(1);
                let ramp = (i as u64).saturating_mul(universe / (2 * n as u64).max(1));
                (ramp + jitter).min(universe - 1)
            })
            .collect()
    }

    /// Best-of-`reps` wall-clock nanoseconds of `f`.
    fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_nanos() as f64);
        }
        best
    }

    const PROBE_N: usize = 4_096;
    const PROBE_BATCH: usize = 256;
    const PROBE_UNIVERSE: u64 = 1 << 16;

    /// Fit a [`CostModel`] from two measured replays: the whole probe
    /// stream through the sequential path, then through the merge path.
    fn fit(seq_total_ns: f64, par_total_ns: f64, final_summary: usize) -> CostModel {
        // Representative per-call sizes over the probe: the summary grows
        // from 0 to its final size, so charge half of it on average.
        let summary = (final_summary / 2).max(1);
        let calls = (PROBE_N / PROBE_BATCH).max(1) as f64;
        let seq_ns = (seq_total_ns / PROBE_N as f64 / log2p2(summary)).max(0.1);
        let merged = PROBE_BATCH + summary;
        let par_fixed_ns = 2_000.0f64;
        let par_ns = ((par_total_ns - calls * par_fixed_ns).max(0.0)
            / (calls * merged as f64)
            / log2p2(merged))
        .max(0.1);
        CostModel { seq_ns, par_ns, par_fixed_ns }
    }

    fn measure_unweighted() -> CostModel {
        let values = stream(PROBE_N, PROBE_UNIVERSE);
        let replay = |threshold: usize| {
            let mut s = StreamingLis::new(PROBE_UNIVERSE).with_par_threshold(threshold);
            for chunk in values.chunks(PROBE_BATCH) {
                s.ingest(chunk);
            }
            s.lis_length() as usize
        };
        let mut final_k = 0usize;
        let seq_ns = best_ns(2, || final_k = replay(usize::MAX));
        let par_ns = best_ns(2, || {
            replay(1);
        });
        fit(seq_ns, par_ns, final_k)
    }

    fn measure_weighted() -> CostModel {
        // The weighted merge path is ~25x the sequential cost per element,
        // so a smaller probe keeps one-time calibration in the low
        // milliseconds.
        let n = PROBE_N / 4;
        let values = stream(n, PROBE_UNIVERSE);
        let pairs: Vec<(u64, u64)> = values.iter().map(|&v| (v, 1 + v % 97)).collect();
        let replay = |threshold: usize| {
            let mut s = WeightedStreamingLis::new(PROBE_UNIVERSE, DominantMaxKind::RangeTree)
                .with_par_threshold(threshold);
            for chunk in pairs.chunks(PROBE_BATCH) {
                s.ingest(chunk);
            }
            s.frontier().len()
        };
        let mut final_f = 0usize;
        let seq_total = best_ns(2, || final_f = replay(usize::MAX));
        let par_total = best_ns(1, || {
            replay(1);
        });
        // Rescale the fit to this probe's smaller n.
        let summary = (final_f / 2).max(1);
        let calls = (n / PROBE_BATCH).max(1) as f64;
        let seq_ns = (seq_total / n as f64 / log2p2(summary)).max(0.1);
        let merged = PROBE_BATCH + summary;
        let par_fixed_ns = 20_000.0f64;
        let par_ns = ((par_total - calls * par_fixed_ns).max(0.0)
            / (calls * merged as f64)
            / log2p2(merged))
        .max(0.1);
        CostModel { seq_ns, par_ns, par_fixed_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_replicates_the_threshold_rule() {
        let p = PathPolicy::Fixed(512);
        assert_eq!(p.choose(511, 0), IngestPath::Sequential);
        assert_eq!(p.choose(512, 0), IngestPath::ParallelMerge);
        assert_eq!(p.choose_weighted(512, 9_999), IngestPath::ParallelMerge);
    }

    #[test]
    fn cost_decisions_are_stable_within_a_process() {
        // Whatever calibration measured, the same (batch, summary) point
        // must map to the same path on every call — the determinism
        // contract the engine's cross-pool tests rely on.
        for &(m, k) in &[(1usize, 0usize), (64, 10), (512, 200), (2_048, 170), (65_536, 4_000)] {
            let first = PathPolicy::Cost.choose(m, k);
            for _ in 0..3 {
                assert_eq!(PathPolicy::Cost.choose(m, k), first);
            }
            let firstw = PathPolicy::Cost.choose_weighted(m, k);
            for _ in 0..3 {
                assert_eq!(PathPolicy::Cost.choose_weighted(m, k), firstw);
            }
        }
    }

    #[test]
    fn model_prefers_sequential_when_par_constant_dominates() {
        let m = CostModel { seq_ns: 14.0, par_ns: 45.0, par_fixed_ns: 2_000.0 };
        // par per-element constant above the sequential one: the merge
        // path can never win (its log factor is also the larger one).
        for &(batch, k) in &[(64usize, 0usize), (512, 170), (2_048, 170), (1 << 20, 1 << 10)] {
            assert_eq!(m.choose(batch, k), IngestPath::Sequential, "batch {batch} k {k}");
        }
        assert_eq!(m.crossover_batch(170), None);
    }

    #[test]
    fn model_finds_a_crossover_when_parallelism_pays() {
        // A machine where the merge path is 4x cheaper per element than
        // the sequential path (e.g. real parallel speedup): large batches
        // must flip, small ones must not.
        let m = CostModel { seq_ns: 40.0, par_ns: 10.0, par_fixed_ns: 50_000.0 };
        let cross = m.crossover_batch(1_000).expect("crossover must exist");
        assert!(cross > 64, "tiny batches must stay sequential (got {cross})");
        assert_eq!(m.choose(cross - 1, 1_000), IngestPath::Sequential);
        assert_eq!(m.choose(cross, 1_000), IngestPath::ParallelMerge);
        // And the boundary is consistent with choose() everywhere nearby.
        for probe in (cross.saturating_sub(32))..cross {
            assert_eq!(m.choose(probe, 1_000), IngestPath::Sequential);
        }
    }

    #[test]
    fn policy_parse_round_trips() {
        assert_eq!(PathPolicy::parse("cost"), Some(PathPolicy::Cost));
        assert_eq!(PathPolicy::parse("fixed:512"), Some(PathPolicy::Fixed(512)));
        assert_eq!(PathPolicy::parse("512"), Some(PathPolicy::Fixed(512)));
        assert_eq!(PathPolicy::parse("fixed:0"), Some(PathPolicy::Fixed(1)));
        assert_eq!(PathPolicy::parse("nonsense"), None);
        for p in [PathPolicy::Cost, PathPolicy::Fixed(64)] {
            assert_eq!(PathPolicy::parse(&p.name()), Some(p));
        }
    }
}
