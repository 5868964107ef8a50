//! Shared harness code for the figure-reproducing benchmark binaries.
//!
//! Every panel of the paper's evaluation (Figures 7 and 8) has a binary in
//! `src/bin/` that prints the same series the paper plots; the knobs below
//! let the sweep be scaled to the reproduction machine
//! (the paper used `n = 10⁸…10⁹` on 96 cores — see the substitution notes
//! in the top-level `DESIGN.md`).
//!
//! Environment variables (documented in detail in `DESIGN.md`):
//! * `PLIS_BENCH_N` — input size for the Figure-7 sweeps and elements per
//!   session for the streaming sweep (default 1,000,000 / 100,000).
//! * `PLIS_BENCH_REPEATS` — timed repetitions per cell; the minimum is
//!   reported (default 3), except by `ablation_wlis` (E9), which reports
//!   the median.
//! * `PLIS_BENCH_THREADS` — pin the rayon pool for the whole run (`0` or
//!   unset: the hardware default).  Sweeps record the effective count.
//! * `PLIS_BENCH_SESSIONS` / `PLIS_BENCH_BATCH` — comma-separated sweep
//!   overrides for the `streaming` binary.
//! * `PLIS_BENCH_QUERY_MIX` — comma-separated read fractions for the
//!   `streaming` binary's mixed read/write sweep (`0` skips it).
//!
//! The `streaming` binary emits one [`json_line`] per sweep cell so perf
//! trajectories can be recorded as `BENCH_*.json` files across PRs.

use std::time::Instant;

/// Input size for the figure sweeps (`PLIS_BENCH_N`, default 1,000,000).
pub fn bench_n() -> usize {
    std::env::var("PLIS_BENCH_N").ok().and_then(|s| s.parse().ok()).unwrap_or(1_000_000)
}

/// Number of timed repetitions per cell (`PLIS_BENCH_REPEATS`, default 3).
pub fn bench_repeats() -> usize {
    std::env::var("PLIS_BENCH_REPEATS").ok().and_then(|s| s.parse().ok()).unwrap_or(3).max(1)
}

/// Time `f`, returning the minimum wall-clock seconds over
/// [`bench_repeats`] runs together with the result of the last run.
pub fn time_min<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    time_min_with(|| (), |()| f())
}

/// [`time_min`] of `f` on a fresh input per run: `setup` builds the input
/// outside the timer, and the result is dropped outside it too.
pub fn time_min_with<S, R>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> R) -> (f64, R) {
    let repeats = bench_repeats();
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        let input = setup();
        let start = Instant::now();
        let r = f(input);
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("at least one repetition"))
}

/// Run `f` on a dedicated rayon pool with `threads` workers.
pub fn on_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(f)
}

/// Thread-count pin requested via `PLIS_BENCH_THREADS` (`0` or unset means
/// "no pin": use the hardware default).
pub fn bench_threads() -> Option<usize> {
    std::env::var("PLIS_BENCH_THREADS").ok().and_then(|s| s.parse().ok()).filter(|&t| t > 0)
}

/// Effective worker count a sweep runs with: the `PLIS_BENCH_THREADS` pin
/// if set, otherwise the hardware parallelism.
pub fn effective_threads() -> usize {
    bench_threads()
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Run `f` under the `PLIS_BENCH_THREADS` pin (a dedicated pool when set,
/// the ambient pool otherwise).
pub fn with_bench_threads<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    match bench_threads() {
        Some(threads) => on_threads(threads, f),
        None => f(),
    }
}

/// Geometrically spaced target ranks from 1 to `max` (inclusive-ish),
/// mirroring the paper's log-spaced x axes.
pub fn rank_sweep(max: u64, points_per_decade: u32) -> Vec<u64> {
    let mut out = vec![1u64];
    let factor = 10f64.powf(1.0 / points_per_decade as f64);
    let mut cur = 1f64;
    while (cur * factor) as u64 <= max {
        cur *= factor;
        let v = cur.round() as u64;
        if *out.last().unwrap() != v {
            out.push(v);
        }
    }
    if *out.last().unwrap() != max {
        out.push(max);
    }
    out
}

/// Print a table header: the first column plus one column per series.
pub fn print_header(first: &str, series: &[&str]) {
    print!("{first:>12}");
    for s in series {
        print!(" {s:>14}");
    }
    println!();
}

/// Print one row: the sweep value plus one number per series (seconds or a
/// dash for "not run", as the paper does for SWGS at large k).
pub fn print_row(first: u64, cells: &[Option<f64>]) {
    print!("{first:>12}");
    for c in cells {
        match c {
            Some(v) => print!(" {v:>14.4}"),
            None => print!(" {:>14}", "-"),
        }
    }
    println!();
}

/// The machine-readable cell format (`BENCH_*.json` lines) lives in
/// `plis-telemetry` now, so engine metric snapshots serialize through the
/// exact same renderer; re-exported here for the bench binaries.
pub use plis_telemetry::{json_line, JsonValue};

/// Comma-separated `usize` list from an environment variable, with a default.
pub fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad {name} entry: {s:?}")))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Comma-separated `f64` list from an environment variable, with a default
/// (used by the streaming binary's `PLIS_BENCH_QUERY_MIX` sweep axis).
pub fn env_f64_list(name: &str, default: &[f64]) -> Vec<f64> {
    match std::env::var(name) {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad {name} entry: {s:?}")))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_reexport_is_live() {
        // The renderer itself is tested in plis-telemetry; this guards the
        // re-export the bench binaries build their cells through.
        let line = json_line(&[("bench", "streaming".into()), ("sessions", 4usize.into())]);
        assert_eq!(line, r#"{"bench": "streaming", "sessions": 4}"#);
    }

    #[test]
    fn env_usize_list_falls_back_to_default() {
        assert_eq!(env_usize_list("PLIS_TEST_UNSET_VAR", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn env_f64_list_falls_back_to_default() {
        assert_eq!(env_f64_list("PLIS_TEST_UNSET_VAR", &[0.25]), vec![0.25]);
    }

    #[test]
    fn rank_sweep_is_increasing_and_bounded() {
        let sweep = rank_sweep(100_000, 1);
        assert_eq!(sweep.first(), Some(&1));
        assert_eq!(sweep.last(), Some(&100_000));
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rank_sweep_single_point() {
        assert_eq!(rank_sweep(1, 1), vec![1]);
    }

    #[test]
    fn timing_returns_result() {
        let (secs, value) = time_min(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn on_threads_runs_on_requested_pool() {
        let n = on_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
    }

    #[test]
    fn effective_threads_is_positive() {
        // The env var is process-global, so only sanity-check the fallback
        // semantics here; the parse path is covered by bench_threads' type.
        assert!(effective_threads() >= 1);
    }
}
