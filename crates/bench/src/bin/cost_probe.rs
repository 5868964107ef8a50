//! Micro-probe for the ingest cost model: prints measured per-element
//! costs of the sequential and parallel-merge ingest paths, and of the
//! two dominant-max stores, at a grid of (batch, tails) points.
//!
//! This is the measurement tool behind `plis_engine::cost` — run it on a
//! new machine to sanity-check the calibrated constants against reality.
//! Human-readable output on stderr, one JSON line per cell on stdout
//! (`bench: "cost-probe"`).

use plis_bench::{json_line, time_min, with_bench_threads};
use plis_engine::{StreamingLis, WeightedStreamingLis};
use plis_lis::DominantMaxKind;
use std::time::Instant;

/// Deterministic value stream in a universe, mildly increasing bias so
/// sessions build a non-trivial tails array (k grows with n).
fn stream(n: usize, universe: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let jitter = (state >> 33) % (universe / 4).max(1);
            let ramp = (i as u64 * universe / (2 * n as u64)).min(universe - 1);
            (ramp + jitter).min(universe - 1)
        })
        .collect()
}

/// ns per element of one full-session replay at a fixed batch size.
fn ns_per_elem(values: &[u64], universe: u64, batch: usize, threshold: usize) -> f64 {
    let (secs, _) = time_min(|| {
        let mut s = StreamingLis::new(universe).with_par_threshold(threshold);
        for chunk in values.chunks(batch) {
            s.ingest(chunk);
        }
        s.lis_length()
    });
    secs * 1e9 / values.len() as f64
}

fn weighted_ns_per_elem(
    values: &[u64],
    universe: u64,
    batch: usize,
    threshold: usize,
    kind: DominantMaxKind,
) -> f64 {
    let weights: Vec<u64> = values.iter().map(|v| 1 + v % 100).collect();
    let pairs: Vec<(u64, u64)> = values.iter().copied().zip(weights).collect();
    let (secs, _) = time_min(|| {
        let mut s = WeightedStreamingLis::new(universe, kind).with_par_threshold(threshold);
        for chunk in pairs.chunks(batch) {
            s.ingest(chunk);
        }
        s.best_score()
    });
    secs * 1e9 / values.len() as f64
}

fn main() {
    let n: usize =
        std::env::var("PLIS_BENCH_N").ok().and_then(|s| s.parse().ok()).unwrap_or(65_536);
    let universe = 1u64 << 20;
    let values = stream(n, universe, 0xC0FFEE);
    let threads = with_bench_threads(rayon::current_num_threads);

    // Raw fork cost: time a no-op rayon::join, the unit the cost model
    // charges per fork (a task push and pop on the work-stealing pool).
    let t0 = Instant::now();
    let reps = 200;
    for _ in 0..reps {
        rayon::join(|| std::hint::black_box(1u64), || std::hint::black_box(2u64));
    }
    let join_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    eprintln!("threads = {threads}, no-op join = {join_ns:.0} ns");

    for &batch in &[64usize, 256, 1024, 2048, 8192] {
        let seq = with_bench_threads(|| ns_per_elem(&values, universe, batch, usize::MAX));
        let par = with_bench_threads(|| ns_per_elem(&values, universe, batch, 1));
        eprintln!("unweighted batch {batch:>5}: seq {seq:>8.1} ns/elem   par {par:>8.1} ns/elem");
        println!(
            "{}",
            json_line(&[
                ("bench", "cost-probe".into()),
                ("kind", "unweighted".into()),
                ("batch", batch.into()),
                ("threads", threads.into()),
                ("seq_ns_per_elem", seq.into()),
                ("par_ns_per_elem", par.into()),
            ])
        );
    }

    let wn = n / 4;
    let wvalues = &values[..wn];
    for &batch in &[64usize, 256, 1024, 2048] {
        let seq = with_bench_threads(|| {
            weighted_ns_per_elem(wvalues, universe, batch, usize::MAX, DominantMaxKind::RangeTree)
        });
        let tree = with_bench_threads(|| {
            weighted_ns_per_elem(wvalues, universe, batch, 1, DominantMaxKind::RangeTree)
        });
        let veb = with_bench_threads(|| {
            weighted_ns_per_elem(wvalues, universe, batch, 1, DominantMaxKind::RangeVeb)
        });
        eprintln!(
            "weighted   batch {batch:>5}: seq {seq:>8.1} ns/elem   par/tree {tree:>8.1}   \
             par/veb {veb:>8.1}"
        );
        println!(
            "{}",
            json_line(&[
                ("bench", "cost-probe".into()),
                ("kind", "weighted".into()),
                ("batch", batch.into()),
                ("threads", threads.into()),
                ("seq_ns_per_elem", seq.into()),
                ("par_tree_ns_per_elem", tree.into()),
                ("par_veb_ns_per_elem", veb.into()),
            ])
        );
    }
}
