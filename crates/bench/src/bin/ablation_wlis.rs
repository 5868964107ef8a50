//! Experiment E9: ablation of the WLIS dominant-max structure —
//! range tree (Section 4.1) versus Range-vEB tree (Section 4.2).
//!
//! The paper proposes the Range-vEB tree to improve the theoretical work
//! bound of WLIS; its own implementation uses the range tree because it is
//! simpler and faster in practice.  This binary measures both backends of
//! Algorithm 2 on the same inputs so that trade-off can be inspected
//! directly.
//!
//! Each repeat calls the two stores back to back, so host drift hits both
//! columns alike, and each cell is the median over `PLIS_BENCH_REPEATS`
//! repeats rather than the minimum.
//!
//! Run with: `cargo run --release -p plis-bench --bin ablation_wlis`

use plis_bench::{bench_n, bench_repeats, print_header, print_row, rank_sweep};
use plis_lis::{lis_ranks_u64, wlis_rangetree, wlis_rangeveb};
use plis_workloads::{uniform_weights, with_target_rank};
use std::time::Instant;

fn main() {
    let n = (bench_n() / 20).max(5_000);
    println!("# WLIS structure ablation: range tree vs Range-vEB, n = {n}");
    print_header("k (measured)", &["range-tree", "range-vEB"]);
    let weights = uniform_weights(n, 1_000, 0xAB1A);
    for &target in &rank_sweep(1_000, 1) {
        let input = with_target_rank(n, target, 0xAB1A + target);
        let k = lis_ranks_u64(&input).1;
        let (mut t_rt, mut t_rv) = (Vec::new(), Vec::new());
        for _ in 0..bench_repeats() {
            let start = Instant::now();
            let dp_rt = wlis_rangetree(&input, &weights);
            t_rt.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let dp_rv = wlis_rangeveb(&input, &weights);
            t_rv.push(start.elapsed().as_secs_f64());
            assert_eq!(dp_rt, dp_rv, "both WLIS backends must agree");
        }
        print_row(k as u64, &[Some(median(&mut t_rt)), Some(median(&mut t_rv))]);
    }
}

/// The median of `times` (the upper one of an even count).
fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}
