//! Experiment E7: empirical validation of the Theorem 3.2 work bound.
//!
//! Algorithm 1's work is bounded by `O(n log k)`.  The count measured here
//! is every tournament-tree node visited plus every object slot scanned in
//! the blocks of consecutive leaves the tree stops at, so it is an upper
//! bound on the traversal's work (and at most `n + 2⌈n / 32⌉ − 1` per
//! round).  This binary sweeps the target LIS length at a fixed `n`,
//! reports the measured counts, and shows the ratio
//! `visited / (n · log2(k + 1))`, which Theorem 3.2 predicts stays bounded
//! by a constant.
//!
//! Run with: `cargo run --release -p plis-bench --bin work_bound`

use plis_bench::{bench_n, print_header, rank_sweep};
use plis_lis::lis_ranks_u64_with_stats;
use plis_workloads::with_target_rank;

fn main() {
    let n = bench_n();
    println!(
        "# Work-bound validation (Theorem 3.2): nodes visited + slots scanned vs n·log2(k+1), n = {n}"
    );
    print_header("k (measured)", &["visited", "n*log2(k+1)", "ratio"]);
    for &target in &rank_sweep((n as u64 / 10).max(1), 1) {
        let input = with_target_rank(n, target, 0xEB0B + target);
        let (_, k, stats) = lis_ranks_u64_with_stats(&input);
        let bound = n as f64 * ((k as f64) + 1.0).log2();
        let ratio = stats.nodes_visited as f64 / bound;
        println!("{:>12} {:>14} {:>14.0} {:>14.3}", k, stats.nodes_visited, bound, ratio);
    }
}
