//! Experiment E8: parallel vEB batch operations versus repeated sequential
//! operations (Theorems 5.1 / 5.2 / C.1).
//!
//! Sweeps the batch size `m` on a fixed universe and compares
//! `BatchInsert` / `BatchDelete` / `Range` against performing the same work
//! with `m` single-point operations (or an iterated `Succ` walk for the
//! range query).  Each insert and delete cell works on a fresh copy of its
//! input tree, made outside the timer, and the batch-built trees must hold
//! the same keys as the point-built ones.
//!
//! Run with: `cargo run --release -p plis-bench --bin veb_scaling`

use plis_bench::{print_header, time_min, time_min_with};
use plis_veb::VebTree;
use plis_workloads::random_permutation;

fn main() {
    let universe: u64 = 1 << 24;
    let resident: Vec<u64> = {
        let mut v = random_permutation(1 << 20, 7);
        v.iter_mut().for_each(|x| *x *= 13);
        v.sort_unstable();
        v.dedup();
        v
    };
    println!(
        "# Parallel vEB batch operations, universe = 2^24, resident keys = {}",
        resident.len()
    );
    let base = VebTree::from_sorted(universe, &resident);
    print_header(
        "batch m",
        &["batch-ins", "point-ins", "batch-del", "point-del", "range", "succ-walk"],
    );

    for &m in &[1_000usize, 10_000, 100_000, 1_000_000] {
        let batch: Vec<u64> = {
            let mut v = random_permutation(m, 99 + m as u64);
            v.iter_mut().for_each(|x| *x = *x * 16 + 1);
            v.sort_unstable();
            v.dedup();
            v
        };
        // Batch insertion vs point insertions, each on a fresh copy of the
        // resident tree made outside the timer.
        let (t_bi, batch_built) = time_min_with(
            || base.clone(),
            |mut t| {
                t.batch_insert(&batch);
                t
            },
        );
        let (t_pi, full) = time_min_with(
            || base.clone(),
            |mut t| {
                for &k in &batch {
                    t.insert(k);
                }
                t
            },
        );
        assert_same_keys(&batch_built, &full, "batch insert");
        drop(batch_built);
        // Batch deletion vs point deletions (delete the batch just added).
        let (t_bd, batch_built) = time_min_with(
            || full.clone(),
            |mut t| {
                t.batch_delete(&batch);
                t
            },
        );
        let (t_pd, point_built) = time_min_with(
            || full.clone(),
            |mut t| {
                for &k in &batch {
                    t.delete(k);
                }
                t
            },
        );
        assert_same_keys(&batch_built, &point_built, "batch delete");
        drop((batch_built, point_built));
        // Parallel range query vs an iterated successor walk.
        let lo = universe / 4;
        let hi = universe / 2;
        let (t_range, reported) = time_min(|| full.range(lo, hi).len());
        let (t_walk, walked) = time_min(|| {
            let mut count = 0usize;
            let mut cur = if full.contains(lo) { Some(lo) } else { full.succ(lo) };
            while let Some(c) = cur {
                if c > hi {
                    break;
                }
                count += 1;
                cur = full.succ(c);
            }
            count
        });
        assert_eq!(reported, walked);
        println!(
            "{:>12} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
            batch.len(),
            t_bi,
            t_pi,
            t_bd,
            t_pd,
            t_range,
            t_walk
        );
    }
}

/// The batch-built tree holds exactly the keys of the point-built one.
fn assert_same_keys(batch_built: &VebTree, point_built: &VebTree, what: &str) {
    assert_eq!(batch_built.len(), point_built.len(), "{what}: len differs from point operations");
    assert!(
        batch_built.iter_keys() == point_built.iter_keys(),
        "{what}: keys differ from point operations"
    );
}
