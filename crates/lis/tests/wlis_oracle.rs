//! WLIS oracle property tests: differential-test `wlis_rangetree` and
//! `wlis_rangeveb` against the sequential `O(n²)` dp reference
//! (`plis_baselines::wlis_dp_quadratic`) on the paper's input patterns
//! (range, line, permutation) plus adversarial shapes, with random weights,
//! at 1 thread and at the full pool — the two runs must also be
//! bit-identical to each other, which pins the parallel frontier path to
//! the sequential semantics.
//!
//! The pool size for the "parallel" leg honors `PLIS_BENCH_THREADS` (the
//! CI pin) and falls back to the hardware parallelism, but is always at
//! least 2 so single-core machines still exercise the splitting scheduler
//! (a vendored rayon pool spawns its workers independently of core count).

use plis_baselines::{seq_avl, wlis_dp_quadratic};
use plis_lis::{
    lis_indices, lis_indices_from_ranks, lis_ranks, wlis_rangetree, wlis_rangeveb, wlis_with,
    wlis_with_stats, DominantMaxStore,
};
use plis_workloads::{
    adversarial, line_pattern, random_permutation, range_pattern, uniform_weights,
};
use proptest::prelude::*;

/// Pool size for the parallel leg: `PLIS_BENCH_THREADS`, else the hardware
/// parallelism, floored at 2 so the scheduler actually splits.
fn parallel_threads() -> usize {
    std::env::var("PLIS_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        .max(2)
}

fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

/// Run both backends at 1 thread and at the full pool; all four results
/// must equal the quadratic oracle.
fn check_against_oracle(values: &[u64], weights: &[u64], label: &str) {
    let want = wlis_dp_quadratic(values, weights);
    for threads in [1, parallel_threads()] {
        let (tree, veb) =
            on_pool(threads, || (wlis_rangetree(values, weights), wlis_rangeveb(values, weights)));
        assert_eq!(tree, want, "range-tree backend, {label}, {threads} thread(s)");
        assert_eq!(veb, want, "range-vEB backend, {label}, {threads} thread(s)");
    }
}

#[test]
fn range_pattern_matches_oracle() {
    for (trial, &k_prime) in [2u64, 5, 23, 120].iter().enumerate() {
        let n = 220 + trial * 90;
        let values = range_pattern(n, k_prime, 0xA11CE + trial as u64);
        let weights = uniform_weights(n, 40, 0xBEE5 + trial as u64);
        check_against_oracle(&values, &weights, &format!("range k'={k_prime}"));
    }
}

#[test]
fn line_pattern_matches_oracle() {
    for (trial, &noise) in [1u64, 8, 64, 700].iter().enumerate() {
        let n = 200 + trial * 80;
        let values = line_pattern(n, 1, noise, 0x11E + trial as u64);
        let weights = uniform_weights(n, 25, 0x5EED + trial as u64);
        check_against_oracle(&values, &weights, &format!("line noise={noise}"));
    }
}

#[test]
fn permutation_matches_oracle() {
    for trial in 0..4u64 {
        let n = 180 + (trial as usize) * 110;
        let values = random_permutation(n, 0xFACE + trial);
        let weights = uniform_weights(n, 1000, 0xD00D + trial);
        check_against_oracle(&values, &weights, &format!("permutation trial {trial}"));
    }
}

#[test]
fn adversarial_patterns_match_oracle() {
    let n = 400;
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("increasing", adversarial::increasing(n)),
        ("decreasing", adversarial::decreasing(n)),
        ("constant", adversarial::constant(n, 7)),
        ("sawtooth-8", adversarial::sawtooth(n, 8)),
        ("sawtooth-97", adversarial::sawtooth(n, 97)),
    ];
    for (label, values) in cases {
        let weights = uniform_weights(values.len(), 60, 0xCAFE);
        check_against_oracle(&values, &weights, label);
        // Unit weights must reduce to plain LIS dp values.
        let unit = vec![1u64; values.len()];
        check_against_oracle(&values, &unit, &format!("{label} (unit weights)"));
    }
}

/// Algorithm 2's rounds and Appendix A's walk take their frontiers
/// straight from the tournament tree.  Values in `1..=64` give 64
/// frontiers here, each spread over the whole input, so in every round each
/// subtree above the tree's round grain (8,192 leaves) has two live
/// children, and the pool forks there and joins the two halves of the
/// frontier.
#[test]
fn forked_frontiers_match_the_sequential_references() {
    let n = 3 * 8192 + 17;
    let values = range_pattern(n, 64, 0xF0C5);
    let weights = uniform_weights(n, 1000, 0xF0C6);
    let want = seq_avl(&values, &weights);
    let (ranks, k) = lis_ranks(&values);
    let walk = lis_indices_from_ranks(&values, &ranks, k);
    let mut stats = Vec::new();
    for threads in [1, parallel_threads()] {
        let ((tree, tree_stats), (veb, veb_stats), lis) = on_pool(threads, || {
            (
                wlis_with_stats::<_, plis_rangetree::RangeMaxTree>(&values, &weights),
                wlis_with_stats::<_, plis_rangeveb::RangeVeb>(&values, &weights),
                lis_indices(&values),
            )
        });
        assert_eq!(tree, want, "range-tree backend, {threads} thread(s)");
        assert_eq!(veb, want, "range-vEB backend, {threads} thread(s)");
        assert_eq!(lis, walk, "lis_indices, {threads} thread(s)");
        for s in [tree_stats, veb_stats] {
            assert_eq!(s.queries, n as u64, "one query per object, {threads} thread(s)");
            assert_eq!(s.writeback_batches, u64::from(k), "one batch per frontier");
        }
        stats.push((tree_stats, veb_stats));
    }
    assert_eq!(stats[0], stats[1], "store counts differ between the two pools");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fully random inputs and weights, both backends, both thread counts.
    #[test]
    fn random_inputs_match_oracle(
        values in proptest::collection::vec(0u64..500, 1..220),
        weight_seed in 0u64..1_000_000,
        max_weight in 1u64..1_000,
    ) {
        let weights = uniform_weights(values.len(), max_weight, weight_seed);
        let want = wlis_dp_quadratic(&values, &weights);
        for threads in [1, parallel_threads()] {
            let (tree, veb) = on_pool(threads, || {
                (wlis_rangetree(&values, &weights), wlis_rangeveb(&values, &weights))
            });
            prop_assert_eq!(&tree, &want, "range-tree, {} thread(s)", threads);
            prop_assert_eq!(&veb, &want, "range-vEB, {} thread(s)", threads);
        }
    }
}

/// A dominant-max backend that wraps the range tree and records which
/// threads served frontier queries: proves the WLIS frontier loop really
/// forks through `rayon::join` under a multi-thread pool, not a sequential
/// fallback.
struct ThreadProbe {
    inner: plis_rangetree::RangeMaxTree,
    seen: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
}

impl DominantMaxStore for ThreadProbe {
    fn build(points: &[(u64, u64)]) -> Self {
        ThreadProbe {
            inner: <plis_rangetree::RangeMaxTree as DominantMaxStore>::build(points),
            seen: std::sync::Mutex::new(std::collections::HashSet::new()),
        }
    }
    fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        self.seen.lock().unwrap().insert(std::thread::current().id());
        self.inner.dominant_max(qx, qy)
    }
    fn update_batch(&mut self, updates: &[(u64, u64, u64)]) {
        DominantMaxStore::update_batch(&mut self.inner, updates);
    }
    fn name() -> &'static str {
        "thread-probe"
    }
}

static PROBE_SEEN: std::sync::Mutex<Option<usize>> = std::sync::Mutex::new(None);

struct CountingProbe(ThreadProbe);

impl DominantMaxStore for CountingProbe {
    fn build(points: &[(u64, u64)]) -> Self {
        CountingProbe(ThreadProbe::build(points))
    }
    fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        self.0.dominant_max(qx, qy)
    }
    fn update_batch(&mut self, updates: &[(u64, u64, u64)]) {
        self.0.update_batch(updates);
        // Publish the running distinct-thread count after every frontier.
        let seen = self.0.seen.lock().unwrap().len();
        let mut slot = PROBE_SEEN.lock().unwrap();
        let best = slot.unwrap_or(0);
        *slot = Some(best.max(seen));
    }
    fn name() -> &'static str {
        "counting-probe"
    }
}

#[test]
fn frontier_queries_use_multiple_threads_and_stay_exact() {
    // A strictly decreasing sequence puts all n objects in one frontier, so
    // the dominant-max queries form a single large parallel map.
    let n = 60_000usize;
    let values = adversarial::decreasing(n);
    let weights = uniform_weights(n, 9, 0x7EA5);

    let seq = on_pool(1, || wlis_rangetree(&values, &weights));
    let mut best_threads = 1usize;
    // The helper-thread budget is process-global; retry a few times rather
    // than flaking when another test transiently holds every slot.
    for _attempt in 0..20 {
        *PROBE_SEEN.lock().unwrap() = Some(0);
        let par = on_pool(parallel_threads().max(4), || {
            wlis_with::<u64, CountingProbe>(&values, &weights)
        });
        assert_eq!(par, seq, "parallel frontier result must be bit-identical to 1-thread run");
        best_threads = best_threads.max(PROBE_SEEN.lock().unwrap().unwrap_or(1));
        if best_threads > 1 {
            break;
        }
    }
    assert!(
        best_threads > 1,
        "expected >1 worker thread through the WLIS frontier queries (observed {best_threads})"
    );
}
