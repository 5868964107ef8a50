//! Cross-crate integration tests: the full LIS / WLIS pipelines, agreement
//! between every algorithm in the workspace, and determinism across thread
//! counts.

use plis::prelude::*;
use plis::{baselines, lis, workloads};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn all_lis_algorithms_agree_on_generated_workloads() {
    let n = 30_000usize;
    let cases = [
        workloads::range_pattern(n, 8, 1),
        workloads::range_pattern(n, 500, 2),
        workloads::with_target_rank(n, 2_000, 3),
        workloads::random_permutation(n, 4),
        workloads::adversarial::increasing(n),
        workloads::adversarial::decreasing(n),
        workloads::adversarial::constant(n, 5),
        workloads::adversarial::sawtooth(n, 37),
    ];
    for (ci, input) in cases.iter().enumerate() {
        let (par_ranks, par_k) = lis_ranks_u64(input);
        let (bs_ranks, bs_k) = seq_bs(input);
        let (swgs_ranks, swgs_k) = swgs_lis(input);
        assert_eq!(par_ranks, bs_ranks, "case {ci}: parallel vs Seq-BS dp values");
        assert_eq!(swgs_ranks, bs_ranks, "case {ci}: SWGS vs Seq-BS dp values");
        assert_eq!(par_k, bs_k, "case {ci}: LIS length");
        assert_eq!(swgs_k, bs_k, "case {ci}: LIS length (SWGS)");

        // Reconstruction produces a valid subsequence of the right length.
        let indices = lis_indices(input);
        assert_eq!(indices.len() as u32, par_k, "case {ci}: reconstruction length");
        assert!(indices.windows(2).all(|w| w[0] < w[1]), "case {ci}: indices increase");
        assert!(
            indices.windows(2).all(|w| input[w[0]] < input[w[1]]),
            "case {ci}: values strictly increase"
        );
    }
}

#[test]
fn all_wlis_algorithms_agree_on_generated_workloads() {
    let n = 8_000usize;
    let cases = [
        workloads::range_pattern(n, 20, 11),
        workloads::range_pattern(n, 300, 12),
        workloads::with_target_rank(n, 500, 13),
        workloads::adversarial::sawtooth(n, 25),
    ];
    for (ci, input) in cases.iter().enumerate() {
        let weights = workloads::uniform_weights(n, 100, 100 + ci as u64);
        let rt = wlis_rangetree(input, &weights);
        let rv = wlis_rangeveb(input, &weights);
        let avl = seq_avl(input, &weights);
        let fen = baselines::wlis_fenwick(input, &weights);
        let sw = swgs_wlis(input, &weights);
        assert_eq!(rt, avl, "case {ci}: range tree vs Seq-AVL");
        assert_eq!(rv, avl, "case {ci}: Range-vEB vs Seq-AVL");
        assert_eq!(fen, avl, "case {ci}: Fenwick vs Seq-AVL");
        assert_eq!(sw, avl, "case {ci}: SWGS-W vs Seq-AVL");
    }
}

#[test]
fn lis_results_are_identical_across_thread_counts() {
    // Internal determinism: the parallel algorithm computes exactly the same
    // dp values no matter how many workers execute it.
    let input = workloads::with_target_rank(200_000, 3_000, 77);
    let weights = workloads::uniform_weights(20_000, 50, 78);
    let reference_ranks = lis_ranks_u64(&input).0;
    let reference_dp = wlis_rangetree(&input[..20_000], &weights);
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let (ranks, dp) =
            pool.install(|| (lis_ranks_u64(&input).0, wlis_rangetree(&input[..20_000], &weights)));
        assert_eq!(ranks, reference_ranks, "{threads} threads: LIS ranks changed");
        assert_eq!(dp, reference_dp, "{threads} threads: WLIS dp changed");
    }
}

#[test]
fn generic_comparison_based_api_handles_custom_types() {
    // A custom Ord type: versions compared lexicographically.
    #[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Debug)]
    struct Version(u16, u16, u16);
    let mut state = 9u64;
    let versions: Vec<Version> = (0..4000)
        .map(|_| {
            Version(
                (xorshift(&mut state) % 5) as u16,
                (xorshift(&mut state) % 20) as u16,
                (xorshift(&mut state) % 50) as u16,
            )
        })
        .collect();
    let (ranks, k) = lis::lis_ranks(&versions);
    let (bs_ranks, bs_k) = seq_bs(&versions);
    assert_eq!(ranks, bs_ranks);
    assert_eq!(k, bs_k);
    // And the weighted variant over the same type.
    let weights = vec![2u64; versions.len()];
    let dp = wlis_rangetree(&versions, &weights);
    assert_eq!(*dp.iter().max().unwrap(), 2 * k as u64);
}

#[test]
fn veb_tree_supports_the_full_ordered_set_workflow() {
    // End-to-end ordered-set scenario across the public API: bulk build,
    // batched churn, range reporting, and iterator export.
    let universe = 1u64 << 18;
    let initial: Vec<u64> = (0..universe).step_by(7).collect();
    let mut set = VebTree::from_sorted(universe, &initial);
    assert_eq!(set.len(), initial.len());

    let additions: Vec<u64> = (0..universe).step_by(11).filter(|k| k % 7 != 0).collect();
    set.batch_insert(&additions);
    let removals: Vec<u64> = (0..universe).step_by(21).collect();
    set.batch_delete(&removals);

    let mut oracle: std::collections::BTreeSet<u64> = initial.iter().copied().collect();
    oracle.extend(additions.iter().copied());
    for r in &removals {
        oracle.remove(r);
    }
    assert_eq!(set.iter_keys(), oracle.iter().copied().collect::<Vec<_>>());
    assert_eq!(set.range(1000, 5000), oracle.range(1000..=5000).copied().collect::<Vec<_>>());
    assert_eq!(set.min(), oracle.first().copied());
    assert_eq!(set.max(), oracle.last().copied());
}

#[test]
fn mono_veb_staircase_integrates_with_wlis_scores() {
    // Feed the dp values produced by WLIS into a Mono-vEB staircase and
    // check that prefix_best reproduces the dominant-max semantics used by
    // the Range-vEB structure.
    let n = 3_000usize;
    let input = workloads::range_pattern(n, 40, 5);
    let weights = workloads::uniform_weights(n, 9, 6);
    let dp = wlis_rangetree(&input, &weights);

    let mut stair = MonoVeb::new(n as u64);
    // Insert points in index order with their dp values as scores.
    let points: Vec<ScoredPoint> =
        (0..n).map(|i| ScoredPoint { key: i as u64, score: dp[i] }).collect();
    stair.insert_staircase(&points);
    assert!(stair.is_staircase());
    // prefix_best(q) must equal the max dp among indices < q.
    let mut running_max = 0u64;
    for (q, &dp_q) in dp.iter().enumerate() {
        let expected = if q == 0 { None } else { Some(running_max) };
        assert_eq!(stair.prefix_best(q as u64), expected, "prefix {q}");
        running_max = running_max.max(dp_q);
    }
}

#[test]
fn workload_targets_are_respected_end_to_end() {
    // The generator promises approximate LIS lengths; verify through the
    // real algorithm so the benchmark sweeps are meaningful.
    let n = 100_000usize;
    for &target in &[10u64, 100, 1_000] {
        let input = workloads::with_target_rank(n, target, 2024);
        let k = lis_ranks_u64(&input).1 as f64;
        assert!(
            k >= target as f64 * 0.5 && k <= target as f64 * 2.0,
            "target {target}, measured {k}"
        );
    }
}

#[test]
fn streaming_engine_agrees_with_every_offline_algorithm() {
    // The full pipeline check for the streaming subsystem: one engine
    // session per workload, fed in batches; the final state must agree with
    // the offline parallel algorithm AND the sequential baseline on the
    // concatenated stream.
    let n = 20_000usize;
    let cases = [
        ("range", workloads::range_pattern(n, 300, 11)),
        ("line", workloads::line_pattern(n, 1, 2_000, 12)),
        ("perm", workloads::random_permutation(n, 13)),
    ];
    let universe = cases.iter().flat_map(|(_, v)| v.iter().copied()).max().unwrap() + 1;
    let mut engine = Engine::new(EngineConfig { universe, ..EngineConfig::default() });
    let mut state = 0xA5A5_5A5A_1234_4321u64;
    let mut cursors = [0usize; 3];
    while cursors.iter().zip(&cases).any(|(&c, (_, v))| c < v.len()) {
        let mut tick = Tick::new().auto_create();
        for (i, (name, values)) in cases.iter().enumerate() {
            if cursors[i] < values.len() {
                let take =
                    ((xorshift(&mut state) % 900) as usize + 1).min(values.len() - cursors[i]);
                tick.push(*name, values[cursors[i]..cursors[i] + take].to_vec());
                cursors[i] += take;
            }
        }
        assert!(engine.execute(&tick).fully_applied());
    }
    for (name, values) in &cases {
        let session = engine.session(name).expect("session exists");
        let (par_ranks, par_k) = lis_ranks_u64(values);
        let (bs_ranks, bs_k) = seq_bs(values);
        assert_eq!(session.lis_length(), par_k, "{name} vs parallel");
        assert_eq!(session.lis_length(), bs_k, "{name} vs Seq-BS");
        assert_eq!(session.ranks(), par_ranks.as_slice(), "{name} ranks vs parallel");
        assert_eq!(session.ranks(), bs_ranks.as_slice(), "{name} ranks vs Seq-BS");
        // Reconstruction through the umbrella prelude still works on the
        // streamed ranks.
        let lis = session.reconstruct_lis();
        assert_eq!(lis.len() as u32, par_k, "{name} reconstruction length");
        assert!(lis.windows(2).all(|w| values[w[0]] < values[w[1]]));
    }
    engine.check_invariants();
}
