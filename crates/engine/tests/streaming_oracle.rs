//! The acceptance property of the streaming engine: after every ingested
//! batch, a session's state agrees with the offline oracle
//! (`plis_lis::lis_ranks_u64`, Algorithm 1 of the paper) run on the
//! concatenated prefix — for multiple workload patterns and random batch
//! sizes.

use plis_engine::{Engine, EngineConfig, SessionId, StreamingLis, Tick};
use plis_lis::lis_ranks_u64;
use plis_workloads::{line_pattern, random_permutation, range_pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Split `values` into random batches with sizes in `[1, max_batch]`.
fn random_batches(values: &[u64], max_batch: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let mut batches = Vec::new();
    let mut rest = values;
    while !rest.is_empty() {
        let take = rng.gen_range(1..=max_batch.min(rest.len()));
        let (head, tail) = rest.split_at(take);
        batches.push(head.to_vec());
        rest = tail;
    }
    batches
}

fn check_stream_against_oracle(values: &[u64], universe: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = StreamingLis::new(universe);
    let mut prefix: Vec<u64> = Vec::new();
    for batch in random_batches(values, 500, &mut rng) {
        session.ingest(&batch);
        prefix.extend_from_slice(&batch);

        let (oracle_ranks, oracle_k) = lis_ranks_u64(&prefix);
        assert_eq!(session.lis_length(), oracle_k, "LIS length diverged from the oracle");
        assert_eq!(session.ranks(), oracle_ranks.as_slice(), "ranks diverged from the oracle");
        session.check_invariants();
    }
    // The reconstructed LIS of the final state is valid and optimal.
    let lis = session.reconstruct_lis();
    assert_eq!(lis.len() as u32, session.lis_length());
    assert!(lis.windows(2).all(|w| w[0] < w[1]));
    assert!(lis.windows(2).all(|w| values[w[0]] < values[w[1]]));
}

#[test]
fn range_pattern_matches_oracle_under_random_batching() {
    for (trial, &k_prime) in [4u64, 64, 900].iter().enumerate() {
        let values = range_pattern(4_000, k_prime, 0xAA + trial as u64);
        let universe = k_prime + 1;
        for seed in [17, 18] {
            check_stream_against_oracle(&values, universe, seed + trial as u64);
        }
    }
}

#[test]
fn line_pattern_matches_oracle_under_random_batching() {
    for (trial, &noise) in [3u64, 500, 5_000].iter().enumerate() {
        let values = line_pattern(4_000, 1, noise, 0xBB + trial as u64);
        let universe = values.iter().max().unwrap() + 1;
        for seed in [27, 28] {
            check_stream_against_oracle(&values, universe, seed + trial as u64);
        }
    }
}

#[test]
fn random_permutation_matches_oracle_under_random_batching() {
    for trial in 0..3u64 {
        let n = 3_000 + 500 * trial as usize;
        let values = random_permutation(n, 0xCC + trial);
        for seed in [37, 38] {
            check_stream_against_oracle(&values, n as u64, seed + trial);
        }
    }
}

#[test]
fn adversarial_patterns_match_oracle() {
    use plis_workloads::adversarial;
    let n = 2_000;
    for (name, values) in [
        ("increasing", adversarial::increasing(n)),
        ("decreasing", adversarial::decreasing(n)),
        ("constant", adversarial::constant(n, 7)),
        ("sawtooth", adversarial::sawtooth(n, 23)),
    ] {
        let universe = values.iter().max().unwrap() + 1;
        let mut rng = StdRng::seed_from_u64(0xD0D0);
        let mut session = StreamingLis::new(universe);
        let mut prefix = Vec::new();
        for batch in random_batches(&values, 333, &mut rng) {
            session.ingest(&batch);
            prefix.extend_from_slice(&batch);
        }
        let (oracle_ranks, oracle_k) = lis_ranks_u64(&prefix);
        assert_eq!(session.lis_length(), oracle_k, "{name}");
        assert_eq!(session.ranks(), oracle_ranks.as_slice(), "{name}");
        session.check_invariants();
    }
}

#[test]
fn engine_fleet_matches_oracle_per_session() {
    let universe = 1u64 << 13;
    let mut rng = StdRng::seed_from_u64(0xE3E3);
    let mut engine = Engine::new(EngineConfig { universe, shards: 4, ..EngineConfig::default() });
    // Heterogeneous fleet: each session streams a different pattern.
    let streams: Vec<(SessionId, Vec<u64>)> = vec![
        (
            SessionId::from("range"),
            range_pattern(3_000, 40, 1).iter().map(|&v| v % universe).collect(),
        ),
        (
            SessionId::from("line"),
            line_pattern(3_000, 1, 800, 2).iter().map(|&v| v % universe).collect(),
        ),
        (
            SessionId::from("perm"),
            random_permutation(3_000, 3).iter().map(|&v| v % universe).collect(),
        ),
    ];
    for (id, _) in &streams {
        assert!(engine.create_session_kind(id.clone(), plis_engine::SessionKind::Unweighted));
    }
    let mut cursors: Vec<usize> = vec![0; streams.len()];
    while cursors.iter().zip(&streams).any(|(&c, (_, v))| c < v.len()) {
        let mut tick = Tick::new();
        for (i, (id, values)) in streams.iter().enumerate() {
            if cursors[i] < values.len() {
                let take = rng.gen_range(1..=400usize).min(values.len() - cursors[i]);
                tick.push(id.clone(), values[cursors[i]..cursors[i] + take].to_vec());
                cursors[i] += take;
            }
        }
        assert!(engine.execute(&tick).fully_applied());
    }
    for (id, values) in &streams {
        let session = engine.session(id.as_str()).expect("session exists");
        let (oracle_ranks, oracle_k) = lis_ranks_u64(values);
        assert_eq!(session.lis_length(), oracle_k, "session {id}");
        assert_eq!(session.ranks(), oracle_ranks.as_slice(), "session {id}");
    }
    engine.check_invariants();
}
