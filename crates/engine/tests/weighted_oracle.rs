//! The acceptance property of the *weighted* engine path: after every
//! executed tick, a weighted session's dp scores must equal the offline
//! Algorithm-2 oracle (`plis_lis::wlis_rangetree` and `wlis_rangeveb`,
//! themselves differentially tested against the quadratic dp in
//! `crates/lis/tests/wlis_oracle.rs`) run on the concatenated
//! `(value, weight)` prefix, on both of its dominant-max stores — at 1
//! thread and at the full pool, with the two runs bit-identical to each
//! other.

use plis_engine::{
    BatchReport, Engine, EngineConfig, OpOutput, SessionId, SessionKind, Tick, TickOutcome,
};
use plis_lis::{wlis_rangetree, wlis_rangeveb};
use plis_workloads::streaming::{round_robin_ticks, weighted_session_fleet};
use std::collections::HashMap;

/// One engine tick of weighted batches (the raw schedule shape).
type WeightedTick = Vec<(SessionId, Vec<(u64, u64)>)>;
/// `(session, scores, frontier)` snapshot.
type SessionSnapshot = (String, Vec<u64>, Vec<(u64, u64)>);

/// Pool size for the parallel leg: `PLIS_BENCH_THREADS`, else the hardware
/// parallelism, floored at 2 so single-core machines still split.
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

struct RunOutcome {
    tick_outcomes: Vec<TickOutcome>,
    /// One [`SessionSnapshot`] per session, sorted by session id.
    final_state: Vec<SessionSnapshot>,
}

/// Stream the fleet through a weighted engine on `threads` workers,
/// checking every session against the offline oracle on both stores after
/// every tick.
fn run_checked(ticks: &[WeightedTick], universe: u64, threads: usize) -> RunOutcome {
    on_pool(threads, || {
        let mut engine =
            Engine::new(EngineConfig { universe, default_kind: SessionKind::Weighted, shards: 4 });
        let mut prefixes: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        let mut tick_outcomes = Vec::new();
        for tick in ticks {
            let command: Tick = tick.iter().cloned().collect::<Tick>().auto_create();
            let outcome = engine.execute(&command);
            assert!(outcome.fully_applied(), "well-formed weighted ticks land every op");
            assert!(outcome
                .outputs()
                .all(|(_, o)| matches!(o, OpOutput::Appended(BatchReport::Weighted(_)))));
            assert_eq!(outcome.weighted_sessions_touched, outcome.sessions_touched);
            tick_outcomes.push(outcome);
            for (id, batch) in tick {
                prefixes.entry(id.as_str().to_string()).or_default().extend_from_slice(batch);
            }
            // The acceptance criterion: scores equal the offline oracle on
            // the concatenated prefix, on both stores, after every tick.
            for (name, prefix) in &prefixes {
                let session = engine.weighted_session(name).expect("session exists");
                let values: Vec<u64> = prefix.iter().map(|&(v, _)| v).collect();
                let weights: Vec<u64> = prefix.iter().map(|&(_, w)| w).collect();
                for (store, want) in [
                    ("range tree", wlis_rangetree(&values, &weights)),
                    ("Range-vEB", wlis_rangeveb(&values, &weights)),
                ] {
                    assert_eq!(
                        session.scores(),
                        want.as_slice(),
                        "session {name} diverged from the offline WLIS oracle on the {store} \
                         ({threads} threads)"
                    );
                }
            }
        }
        engine.check_invariants();
        let final_state = engine
            .session_ids()
            .iter()
            .map(|id| {
                let s = engine.weighted_session(id.as_str()).expect("weighted session");
                (id.as_str().to_string(), s.scores().to_vec(), s.frontier().to_vec())
            })
            .collect();
        RunOutcome { tick_outcomes, final_state }
    })
}

fn assert_identical(a: &RunOutcome, b: &RunOutcome, label: &str) {
    assert_eq!(a.tick_outcomes.len(), b.tick_outcomes.len(), "{label}");
    for (t, (x, y)) in a.tick_outcomes.iter().zip(b.tick_outcomes.iter()).enumerate() {
        // worker_threads is observational and intentionally excluded.
        assert_eq!(x.outcomes, y.outcomes, "{label}: tick {t} outcomes diverged");
        assert_eq!(x.total_ingested, y.total_ingested, "{label}: tick {t}");
    }
    assert_eq!(a.final_state, b.final_state, "{label}: final scores/frontiers diverged");
}

#[test]
fn weighted_sessions_match_offline_oracle_on_both_stores_and_pools() {
    let (fleet, universe) = weighted_session_fleet(5, 1_200, 64, 40, 0x5EED);
    let ticks = round_robin_ticks(&fleet, |s| SessionId::from(s));
    assert!(ticks.len() > 10, "schedule should span many ticks");

    let seq = run_checked(&ticks, universe, 1);
    let par = run_checked(&ticks, universe, parallel_threads());
    assert_identical(&seq, &par, "1-thread vs full pool");
}

#[test]
fn mixed_ticks_serve_both_kinds_against_their_oracles() {
    use plis_lis::lis_ranks_u64;
    use plis_workloads::streaming::session_fleet;

    let n = 900;
    let (plain_fleet, u1) = session_fleet(2, n, 48, 0xA1);
    let (weighted_fleet, u2) = weighted_session_fleet(2, n, 48, 25, 0xB2);
    let universe = u1.max(u2);
    let mut engine = Engine::new(EngineConfig { universe, shards: 3, ..EngineConfig::default() });

    let rounds = plain_fleet
        .iter()
        .map(|(_, b)| b.len())
        .chain(weighted_fleet.iter().map(|(_, b)| b.len()))
        .max()
        .unwrap();
    for round in 0..rounds {
        let mut tick = Tick::new().auto_create();
        for (name, batches) in &plain_fleet {
            if let Some(b) = batches.get(round) {
                tick.push(name.as_str(), b.clone());
            }
        }
        for (name, batches) in &weighted_fleet {
            if let Some(b) = batches.get(round) {
                tick.push(name.as_str(), b.clone());
            }
        }
        let outcome = engine.execute(&tick);
        assert!(outcome.fully_applied());
        assert!(outcome.weighted_sessions_touched <= outcome.sessions_touched);
    }

    for (name, batches) in &plain_fleet {
        let values: Vec<u64> = batches.iter().flatten().copied().collect();
        let (want_ranks, want_k) = lis_ranks_u64(&values);
        let session = engine.session(name).expect("plain session");
        assert_eq!(session.lis_length(), want_k, "session {name}");
        assert_eq!(session.ranks(), want_ranks.as_slice(), "session {name}");
    }
    for (name, batches) in &weighted_fleet {
        let pairs: Vec<(u64, u64)> = batches.iter().flatten().copied().collect();
        let values: Vec<u64> = pairs.iter().map(|&(v, _)| v).collect();
        let weights: Vec<u64> = pairs.iter().map(|&(_, w)| w).collect();
        let want = wlis_rangetree(&values, &weights);
        let session = engine.weighted_session(name).expect("weighted session");
        assert_eq!(session.scores(), want.as_slice(), "session {name}");
    }
    engine.check_invariants();
}
