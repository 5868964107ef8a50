//! Engine determinism across thread counts: a multi-session tick schedule
//! executed under `num_threads(1)` and under the full pool must produce
//! identical per-op outcomes for every slot and identical final state
//! (ranks and patience tails) for every session.  Also asserts, via
//! `TickOutcome::worker_threads`, that the full-pool run really processes
//! shards on more than one worker thread — i.e. the tick path forks one
//! piece per busy shard through `rayon::join`, not a sequential fallback.

use plis_engine::{Engine, EngineConfig, SessionId, Tick, TickOutcome};
use plis_workloads::streaming::{round_robin_ticks, session_fleet};

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

/// The schedule as command-plane ticks, built once and replayed borrowed
/// on every leg (appends create their session on first contact).
fn command_ticks(fleet: &[(String, Vec<Vec<u64>>)]) -> Vec<Tick> {
    round_robin_ticks(fleet, |s| SessionId::from(s))
        .into_iter()
        .map(|tick| tick.into_iter().collect::<Tick>().auto_create())
        .collect()
}

struct RunOutcome {
    tick_outcomes: Vec<TickOutcome>,
    /// (session, ranks, tails) per session, sorted by session id.
    final_state: Vec<(String, Vec<u32>, Vec<u64>)>,
    max_worker_threads: usize,
}

fn run(threads: usize, ticks: &[Tick], config: &EngineConfig) -> RunOutcome {
    on_pool(threads, || {
        let mut engine = Engine::new(config.clone());
        let tick_outcomes: Vec<TickOutcome> =
            ticks.iter().map(|tick| engine.execute(tick)).collect();
        assert!(
            tick_outcomes.iter().all(TickOutcome::fully_applied),
            "a well-formed schedule must land every op"
        );
        engine.check_invariants();
        let final_state = engine
            .session_ids()
            .iter()
            .map(|id| {
                let session = engine.session(id.as_str()).expect("session exists");
                (id.as_str().to_string(), session.ranks().to_vec(), session.tails().to_vec())
            })
            .collect();
        let max_worker_threads = tick_outcomes.iter().map(|r| r.worker_threads).max().unwrap_or(1);
        RunOutcome { tick_outcomes, final_state, max_worker_threads }
    })
}

fn assert_identical(seq: &RunOutcome, par: &RunOutcome) {
    assert_eq!(seq.tick_outcomes.len(), par.tick_outcomes.len());
    for (t, (a, b)) in seq.tick_outcomes.iter().zip(par.tick_outcomes.iter()).enumerate() {
        // worker_threads is observational and intentionally excluded.
        assert_eq!(a.outcomes, b.outcomes, "tick {t}: per-op outcomes diverged");
        assert_eq!(a.total_ingested, b.total_ingested, "tick {t}");
        assert_eq!(a.sessions_touched, b.sessions_touched, "tick {t}");
    }
    assert_eq!(seq.final_state, par.final_state, "final ranks/tails diverged");
}

#[test]
fn multi_session_ticks_are_deterministic_across_thread_counts() {
    let (fleet, universe) = session_fleet(9, 4_000, 96, 0x00D1CE);
    let ticks = command_ticks(&fleet);
    assert!(ticks.len() > 10, "schedule should span many ticks");
    let config = EngineConfig { universe, shards: 8, ..EngineConfig::default() };
    let seq = run(1, &ticks, &config);
    assert_eq!(seq.max_worker_threads, 1, "a 1-thread pool must not split");
    let par = run(parallel_threads().max(4), &ticks, &config);
    assert_identical(&seq, &par);
}

#[test]
fn full_pool_tick_processing_engages_multiple_workers() {
    let (fleet, universe) = session_fleet(12, 2_000, 128, 0xFEED);
    let ticks = command_ticks(&fleet);
    let config = EngineConfig { universe, shards: 8, ..EngineConfig::default() };
    let seq = run(1, &ticks, &config);
    // The helper-thread budget is process-global, so retry a few times
    // rather than flaking when concurrent tests hold all slots.
    let mut best = 1usize;
    for _attempt in 0..20 {
        let par = run(parallel_threads().max(4), &ticks, &config);
        assert_identical(&seq, &par);
        best = best.max(par.max_worker_threads);
        if best > 1 {
            break;
        }
    }
    assert!(best > 1, "expected >1 worker thread through the engine tick path (observed {best})");
}

#[test]
fn odd_shard_count_is_deterministic() {
    let (fleet, universe) = session_fleet(6, 1_500, 64, 0xB0B);
    let ticks = command_ticks(&fleet);
    let config = EngineConfig { universe, shards: 5, ..EngineConfig::default() };
    let seq = run(1, &ticks, &config);
    let par = run(parallel_threads(), &ticks, &config);
    assert_identical(&seq, &par);
}
