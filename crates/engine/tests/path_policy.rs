//! Engine-level contract for cost-based ingest path selection: the path
//! policy steers *which* ingest path runs, never *what* it computes.  A
//! schedule executed under `PathPolicy::Cost` must leave every session —
//! unweighted and weighted — in exactly the state any forced threshold
//! produces, and the cost decisions themselves must be deterministic
//! within a process (calibration runs once; after that the choice is a
//! pure function of batch and summary size).

use plis_engine::{Engine, EngineConfig, IngestPath, Op, PathPolicy, SessionId, Tick};
use plis_workloads::streaming::{round_robin_ticks, session_fleet, weighted_session_fleet};

/// A mixed schedule: the unweighted fleet's ticks followed by the
/// weighted fleet's, all auto-creating (weighted batches imply weighted
/// sessions), plus the covering universe.
fn mixed_schedule() -> (Vec<Tick>, u64) {
    let (plain, u1) = session_fleet(5, 1_200, 80, 0xC0575);
    let (weighted, u2) = weighted_session_fleet(4, 900, 70, 20, 0xC0575);
    let mut ticks: Vec<Tick> = round_robin_ticks(&plain, |s| SessionId::from(s))
        .into_iter()
        .map(|t| t.into_iter().collect::<Tick>().auto_create())
        .collect();
    ticks.extend(round_robin_ticks(&weighted, |s| SessionId::from(s)).into_iter().map(|t| {
        t.into_iter()
            .map(|(id, batch)| (id, Op::AppendWeighted(batch)))
            .collect::<Tick>()
            .auto_create()
    }));
    (ticks, u1.max(u2))
}

/// One session's observable state: id, ranks, tails-or-frontier, scores.
type SessionFingerprint = (String, Vec<u32>, Vec<u64>, Vec<u64>);

/// Every session's full observable state, sorted by id.
fn final_state(engine: &Engine) -> Vec<SessionFingerprint> {
    engine
        .session_ids()
        .iter()
        .map(|id| {
            if let Some(s) = engine.session(id.as_str()) {
                (id.as_str().to_string(), s.ranks().to_vec(), s.tails().to_vec(), Vec::new())
            } else {
                let s = engine.weighted_session(id.as_str()).expect("session is one of the kinds");
                let frontier: Vec<u64> = s.frontier().iter().flat_map(|&(v, sc)| [v, sc]).collect();
                (id.as_str().to_string(), Vec::new(), frontier, s.scores().to_vec())
            }
        })
        .collect()
}

/// The per-op ingest paths of one executed schedule, for replay checks.
fn paths_taken(outcomes: &[plis_engine::TickOutcome]) -> Vec<IngestPath> {
    outcomes
        .iter()
        .flat_map(|o| o.outcomes.iter())
        .filter_map(|(_, r)| match r {
            Ok(plis_engine::OpOutput::Appended(report)) => Some(match report {
                plis_engine::BatchReport::Unweighted(r) => r.path,
                plis_engine::BatchReport::Weighted(r) => r.path,
            }),
            _ => None,
        })
        .collect()
}

fn run(config: &EngineConfig, ticks: &[Tick]) -> (Engine, Vec<plis_engine::TickOutcome>) {
    let mut engine = Engine::new(config.clone());
    let outcomes: Vec<_> = ticks.iter().map(|t| engine.execute(t)).collect();
    assert!(outcomes.iter().all(|o| o.fully_applied()));
    engine.check_invariants();
    (engine, outcomes)
}

#[test]
fn cost_policy_matches_every_forced_threshold() {
    let (ticks, universe) = mixed_schedule();
    let base = EngineConfig {
        universe,
        shards: 4,
        path_policy: PathPolicy::Cost,
        ..EngineConfig::default()
    };
    let (cost_engine, _) = run(&base, &ticks);
    let want = final_state(&cost_engine);
    for threshold in [1usize, 33, 80, 512, usize::MAX] {
        let config = EngineConfig { path_policy: PathPolicy::Fixed(threshold), ..base.clone() };
        let (forced, _) = run(&config, &ticks);
        assert_eq!(
            final_state(&forced),
            want,
            "threshold {threshold} diverged from the cost policy"
        );
    }
}

#[test]
fn cost_decisions_are_deterministic_within_a_process() {
    let (ticks, universe) = mixed_schedule();
    let config = EngineConfig {
        universe,
        shards: 3,
        path_policy: PathPolicy::Cost,
        ..EngineConfig::default()
    };
    let (_, first) = run(&config, &ticks);
    let (_, second) = run(&config, &ticks);
    // Calibration is one-shot per process: replaying the schedule must
    // route every append exactly the same way, not just compute the same
    // state.
    assert_eq!(paths_taken(&first), paths_taken(&second));
    for (a, b) in first.iter().zip(second.iter()) {
        assert_eq!(a.outcomes, b.outcomes);
    }
}
