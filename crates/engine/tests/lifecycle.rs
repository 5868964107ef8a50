//! Engine session lifecycle under churn: sessions removed mid-stream and
//! re-created — by explicit [`plis_engine::Op::RemoveSession`] /
//! [`plis_engine::Op::CreateSession`] slots riding the same ticks as the
//! traffic, or implicitly by later auto-create ticks — must behave
//! exactly like fresh sessions fed only the post-removal traffic, and must
//! never disturb their neighbours.

use plis_engine::{
    Engine, EngineConfig, Op, SessionKind, StreamingLis, Tick, WeightedStreamingLis,
};
use plis_workloads::streaming::{stream, weighted_stream, StreamPattern};

fn config(universe: u64) -> EngineConfig {
    EngineConfig { universe, shards: 3, ..EngineConfig::default() }
}

#[test]
fn removed_session_recreated_by_ingest_restarts_from_scratch() {
    let universe = 1u64 << 12;
    let pattern = StreamPattern::Line { t: 1, noise: 500 };
    let batches = stream(pattern, 3_000, 90, 0xC0FFEE);
    let cut = batches.len() / 2;

    let mut engine = Engine::new(config(universe));
    // A neighbour that lives through the churn and must be unaffected.
    let neighbour = stream(StreamPattern::Permutation, 3_000, 90, 0xD0D0);
    let mut neighbour_reference = StreamingLis::new(universe);

    for (round, batch) in batches.iter().enumerate() {
        let mut tick = Tick::new().auto_create();
        if round == cut {
            // Mid-stream churn: the removal rides the same tick as the
            // traffic, ordered before the batch that re-creates the id.
            tick.push("churny", Op::RemoveSession);
        }
        tick.push("churny", Op::Append(batch.clone()));
        if let Some(nb) = neighbour.get(round) {
            neighbour_reference.ingest(nb);
            tick.push("stable", Op::Append(nb.clone()));
        }
        let outcome = engine.execute(&tick);
        assert!(outcome.fully_applied(), "errors: {:?}", outcome.errors().collect::<Vec<_>>());
        if round == cut {
            assert_eq!(outcome.sessions_removed, 1);
        }
    }

    // The re-created session must equal a fresh session fed only the
    // post-removal batches — no state leaks across the removal.
    let mut fresh = StreamingLis::new(universe);
    for batch in &batches[cut..] {
        fresh.ingest(batch);
    }
    let live = engine.session("churny").expect("recreated by ingest");
    assert_eq!(live.len(), fresh.len());
    assert_eq!(live.ranks(), fresh.ranks());
    assert_eq!(live.tails(), fresh.tails());

    // The neighbour saw every batch exactly once.
    let stable = engine.session("stable").expect("neighbour survived");
    assert_eq!(stable.ranks(), neighbour_reference.ranks());
    assert_eq!(stable.tails(), neighbour_reference.tails());
    engine.check_invariants();
}

#[test]
fn removed_weighted_session_recreated_mid_stream_matches_fresh_session() {
    let universe = 1u64 << 12;
    let batches = weighted_stream(StreamPattern::Permutation, 2_000, 80, 30, 0xFACADE);
    let cut = batches.len() / 3;

    let mut engine =
        Engine::new(EngineConfig { default_kind: SessionKind::Weighted, ..config(universe) });
    engine.create_session_kind("w", SessionKind::Weighted);
    for (round, batch) in batches.iter().enumerate() {
        // Strict ticks with an explicit remove/create pair at the churn
        // point: lifecycle is part of the command vocabulary, not a side
        // effect of ingest.
        let tick = if round == cut {
            Tick::new()
                .remove("w")
                .create("w", SessionKind::Weighted)
                .append_weighted("w", batch.clone())
        } else {
            Tick::new().append_weighted("w", batch.clone())
        };
        assert!(engine.execute(&tick).fully_applied());
    }

    let mut fresh = WeightedStreamingLis::new(universe);
    for batch in &batches[cut..] {
        fresh.ingest(batch);
    }
    let live = engine.weighted_session("w").expect("recreated weighted");
    assert_eq!(live.scores(), fresh.scores());
    assert_eq!(live.frontier(), fresh.frontier());
    engine.check_invariants();
}

#[test]
fn kind_can_change_across_a_removal() {
    let mut engine = Engine::new(config(1 << 10));
    engine.execute(&Tick::new().append("s", vec![1, 2, 3]).auto_create());
    assert_eq!(engine.session_kind("s"), Some(SessionKind::Unweighted));

    // One tick: remove, then re-create the id as a weighted session.
    let outcome = engine.execute(
        &Tick::new()
            .remove("s")
            .create("s", SessionKind::Weighted)
            .append_weighted("s", vec![(4, 9), (5, 2)]),
    );
    assert!(outcome.fully_applied());
    assert_eq!(engine.session_kind("s"), Some(SessionKind::Weighted));
    assert_eq!(engine.best_score("s"), Some(11));
    assert_eq!(engine.lis_length("s"), None);
    engine.check_invariants();
}

#[test]
fn repeated_create_remove_cycles_stay_consistent() {
    let mut engine = Engine::new(config(1 << 10));
    for cycle in 0..10u64 {
        let id = format!("cycle-{}", cycle % 3);
        engine.execute(
            &Tick::new().append(id.as_str(), vec![cycle % 7, cycle % 5 + 3]).auto_create(),
        );
        if cycle % 2 == 1 {
            assert!(engine.remove_session(&id));
            assert!(!engine.remove_session(&id), "double removal must be a no-op");
        }
        engine.check_invariants();
    }
    let ids = engine.session_ids();
    assert_eq!(ids.len(), engine.session_count());
    for id in &ids {
        assert!(engine.session_state(id.as_str()).is_some());
    }
}
