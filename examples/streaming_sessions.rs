//! Streaming sessions: serve LIS queries over data that arrives in batches,
//! for many independent sessions at once, with the `plis-engine` subsystem.
//!
//! Run with: `cargo run --release --example streaming_sessions`

use plis::prelude::*;
use plis::workloads::streaming::{session_fleet, StreamPattern};

fn main() {
    // --- One session, step by step -------------------------------------
    // A sensor emits readings in small bursts; we keep the LIS of the whole
    // history live, without ever recomputing from scratch.
    let mut session = StreamingLis::new(1 << 16);
    for (day, burst) in
        [&[520u64, 310, 450][..], &[260, 610, 100][..], &[390, 440, 700][..]].iter().enumerate()
    {
        let report = session.ingest(burst);
        println!(
            "day {day}: +{} readings, LIS {} -> {}",
            report.ingested, report.lis_before, report.lis_after
        );
    }
    // Ranks are exact dp values: element 8 (value 700) ends a LIS of length 4.
    assert_eq!(session.ranks(), &[1, 1, 2, 1, 3, 1, 2, 3, 4]);
    let lis: Vec<u64> = session.reconstruct_lis().iter().map(|&i| session.values()[i]).collect();
    println!("one LIS of the stream: {lis:?}");
    assert_eq!(lis.len(), 4);

    // Value-domain queries binary-search the tails array.
    println!("longest run strictly below 450: {}", session.lis_length_below(450));

    // --- A fleet of sessions, tick by tick ------------------------------
    // The heavy-traffic shape: many sessions, batched arrivals, one
    // parallel `execute` call per tick.  Lifecycle is explicit — the
    // first tick creates every session, the rest are strict appends.
    let (fleet, universe) = session_fleet(6, 30_000, 512, 7);
    let mut engine = Engine::new(EngineConfig { universe, ..EngineConfig::default() });
    let setup: Tick = fleet
        .iter()
        .fold(Tick::new(), |tick, (name, _)| tick.create(name.as_str(), SessionKind::Unweighted));
    assert!(engine.execute(&setup).fully_applied());
    let rounds = fleet.iter().map(|(_, batches)| batches.len()).max().unwrap();
    for round in 0..rounds {
        let tick: Tick = fleet
            .iter()
            .filter_map(|(name, batches)| {
                batches.get(round).map(|b| (name.as_str(), Op::Append(b.clone())))
            })
            .collect();
        let outcome = engine.execute(&tick);
        assert!(outcome.fully_applied());
    }
    println!("fleet after {rounds} ticks:");
    for id in engine.session_ids() {
        let session = engine.session(id.as_str()).unwrap();
        println!("  {id:<16} n = {:>6}  LIS = {:>5}", session.len(), session.lis_length());
    }

    // The streaming answer equals the offline oracle on the full history.
    let perm = StreamPattern::Permutation.generate(30_000, 7 + 2);
    let (oracle_ranks, oracle_k) = lis_ranks_u64(&perm);
    let streamed = engine.session("permutation-2").unwrap();
    assert_eq!(streamed.lis_length(), oracle_k);
    assert_eq!(streamed.ranks(), oracle_ranks.as_slice());
    println!("streamed ranks match the offline oracle (k = {oracle_k})");

    // --- Weighted sessions in the same engine ----------------------------
    // Algorithm 2 served as live traffic: (value, weight) batches flow
    // through the same ticks, and dp scores are exact after every batch.
    let wtick = Tick::new()
        .create("orders", SessionKind::Weighted)
        .append_weighted("orders", vec![(100, 5), (300, 2), (200, 9)])
        .append_weighted("orders", vec![(250, 4), (400, 1)]);
    let outcome = engine.execute(&wtick);
    assert!(outcome.fully_applied());
    assert_eq!(outcome.weighted_sessions_touched, 1);
    let orders = engine.weighted_session("orders").unwrap();
    // Best chain: 100 (5) < 200 (9) < 250 (4) < 400 (1) = 19.
    assert_eq!(engine.best_score("orders"), Some(19));
    println!(
        "weighted session 'orders': scores = {:?}, best = {}",
        orders.scores(),
        orders.best_score()
    );
    let offline = wlis_rangetree(orders.values(), orders.weights());
    assert_eq!(orders.scores(), offline.as_slice());
    println!("weighted scores match the offline Algorithm-2 oracle");
}
