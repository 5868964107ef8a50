//! The engine's command plane, end to end: one `Op` vocabulary for
//! appends, reads, and session lifecycle; one `Tick` builder; one
//! `Engine::execute` that runs every tick, with `Engine::execute_read` as
//! its adapter for read-only traffic — with every op resolving to a typed
//! `Result<OpOutput, OpError>` instead of panicking or silently dropping.
//!
//! Run with: `cargo run --release --example command_plane`

use plis::prelude::*;

fn main() {
    let mut engine = Engine::new(EngineConfig { universe: 1 << 16, ..EngineConfig::default() });

    // --- One tick, every command kind ----------------------------------
    // Lifecycle is explicit: sessions are created by ops, in tick order,
    // next to the traffic that feeds them.  A query op sees every earlier
    // op of the same tick addressed to its session.
    let tick = Tick::new()
        .create("telemetry", SessionKind::Unweighted)
        .create("orders", SessionKind::Weighted)
        .append("telemetry", vec![520u64, 310, 450, 260, 610])
        .append_weighted("orders", vec![(100u64, 5u64), (300, 2), (200, 9)])
        .query("telemetry", vec![Query::RankOf(4), Query::TopK(2)])
        .append("telemetry", vec![700u64])
        .query("telemetry", Query::Certificate);
    let outcome = engine.execute(&tick);
    assert!(outcome.fully_applied());
    println!(
        "tick: {} ops -> {} created, {} ingested, {} answered, {} worker thread(s)",
        outcome.outcomes.len(),
        outcome.sessions_created,
        outcome.total_ingested,
        outcome.total_queries,
        outcome.worker_threads,
    );

    // Per-op outputs are typed: the mid-tick query saw three readings...
    let mid = outcome.outcomes[4].1.as_ref().unwrap().as_answered().unwrap();
    assert_eq!(mid.answers[0], QueryAnswer::Rank(Some(3))); // 310 < 450 < 610
                                                            // ...and the certificate after the next append claims one more.
    let OpOutput::Answered(last) = outcome.outcomes[6].1.as_ref().unwrap() else { panic!() };
    let QueryAnswer::Certificate(cert) = &last.answers[0] else { panic!() };
    assert_eq!(cert.claimed, 4); // 310 < 450 < 610 < 700
    println!("mid-tick rank {:?}, end-of-tick certificate {:?}", mid.answers[0], cert.indices);

    // --- Malformed ops degrade per op, with real errors -----------------
    // One tick carrying every fault: unknown session, kind mismatch,
    // universe overflow, create-twice.  Healthy neighbours still land.
    let tick = Tick::new()
        .append("ghost", vec![1, 2, 3])
        .append_weighted("telemetry", vec![(1, 1)])
        .append("telemetry", vec![1 << 16])
        .create("orders", SessionKind::Unweighted)
        .append("telemetry", vec![655u64]);
    let outcome = engine.execute(&tick);
    assert_eq!(outcome.failed_ops, 4);
    for (id, error) in outcome.errors() {
        println!("  rejected op on '{id}': {error}");
    }
    assert_eq!(outcome.outcomes[0].1, Err(OpError::UnknownSession));
    assert_eq!(
        outcome.outcomes[1].1,
        Err(OpError::KindMismatch {
            session: SessionKind::Unweighted,
            batch: SessionKind::Weighted
        })
    );
    assert_eq!(
        outcome.outcomes[2].1,
        Err(OpError::UniverseOverflow { value: 1 << 16, universe: 1 << 16 })
    );
    assert_eq!(outcome.outcomes[3].1, Err(OpError::SessionExists { kind: SessionKind::Weighted }));
    // The healthy last op landed: 610 < 655 < 700 keeps the LIS at 4,
    // and the rejected ops never touched the session.
    assert!(outcome.outcomes[4].1.is_ok());
    assert_eq!(engine.lis_length("telemetry"), Some(4));
    assert_eq!(engine.session("telemetry").unwrap().len(), 7);

    // --- Read-only ticks run as query slots of one tick -----------------
    let reads = ReadTick::new()
        .query("telemetry", vec![Query::CountAt(1), Query::TopK(1)])
        .query("orders", Query::Certificate)
        .query("ghost", Query::RankOf(0));
    let outcome = engine.execute_read(&reads);
    assert_eq!(outcome.sessions_queried, 2);
    assert_eq!(outcome.sessions_missing, 1);
    let QueryAnswer::Certificate(best) = &outcome.outcomes[1].1.as_ref().unwrap().answers[0] else {
        panic!()
    };
    // Best chain: 100 (5) < 200 (9) = 14.
    assert_eq!(best.claimed, 14);
    println!(
        "read tick: {} queries answered, best order chain {:?} (weight {})",
        outcome.total_queries, best.indices, best.claimed
    );

    // --- Lifecycle rides the tick, in order ------------------------------
    // Remove + re-create + refill in one tick: the re-created session
    // starts from scratch, deterministically, whatever the pool size.
    let tick = Tick::new()
        .remove("telemetry")
        .create("telemetry", SessionKind::Unweighted)
        .append("telemetry", vec![42u64, 47]);
    let outcome = engine.execute(&tick);
    assert!(outcome.fully_applied());
    assert_eq!(outcome.sessions_removed, 1);
    assert_eq!(engine.lis_length("telemetry"), Some(2));
    println!(
        "churn tick: removed {}, created {}, LIS restarted at {:?}",
        outcome.sessions_removed,
        outcome.sessions_created,
        engine.lis_length("telemetry")
    );
}
