//! The streaming query plane: live rank / top-k / certificate reads served
//! from the same sessions that are still ingesting, batched per tick and
//! answered shard-parallel — with every answer equal to the offline
//! algorithms run on the full history.
//!
//! Run with: `cargo run --release --example streaming_queries`

use plis::prelude::*;
use plis::workloads::streaming::{mixed_session_fleet, round_robin_ticks};

fn main() {
    // --- One session: every query kind --------------------------------
    let mut engine = Engine::with_universe(1 << 16);
    engine.execute(
        &Tick::new()
            .create("sensor", SessionKind::Unweighted)
            .append("sensor", vec![520u64, 310, 450, 260, 610]),
    );

    // Read-only traffic: a ReadTick of query batches, run as one tick.
    let tick = ReadTick::new().query(
        "sensor",
        vec![
            Query::RankOf(4),   // dp value of the 5th reading
            Query::CountAt(1),  // how many readings start a fresh run
            Query::TopK(3),     // the three deepest runs
            Query::Certificate, // one actual LIS
        ],
    );
    let outcome = engine.execute_read(&tick);
    let answers = &outcome.outcomes[0].1.as_ref().unwrap().answers;
    assert_eq!(answers[0], QueryAnswer::Rank(Some(3))); // 310 < 450 < 610
    assert_eq!(answers[1], QueryAnswer::Count(3)); // 520, 310, 260
    println!("sensor answers: {answers:?}");
    let QueryAnswer::Certificate(cert) = &answers[3] else { panic!("expected a certificate") };
    assert_eq!(cert.claimed, 3);
    assert!(cert.indices.windows(2).all(|w| w[0] < w[1]));
    println!("certificate: indices {:?} claim a LIS of length {}", cert.indices, cert.claimed);

    // --- Reads interleaved with writes, in one tick --------------------
    // A query op sees every op before it in the same tick.
    let mixed = Tick::new().append("sensor", vec![700, 100]).query("sensor", Query::RankOf(5));
    let outcome = engine.execute(&mixed);
    let after_write = outcome.outcomes[1].1.as_ref().unwrap().as_answered().unwrap();
    assert_eq!(after_write.answers[0], QueryAnswer::Rank(Some(4))); // ... 610 < 700
    println!("mid-tick read sees the write before it: {:?}", after_write.answers[0]);

    // --- Typed errors instead of silent drops --------------------------
    // Queries against absent sessions (and appends, in strict ticks) fail
    // their own op; the rest of the tick is served normally.
    let outcome = engine.execute_read(&ReadTick::new().query("ghost", Query::Certificate));
    assert_eq!(outcome.outcomes[0].1, Err(OpError::UnknownSession));
    println!("absent session fails typed: {:?}", outcome.outcomes[0].1);

    // --- Weighted sessions answer the same queries ---------------------
    engine.execute(
        &Tick::new()
            .create("orders", SessionKind::Weighted)
            .append_weighted("orders", vec![(100u64, 5u64), (300, 2), (200, 9), (400, 1)]),
    );
    let outcome = engine
        .execute_read(&ReadTick::new().query("orders", vec![Query::TopK(2), Query::Certificate]));
    let answers = &outcome.outcomes[0].1.as_ref().unwrap().answers;
    // Best chain: 100 (5) < 200 (9) < 400 (1) = 15.
    assert_eq!(answers[0], QueryAnswer::TopK(vec![(3, 15), (2, 14)]));
    let QueryAnswer::Certificate(cert) = &answers[1] else { panic!("expected a certificate") };
    assert_eq!(cert.claimed, 15);
    println!("weighted certificate: {:?} with total weight {}", cert.indices, cert.claimed);

    // --- Heavy traffic: a read/write-mixed fleet -----------------------
    // The workload generator interleaves reads into every stream; its
    // ReadWriteOps map 1:1 onto command-plane Ops and the engine serves
    // whole mixed ticks shard-parallel.
    let (fleet, universe) = mixed_session_fleet(6, 20_000, 256, 0.3, 8, 42);
    let mut engine = Engine::with_universe(universe);
    let mut served = 0usize;
    let mut written = 0usize;
    for tick in round_robin_ticks(&fleet, |s| s.to_string()) {
        let ops: Tick = tick
            .into_iter()
            // The canonical ReadWriteOp -> Op conversion lives in
            // plis-engine, so consumers never hand-map specs.
            .map(|(id, op)| (id, Op::from(op)))
            .collect::<Tick>()
            .auto_create();
        let outcome = engine.execute(&ops);
        assert!(outcome.fully_applied());
        served += outcome.total_queries;
        written += outcome.total_ingested;
    }
    println!("fleet: {written} elements written, {served} queries served live");

    // Spot-check one session against the offline oracles on its history.
    let id = engine.session_ids().into_iter().next().unwrap();
    let session = engine.session(id.as_str()).unwrap();
    let (oracle_ranks, oracle_k) = lis_ranks_u64(session.values());
    assert_eq!(session.ranks(), oracle_ranks.as_slice());
    assert_eq!(session.reconstruct_lis().len() as u32, oracle_k);
    println!("session {id}: live answers match the offline oracle (k = {oracle_k})");
}
