//! The serving correctness bar: a mixed unweighted/weighted fleet served
//! over loopback TCP produces per-request outcomes and a final engine
//! state **bit-identical** to direct library execution of the same
//! schedule.
//!
//! The argument this test checks end to end: sessions are independent,
//! each session's requests flow through one connection in order, and the
//! batcher only coalesces queue-order runs into combined ticks — so
//! however requests interleave across connections and however the
//! batcher slices them, every per-request outcome must equal the outcome
//! of executing that request alone, and the final snapshot (sorted by
//! session id, so creation-order races don't leak into the encoding)
//! must match the direct engine's byte for byte.

mod common;

use plis_engine::{
    Engine, EngineConfig, Op, OpError, Query, ReadOutcome, ReadTick, SessionKind, Tick, TickOutcome,
};
use plis_server::{Client, ServerConfig, ServerHandle, ShutdownReport};
use plis_workloads::streaming::{mixed_session_fleet, weighted_session_fleet, ReadWriteOp};
use std::time::Duration;

/// One per-session request: exactly what a client submits in one frame.
#[derive(Clone)]
enum Request {
    Write(Tick),
    Read(ReadTick),
}

/// What came back for it, from either execution path.
#[derive(Debug, PartialEq)]
enum Outcome {
    Tick(TickOutcome),
    Read(ReadOutcome),
}

/// Build the fleet schedule: per-session request lists, unweighted
/// sessions with interleaved reads plus weighted sessions with a closing
/// read, all under one universe.
fn build_schedule(seed: u64) -> (Vec<(String, Vec<Request>)>, u64) {
    let (mixed, u1) = mixed_session_fleet(6, 360, 24, 0.3, 4, seed);
    let (weighted, u2) = weighted_session_fleet(4, 280, 24, 9, seed ^ 0x5EED);
    let universe = u1.max(u2);

    let mut schedule = Vec::new();
    for (name, ops) in mixed {
        let mut requests =
            vec![Request::Write(Tick::new().create(name.as_str(), SessionKind::Unweighted))];
        for op in ops {
            requests.push(match op {
                ReadWriteOp::Write(batch) => {
                    Request::Write(Tick::new().append(name.as_str(), batch))
                }
                ReadWriteOp::Read(specs) => {
                    Request::Read(ReadTick::new().query(
                        name.as_str(),
                        specs.into_iter().map(Query::from).collect::<Vec<_>>(),
                    ))
                }
            });
        }
        schedule.push((name, requests));
    }
    for (name, batches) in weighted {
        let mut requests =
            vec![Request::Write(Tick::new().create(name.as_str(), SessionKind::Weighted))];
        for batch in batches {
            requests.push(Request::Write(Tick::new().append_weighted(name.as_str(), batch)));
        }
        // A closing read so the weighted read path is exercised too.
        requests.push(Request::Read(
            ReadTick::new()
                .query(name.as_str(), vec![Query::RankOf(0), Query::TopK(4), Query::Certificate]),
        ));
        schedule.push((name, requests));
    }
    (schedule, universe)
}

/// Execute the schedule directly against the library, session by
/// session (order across sessions is irrelevant: they are independent).
fn run_direct(
    schedule: &[(String, Vec<Request>)],
    config: EngineConfig,
) -> (Vec<Vec<Outcome>>, Engine) {
    let mut engine = Engine::new(config);
    let outcomes = schedule
        .iter()
        .map(|(_, requests)| {
            requests
                .iter()
                .map(|request| match request {
                    Request::Write(tick) => Outcome::Tick(engine.execute(tick)),
                    Request::Read(tick) => Outcome::Read(engine.execute_read(tick)),
                })
                .collect()
        })
        .collect();
    (outcomes, engine)
}

/// Serve the schedule over loopback: `clients` connections, sessions
/// partitioned round-robin across them, each connection interleaving its
/// sessions' requests with a bounded pipeline depth so cross-session
/// batching in the server actually happens.
fn run_served(
    schedule: &[(String, Vec<Request>)],
    config: EngineConfig,
    worker_threads: Option<usize>,
    clients: usize,
) -> (Vec<Vec<Outcome>>, ShutdownReport) {
    let server = ServerHandle::start(ServerConfig {
        engine: config,
        batch_max_ops: 64,
        batch_max_wait: Duration::from_micros(300),
        worker_threads,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    let mut outcomes: Vec<Vec<Option<Outcome>>> =
        schedule.iter().map(|(_, requests)| (0..requests.len()).map(|_| None).collect()).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_idx in 0..clients {
            // This client's sessions, with their global schedule indices.
            let mine: Vec<(usize, &(String, Vec<Request>))> =
                schedule.iter().enumerate().filter(|(i, _)| i % clients == client_idx).collect();
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Interleave sessions round-robin; request_id -> (session, step).
                let mut cursors = vec![0usize; mine.len()];
                let mut pending: Vec<(u64, usize, usize)> = Vec::new();
                let mut results: Vec<(usize, usize, Outcome)> = Vec::new();
                const DEPTH: usize = 16;
                loop {
                    let mut sent_any = false;
                    for (slot, (session_idx, (_, requests))) in mine.iter().enumerate() {
                        let step = cursors[slot];
                        if step >= requests.len() {
                            continue;
                        }
                        cursors[slot] += 1;
                        let id = match &requests[step] {
                            Request::Write(tick) => client.send_tick(tick).expect("send"),
                            Request::Read(tick) => client.send_read(tick).expect("send"),
                        };
                        pending.push((id, *session_idx, step));
                        sent_any = true;
                    }
                    while pending.len() > if sent_any { DEPTH } else { 0 } {
                        let response = client.recv().expect("recv");
                        let pos = pending
                            .iter()
                            .position(|(id, _, _)| *id == response.request_id())
                            .expect("response matches a pending request");
                        let (_, session_idx, step) = pending.remove(pos);
                        let outcome = match response {
                            plis_server::Response::Tick { outcome, .. } => Outcome::Tick(outcome),
                            plis_server::Response::Read { outcome, .. } => Outcome::Read(outcome),
                        };
                        results.push((session_idx, step, outcome));
                    }
                    if !sent_any && pending.is_empty() {
                        break;
                    }
                }
                results
            }));
        }
        for handle in handles {
            for (session_idx, step, outcome) in handle.join().expect("client thread") {
                outcomes[session_idx][step] = Some(outcome);
            }
        }
    });

    let report = server.shutdown();
    let served: Vec<Vec<Outcome>> = outcomes
        .into_iter()
        .map(|row| row.into_iter().map(|o| o.expect("every request answered")).collect())
        .collect();
    (served, report)
}

fn assert_differential(worker_threads: Option<usize>) {
    let (schedule, universe) = build_schedule(0xD1FF);
    let config = EngineConfig { universe, ..EngineConfig::default() };
    let total_requests: usize = schedule.iter().map(|(_, r)| r.len()).sum();
    assert!(total_requests > 100, "schedule should be non-trivial");

    let (direct, direct_engine) = run_direct(&schedule, config.clone());
    let (served, report) = run_served(&schedule, config, worker_threads, 4);

    for (session_idx, (name, _)) in schedule.iter().enumerate() {
        assert_eq!(
            served[session_idx], direct[session_idx],
            "per-request outcomes for session {name} must match direct execution"
        );
    }
    assert_eq!(
        report.snapshot.encode(),
        direct_engine.snapshot().encode(),
        "final engine snapshot must be byte-identical to direct execution"
    );
    common::assert_same_derived_state(&report.engine, &direct_engine, "served vs direct");
}

#[test]
fn served_fleet_matches_direct_execution_single_thread() {
    assert_differential(Some(1));
}

#[test]
fn served_fleet_matches_direct_execution_full_pool() {
    assert_differential(None);
}

/// Strict-mode errors round-trip the socket too: an op aimed at a missing
/// session, or a weighted batch that would push a session's weight total
/// past `u64::MAX`, must come back as the same typed `OpError` the library
/// returns, with the connection and the other sessions still serving; a
/// session at the bound still snapshots over the wire.
#[test]
fn typed_errors_round_trip_the_socket() {
    let config = EngineConfig { universe: 1 << 16, ..EngineConfig::default() };
    let server =
        ServerHandle::start(ServerConfig { engine: config.clone(), ..ServerConfig::default() })
            .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    let tick = Tick::new()
        .append("ghost", vec![1, 2, 3])
        .create("real", SessionKind::Unweighted)
        .create("real", SessionKind::Weighted)
        .append("real", vec![4, 5]);
    let served = client.submit(&tick).expect("submit");

    let mut engine = Engine::new(config);
    let direct = engine.execute(&tick);
    assert_eq!(served, direct);
    assert!(!served.fully_applied());

    let read = ReadTick::new().query("missing", Query::Certificate);
    let served_read = client.submit_read(&read).expect("submit_read");
    assert_eq!(served_read, engine.execute_read(&read));

    let overflow = Tick::new()
        .create("heavy", SessionKind::Weighted)
        .create("bystander", SessionKind::Weighted)
        .append_weighted("heavy", vec![(1, u64::MAX - 5), (2, 10)])
        .append_weighted("bystander", vec![(3, 7)]);
    let served = client.submit(&overflow).expect("submit");
    assert_eq!(served, engine.execute(&overflow));
    assert_eq!(served.failed_ops, 1);
    assert_eq!(served.outcomes[2].1, Err(OpError::ScoreOverflow));
    let after = Tick::new()
        .append_weighted("bystander", vec![(9, 1)])
        .append_weighted("heavy", vec![(4, 2)]);
    let served = client.submit(&after).expect("the connection keeps serving");
    assert_eq!(served, engine.execute(&after));
    assert!(served.fully_applied());

    // Elements that do not chain keep the best score at 2^63 while the
    // weight total reaches u64::MAX: the third append is refused, and the
    // served snapshot of the session decodes at the client.
    let half = 1u64 << 63;
    let flat = Tick::new()
        .create("flat", SessionKind::Weighted)
        .append_weighted("flat", vec![(10, half)])
        .append_weighted("flat", vec![(5, half - 1)])
        .append_weighted("flat", vec![(4, half - 1)])
        .snapshot("flat");
    let served = client.submit(&flat).expect("the snapshot reply decodes");
    assert_eq!(served, engine.execute(&flat));
    assert_eq!(served.outcomes[3].1, Err(OpError::ScoreOverflow));
    assert!(served.outcomes[4].1.is_ok());

    let report = server.shutdown();
    assert_eq!(report.snapshot.encode(), engine.snapshot().encode());
    common::assert_same_derived_state(&report.engine, &engine, "served vs direct");
}

/// `Op::Snapshot` / `Op::Restore` ride the wire inside ticks like any
/// other command: snapshot a served session, restore it under a new id
/// on the same server, and both paths must agree with the library.
#[test]
fn snapshot_and_restore_ops_work_over_the_wire() {
    let config = EngineConfig { universe: 1 << 16, ..EngineConfig::default() };
    let server =
        ServerHandle::start(ServerConfig { engine: config.clone(), ..ServerConfig::default() })
            .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut engine = Engine::new(config);

    let seed_tick = Tick::new()
        .create("origin", SessionKind::Unweighted)
        .append("origin", vec![9, 2, 7, 4, 11, 3])
        .snapshot("origin");
    let served = client.submit(&seed_tick).expect("submit");
    let direct = engine.execute(&seed_tick);
    assert_eq!(served, direct);

    let snapshot = match served.outputs().last().expect("snapshot slot") {
        (_, plis_engine::OpOutput::Snapshotted(snapshot)) => (**snapshot).clone(),
        other => panic!("expected a snapshot output, got {other:?}"),
    };
    let restore_tick =
        Tick::new().op("copy", Op::Restore(Box::new(snapshot))).query("copy", Query::RankOf(4));
    let served = client.submit(&restore_tick).expect("submit");
    assert_eq!(served, engine.execute(&restore_tick));
    assert!(served.fully_applied());

    let report = server.shutdown();
    assert_eq!(report.snapshot.encode(), engine.snapshot().encode());
    common::assert_same_derived_state(&report.engine, &engine, "served vs direct");
}
