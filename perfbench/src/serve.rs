//! `serve-mixed`: a closed loop against an in-process `plis-server` over
//! loopback.
//!
//! Every session keeps exactly one request in flight and sends its next
//! one only after the previous answer arrives.  The sessions are spread
//! over as many client threads (one connection each) as the host has
//! threads, at most two.  One request is one timed operation, from client
//! send to decoded outcome.  A typed op error, a protocol error frame or a
//! client error counts as a failed operation; a connection that fails
//! fails every request it had not yet completed.

use crate::bulk::{warm_up, Expect};
use crate::{ns_since, timed, Ctx, Outcome};
use plis_engine::{
    decode_tick_outcome, encode_tick, encode_tick_outcome, Engine, EngineConfig, Query, ReadTick,
    SessionKind, Tick,
};
use plis_server::{Client, Response, ServerConfig, ServerHandle};
use plis_workloads::streaming::{mixed_session_fleet, weighted_session_fleet, ReadWriteOp};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Sessions (one in four weighted), their length, mean write batch and
/// read share.
const SESSIONS: usize = 1024;
const SESSION_N: usize = 4_000;
const BATCH: usize = 64;
const READ_MIX: f64 = 0.25;
const QUERIES_PER_READ: usize = 4;
/// Most client threads (and connections) a run uses.
const MAX_CONNS: usize = 2;
/// Fewest rounds a run makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

enum Request {
    Write(Tick),
    Read(ReadTick),
}

struct Session {
    name: String,
    kind: SessionKind,
    requests: Vec<Request>,
}

struct Schedule {
    universe: u64,
    sessions: Vec<Session>,
    /// Final state of each session when a library engine is fed the same
    /// writes.
    expect: Vec<Expect>,
    elems: u64,
}

impl Schedule {
    fn generate(seed: u64) -> Schedule {
        let weighted_sessions = SESSIONS / 4;
        let (mixed, u1) = mixed_session_fleet(
            SESSIONS - weighted_sessions,
            SESSION_N,
            BATCH,
            READ_MIX,
            QUERIES_PER_READ,
            seed,
        );
        let (weighted, u2) =
            weighted_session_fleet(weighted_sessions, SESSION_N, BATCH, 1_000, seed ^ 0x5EED);
        let universe = u1.max(u2).max(2);

        let mut sessions = Vec::with_capacity(SESSIONS);
        let mut elems = 0u64;
        for (name, ops) in mixed {
            let requests = ops
                .into_iter()
                .map(|op| match op {
                    ReadWriteOp::Write(batch) => {
                        elems += batch.len() as u64;
                        Request::Write(Tick::new().append(name.as_str(), batch))
                    }
                    ReadWriteOp::Read(specs) => {
                        let queries: Vec<Query> = specs.into_iter().map(Query::from).collect();
                        Request::Read(ReadTick::new().query(name.as_str(), queries))
                    }
                })
                .collect();
            sessions.push(Session { name, kind: SessionKind::Unweighted, requests });
        }
        for (name, batches) in weighted {
            let requests = batches
                .into_iter()
                .map(|batch| {
                    elems += batch.len() as u64;
                    Request::Write(Tick::new().append_weighted(name.as_str(), batch))
                })
                .collect();
            sessions.push(Session { name, kind: SessionKind::Weighted, requests });
        }

        // The reference: a library engine fed every write, session by
        // session (reads change no state).
        let mut engine = Engine::new(EngineConfig { universe, ..EngineConfig::default() });
        let mut expect = Vec::with_capacity(sessions.len());
        for s in &sessions {
            assert!(engine.execute(&Tick::new().create(s.name.as_str(), s.kind)).fully_applied());
            for request in &s.requests {
                if let Request::Write(tick) = request {
                    assert!(engine.execute(tick).fully_applied(), "reference write failed");
                }
            }
            let value = match s.kind {
                SessionKind::Unweighted => engine.lis_length(&s.name).map(u64::from),
                SessionKind::Weighted => engine.best_score(&s.name),
            };
            let value = value.expect("reference session exists");
            expect.push(Expect { name: s.name.clone(), kind: s.kind, value });
        }
        Schedule { universe, sessions, expect, elems }
    }

    fn ops(&self) -> u64 {
        self.sessions.iter().map(|s| s.requests.len() as u64).sum()
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ConnStats {
    op_ns: Vec<u64>,
    failed: u64,
    /// Sessions (indices into the schedule) with at least one failed op.
    tainted: Vec<usize>,
    send_ns: Vec<u64>,
    recv_wait_ns: u64,
    encode_ns: u64,
    encode_ops: u64,
    decode_ns: u64,
    decode_ops: u64,
}

/// Drive `mine` (indices of sessions) over `client` until every session
/// has sent all its requests, or the connection fails.
fn drive_conn(mut client: Client, schedule: &Schedule, mine: &[usize], traced: bool) -> ConnStats {
    let mut stats = ConnStats::default();
    let mut cursors = vec![0usize; mine.len()];
    let mut failed_slots = vec![false; mine.len()];
    // request id -> (slot, send instant): one entry per session.
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(mine.len());

    let send = |client: &mut Client,
                stats: &mut ConnStats,
                in_flight: &mut HashMap<u64, (usize, Instant)>,
                slot: usize,
                request: &Request|
     -> bool {
        if traced {
            if let Request::Write(tick) = request {
                let start = Instant::now();
                std::hint::black_box(encode_tick(tick));
                stats.encode_ns += ns_since(start);
                stats.encode_ops += 1;
            }
        }
        let start = Instant::now();
        let sent = match request {
            Request::Write(tick) => client.send_tick(tick),
            Request::Read(tick) => client.send_read(tick),
        };
        stats.send_ns.push(ns_since(start));
        match sent {
            Ok(id) => {
                in_flight.insert(id, (slot, start));
                true
            }
            Err(e) => {
                eprintln!("serve-mixed: send failed: {e}");
                false
            }
        }
    };

    let mut alive = true;
    for slot in 0..mine.len() {
        if alive && !schedule.sessions[mine[slot]].requests.is_empty() {
            cursors[slot] = 1;
            alive = send(
                &mut client,
                &mut stats,
                &mut in_flight,
                slot,
                &schedule.sessions[mine[slot]].requests[0],
            );
        }
    }
    while alive && !in_flight.is_empty() {
        let wait = Instant::now();
        let received = client.recv();
        stats.recv_wait_ns += ns_since(wait);
        let response = match received {
            Ok(response) => response,
            Err(e) => {
                eprintln!("serve-mixed: connection failed: {e}");
                break;
            }
        };
        let Some((slot, sent)) = in_flight.remove(&response.request_id()) else {
            eprintln!("serve-mixed: answer to request {} not in flight", response.request_id());
            break;
        };
        stats.op_ns.push(ns_since(sent));
        let ok = match &response {
            Response::Tick { outcome, .. } => {
                if traced {
                    let bytes = encode_tick_outcome(outcome);
                    let start = Instant::now();
                    let decoded = decode_tick_outcome(&bytes);
                    stats.decode_ns += ns_since(start);
                    stats.decode_ops += 1;
                    assert!(decoded.is_ok(), "tick outcome does not round-trip");
                }
                outcome.fully_applied()
            }
            Response::Read { outcome, .. } => outcome.outcomes.iter().all(|(_, r)| r.is_ok()),
        };
        if !ok {
            stats.failed += 1;
            failed_slots[slot] = true;
        }
        let requests = &schedule.sessions[mine[slot]].requests;
        if let Some(request) = requests.get(cursors[slot]) {
            cursors[slot] += 1;
            alive = send(&mut client, &mut stats, &mut in_flight, slot, request);
        }
    }
    // Whatever did not complete failed: requests still in flight and
    // requests never sent.
    for &(slot, _) in in_flight.values() {
        stats.failed += 1;
        failed_slots[slot] = true;
    }
    for (slot, &cursor) in cursors.iter().enumerate() {
        let unsent = schedule.sessions[mine[slot]].requests.len() - cursor;
        if unsent > 0 {
            stats.failed += unsent as u64;
            failed_slots[slot] = true;
        }
    }
    stats.tainted =
        failed_slots.iter().enumerate().filter(|(_, &f)| f).map(|(slot, _)| mine[slot]).collect();
    stats
}

/// Start a server, connect `conns` clients and create every session.
fn start(schedule: &Schedule, conns: usize) -> (ServerHandle, Vec<Client>, f64) {
    let (start_s, server) = timed(|| {
        ServerHandle::start(ServerConfig {
            engine: EngineConfig { universe: schedule.universe, ..EngineConfig::default() },
            ..ServerConfig::default()
        })
        .expect("bind a loopback server")
    });
    let addr: SocketAddr = server.addr();
    let clients = (0..conns)
        .map(|conn| {
            let mut client = Client::connect(addr).expect("connect to the server");
            let mut create = Tick::new();
            for s in schedule.sessions.iter().skip(conn).step_by(conns) {
                create = create.create(s.name.as_str(), s.kind);
            }
            let outcome = client.submit(&create).expect("creation tick answered");
            assert!(outcome.fully_applied(), "creation tick failed");
            client
        })
        .collect();
    (server, clients, start_s)
}

/// Run the workload for `--seconds` of served rounds.
pub fn run(ctx: &Ctx) -> Outcome {
    let conns = ctx.host_threads.clamp(1, MAX_CONNS);
    let mut out = Outcome::default();
    // Before the reference engine below runs, so the one-shot cost-model
    // calibration lands here.
    let (once_s, ()) = timed(warm_up);
    out.setup_once_s = once_s;
    let schedule = Schedule::generate(ctx.args.seed);
    let ops = schedule.ops();
    ctx.line(
        "inputs",
        vec![
            ("sessions", SESSIONS.into()),
            ("weighted_sessions", (SESSIONS / 4).into()),
            ("session_n", SESSION_N.into()),
            ("mean_batch", BATCH.into()),
            ("read_mix", READ_MIX.into()),
            ("connections", conns.into()),
            ("ops", ops.into()),
            ("elems", schedule.elems.into()),
        ],
    );
    let mut client_send_ns = Vec::new();

    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < ctx.args.seconds {
        rounds += 1;
        let (setup_s, (server, clients, start_s)) = timed(|| start(&schedule, conns));
        out.setup_s.push(setup_s);

        let drive_start = Instant::now();
        let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(conn, client)| {
                    let mine: Vec<usize> = (conn..schedule.sessions.len()).step_by(conns).collect();
                    let schedule = &schedule;
                    let traced = ctx.traced;
                    scope.spawn(move || drive_conn(client, schedule, &mine, traced))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let drive_s = drive_start.elapsed().as_secs_f64();
        let (shutdown_s, report) = timed(|| server.shutdown());

        out.work_s += drive_s;
        out.elems += schedule.elems;
        out.rates.push(schedule.elems as f64 / drive_s);
        out.attempted += ops;
        let mut tainted = vec![false; schedule.sessions.len()];
        for stats in &per_conn {
            out.op_ns.extend_from_slice(&stats.op_ns);
            out.failed += stats.failed;
            for &s in &stats.tainted {
                tainted[s] = true;
            }
        }
        out.end_round();
        assert_eq!(report.engine.session_count(), SESSIONS, "drained engine holds the fleet");
        for (e, _) in schedule.expect.iter().zip(&tainted).filter(|(_, &t)| !t) {
            assert!(e.holds(&report.engine), "served session {} differs from the library", e.name);
        }

        if ctx.traced {
            let layers = &mut out.layers;
            layers.push_engine(&report.engine.metrics_snapshot(), drive_s);
            layers.push("server.start_s", start_s);
            layers.push("server.shutdown_s", shutdown_s);
            layers.push("server.ticks", report.ticks_executed as f64);
            layers.push("server.ops_per_tick", ops as f64 / report.ticks_executed.max(1) as f64);
            let sum = |f: fn(&ConnStats) -> u64| per_conn.iter().map(f).sum::<u64>() as f64;
            layers.push("client.recv_wait_s", sum(|s| s.recv_wait_ns) / 1e9);
            layers.push("wire.encode_ns_per_op", sum(|s| s.encode_ns) / sum(|s| s.encode_ops));
            layers.push("wire.decode_ns_per_op", sum(|s| s.decode_ns) / sum(|s| s.decode_ops));
            for stats in &per_conn {
                client_send_ns.extend_from_slice(&stats.send_ns);
            }
        }
    }
    if ctx.traced {
        client_send_ns.sort_unstable();
        let send_p50_us = crate::percentile(&client_send_ns, 50.0) as f64 / 1e3;
        out.layers.push("client.send_p50_us", send_p50_us);
        out.layers.push("rayon.join_ns", crate::join_probe_ns(&ctx.pool()));
    }
    out.stages = vec![("rounds", rounds.into()), ("connections", conns.into())];
    out
}
