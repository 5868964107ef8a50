//! Batched socket I/O: many frames per read, many replies per write, and
//! the client's send queue.
//!
//! The server reads each connection through a buffer and writes all the
//! replies a connection earned in one batch with one write; the client
//! queues its requests and writes them when it is about to block.  None
//! of that may change what a connection sees: replies come back in
//! submission order, each equal to direct library execution, and a
//! damaged frame still earns its typed error.

mod common;

use plis_engine::{
    decode_read_outcome, decode_tick_outcome, encode_read_tick, encode_tick, replay_journal,
    Engine, EngineConfig, Query, ReadTick, SessionKind, Tick,
};
use plis_server::protocol::{
    append_frame, message, parse_message, read_frame, FrameRead, TAG_READ, TAG_READ_OUTCOME,
    TAG_SUBMIT, TAG_TICK_OUTCOME,
};
use plis_server::{
    Client, ClientError, JournalMode, ProtocolError, Response, ServerConfig, ServerHandle,
};
use plis_telemetry::FRAME_HEADER_BYTES;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;

const UNIVERSE: u64 = 1 << 16;

fn engine_config() -> EngineConfig {
    EngineConfig { universe: UNIVERSE, ..EngineConfig::default() }
}

fn start(batch_max_ops: usize, batch_max_wait: Duration) -> ServerHandle {
    start_with(ServerConfig { batch_max_ops, batch_max_wait, ..ServerConfig::default() })
}

fn start_with(config: ServerConfig) -> ServerHandle {
    ServerHandle::start(ServerConfig { engine: engine_config(), ..config }).expect("bind loopback")
}

/// One request of a raw-socket schedule.
enum Request {
    Write(Tick),
    Read(ReadTick),
}

impl Request {
    fn ops(&self) -> usize {
        match self {
            Request::Write(tick) => tick.len(),
            Request::Read(tick) => tick.len(),
        }
    }
}

/// Frame `requests` back to back, request ids `1..`, as one byte buffer.
fn frames(requests: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (id, request) in (1u64..).zip(requests) {
        let payload = match request {
            Request::Write(tick) => message(TAG_SUBMIT, id, &encode_tick(tick)),
            Request::Read(tick) => message(TAG_READ, id, &encode_read_tick(tick)),
        };
        append_frame(&mut wire, &payload);
    }
    wire
}

/// Write `requests` to `server` in a single `write_all` on a raw socket,
/// read every reply, and assert they come back with ids `1..` in order,
/// each equal to executing its request alone against the library.
fn assert_served_in_order(server: &ServerHandle, requests: &[Request]) -> Engine {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.write_all(&frames(requests)).unwrap();

    let mut engine = Engine::new(engine_config());
    let mut replies = BufReader::new(stream);
    for (id, request) in (1u64..).zip(requests) {
        let FrameRead::Payload(payload) = read_frame(&mut replies, 1 << 20).expect("read reply")
        else {
            panic!("request {id}: expected a reply frame");
        };
        let msg = parse_message(&payload).unwrap();
        assert_eq!(msg.request_id, id, "replies must arrive in submission order");
        match request {
            Request::Write(tick) => {
                assert_eq!(msg.tag, TAG_TICK_OUTCOME);
                let served = decode_tick_outcome(msg.body).unwrap();
                assert_eq!(served, engine.execute(tick), "request {id}");
            }
            Request::Read(tick) => {
                assert_eq!(msg.tag, TAG_READ_OUTCOME);
                let served = decode_read_outcome(msg.body).unwrap();
                assert_eq!(served, engine.execute_read(tick), "request {id}");
            }
        }
    }
    engine
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn two_hundred_frames_in_one_write_reply_in_order_and_match_the_library() {
    let server = start(256, Duration::from_micros(200));
    let names = ["s0", "s1", "s2", "s3", "s4"];
    let mut state = 0xB47C_4ED0u64;
    let mut requests = vec![Request::Write(
        names.iter().fold(Tick::new(), |tick, name| tick.create(*name, SessionKind::Unweighted)),
    )];
    while requests.len() < 200 {
        let name = names[requests.len() % names.len()];
        let value = xorshift(&mut state) % UNIVERSE;
        requests.push(if requests.len() % 3 == 0 {
            Request::Read(ReadTick::new().query(
                name,
                vec![Query::RankOf(value as usize % 64), Query::TopK(3), Query::Certificate],
            ))
        } else {
            let batch = (0..1 + value % 40).map(|_| xorshift(&mut state) % UNIVERSE).collect();
            Request::Write(Tick::new().append(name, batch))
        });
    }

    let engine = assert_served_in_order(&server, &requests);
    let report = server.shutdown();
    assert_eq!(report.snapshot.encode(), engine.snapshot().encode());
    common::assert_same_derived_state(&report.engine, &engine, "served vs direct");
}

#[test]
fn write_and_read_runs_of_one_batch_reply_in_submission_order() {
    // Runs split only where a write's create flag changes, and reads join
    // the run they arrive in: [1, 2, 3] strict, [4, 5, 6] auto-create,
    // [7, 8] strict.  Each read must observe the writes submitted before
    // it.
    let requests = vec![
        Request::Write(Tick::new().create("a", SessionKind::Unweighted).append("a", vec![4, 1, 7])),
        Request::Write(Tick::new().append("a", vec![2, 9, 3])),
        Request::Read(ReadTick::new().query("a", vec![Query::Certificate, Query::RankOf(9)])),
        Request::Write(Tick::new().auto_create().append("b", vec![8, 6, 5])),
        Request::Write(Tick::new().auto_create().append("a", vec![11, 12])),
        Request::Read(ReadTick::new().query("a", Query::TopK(4)).query("b", Query::Certificate)),
        Request::Write(Tick::new().append("b", vec![1, 2, 3, 4])),
        Request::Read(ReadTick::new().query("b", vec![Query::Certificate, Query::RankOf(4)])),
    ];
    // The size trigger fires exactly when the last request is queued, and
    // the time trigger never does: all eight requests form one batch.
    let ops = requests.iter().map(Request::ops).sum();
    let server = start_with(ServerConfig {
        batch_max_ops: ops,
        batch_max_wait: Duration::from_secs(60),
        journal: JournalMode::Memory,
        ..ServerConfig::default()
    });

    let engine = assert_served_in_order(&server, &requests);
    let report = server.shutdown();
    assert_eq!(report.ticks_executed, 3, "one combined tick per run of the single batch");
    assert_eq!(report.snapshot.encode(), engine.snapshot().encode());
    common::assert_same_derived_state(&report.engine, &engine, "served vs direct");

    // The journal holds every combined tick, query slots included, and
    // replaying it rebuilds the served engine.
    let journal = report.journal.expect("memory journal");
    let mut replayed = Engine::new(engine_config());
    let replay = replay_journal(&mut replayed, &journal).expect("journal replays");
    assert_eq!(replay.outcomes.len() as u64, report.ticks_executed);
    assert_eq!(replayed.snapshot().encode(), report.snapshot.encode());
}

#[test]
fn finish_sending_writes_the_queued_request_before_the_half_close() {
    let server = start(256, Duration::from_micros(200));
    let tick = Tick::new().create("h", SessionKind::Weighted).append_weighted("h", vec![(3, 2)]);
    let mut client = Client::connect(server.addr()).expect("connect");
    let id = client.send_tick(&tick).unwrap();
    client.finish_sending().unwrap();
    match client.recv() {
        Ok(Response::Tick { request_id, outcome }) => {
            assert_eq!(request_id, id);
            assert_eq!(outcome, Engine::new(engine_config()).execute(&tick));
        }
        other => panic!("expected the tick outcome, got {other:?}"),
    }
    assert!(matches!(client.recv(), Err(ClientError::Closed)));
    server.shutdown();
}

#[test]
fn pipelined_sends_then_receives_return_ids_in_order() {
    let server = start(256, Duration::from_micros(200));
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut engine = Engine::new(engine_config());
    let mut sent = Vec::new();
    let create = Tick::new().create("p", SessionKind::Unweighted);
    sent.push((client.send_tick(&create).unwrap(), Request::Write(create)));
    for i in 0..60u64 {
        let request = if i % 4 == 3 {
            let read =
                ReadTick::new().query("p", vec![Query::RankOf(i as usize), Query::Certificate]);
            (client.send_read(&read).unwrap(), Request::Read(read))
        } else {
            let tick = Tick::new().append("p", vec![(i * 7919) % 1000, i]);
            (client.send_tick(&tick).unwrap(), Request::Write(tick))
        };
        sent.push(request);
    }
    for (id, request) in &sent {
        let response = client.recv().expect("response");
        assert_eq!(response.request_id(), *id, "responses must arrive in send order");
        match (response, request) {
            (Response::Tick { outcome, .. }, Request::Write(tick)) => {
                assert_eq!(outcome, engine.execute(tick));
            }
            (Response::Read { outcome, .. }, Request::Read(tick)) => {
                assert_eq!(outcome, engine.execute_read(tick));
            }
            (other, _) => panic!("request {id}: response of the wrong kind: {other:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.snapshot.encode(), engine.snapshot().encode());
    common::assert_same_derived_state(&report.engine, &engine, "served vs direct");
}

#[test]
fn damaged_frame_after_queued_sends_still_earns_its_typed_error() {
    let server = start(256, Duration::from_micros(200));
    let mut client = Client::connect(server.addr()).expect("connect");
    let queued: Vec<u64> = (0..3)
        .map(|i| client.send_tick(&Tick::new().auto_create().append("q", vec![i, i + 1])).unwrap())
        .collect();

    let mut damaged = Vec::new();
    append_frame(
        &mut damaged,
        &message(TAG_SUBMIT, 99, &encode_tick(&Tick::new().auto_create().append("q", vec![5]))),
    );
    damaged[FRAME_HEADER_BYTES + 3] ^= 0x20;
    client.stream().write_all(&damaged).unwrap();

    // The queued requests went out first.  Their replies race the error
    // frame (the reader answers damage at once, the batcher after its
    // batch), so any prefix of them may arrive, in order, then the error.
    let mut answered = Vec::new();
    let error = loop {
        match client.recv() {
            Ok(response) => answered.push(response.request_id()),
            Err(error) => break error,
        }
    };
    assert_eq!(answered, queued[..answered.len()], "replies before the error stay in order");
    match error {
        ClientError::Server { request_id: 0, error: ProtocolError::BadChecksum, .. } => {}
        other => panic!("expected BadChecksum, got {other:?}"),
    }
    assert!(matches!(client.recv(), Err(ClientError::Closed)));
    server.shutdown();
}
