//! Partial, torn and hostile frames over real TCP.
//!
//! The service plane's failure contract: a damaged or truncated frame
//! earns a typed [`ProtocolError`] frame and a clean connection close —
//! never a panic, never an engine-state change, and never any effect on
//! other connections.  These tests drive raw sockets against a live
//! server: frames split at every byte boundary must reassemble; every
//! strict prefix followed by a close must be absorbed silently; each
//! damage class must come back as its own error code; and a healthy
//! connection submitting throughout must see the engine end up exactly
//! where direct library execution puts it.

mod common;

use plis_engine::{
    decode_tick_outcome, encode_tick, Engine, EngineConfig, Query, SessionKind, Tick,
};
use plis_server::protocol::{
    message, parse_message, read_frame, write_frame, FrameRead, TAG_SUBMIT, TAG_TICK_OUTCOME,
};
use plis_server::{Client, ClientError, ProtocolError, ServerConfig, ServerHandle};
use plis_telemetry::FRAME_HEADER_BYTES;
use std::io::Write as _;
use std::net::TcpStream;

fn start() -> (ServerHandle, EngineConfig) {
    let config = EngineConfig { universe: 1 << 16, ..EngineConfig::default() };
    let server =
        ServerHandle::start(ServerConfig { engine: config.clone(), ..ServerConfig::default() })
            .expect("bind loopback");
    (server, config)
}

/// A small valid submit frame, as raw wire bytes.
fn submit_frame(request_id: u64, tick: &Tick) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &message(TAG_SUBMIT, request_id, &encode_tick(tick))).unwrap();
    wire
}

#[test]
fn frames_split_at_every_byte_boundary_reassemble() {
    let (server, config) = start();
    let tick = Tick::new()
        .create("drip", SessionKind::Unweighted)
        .append("drip", vec![5, 1, 4, 2, 8])
        .query("drip", Query::Certificate);
    let wire = submit_frame(3, &tick);

    // Worst-case split schedule: one byte per write, flushed each time —
    // this crosses *every* byte boundary in a single pass.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    for byte in &wire {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }

    let FrameRead::Payload(payload) =
        read_frame(&mut stream, 1 << 20).expect("read response frame")
    else {
        panic!("expected a payload frame");
    };
    let msg = parse_message(&payload).unwrap();
    assert_eq!(msg.tag, TAG_TICK_OUTCOME);
    assert_eq!(msg.request_id, 3);
    let outcome = decode_tick_outcome(msg.body).unwrap();

    let mut engine = Engine::new(config);
    assert_eq!(outcome, engine.execute(&tick));
    server.shutdown();
}

#[test]
fn every_strict_prefix_then_close_is_absorbed_silently() {
    let (server, config) = start();
    let tick = Tick::new().create("torn", SessionKind::Unweighted).append("torn", vec![1, 2]);
    let wire = submit_frame(1, &tick);

    // Every strict prefix: the server must treat the close as a torn
    // frame (or clean close at 0), apply nothing, and keep serving.
    for cut in 0..wire.len() {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream.write_all(&wire[..cut]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // A torn frame earns no response — just EOF.
        assert!(
            matches!(read_frame(&mut stream, 1 << 20).unwrap(), FrameRead::Closed),
            "prefix of {cut} bytes should be dropped without a response"
        );
    }

    // The engine saw none of those prefixes: a fresh full submission is
    // the session's first contact.
    let mut client = Client::connect(server.addr()).expect("connect");
    let outcome = client.submit(&tick).expect("submit");
    let mut engine = Engine::new(config);
    assert_eq!(outcome, engine.execute(&tick));

    let report = server.shutdown();
    assert_eq!(report.snapshot.encode(), engine.snapshot().encode());
    common::assert_same_derived_state(&report.engine, &engine, "served vs direct");
}

#[test]
fn each_damage_class_gets_its_typed_error_and_other_connections_survive() {
    let (server, config) = start();
    let mut engine = Engine::new(config);

    // The bystander: a healthy connection that stays up through every
    // hostile connection below and must never notice them.
    let mut healthy = Client::connect(server.addr()).expect("connect");
    let seed = Tick::new()
        .create("keep", SessionKind::Weighted)
        .append_weighted("keep", vec![(3, 2), (1, 5), (7, 1)]);
    assert_eq!(healthy.submit(&seed).expect("submit"), engine.execute(&seed));

    let good_tick = Tick::new().auto_create().append("victim", vec![9, 9, 9]);

    // 1. Corrupted payload byte -> BadChecksum, echoed request id 0
    //    (the id is inside the payload the server refused to interpret).
    {
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut wire = submit_frame(11, &good_tick);
        wire[FRAME_HEADER_BYTES + 3] ^= 0x20;
        client.stream().write_all(&wire).unwrap();
        match client.recv() {
            Err(ClientError::Server {
                request_id: 0, error: ProtocolError::BadChecksum, ..
            }) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
        // ... and the connection is closed afterwards.
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
    }

    // 2. Unknown message tag -> UnknownTag, request id echoed.
    {
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut wire = Vec::new();
        write_frame(&mut wire, &message(0x7C, 99, b"whatever")).unwrap();
        client.stream().write_all(&wire).unwrap();
        match client.recv() {
            Err(ClientError::Server {
                request_id: 99,
                error: ProtocolError::UnknownTag(_),
                ..
            }) => {}
            other => panic!("expected UnknownTag, got {other:?}"),
        }
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
    }

    // 3. Valid frame, valid message, garbage sealed tick -> BadPayload.
    {
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut wire = Vec::new();
        write_frame(&mut wire, &message(TAG_SUBMIT, 42, b"not a sealed tick")).unwrap();
        client.stream().write_all(&wire).unwrap();
        match client.recv() {
            Err(ClientError::Server {
                request_id: 42,
                error: ProtocolError::BadPayload(_),
                ..
            }) => {}
            other => panic!("expected BadPayload, got {other:?}"),
        }
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
    }

    // 4. Oversized announcement -> Oversized, rejected before allocation.
    {
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        client.stream().write_all(&header).unwrap();
        match client.recv() {
            Err(ClientError::Server {
                request_id: 0,
                error: ProtocolError::Oversized { .. },
                ..
            }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
    }

    // 5. A message too short for tag + request id -> ShortMessage.
    {
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut wire = Vec::new();
        write_frame(&mut wire, &[TAG_SUBMIT, 0, 1]).unwrap();
        client.stream().write_all(&wire).unwrap();
        match client.recv() {
            Err(ClientError::Server {
                request_id: 0, error: ProtocolError::ShortMessage, ..
            }) => {}
            other => panic!("expected ShortMessage, got {other:?}"),
        }
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
    }

    // None of the rejected traffic touched the engine, and the bystander
    // connection still works: submit more and compare final state.
    let more = Tick::new().append("keep", vec![2, 6]).query("keep", Query::TopK(3));
    assert_eq!(healthy.submit(&more).expect("submit"), engine.execute(&more));

    let report = server.shutdown();
    assert_eq!(report.snapshot.encode(), engine.snapshot().encode());
    common::assert_same_derived_state(&report.engine, &engine, "served vs direct");
    assert_eq!(report.snapshot.session_count(), 1, "only the healthy session exists");
}
