//! Graceful shutdown and drain: kill the server mid-schedule and prove
//! that no acknowledged op is lost and none is double-applied.
//!
//! The drain contract under test: `ServerHandle::shutdown` stops
//! accepting, severs connection *read* sides (so nothing new enters the
//! queue), runs the batcher dry, and only then captures the final
//! snapshot.  With closed-loop clients that means the set of
//! acknowledged ticks IS the set of applied ticks — every in-flight
//! request either gets executed and acked before the batcher exits, or
//! was never read off the socket and left no trace.  The memory journal
//! must tell exactly the same story: replaying it from scratch, or
//! restoring the snapshot and replaying the journal suffix, both land on
//! the drained engine byte for byte.

mod common;

use plis_engine::{replay_journal, replay_journal_from, Engine, EngineConfig, Tick};
use plis_server::{Client, ClientError, JournalMode, ServerConfig, ServerHandle};
use plis_workloads::streaming::session_fleet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

#[test]
fn shutdown_mid_schedule_loses_no_acked_op_and_applies_none_twice() {
    let (fleet, universe) = session_fleet(8, 4_000, 64, 0xDEAD);
    let config = EngineConfig { universe, ..EngineConfig::default() };
    let server = ServerHandle::start(ServerConfig {
        engine: config.clone(),
        batch_max_ops: 32,
        batch_max_wait: Duration::from_micros(200),
        journal: JournalMode::Memory,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    let stop = AtomicBool::new(false);

    // One closed-loop client per session: submit a batch, wait for its
    // ack, remember it, repeat — until the server goes away underneath.
    let acked: Vec<Vec<Tick>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .iter()
            .map(|(name, batches)| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(_) => return Vec::new(),
                    };
                    let mut acked = Vec::new();
                    for (i, batch) in batches.iter().cycle().enumerate() {
                        // Cycle the schedule so no client finishes before
                        // the shutdown lands; cap it so the test always
                        // terminates even if shutdown were instant.
                        if stop.load(Ordering::Relaxed) || i > batches.len() * 50 {
                            break;
                        }
                        let tick = Tick::new().auto_create().append(name.as_str(), batch.clone());
                        match client.submit(&tick) {
                            Ok(outcome) => {
                                assert!(outcome.fully_applied());
                                acked.push(tick);
                            }
                            // The drain severed us: either the send hit a
                            // dead socket or the ack never came.  Both are
                            // legal; what matters is the invariant below.
                            Err(ClientError::Io(_)) | Err(ClientError::Closed) => break,
                            Err(other) => panic!("unexpected client error: {other}"),
                        }
                    }
                    acked
                })
            })
            .collect();

        // Let traffic build, then pull the plug mid-schedule.
        std::thread::sleep(Duration::from_millis(60));
        let report = server.shutdown();
        stop.store(true, Ordering::Relaxed);
        let acked: Vec<Vec<Tick>> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();

        let total_acked: usize = acked.iter().map(Vec::len).sum();
        assert!(total_acked > 0, "shutdown landed before any op was acked");

        // Invariant 1 — acked exactly-once: per session the acked ticks
        // are a prefix of its schedule (closed-loop), and executing just
        // those against a fresh engine reproduces the drained state.
        let mut direct = Engine::new(config.clone());
        for session_acked in &acked {
            for tick in session_acked {
                assert!(direct.execute(tick).fully_applied());
            }
        }
        assert_eq!(
            report.snapshot.encode(),
            direct.snapshot().encode(),
            "drained engine must hold exactly the acked ops, once each"
        );
        common::assert_same_derived_state(&report.engine, &direct, "drained vs acked");

        // Invariant 2 — the journal is the same truth: replaying it from
        // scratch lands on the drained snapshot.
        let journal = report.journal.as_deref().expect("memory journal captured");
        let mut replayed = Engine::new(config.clone());
        let replay = replay_journal(&mut replayed, journal).expect("journal replays");
        assert_eq!(replay.truncated_bytes, 0, "drain flushes whole records");
        assert_eq!(replay.outcomes.len() as u64, report.ticks_executed);
        assert_eq!(replayed.snapshot().encode(), report.snapshot.encode());
        common::assert_same_derived_state(&replayed, &report.engine, "replayed vs drained");

        // Invariant 3 — snapshot + journal-suffix recovery: restore from
        // the final snapshot, replay the journal from its covered prefix
        // (everything), and nothing double-applies.
        let mut restored =
            Engine::restore(config.clone(), &report.snapshot).expect("snapshot restores");
        let suffix =
            replay_journal_from(&mut restored, journal, replay.outcomes.len() + replay.skipped)
                .expect("suffix replays");
        assert!(suffix.outcomes.is_empty(), "snapshot already covers the whole journal");
        assert_eq!(restored.snapshot().encode(), report.snapshot.encode());
        common::assert_same_derived_state(&restored, &report.engine, "restored vs drained");

        acked
    });

    // Outside the scope: the per-session prefix property itself.
    for (session_acked, (_, batches)) in acked.iter().zip(&fleet) {
        for (tick, batch) in session_acked.iter().zip(batches.iter().cycle()) {
            assert_eq!(tick.slots()[0].1.appends(), batch.len());
        }
    }
}

/// The binary's other drain trigger: a server with no traffic at all
/// shuts down cleanly and reports an empty world.
#[test]
fn idle_shutdown_drains_to_an_empty_snapshot() {
    let server = ServerHandle::start(ServerConfig {
        engine: EngineConfig { universe: 1 << 12, ..EngineConfig::default() },
        journal: JournalMode::Memory,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    // A connection that never sends anything must not wedge the drain.
    let _idle = Client::connect(server.addr()).expect("connect");
    let report = server.shutdown();
    assert_eq!(report.ticks_executed, 0);
    assert_eq!(report.snapshot.session_count(), 0);
    assert_eq!(report.journal.as_deref(), Some(&[][..]));
}
