//! The persistence plane's differential gate: snapshot an engine at tick
//! `t`, restore into a fresh engine (through the encoded byte form, so the
//! codec is on the proven path), replay the journal suffix, and require
//! everything observable — per-op outcomes, `session_ids()`, query
//! answers, certificates — to be bit-identical to an engine that never
//! stopped.  Runs across both session kinds, every tail-set backend, both
//! dominant-max stores, and at one thread and the full pool.
//!
//! Also proves the crash-recovery story: a scripted
//! journal-append/snapshot-write schedule is killed at *every* boundary
//! (including torn mid-record journal tails), and recovery from whatever
//! artifacts survive reaches exactly the state of the uninterrupted run
//! over the complete journal records.

mod common;

use plis_engine::{
    replay_journal_from, Backend, DominantMaxKind, Engine, EngineConfig, EngineSnapshot, OpError,
    PathPolicy, Query, SessionKind, SessionSnapshot, Tick, TickJournal,
};

/// Pool size for the parallel leg: `PLIS_BENCH_THREADS`, else the hardware
/// parallelism, floored at 2 so single-core machines still split.
fn parallel_threads() -> usize {
    std::env::var("PLIS_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        .max(2)
}

fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const UNIVERSE: u64 = 1 << 20;

/// A mixed multi-session schedule: plain and weighted appends (batch sizes
/// straddling the forced parallel threshold), interleaved queries
/// (certificates included), and a mid-schedule remove/recreate so session
/// lifecycle rides the journal too.
fn schedule(ticks: usize, seed: u64) -> Vec<Tick> {
    let mut state = seed;
    let mut out = Vec::with_capacity(ticks + 1);
    out.push(
        Tick::new()
            .create("alpha", SessionKind::Unweighted)
            .create("bravo", SessionKind::Unweighted)
            .create("orders", SessionKind::Weighted)
            .create("bids", SessionKind::Weighted),
    );
    for round in 0..ticks {
        let mut tick = Tick::new();
        for id in ["alpha", "bravo"] {
            let len = (xorshift(&mut state) % 96) as usize + 8;
            let batch: Vec<u64> = (0..len).map(|_| xorshift(&mut state) % UNIVERSE).collect();
            tick.push(id, plis_engine::Op::Append(batch));
        }
        for id in ["orders", "bids"] {
            let len = (xorshift(&mut state) % 80) as usize + 8;
            let batch: Vec<(u64, u64)> = (0..len)
                .map(|_| (xorshift(&mut state) % UNIVERSE, xorshift(&mut state) % 50 + 1))
                .collect();
            tick.push(id, plis_engine::Op::AppendWeighted(batch));
        }
        let probe = xorshift(&mut state) % UNIVERSE;
        let mut tick = tick
            .query("alpha", vec![Query::CountAt(probe), Query::TopK(3), Query::Certificate])
            .query("orders", vec![Query::CountAt(probe), Query::Certificate]);
        if round == ticks / 2 {
            tick = tick.remove("bravo").create("bravo", SessionKind::Weighted);
        }
        out.push(tick);
    }
    out
}

fn config(backend: Backend, dommax: DominantMaxKind) -> EngineConfig {
    EngineConfig {
        universe: UNIVERSE,
        backend,
        dommax,
        shards: 4,
        // Low fixed threshold so the parallel merge path runs for most
        // batches of the schedule.
        path_policy: PathPolicy::Fixed(32),
        ..EngineConfig::default()
    }
}

/// Assert two engines are observationally identical: same sorted ids,
/// same captured streams (via the full state snapshot), same derived
/// state (ranks, tails, scores, frontiers), and the same answers
/// (certificates included) to a common query tick.
fn assert_engines_identical(never_stopped: &mut Engine, recovered: &mut Engine, label: &str) {
    assert_eq!(
        never_stopped.session_ids(),
        recovered.session_ids(),
        "{label}: session ids diverged"
    );
    assert_eq!(never_stopped.snapshot(), recovered.snapshot(), "{label}: captured state diverged");
    common::assert_same_derived_state(never_stopped, recovered, label);
    let mut probe = Tick::new();
    for id in never_stopped.session_ids() {
        probe.push(
            id,
            plis_engine::Op::Query(
                vec![Query::RankOf(0), Query::CountAt(777), Query::TopK(4), Query::Certificate]
                    .into(),
            ),
        );
    }
    let a = never_stopped.execute(&probe);
    let b = recovered.execute(&probe);
    assert_eq!(a, b, "{label}: query answers diverged");
    never_stopped.check_invariants();
    recovered.check_invariants();
}

/// The tentpole differential: journal every tick, snapshot mid-stream,
/// restore through the encoded bytes, replay the suffix, compare against
/// the engine that never stopped — per config axis and thread count.
fn snapshot_restore_replay_differential(threads: usize, backend: Backend, dommax: DominantMaxKind) {
    on_pool(threads, || {
        let label = format!("{backend:?}/{dommax:?}/{threads}t");
        let ticks = schedule(14, 0xC0FFEE ^ threads as u64);
        let cut = ticks.len() / 2 + 1;

        // The engine that never stops, with per-tick outcomes kept.
        let mut live = Engine::new(config(backend, dommax));
        let mut journal = TickJournal::new(Vec::new());
        let mut live_outcomes = Vec::new();
        let mut checkpoint = None;
        for (t, tick) in ticks.iter().enumerate() {
            journal.record(tick).unwrap();
            live_outcomes.push(live.execute(tick));
            if t + 1 == cut {
                checkpoint = Some((live.snapshot().encode(), journal.records() as usize));
            }
        }
        let (snapshot_bytes, covered) = checkpoint.expect("cut inside the schedule");
        let journal_bytes = journal.into_inner();

        // Recover: decode the snapshot, restore a fresh engine, replay the
        // journal suffix.
        let snapshot = EngineSnapshot::decode(&snapshot_bytes).unwrap_or_else(|e| {
            panic!("{label}: snapshot failed to decode: {e}");
        });
        let mut recovered = Engine::restore(config(backend, dommax), &snapshot)
            .unwrap_or_else(|e| panic!("{label}: restore failed: {e:?}"));
        let report = replay_journal_from(&mut recovered, &journal_bytes, covered)
            .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
        assert_eq!(report.skipped, covered, "{label}");
        assert_eq!(report.truncated_bytes, 0, "{label}: clean journal");
        assert_eq!(
            report.outcomes[..],
            live_outcomes[cut..],
            "{label}: replayed outcomes diverged from the never-stopped run"
        );
        assert_engines_identical(&mut live, &mut recovered, &label);
    });
}

#[test]
fn differential_across_backends_single_thread() {
    for backend in [Backend::Veb, Backend::SortedVec, Backend::Auto] {
        snapshot_restore_replay_differential(1, backend, DominantMaxKind::RangeTree);
    }
}

#[test]
fn differential_across_backends_full_pool() {
    for backend in [Backend::Veb, Backend::SortedVec, Backend::Auto] {
        snapshot_restore_replay_differential(
            parallel_threads(),
            backend,
            DominantMaxKind::RangeTree,
        );
    }
}

#[test]
fn differential_across_dommax_stores() {
    for dommax in [DominantMaxKind::RangeTree, DominantMaxKind::RangeVeb] {
        snapshot_restore_replay_differential(1, Backend::Auto, dommax);
        snapshot_restore_replay_differential(parallel_threads(), Backend::Auto, dommax);
    }
}

/// A snapshot taken under one configuration restores under a different
/// backend / shard count / path policy with identical observable state —
/// configuration is not state.
#[test]
fn restore_is_config_portable() {
    let ticks = schedule(10, 0xBEEF);
    let mut source = Engine::new(config(Backend::Veb, DominantMaxKind::RangeTree));
    for tick in &ticks {
        source.execute(tick);
    }
    let bytes = source.snapshot().encode();
    let snapshot = EngineSnapshot::decode(&bytes).unwrap();
    let target_config = EngineConfig {
        universe: UNIVERSE,
        backend: Backend::SortedVec,
        dommax: DominantMaxKind::RangeVeb,
        shards: 9,
        path_policy: PathPolicy::Fixed(64),
        ..EngineConfig::default()
    };
    let mut restored = Engine::restore(target_config, &snapshot).unwrap();
    assert_engines_identical(&mut source, &mut restored, "config-portable restore");
}

/// Checkpoints ride the command plane: a `Snapshot` op is tick-ordered
/// against the appends around it, and a `Restore` op rebuilds the session
/// in another engine with identical state.
#[test]
fn op_plane_snapshot_and_restore_are_tick_ordered() {
    let mut engine = Engine::new(config(Backend::Auto, DominantMaxKind::Auto));
    let outcome = engine.execute(
        &Tick::new()
            .create("s", SessionKind::Unweighted)
            .append("s", vec![10, 4, 12])
            .snapshot("s")
            .append("s", vec![3, 20])
            .snapshot("s"),
    );
    assert!(outcome.fully_applied());
    assert_eq!(outcome.sessions_snapshotted, 2);
    let mid = outcome.outcomes[2].1.as_ref().unwrap().as_snapshot().unwrap().clone();
    let end = outcome.outcomes[4].1.as_ref().unwrap().as_snapshot().unwrap().clone();
    assert_eq!(mid.len(), 3, "first snapshot sees only the first append");
    assert_eq!(end.len(), 5, "second snapshot sees both appends");

    // Restore both into a second engine through the op plane and compare
    // against the source session's prefix states.
    let mut other = Engine::new(config(Backend::Auto, DominantMaxKind::Auto));
    let outcome = other.execute(&Tick::new().restore("mid", mid).restore("end", end));
    assert!(outcome.fully_applied());
    assert_eq!(outcome.sessions_restored, 2);
    assert_eq!(other.session("mid").unwrap().values(), &[10, 4, 12]);
    assert_eq!(other.session("mid").unwrap().ranks(), &[1, 1, 2]);
    assert_eq!(other.session("end").unwrap().values(), &[10, 4, 12, 3, 20]);
    assert_eq!(other.session("end").unwrap().tails(), engine.session("s").unwrap().tails());
    other.check_invariants();
}

/// Restore failure modes are typed, never partial: an occupied id, a
/// universe mismatch, and a stream that leaves its universe all leave the
/// target engine untouched.
#[test]
fn restore_rejects_typed_without_side_effects() {
    let mut source = Engine::new(config(Backend::Auto, DominantMaxKind::Auto));
    source.execute(&Tick::new().create("s", SessionKind::Unweighted).append("s", vec![7, 2, 9]));
    let snapshot = source.snapshot_session("s").unwrap();

    // Occupied id (both via the op plane and the direct API).
    let mut target = Engine::new(config(Backend::Auto, DominantMaxKind::Auto));
    target.create_session_kind("taken", SessionKind::Weighted);
    assert_eq!(
        target.restore_session("taken", &snapshot),
        Err(OpError::SessionExists { kind: SessionKind::Weighted })
    );
    let outcome = target.execute(&Tick::new().restore("taken", snapshot.clone()));
    assert_eq!(outcome.outcomes[0].1, Err(OpError::SessionExists { kind: SessionKind::Weighted }));

    // Universe mismatch.
    let mut small = Engine::with_universe(1 << 8);
    assert_eq!(
        small.restore_session("s", &snapshot),
        Err(OpError::UniverseMismatch { snapshot: UNIVERSE, universe: 1 << 8 })
    );
    assert_eq!(small.session_count(), 0);

    // A stream value outside the universe fails validation through every
    // restore path, and the op-level failure leaves its tick neighbours
    // untouched.
    let SessionSnapshot::Unweighted { universe, mut values } = snapshot else {
        panic!("unweighted snapshot expected");
    };
    values[2] = universe;
    let forged = SessionSnapshot::Unweighted { universe, values };
    let outcome = target.execute(
        &Tick::new().restore("forged", forged.clone()).append("ok", vec![1]).auto_create(),
    );
    assert!(matches!(outcome.outcomes[0].1, Err(OpError::InvalidSnapshot(_))));
    assert!(outcome.outcomes[1].1.is_ok(), "neighbour op unaffected");
    assert!(target.session_state("forged").is_none(), "no partial restore");
    assert!(target.restore_session("forged2", &forged).is_err());
    target.check_invariants();
}

/// The crash-point schedule: every tick appends to the journal, and a
/// snapshot artifact (snapshot bytes + journal records covered) is
/// written after every third tick.  The run is "killed" at every
/// boundary — after each journal append, between append and snapshot
/// write, and *inside* a journal append (torn record) — and recovery
/// from the surviving artifacts must reach exactly the state of an
/// uninterrupted run over the complete records.
#[test]
fn crash_at_every_boundary_recovers_to_the_uninterrupted_state() {
    let cfg = || config(Backend::Auto, DominantMaxKind::Auto);
    let ticks = schedule(9, 0xDEAD);

    // Dry run: the full journal, the byte offset after each append, and
    // the checkpoint artifacts written along the way.
    let mut journal = TickJournal::new(Vec::new());
    let mut engine = Engine::new(cfg());
    let mut append_offsets = Vec::new(); // journal length after tick i
    let mut checkpoints = Vec::new(); // (written_after_tick, bytes, records covered)
    for (t, tick) in ticks.iter().enumerate() {
        journal.record(tick).unwrap();
        append_offsets.push(journal.get_ref().len());
        engine.execute(tick);
        if (t + 1) % 3 == 0 {
            checkpoints.push((t + 1, engine.snapshot().encode(), t + 1));
        }
    }
    let journal_bytes = journal.into_inner();

    // Reference engines: the uninterrupted run after every tick count.
    let reference: Vec<Engine> = (0..=ticks.len())
        .map(|n| {
            let mut e = Engine::new(cfg());
            for tick in &ticks[..n] {
                e.execute(tick);
            }
            e
        })
        .collect();

    // Crash points: every record boundary, plus torn cuts inside every
    // record (1 byte in, mid-header, mid-payload).
    let mut crash_points = vec![0usize];
    let mut prev = 0usize;
    for &end in &append_offsets {
        for cut in [prev + 1, prev + 7, prev + (end - prev) / 2, end] {
            if cut > prev && cut <= end {
                crash_points.push(cut);
            }
        }
        prev = end;
    }

    for &crash in &crash_points {
        let surviving_journal = &journal_bytes[..crash];
        let complete_records = append_offsets.iter().filter(|&&end| end <= crash).count();
        // The snapshot write happens after the journal append of its
        // tick, so an artifact survives only if the crash comes at or
        // after that append's completion.  (Crashing "between append and
        // snapshot write" = crash exactly at the append boundary of a
        // checkpoint tick: the journal record survives, the snapshot
        // doesn't.)
        // Artifact is on disk once the *next* journal append begins; at
        // the exact boundary it is still being written and is lost.
        let survived = checkpoints
            .iter()
            .rev()
            .find(|(after_tick, _, _)| crash > append_offsets[*after_tick - 1]);
        let (mut recovered, covered) = match survived {
            Some((_, bytes, records)) => {
                let snapshot = EngineSnapshot::decode(bytes).unwrap();
                (Engine::restore(cfg(), &snapshot).unwrap(), *records)
            }
            None => (Engine::new(cfg()), 0),
        };
        let report = replay_journal_from(&mut recovered, surviving_journal, covered)
            .unwrap_or_else(|e| panic!("crash at byte {crash}: replay failed: {e}"));
        assert_eq!(report.outcomes.len(), complete_records - covered, "crash at byte {crash}");
        assert_eq!(
            report.truncated_bytes,
            crash - append_offsets[..complete_records].last().copied().unwrap_or(0),
            "crash at byte {crash}: torn-tail accounting"
        );
        assert_eq!(
            recovered.snapshot(),
            reference[complete_records].snapshot(),
            "crash at byte {crash}: recovered state != uninterrupted state"
        );
        common::assert_same_derived_state(
            &recovered,
            &reference[complete_records],
            &format!("crash at byte {crash}"),
        );
        recovered.check_invariants();
    }
}

/// Corrupting a byte of a *complete* journal record (not a torn tail) is
/// detected and aborts replay with a typed error instead of executing a
/// damaged tick.
#[test]
fn corrupt_complete_journal_record_fails_replay_typed() {
    let ticks = schedule(3, 0xABCD);
    let mut journal = TickJournal::new(Vec::new());
    for tick in &ticks {
        journal.record(tick).unwrap();
    }
    let mut bytes = journal.into_inner();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let mut engine = Engine::new(config(Backend::Auto, DominantMaxKind::Auto));
    let err = replay_journal_from(&mut engine, &bytes, 0);
    assert!(err.is_err(), "a flipped byte in a complete record must fail replay");
}
