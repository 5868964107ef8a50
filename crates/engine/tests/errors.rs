//! The acceptance property of the **error surface**: every malformed op
//! in a well-formed [`Tick`] / [`ReadTick`] — unknown sessions, weighted
//! batches aimed at unweighted sessions, double creation, out-of-universe
//! values, weights that would push a weighted session's `u64` weight total
//! past `u64::MAX` — resolves to a
//! typed `Err(OpError)` without panicking, without
//! touching any session, and without disturbing its tick neighbours; and
//! the full per-op outcome stream is bit-identical at 1 thread and at the
//! full pool.

use plis_engine::{
    Engine, EngineConfig, EngineSnapshot, Op, OpError, OpOutput, Query, ReadOutcome, ReadTick,
    SessionKind, Tick, TickOutcome,
};
use plis_workloads::streaming::{round_robin_ticks, session_fleet};

mod common;

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

fn config(universe: u64) -> EngineConfig {
    EngineConfig { universe, shards: 4, ..EngineConfig::default() }
}

/// A schedule that hits every error variant while healthy traffic flows
/// around it: valid fleet ticks with malformed slots woven in.
fn adversarial_ticks() -> (Vec<Tick>, u64) {
    let (fleet, universe) = session_fleet(5, 800, 64, 0xBAD);
    let mut ticks: Vec<Tick> = Vec::new();
    // Tick 0: explicit creations for the fleet, plus a weighted decoy —
    // and a create-twice collision inside the same tick.
    let mut setup = Tick::new();
    for (name, _) in &fleet {
        setup.push(name.as_str(), Op::CreateSession { kind: SessionKind::Unweighted });
    }
    setup.push("decoy-w", Op::CreateSession { kind: SessionKind::Weighted });
    setup.push("decoy-w", Op::CreateSession { kind: SessionKind::Unweighted }); // SessionExists
    ticks.push(setup);

    for (round, tick) in round_robin_ticks(&fleet, |s| String::from(s)).into_iter().enumerate() {
        let mut command: Tick = tick.into_iter().collect();
        match round % 4 {
            // A weighted batch aimed at an unweighted fleet session.
            0 => command.push("range-0", Op::AppendWeighted(vec![(1, 1)])),
            // Appends and queries against sessions that do not exist
            // (strict ticks: no auto-create).
            1 => {
                command.push("ghost", Op::Append(vec![1, 2, 3]));
                command.push("ghost", Op::Query(Query::Certificate.into()));
                command.push("ghost", Op::RemoveSession);
            }
            // Values outside the universe, plain and weighted.
            2 => {
                command.push("line-1", Op::Append(vec![0, universe]));
                command.push("decoy-w", Op::AppendWeighted(vec![(universe + 7, 1)]));
            }
            // Re-creating live sessions.
            _ => command.push("permutation-2", Op::CreateSession { kind: SessionKind::Weighted }),
        }
        ticks.push(command);
    }
    (ticks, universe)
}

struct RunOutcome {
    tick_outcomes: Vec<TickOutcome>,
    read_outcome: ReadOutcome,
    final_state: Vec<(String, Vec<u32>)>,
}

fn run(ticks: &[Tick], universe: u64, threads: usize) -> RunOutcome {
    on_pool(threads, || {
        let mut engine = Engine::new(config(universe));
        let tick_outcomes: Vec<TickOutcome> =
            ticks.iter().map(|tick| engine.execute(tick)).collect();
        engine.check_invariants();
        // A read tick mixing live and absent sessions exercises the
        // read-plane error surface on the same engine.
        let read = ReadTick::new()
            .query("range-0", vec![Query::RankOf(0), Query::TopK(3)])
            .query("ghost", Query::Certificate)
            .query("decoy-w", Query::CountAt(1))
            .query("nope", Query::RankOf(9));
        let read_outcome = engine.execute_read(&read);
        let final_state = engine
            .session_ids()
            .iter()
            .filter_map(|id| {
                engine.session(id.as_str()).map(|s| (id.as_str().to_string(), s.ranks().to_vec()))
            })
            .collect();
        RunOutcome { tick_outcomes, read_outcome, final_state }
    })
}

#[test]
fn adversarial_schedule_is_typed_deterministic_and_panic_free() {
    let (ticks, universe) = adversarial_ticks();
    let seq = run(&ticks, universe, 1);
    let par = run(&ticks, universe, parallel_threads());

    // Bit-identical per-op outcomes (including every error) across pools.
    assert_eq!(seq.tick_outcomes.len(), par.tick_outcomes.len());
    for (t, (a, b)) in seq.tick_outcomes.iter().zip(&par.tick_outcomes).enumerate() {
        assert_eq!(a.outcomes, b.outcomes, "tick {t}: outcomes diverged across pools");
        assert_eq!(a.failed_ops, b.failed_ops, "tick {t}");
    }
    assert_eq!(seq.read_outcome.outcomes, par.read_outcome.outcomes, "read outcomes diverged");
    assert_eq!(seq.final_state, par.final_state, "final session state diverged");

    // The woven-in malformed slots all failed with their exact variant...
    let errors: Vec<OpError> = seq
        .tick_outcomes
        .iter()
        .flat_map(|o| o.errors().map(|(_, e)| *e).collect::<Vec<_>>())
        .collect();
    assert!(errors.contains(&OpError::SessionExists { kind: SessionKind::Weighted }));
    assert!(errors.contains(&OpError::SessionExists { kind: SessionKind::Unweighted }));
    assert!(errors.contains(&OpError::KindMismatch {
        session: SessionKind::Unweighted,
        batch: SessionKind::Weighted,
    }));
    assert!(errors.contains(&OpError::UnknownSession));
    assert!(errors.contains(&OpError::UniverseOverflow { value: universe, universe }));
    assert!(errors.contains(&OpError::UniverseOverflow { value: universe + 7, universe }));

    // ...and every healthy fleet slot landed: per tick, exactly the
    // malformed slots failed.
    for outcome in &seq.tick_outcomes {
        for (id, result) in &outcome.outcomes {
            if let Err(e) = result {
                let expected = matches!(
                    (id.as_str(), e),
                    ("decoy-w", OpError::SessionExists { .. } | OpError::UniverseOverflow { .. })
                        | ("ghost", OpError::UnknownSession)
                        | ("range-0", OpError::KindMismatch { .. })
                        | ("line-1", OpError::UniverseOverflow { .. })
                        | ("permutation-2", OpError::SessionExists { .. })
                );
                assert!(expected, "unexpected failure on {id}: {e:?}");
            }
        }
    }
}

#[test]
fn rejected_ops_leave_sessions_and_oracle_state_untouched() {
    let (fleet, universe) = session_fleet(4, 600, 48, 0x7E57);
    // Clean run: the fleet with no malformed slots.
    let mut clean = Engine::new(config(universe));
    // Dirty run: the same fleet with every error variant woven in.
    let mut dirty = Engine::new(config(universe));
    for (name, _) in &fleet {
        clean.create_session(name.as_str());
        dirty.create_session(name.as_str());
    }
    for tick in round_robin_ticks(&fleet, |s| String::from(s)) {
        let clean_tick: Tick = tick.iter().cloned().collect();
        let mut dirty_tick: Tick = tick.into_iter().collect();
        dirty_tick.push("range-0", Op::AppendWeighted(vec![(5, 5)]));
        dirty_tick.push("range-0", Op::Append(vec![universe + 1]));
        dirty_tick.push("absent", Op::Append(vec![1]));
        dirty_tick.push("line-1", Op::CreateSession { kind: SessionKind::Unweighted });
        assert!(clean.execute(&clean_tick).fully_applied());
        let outcome = dirty.execute(&dirty_tick);
        assert_eq!(outcome.failed_ops, 4, "exactly the malformed slots fail");
    }
    // The rejected ops were invisible to the surviving state.
    assert_eq!(clean.session_count(), dirty.session_count());
    for id in clean.session_ids() {
        let a = clean.session(id.as_str()).expect("clean session");
        let b = dirty.session(id.as_str()).expect("dirty session");
        assert_eq!(a.ranks(), b.ranks(), "session {id}");
        assert_eq!(a.tails(), b.tails(), "session {id}");
    }
    clean.check_invariants();
    dirty.check_invariants();
}

#[test]
fn execute_and_execute_read_agree_on_the_error_surface() {
    let mut engine = Engine::new(config(1 << 10));
    engine.execute(
        &Tick::new()
            .create("plain", SessionKind::Unweighted)
            .create("heavy", SessionKind::Weighted)
            .append("plain", vec![3, 1, 4])
            .append_weighted("heavy", vec![(2, 9), (7, 4)]),
    );

    let queries = [
        ("plain", Query::RankOf(2)),
        ("missing", Query::RankOf(0)),
        ("heavy", Query::TopK(1)),
        ("also-missing", Query::Certificate),
    ];
    let read: ReadTick =
        queries.iter().map(|&(id, q)| (id, q)).collect::<Vec<_>>().into_iter().collect();
    let write: Tick = queries.iter().map(|&(id, q)| (id, Op::from(q))).collect();

    let via_read = engine.execute_read(&read);
    let via_write = engine.execute(&write);
    assert_eq!(via_read.sessions_missing, 2);
    assert_eq!(via_write.failed_ops, 2);
    for ((id_r, r), (id_w, w)) in via_read.outcomes.iter().zip(&via_write.outcomes) {
        assert_eq!(id_r, id_w);
        match (r, w) {
            (Ok(read_report), Ok(OpOutput::Answered(write_report))) => {
                assert_eq!(read_report, write_report, "answers diverged for {id_r}")
            }
            (Err(re), Err(we)) => assert_eq!(re, we, "errors diverged for {id_r}"),
            other => panic!("planes disagree for {id_r}: {other:?}"),
        }
    }
    // Neither plane created the missing sessions.
    assert_eq!(engine.session_count(), 2);
}

/// Run `good` on both engines and `good` followed by `bad` on `engine`:
/// every op of `bad` must fail with [`OpError::ScoreOverflow`] and leave
/// `engine` in the state of `reference`.
fn overflow_step(
    engine: &mut Engine,
    reference: &mut Engine,
    good: Tick,
    bad: Tick,
    auto: bool,
    label: &str,
) {
    let mut tick = good.clone();
    for (id, op) in bad.slots() {
        tick.push(id.clone(), op.clone());
    }
    let (tick, good) = if auto { (tick.auto_create(), good.auto_create()) } else { (tick, good) };
    let outcome = engine.execute(&tick);
    let want = reference.execute(&good);
    assert_eq!(outcome.failed_ops, bad.len(), "{label}");
    assert_eq!(outcome.outcomes[..good.len()], want.outcomes[..], "{label}");
    for (id, result) in &outcome.outcomes[good.len()..] {
        assert_eq!(*result, Err(OpError::ScoreOverflow), "{label}: {id}");
    }
    common::assert_same_derived_state(engine, reference, label);
}

/// Weighted dp scores are `u64` and bounded by the session's weight
/// total: a batch whose weights (1 per element of a plain batch) would
/// push that total past `u64::MAX` is rejected whole with
/// [`OpError::ScoreOverflow`] — at 1 thread and on the pool.  The session
/// then equals one that never saw the op, no session is auto-created for
/// it, its tick neighbours apply, and every stream the engine accepted
/// snapshots and restores.
#[test]
fn score_overflow_is_typed_and_atomic() {
    const MAX: u64 = u64::MAX;
    for threads in [1, parallel_threads()] {
        let label = format!("{threads}t");
        on_pool(threads, || {
            let config = EngineConfig { universe: 1 << 10, shards: 4, ..EngineConfig::default() };
            let (mut engine, mut reference) = (Engine::new(config.clone()), Engine::new(config));
            let (e, r, l) = (&mut engine, &mut reference, label.as_str());
            // The reported case: the second score would wrap to 4.
            overflow_step(
                e,
                r,
                Tick::new()
                    .create("w", SessionKind::Weighted)
                    .create("plain", SessionKind::Unweighted)
                    .create("ok", SessionKind::Weighted)
                    .append("plain", vec![5, 1, 7])
                    .append_weighted("ok", vec![(3, 4), (9, 2)]),
                Tick::new().append_weighted("w", vec![(1, MAX - 5), (2, 10)]),
                false,
                l,
            );
            // Overflow against the best score so far: weighted, and a
            // plain batch counting 1 per element.
            let good = Tick::new().append_weighted("w", vec![(1, MAX - 5)]);
            overflow_step(e, r, good, Tick::new(), false, l);
            overflow_step(
                e,
                r,
                Tick::new().append("plain", vec![2]),
                Tick::new().append_weighted("w", vec![(2, 10)]).append("w", vec![3, 4, 5, 6, 7, 8]),
                false,
                l,
            );
            // A rejected batch leaves no auto-created session behind.
            overflow_step(
                e,
                r,
                Tick::new().append_weighted("ok", vec![(10, 1)]),
                Tick::new().append_weighted("fresh", vec![(1, MAX), (2, 1)]),
                true,
                l,
            );
            // Elements that do not chain keep the best score at 2^63
            // while the weight total reaches u64::MAX, so the third
            // append is refused although none of its scores would wrap:
            // the whole stream must stay restorable as one batch.
            let half = 1u64 << 63;
            let good = Tick::new()
                .create("flat", SessionKind::Weighted)
                .append_weighted("flat", vec![(10, half)]);
            overflow_step(e, r, good, Tick::new(), false, l);
            let good = Tick::new().append_weighted("flat", vec![(5, half - 1)]);
            overflow_step(e, r, good, Tick::new(), false, l);
            let bad = Tick::new().append_weighted("flat", vec![(4, half - 1)]);
            overflow_step(e, r, Tick::new(), bad, false, l);
            // A batch that lands exactly on u64::MAX is accepted.
            let good = Tick::new().append("w", vec![3, 4, 5, 6, 7]);
            overflow_step(&mut engine, &mut reference, good, Tick::new(), false, &label);
            assert_eq!(engine.best_score("w"), Some(MAX), "{label}");
            assert_eq!(engine.best_score("flat"), Some(half), "{label}");
            engine.check_invariants();
            let snapshot = EngineSnapshot::decode(&engine.snapshot().encode())
                .unwrap_or_else(|e| panic!("{label}: accepted streams must decode: {e}"));
            let restored = Engine::restore(engine.config().clone(), &snapshot)
                .unwrap_or_else(|e| panic!("{label}: accepted streams must restore: {e:?}"));
            common::assert_same_derived_state(&engine, &restored, &label);
        });
    }
}
