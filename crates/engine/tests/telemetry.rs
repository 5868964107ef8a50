//! The telemetry plane's engine-level guarantees:
//!
//! 1. **Counters reconcile with outcomes** — ticks recorded equals ticks
//!    executed, and the op/element/query counters match the aggregates the
//!    [`TickOutcome`]s themselves report.
//! 2. **Determinism neutrality** — per-op outcomes and final session
//!    state are bit-identical with telemetry enabled vs disabled, at one
//!    thread and at the full pool (the wall-clock fields are excluded
//!    from outcome `==` by the structural-equality invariant of
//!    `plis_engine::op`).
//! 3. **Histogram semantics** — merge is associative and the percentile
//!    bounds hold on known inputs (the engine-facing complement of the
//!    unit tests inside `plis-telemetry`).

use plis_engine::{
    Engine, EngineConfig, MemorySink, Query, ReadTick, SessionId, SessionKind, Tick, TickOutcome,
    TraceSink,
};
use plis_telemetry::AtomicHistogram;
use plis_workloads::streaming::{round_robin_ticks, session_fleet};

/// Pool size for the parallel legs (see `determinism.rs`).
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

fn command_ticks(fleet: &[(String, Vec<Vec<u64>>)]) -> Vec<Tick> {
    round_robin_ticks(fleet, |s| SessionId::from(s))
        .into_iter()
        .map(|tick| tick.into_iter().collect::<Tick>().auto_create())
        .collect()
}

#[test]
fn counters_reconcile_with_outcomes() {
    let (fleet, universe) = session_fleet(5, 2_000, 80, 0xA11CE);
    let ticks = command_ticks(&fleet);
    let config = EngineConfig { universe, shards: 4, ..EngineConfig::default() };
    let mut engine = Engine::new(config);
    assert!(engine.metrics().is_enabled(), "telemetry must default on");

    let outcomes: Vec<TickOutcome> = ticks.iter().map(|t| engine.execute(t)).collect();
    let read = engine.execute_read(
        &ReadTick::new()
            .query(fleet[0].0.as_str(), Query::TopK(3))
            .query("missing-session", Query::RankOf(0)),
    );

    let snap = engine.metrics_snapshot();
    // execute_read runs its queries as one more tick.
    assert_eq!(snap.ticks as usize, ticks.len() + 1, "one tick recorded per execute");
    let want_elems: usize = outcomes.iter().map(|o| o.total_ingested).sum();
    assert_eq!(snap.elems_ingested as usize, want_elems, "element counter vs outcomes");
    let want_appends: usize = outcomes
        .iter()
        .map(|o| o.outputs().filter(|(_, out)| out.as_appended().is_some()).count())
        .sum();
    assert_eq!(snap.ops_appended as usize, want_appends, "append-op counter vs outcomes");
    assert_eq!(snap.seq_ingests, snap.ops_appended, "every landed append is one ingest");
    // The read tick: one answered query batch, one failed (missing id).
    assert_eq!(snap.queries_answered as usize, read.total_queries);
    assert_eq!(snap.ops_failed, 1);
    // Latency histograms saw every tick, and memory accounting is live.
    assert_eq!(snap.tick_latency.count() as usize, ticks.len() + 1);
    assert_eq!(snap.read_latency.count(), 0, "reads are timed as ticks");
    assert!(snap.op_latency.count() > 0);
    assert_eq!(snap.sessions as usize, engine.session_count());
    assert!(snap.session_bytes > 0, "live sessions must account bytes");
    assert_eq!(snap.shard_bytes.len(), 4, "one memory cell per shard");
    assert_eq!(snap.shard_bytes.iter().sum::<u64>(), snap.session_bytes);
}

#[test]
fn disabling_telemetry_stops_recording() {
    let mut engine = Engine::with_universe(1 << 12);
    engine.metrics().set_enabled(false);
    let outcome = engine.execute(&Tick::new().auto_create().append("s", vec![3u64, 1, 4]));
    assert!(outcome.fully_applied());
    assert_eq!(outcome.elapsed_ns, 0, "disabled telemetry must not time ticks");
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.ticks, 0);
    assert_eq!(snap.elems_ingested, 0);
    assert_eq!(snap.tick_latency.count(), 0);
    // Re-enable: recording resumes on the same registry.
    engine.metrics().set_enabled(true);
    let outcome = engine.execute(&Tick::new().append("s", vec![5u64]));
    assert!(outcome.elapsed_ns > 0, "enabled telemetry must time ticks");
    assert_eq!(engine.metrics_snapshot().ticks, 1);
}

/// Final per-session state: `(session, ranks, tails)` sorted by id.
type FinalState = Vec<(String, Vec<u32>, Vec<u64>)>;

/// Run a schedule and return everything algorithmic about it: per-op
/// outcomes and final per-session state.
fn run_outcomes(
    threads: usize,
    ticks: &[Tick],
    config: &EngineConfig,
    telemetry: bool,
) -> (Vec<TickOutcome>, FinalState) {
    on_pool(threads, || {
        let mut engine = Engine::new(config.clone());
        engine.metrics().set_enabled(telemetry);
        if telemetry {
            // A live trace sink must be as outcome-neutral as the counters.
            engine.set_trace_sink(Some(TraceSink::new(MemorySink::default())));
        }
        let outcomes: Vec<TickOutcome> = ticks.iter().map(|t| engine.execute(t)).collect();
        engine.check_invariants();
        let state = engine
            .session_ids()
            .iter()
            .map(|id| {
                let s = engine.session(id.as_str()).expect("unweighted session");
                (id.as_str().to_string(), s.ranks().to_vec(), s.tails().to_vec())
            })
            .collect();
        (outcomes, state)
    })
}

#[test]
fn outcomes_are_bit_identical_with_telemetry_on_or_off() {
    let (fleet, universe) = session_fleet(7, 2_500, 72, 0xDECAF);
    let ticks = command_ticks(&fleet);
    let config = EngineConfig { universe, shards: 6, ..EngineConfig::default() };
    let baseline = run_outcomes(1, &ticks, &config, false);
    for threads in [1, parallel_threads().max(4)] {
        for telemetry in [false, true] {
            let (outcomes, state) = run_outcomes(threads, &ticks, &config, telemetry);
            // Outcome `==` is structural (timing/scheduling fields
            // excluded), so whole-outcome equality is exactly the claim.
            assert_eq!(
                outcomes, baseline.0,
                "outcomes diverged at threads={threads} telemetry={telemetry}"
            );
            assert_eq!(
                state, baseline.1,
                "final state diverged at threads={threads} telemetry={telemetry}"
            );
        }
    }
}

#[test]
fn trace_sink_emits_one_event_per_tick() {
    let sink = MemorySink::default();
    let mut engine = Engine::with_universe(1 << 10);
    engine.set_trace_sink(Some(TraceSink::new(sink.clone())));
    engine.create_session_kind("s", SessionKind::Unweighted);
    engine.execute(&Tick::new().append("s", vec![2u64, 7, 1]));
    engine.execute(&Tick::new().append("s", vec![8u64]).query("s", Query::TopK(1)));
    engine.execute_read(&ReadTick::new().query("s", Query::RankOf(0)));
    let lines = sink.lines();
    assert_eq!(lines.len(), 3, "one event per executed tick: {lines:?}");
    assert!(lines[0].contains("\"event\": \"tick\""));
    assert!(lines[0].contains("\"ingested\": 3"));
    assert!(lines[1].contains("\"queries\": 1"));
    assert!(lines[2].contains("\"event\": \"tick\""), "execute_read runs one tick");
    // Clearing the sink stops emission.
    engine.set_trace_sink(None);
    engine.execute(&Tick::new().append("s", vec![9u64]));
    assert_eq!(sink.lines().len(), 3);
}

#[test]
fn histogram_merge_is_associative_and_percentiles_bound() {
    let parts: [Vec<u64>; 3] = [(1..=400).collect(), (401..=900).collect(), (901..=1000).collect()];
    let snaps: Vec<_> = parts
        .iter()
        .map(|values| {
            let h = AtomicHistogram::default();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        })
        .collect();
    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
    let mut left = snaps[0].clone();
    left.merge(&snaps[1]);
    left.merge(&snaps[2]);
    let mut bc = snaps[1].clone();
    bc.merge(&snaps[2]);
    let mut right = snaps[0].clone();
    right.merge(&bc);
    assert_eq!(left, right, "histogram merge must be associative");
    assert_eq!(left.count(), 1000);
    assert_eq!(left.max, 1000);
    // Percentile bounds on the known uniform input: the reported value is
    // an inclusive bucket upper bound, so it is >= the exact percentile
    // and within the histogram's 1/16 relative-error envelope.
    for (q, exact) in [(50.0, 500u64), (90.0, 900), (99.0, 990)] {
        let got = left.percentile(q);
        assert!(got >= exact, "p{q}: {got} < exact {exact}");
        assert!(
            (got - exact) as f64 <= exact as f64 / 16.0,
            "p{q}: {got} overshoots exact {exact} beyond the bucket width"
        );
    }
    assert_eq!(left.percentile(100.0), 1000, "p100 is the exact max");
}
