//! Streaming-engine throughput sweep: ingest rate (elements/second) of
//! [`plis_engine::Engine`] as a function of mean batch size and session
//! count, over a heterogeneous fleet of workload streams — plus a
//! *weighted* sweep driving the engine's weighted session kind (Algorithm
//! 2 served as live traffic), and a *query* sweep driving mixed read/write
//! ticks over a read/write-mixed fleet at every requested read fraction.
//!
//! All three sweeps drive the engine through its command plane: schedules
//! are pre-built once as [`Tick`]s (explicit `CreateSession` ops up
//! front, then one `Tick` per round) and the timed loop replays them
//! borrowed through [`Engine::execute`] — no per-repeat deep copies, and
//! every op's typed outcome is checked (`fully_applied`) so a sweep can
//! never silently drop traffic.
//!
//! Emits one JSON object per sweep cell on stdout (one line per cell, see
//! `plis_bench::json_line`), so results can be appended to `BENCH_*.json`
//! perf-trajectory files.  Human-readable context goes to stderr.
//!
//! Knobs (see `DESIGN.md`): `PLIS_BENCH_N` (elements per session, default
//! 100,000), `PLIS_BENCH_REPEATS`, `PLIS_BENCH_SESSIONS` (comma-separated
//! session counts, default `1,4,16`), `PLIS_BENCH_BATCH` (comma-separated
//! mean batch sizes, default `64,512,4096`), `PLIS_BENCH_THREADS` (pin the
//! rayon pool; recorded as the `threads` JSON field),
//! `PLIS_BENCH_SHARDS` (comma-separated engine shard counts; `0` = the
//! config default, i.e. the pool width; recorded as the `shards` field),
//! `PLIS_BENCH_WEIGHTED_N` (elements per weighted session, default
//! `PLIS_BENCH_N / 5`; `0` skips the weighted sweep),
//! `PLIS_BENCH_MAX_WEIGHT` (uniform weight bound, default 1,000),
//! and `PLIS_BENCH_QUERY_MIX` (comma-separated read fractions for the
//! query sweep, default `0.25`; `0` alone skips it).

use plis_bench::{
    bench_repeats, effective_threads, env_f64_list, env_usize_list, json_line, time_min,
    with_bench_threads, JsonValue,
};
use plis_engine::{Engine, EngineConfig, EngineSnapshot, MetricsSnapshot, Op, SessionKind, Tick};
use plis_workloads::streaming::{
    mixed_session_fleet, round_robin_ticks, session_fleet, weighted_session_fleet, ReadWriteOp,
};

/// The whole bench binary runs under the counting allocator so the
/// allocation-discipline columns (`alloc_count`, `allocs_per_elem`) are
/// live figures, not zeros.  The counter is two relaxed atomic adds per
/// allocation — noise next to the allocator call it wraps.
#[global_allocator]
static ALLOC: plis_testalloc::CountingAlloc = plis_testalloc::CountingAlloc;

/// Version of the JSON line layout emitted by this bin (the `schema`
/// field on every line).  Bump when fields change meaning; adding fields
/// keeps the version.  Schema 2 = schema 1 plus the telemetry columns
/// (`tick_p50_us`, `tick_p99_us`, `seq_ticks`, `par_merge_ticks`,
/// `veb_delta_elems`, `session_bytes`) and a `threads` field on every
/// sweep kind.  Schema 3 = schema 2 plus the allocation-discipline and
/// tail-routing columns (`tailset_veb_picks`, `tailset_sorted_picks`,
/// `alloc_count`, `allocs_per_elem`, `arena_bytes`) and the `auto`
/// backend in the unweighted sweep.  Schema 4 = schema 3 plus the
/// persistence columns on the ingest sweeps (`snapshot_bytes`,
/// `snapshot_us`, `restore_us` — engine snapshot size and encode/restore
/// wall time for the warm end-of-sweep fleet).  Schema 5 = schema 4 minus
/// the tail-set backend axis: unweighted lines lose their `backend` field
/// (one cell per point where there were three), every line loses the
/// `tailset_veb_picks` / `tailset_sorted_picks` columns, and the weighted
/// sweep loses its `auto` cell.  Schema 6 = schema 5 minus the ingest
/// path axes, because sessions have one ingest path: every line loses its
/// `path_policy` field and the `par_merge_ticks` / `veb_delta_elems`
/// columns, and weighted lines lose their `backend` field (one cell per
/// point where there were two).
const SCHEMA: u64 = 6;

fn n_per_session() -> usize {
    std::env::var("PLIS_BENCH_N").ok().and_then(|s| s.parse().ok()).unwrap_or(100_000)
}

/// Elements per weighted session (`PLIS_BENCH_WEIGHTED_N`, default
/// `PLIS_BENCH_N / 5`): a weighted ingest repairs the Pareto frontier per
/// element, so cells are denser per element.
/// `0` disables the weighted sweep.
fn weighted_n_per_session() -> usize {
    std::env::var("PLIS_BENCH_WEIGHTED_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| (n_per_session() / 5).max(1_000))
}

/// Uniform weight bound for the weighted sweep (`PLIS_BENCH_MAX_WEIGHT`).
fn max_weight() -> u64 {
    std::env::var("PLIS_BENCH_MAX_WEIGHT").ok().and_then(|s| s.parse().ok()).unwrap_or(1_000)
}

/// One explicit-lifecycle tick creating every fleet session up front —
/// the timed loops replay it first, so the traffic ticks stay strict.
fn creation_tick<B>(fleet: &[(String, B)], kind: SessionKind) -> Tick {
    fleet.iter().fold(Tick::new(), |tick, (name, _)| tick.create(name.as_str(), kind))
}

/// Replay a prepared schedule through the executor, asserting every op
/// landed; returns the final outcome-checked engine.
fn replay(config: &EngineConfig, setup: &Tick, ticks: &[Tick]) -> Engine {
    let mut engine = Engine::new(config.clone());
    assert!(engine.execute(setup).fully_applied(), "session creation must land");
    for tick in ticks {
        let outcome = engine.execute(tick);
        assert!(outcome.fully_applied(), "a sweep tick may not drop ops");
    }
    engine
}

/// The telemetry columns shared by every sweep's JSON line.
fn telemetry_fields(snap: &MetricsSnapshot) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("tick_p50_us", (snap.tick_latency.p50() as f64 / 1_000.0).into()),
        ("tick_p99_us", (snap.tick_latency.p99() as f64 / 1_000.0).into()),
        ("seq_ticks", snap.seq_ingests.into()),
        ("inline_ticks", snap.inline_ticks.into()),
        ("session_bytes", snap.session_bytes.into()),
        ("alloc_count", snap.alloc_count.into()),
        ("allocs_per_elem", snap.allocs_per_elem.into()),
        ("arena_bytes", snap.arena_bytes.into()),
    ]
}

/// The persistence columns (schema 4): snapshot the warm engine, round
/// the bytes through the codec, restore a fresh engine, and record size
/// and wall time of each leg.  Runs once per cell on an untimed replay —
/// checkpointing is cold-path, so it must not perturb the throughput
/// figure.  Also the bench-level sanity gate: the restored engine must
/// list the same sessions, and the snapshot must stay within 2x of the
/// live sessions' approximate heap footprint (when the sessions hold
/// any bytes — the snapshot stores the raw streams, not the derived
/// indices).
fn persistence_fields(
    config: &EngineConfig,
    setup: &Tick,
    ticks: &[Tick],
) -> Vec<(&'static str, JsonValue)> {
    // Snapshot just before the last traffic tick, so the suffix doubles
    // as a restore-then-replay smoke on the real sweep workload.
    let (head, tail) = ticks.split_at(ticks.len().saturating_sub(1));
    let mut warm = replay(config, setup, head);
    let session_bytes = warm.metrics_snapshot().session_bytes;
    let snapshot_timer = std::time::Instant::now();
    let bytes = warm.snapshot().encode();
    let snapshot_us = snapshot_timer.elapsed().as_secs_f64() * 1e6;
    let restore_timer = std::time::Instant::now();
    let decoded = EngineSnapshot::decode(&bytes).expect("a fresh snapshot must decode");
    let mut restored =
        Engine::restore(config.clone(), &decoded).expect("a fresh snapshot must restore");
    let restore_us = restore_timer.elapsed().as_secs_f64() * 1e6;
    assert_eq!(restored.session_ids(), warm.session_ids(), "restore must rebuild the whole fleet");
    for tick in tail {
        let a = warm.execute(tick);
        let b = restored.execute(tick);
        assert_eq!(a, b, "restore-then-replay diverged from the never-stopped engine");
    }
    if session_bytes > 0 {
        assert!(
            bytes.len() as u64 <= 2 * session_bytes,
            "snapshot ({} bytes) exceeds 2x the live session footprint ({session_bytes} bytes)",
            bytes.len()
        );
    }
    vec![
        ("snapshot_bytes", bytes.len().into()),
        ("snapshot_us", snapshot_us.into()),
        ("restore_us", restore_us.into()),
    ]
}

/// Cross-check the telemetry counters against the ground truth the sweep
/// already knows.
fn reconcile(snap: &MetricsSnapshot, executed_ticks: usize, total_elems: usize) {
    assert_eq!(
        snap.ticks as usize,
        executed_ticks + 1, // the creation tick plus the traffic ticks
        "telemetry must record one tick per execute call"
    );
    assert_eq!(
        snap.elems_ingested as usize, total_elems,
        "telemetry ingest counter must reconcile with the schedule"
    );
}

fn unweighted_sweep(
    n: usize,
    session_counts: &[usize],
    batch_sizes: &[usize],
    shard_counts: &[usize],
    threads: usize,
) {
    for &sessions in session_counts {
        for &mean_batch in batch_sizes {
            let (fleet, universe) = session_fleet(sessions, n, mean_batch, 0xBEEF);
            let setup = creation_tick(&fleet, SessionKind::Unweighted);
            let ticks: Vec<Tick> = round_robin_ticks(&fleet, |s| s.to_string())
                .into_iter()
                .map(|tick| tick.into_iter().collect())
                .collect();
            let total_elems: usize =
                fleet.iter().map(|(_, bs)| bs.iter().map(Vec::len).sum::<usize>()).sum();

            for &shard_spec in shard_counts {
                let mut config = EngineConfig { universe, ..EngineConfig::default() };
                if shard_spec > 0 {
                    config.shards = shard_spec;
                }
                let shards = config.shards;
                let (secs, (final_lis_sum, snap)) = with_bench_threads(|| {
                    time_min(|| {
                        let engine = replay(&config, &setup, &ticks);
                        let lis_sum = engine
                            .session_ids()
                            .iter()
                            .filter_map(|id| engine.lis_length(id.as_str()))
                            .map(|k| k as u64)
                            .sum::<u64>();
                        (lis_sum, engine.metrics_snapshot())
                    })
                });
                reconcile(&snap, ticks.len(), total_elems);
                let mut fields = vec![
                    ("bench", "streaming".into()),
                    ("schema", SCHEMA.into()),
                    ("sessions", sessions.into()),
                    ("mean_batch", mean_batch.into()),
                    ("n_per_session", n.into()),
                    ("shards", shards.into()),
                    ("threads", threads.into()),
                    ("ticks", ticks.len().into()),
                    ("total_elems", total_elems.into()),
                    ("secs", secs.into()),
                    ("elems_per_sec", (total_elems as f64 / secs.max(1e-12)).into()),
                    ("mean_final_lis", (final_lis_sum as f64 / sessions.max(1) as f64).into()),
                ];
                fields.extend(telemetry_fields(&snap));
                fields.extend(persistence_fields(&config, &setup, &ticks));
                println!("{}", json_line(&fields));
            }
        }
    }
}

/// The weighted sweep: same fleet shape, weighted session kind.
fn weighted_sweep(
    n: usize,
    session_counts: &[usize],
    batch_sizes: &[usize],
    shard_counts: &[usize],
    threads: usize,
) {
    let max_w = max_weight();
    for &sessions in session_counts {
        for &mean_batch in batch_sizes {
            let (fleet, universe) = weighted_session_fleet(sessions, n, mean_batch, max_w, 0xFEED);
            let setup = creation_tick(&fleet, SessionKind::Weighted);
            let ticks: Vec<Tick> = round_robin_ticks(&fleet, |s| s.to_string())
                .into_iter()
                .map(|tick| tick.into_iter().collect())
                .collect();
            let total_elems: usize =
                fleet.iter().map(|(_, bs)| bs.iter().map(Vec::len).sum::<usize>()).sum();

            for &shard_spec in shard_counts {
                let mut config = EngineConfig {
                    universe,
                    default_kind: SessionKind::Weighted,
                    ..EngineConfig::default()
                };
                if shard_spec > 0 {
                    config.shards = shard_spec;
                }
                let shards = config.shards;
                let (secs, (final_score_sum, snap)) = with_bench_threads(|| {
                    time_min(|| {
                        let engine = replay(&config, &setup, &ticks);
                        let score_sum = engine
                            .session_ids()
                            .iter()
                            .filter_map(|id| engine.best_score(id.as_str()))
                            .sum::<u64>();
                        (score_sum, engine.metrics_snapshot())
                    })
                });
                reconcile(&snap, ticks.len(), total_elems);
                let mut fields = vec![
                    ("bench", "streaming-weighted".into()),
                    ("schema", SCHEMA.into()),
                    ("sessions", sessions.into()),
                    ("mean_batch", mean_batch.into()),
                    ("n_per_session", n.into()),
                    ("max_weight", max_w.into()),
                    ("shards", shards.into()),
                    ("threads", threads.into()),
                    ("ticks", ticks.len().into()),
                    ("total_elems", total_elems.into()),
                    ("secs", secs.into()),
                    ("elems_per_sec", (total_elems as f64 / secs.max(1e-12)).into()),
                    ("mean_final_score", (final_score_sum as f64 / sessions.max(1) as f64).into()),
                ];
                fields.extend(telemetry_fields(&snap));
                fields.extend(persistence_fields(&config, &setup, &ticks));
                println!("{}", json_line(&fields));
            }
        }
    }
}

/// The query sweep: a read/write-mixed fleet through the command plane's
/// mixed ticks, one cell per (sessions × mean batch × mix).
fn query_sweep(
    n: usize,
    session_counts: &[usize],
    batch_sizes: &[usize],
    query_mixes: &[f64],
    shard_counts: &[usize],
    threads: usize,
) {
    const QUERIES_PER_READ: usize = 8;
    for &sessions in session_counts {
        for &mean_batch in batch_sizes {
            for &mix in query_mixes {
                let (fleet, universe) =
                    mixed_session_fleet(sessions, n, mean_batch, mix, QUERIES_PER_READ, 0xD00D);
                let setup = creation_tick(&fleet, SessionKind::Unweighted);
                // Pre-build command ticks so the timed loop replays
                // borrowed schedules — the workload's read/write ops map
                // 1:1 onto command-plane ops.
                let ticks: Vec<Tick> = round_robin_ticks(&fleet, |s| s.to_string())
                    .into_iter()
                    .map(|tick| {
                        tick.into_iter().map(|(id, op)| (id, Op::from(op))).collect::<Tick>()
                    })
                    .collect();
                let total_elems: usize = fleet
                    .iter()
                    .map(|(_, ops)| ops.iter().map(ReadWriteOp::written).sum::<usize>())
                    .sum();
                let total_queries: usize = fleet
                    .iter()
                    .map(|(_, ops)| ops.iter().map(ReadWriteOp::queries).sum::<usize>())
                    .sum();

                for &shard_spec in shard_counts {
                    let mut config = EngineConfig { universe, ..EngineConfig::default() };
                    if shard_spec > 0 {
                        config.shards = shard_spec;
                    }
                    let shards = config.shards;
                    let (secs, (answered, snap)) = with_bench_threads(|| {
                        time_min(|| {
                            let mut engine = Engine::new(config.clone());
                            assert!(engine.execute(&setup).fully_applied());
                            let mut answered = 0usize;
                            for tick in &ticks {
                                let outcome = engine.execute(tick);
                                assert!(outcome.fully_applied(), "a sweep tick may not drop ops");
                                answered += outcome.total_queries;
                            }
                            (answered, engine.metrics_snapshot())
                        })
                    });
                    assert_eq!(answered, total_queries, "every generated query must be answered");
                    reconcile(&snap, ticks.len(), total_elems);
                    assert_eq!(
                        snap.queries_answered as usize, total_queries,
                        "telemetry query counter must reconcile with the schedule"
                    );
                    let mut fields = vec![
                        ("bench", "streaming-queries".into()),
                        ("schema", SCHEMA.into()),
                        ("sessions", sessions.into()),
                        ("mean_batch", mean_batch.into()),
                        ("n_per_session", n.into()),
                        ("query_mix", mix.into()),
                        ("queries_per_read", QUERIES_PER_READ.into()),
                        ("shards", shards.into()),
                        ("threads", threads.into()),
                        ("ticks", ticks.len().into()),
                        ("total_elems", total_elems.into()),
                        ("total_queries", total_queries.into()),
                        ("secs", secs.into()),
                        ("elems_per_sec", (total_elems as f64 / secs.max(1e-12)).into()),
                        ("queries_per_sec", (total_queries as f64 / secs.max(1e-12)).into()),
                    ];
                    fields.extend(telemetry_fields(&snap));
                    println!("{}", json_line(&fields));
                }
            }
        }
    }
}

fn main() {
    let n = n_per_session();
    let wn = weighted_n_per_session();
    let session_counts = env_usize_list("PLIS_BENCH_SESSIONS", &[1, 4, 16]);
    let batch_sizes = env_usize_list("PLIS_BENCH_BATCH", &[64, 512, 4096]);
    // Clamp to the generator's ceiling up front so the recorded
    // `query_mix` field always states the mix that actually ran.
    let query_mixes: Vec<f64> = env_f64_list("PLIS_BENCH_QUERY_MIX", &[0.25])
        .into_iter()
        .filter(|&m| m > 0.0)
        .map(|m| m.min(0.9))
        .collect();
    // `0` = keep the engine's default shard count (the pool width).
    let shard_counts = env_usize_list("PLIS_BENCH_SHARDS", &[0]);
    let threads = effective_threads();
    eprintln!(
        "streaming sweep: n_per_session = {n}, weighted n = {wn}, sessions = {session_counts:?}, \
         mean batch = {batch_sizes:?}, query mix = {query_mixes:?}, shards = {shard_counts:?}, \
         repeats = {}, threads = {threads}",
        bench_repeats()
    );

    unweighted_sweep(n, &session_counts, &batch_sizes, &shard_counts, threads);
    if wn > 0 {
        weighted_sweep(wn, &session_counts, &batch_sizes, &shard_counts, threads);
    }
    if !query_mixes.is_empty() {
        query_sweep(n, &session_counts, &batch_sizes, &query_mixes, &shard_counts, threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plis_engine::Query;
    use plis_workloads::streaming::QuerySpec;

    #[test]
    fn ticks_cover_every_batch_exactly_once() {
        let (fleet, _) = session_fleet(3, 500, 64, 7);
        let ticks: Vec<Tick> = round_robin_ticks(&fleet, |s| s.to_string())
            .into_iter()
            .map(|tick| tick.into_iter().collect())
            .collect();
        let from_ticks: usize =
            ticks.iter().flat_map(|t| t.slots().iter().map(|(_, op)| op.appends())).sum();
        let from_fleet: usize =
            fleet.iter().map(|(_, bs)| bs.iter().map(Vec::len).sum::<usize>()).sum();
        assert_eq!(from_ticks, from_fleet);
    }

    #[test]
    fn weighted_ticks_cover_every_batch_exactly_once() {
        let (fleet, _) = weighted_session_fleet(3, 400, 64, 20, 9);
        let ticks: Vec<Tick> = round_robin_ticks(&fleet, |s| s.to_string())
            .into_iter()
            .map(|tick| tick.into_iter().collect())
            .collect();
        let from_ticks: usize =
            ticks.iter().flat_map(|t| t.slots().iter().map(|(_, op)| op.appends())).sum();
        let from_fleet: usize =
            fleet.iter().map(|(_, bs)| bs.iter().map(Vec::len).sum::<usize>()).sum();
        assert_eq!(from_ticks, from_fleet);
    }

    #[test]
    fn json_value_conversions_compile() {
        let _: plis_bench::JsonValue = 1u64.into();
        let _: plis_bench::JsonValue = 1.5f64.into();
    }

    #[test]
    fn mixed_ticks_preserve_writes_and_reads() {
        let (fleet, _) = mixed_session_fleet(3, 600, 64, 0.3, 4, 11);
        let ticks: Vec<Tick> = round_robin_ticks(&fleet, |s| s.to_string())
            .into_iter()
            .map(|tick| tick.into_iter().map(|(id, op)| (id, Op::from(op))).collect::<Tick>())
            .collect();
        let written: usize =
            ticks.iter().flat_map(|t| t.slots().iter().map(|(_, op)| op.appends())).sum();
        let queried: usize =
            ticks.iter().flat_map(|t| t.slots().iter().map(|(_, op)| op.queries())).sum();
        assert_eq!(written, 3 * 600);
        assert!(queried > 0);
        // The spec → engine-query mapping is total.
        for spec in [QuerySpec::RankOf(0), QuerySpec::CountAt(1), QuerySpec::TopK(2)] {
            let _ = Query::from(spec);
        }
        assert_eq!(Query::from(QuerySpec::Certificate), Query::Certificate);
    }

    #[test]
    fn creation_ticks_cover_the_fleet() {
        let (fleet, universe) = session_fleet(3, 200, 64, 5);
        let setup = creation_tick(&fleet, SessionKind::Unweighted);
        assert_eq!(setup.len(), 3);
        let mut engine = Engine::new(EngineConfig { universe, ..EngineConfig::default() });
        assert!(engine.execute(&setup).fully_applied());
        assert_eq!(engine.session_count(), 3);
        // Replaying the creation tick is rejected per-op, typed.
        assert_eq!(engine.execute(&setup).failed_ops, 3);
    }
}
