//! The acceptance property of the **query plane**: every answer a live
//! session serves — rank-of-element, count-at-dp, top-k, and full
//! certificate reconstruction — must be *bit-identical* to the offline
//! oracles (`lis_ranks_u64` + `lis_indices_from_ranks` for plain
//! sessions, `wlis_kind` + `wlis_indices_from_scores` for weighted ones)
//! run on the exact prefix the query observed, including queries that land
//! *between* writes inside one mixed tick.  Weighted answers are checked
//! against the oracle on both of its dominant-max stores.  Every schedule
//! runs at 1 thread and at the full pool, with the two runs bit-identical
//! to each other.  Certificates are additionally verified to be strictly
//! increasing (indices and values) with their claimed length/score.

use plis_engine::{
    Engine, EngineConfig, Op, OpOutput, Query, QueryAnswer, ReadTick, SessionId, SessionKind, Tick,
    TickOutcome,
};
use plis_lis::{
    lis_indices_from_ranks, lis_ranks_u64, wlis_indices_from_scores, wlis_kind, DominantMaxKind,
};
use plis_workloads::streaming::{
    mixed_session_fleet, read_write_mix, round_robin_ticks, weighted_session_fleet, QuerySpec,
    ReadWriteOp,
};
use std::collections::HashMap;

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

/// Offline expected answers for one query batch over a *plain* prefix.
fn plain_oracle(prefix: &[u64], specs: &[QuerySpec]) -> Vec<QueryAnswer> {
    let (ranks, k) = lis_ranks_u64(prefix);
    specs
        .iter()
        .map(|&spec| match spec {
            QuerySpec::RankOf(i) => QueryAnswer::Rank(ranks.get(i).map(|&r| r as u64)),
            QuerySpec::CountAt(v) => {
                QueryAnswer::Count(ranks.iter().filter(|&&r| r as u64 == v).count())
            }
            QuerySpec::TopK(want) => QueryAnswer::TopK(top_k_oracle(
                &ranks.iter().map(|&r| r as u64).collect::<Vec<_>>(),
                want,
            )),
            QuerySpec::Certificate => {
                let indices = lis_indices_from_ranks(prefix, &ranks, k);
                assert_certificate(prefix, &indices);
                assert_eq!(indices.len() as u64, k as u64, "claimed length must match");
                QueryAnswer::Certificate(plis_engine::Certificate { indices, claimed: k as u64 })
            }
        })
        .collect()
}

/// Offline expected answers for one query batch over a *weighted* prefix.
fn weighted_oracle(
    prefix: &[(u64, u64)],
    specs: &[QuerySpec],
    kind: DominantMaxKind,
) -> Vec<QueryAnswer> {
    let values: Vec<u64> = prefix.iter().map(|&(v, _)| v).collect();
    let weights: Vec<u64> = prefix.iter().map(|&(_, w)| w).collect();
    let scores = wlis_kind(kind, &values, &weights);
    let best = scores.iter().copied().max().unwrap_or(0);
    specs
        .iter()
        .map(|&spec| match spec {
            QuerySpec::RankOf(i) => QueryAnswer::Rank(scores.get(i).copied()),
            QuerySpec::CountAt(v) => QueryAnswer::Count(scores.iter().filter(|&&s| s == v).count()),
            QuerySpec::TopK(want) => QueryAnswer::TopK(top_k_oracle(&scores, want)),
            QuerySpec::Certificate => {
                let indices = wlis_indices_from_scores(&values, &weights, &scores);
                assert_certificate(&values, &indices);
                let total: u64 = indices.iter().map(|&i| weights[i]).sum();
                assert_eq!(total, best, "claimed score must match the certificate weight");
                QueryAnswer::Certificate(plis_engine::Certificate { indices, claimed: best })
            }
        })
        .collect()
}

/// Quadratic top-k reference: dp descending, ties by ascending index.
fn top_k_oracle(dp: &[u64], k: usize) -> Vec<(usize, u64)> {
    let mut order: Vec<(usize, u64)> = dp.iter().copied().enumerate().collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    order.truncate(k);
    order
}

/// The structural acceptance check: certificate indices strictly increase
/// and so do the values along them.
fn assert_certificate(values: &[u64], indices: &[usize]) {
    assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must increase: {indices:?}");
    assert!(
        indices.windows(2).all(|w| values[w[0]] < values[w[1]]),
        "values must strictly increase along the certificate"
    );
}

/// One tick of weighted read/write slots, pre-conversion.
type WeightedOpTick = Vec<(SessionId, ReadWriteOp<(u64, u64)>)>;
/// One named weighted read/write schedule.
type WeightedSchedule = (String, Vec<ReadWriteOp<(u64, u64)>>);

/// Run a fleet of plain read/write schedules through an engine, checking
/// every query answer against the offline oracle on the exact prefix it
/// observed.  Returns all tick outcomes for determinism comparison.
fn run_plain_checked(
    ticks: &[Vec<(SessionId, ReadWriteOp<u64>)>],
    universe: u64,
    threads: usize,
) -> Vec<TickOutcome> {
    on_pool(threads, || {
        let mut engine =
            Engine::new(EngineConfig { universe, shards: 4, ..EngineConfig::default() });
        let mut prefixes: HashMap<String, Vec<u64>> = HashMap::new();
        let mut outcomes = Vec::new();
        for tick in ticks {
            // The workload's read/write ops map 1:1 onto command-plane ops.
            let command: Tick = tick.iter().cloned().collect::<Tick>().auto_create();
            let outcome = engine.execute(&command);
            assert!(outcome.fully_applied(), "well-formed mixed ticks land every op");

            // Replay the tick against growing offline prefixes: a query
            // slot must equal the oracle on everything written before it.
            for ((id, op), (_, got)) in tick.iter().zip(&outcome.outcomes) {
                let prefix = prefixes.entry(id.as_str().to_string()).or_default();
                let got = got.as_ref().expect("no op failed");
                match op {
                    ReadWriteOp::Write(b) => {
                        prefix.extend_from_slice(b);
                        assert!(got.as_appended().is_some(), "write slot must report an append");
                    }
                    ReadWriteOp::Read(specs) => {
                        let want = plain_oracle(prefix, specs);
                        let answered = got.as_answered().expect("read slot must report answers");
                        assert_eq!(answered.kind, SessionKind::Unweighted);
                        assert_eq!(
                            answered.answers, want,
                            "session {id} diverged from the offline oracle ({threads} threads)"
                        );
                    }
                }
            }
            outcomes.push(outcome);
        }
        engine.check_invariants();
        outcomes
    })
}

/// The weighted analogue of [`run_plain_checked`], with every answer
/// checked against the oracle on both dominant-max stores.
fn run_weighted_checked(
    ticks: &[WeightedOpTick],
    universe: u64,
    threads: usize,
) -> Vec<TickOutcome> {
    on_pool(threads, || {
        let mut engine =
            Engine::new(EngineConfig { universe, default_kind: SessionKind::Weighted, shards: 4 });
        let mut prefixes: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        let mut outcomes = Vec::new();
        for tick in ticks {
            let command: Tick = tick.iter().cloned().collect::<Tick>().auto_create();
            let outcome = engine.execute(&command);
            assert!(outcome.fully_applied(), "well-formed weighted ticks land every op");
            for ((id, op), (_, got)) in tick.iter().zip(&outcome.outcomes) {
                let prefix = prefixes.entry(id.as_str().to_string()).or_default();
                let got = got.as_ref().expect("no op failed");
                match op {
                    ReadWriteOp::Write(b) => prefix.extend_from_slice(b),
                    ReadWriteOp::Read(specs) => {
                        let answered = got.as_answered().expect("read slot must report answers");
                        assert_eq!(answered.kind, SessionKind::Weighted);
                        for dommax in [DominantMaxKind::RangeTree, DominantMaxKind::RangeVeb] {
                            let want = weighted_oracle(prefix, specs, dommax);
                            assert_eq!(
                                answered.answers, want,
                                "session {id} diverged from the offline oracle on {dommax:?} \
                                 ({threads} threads)"
                            );
                        }
                    }
                }
            }
            outcomes.push(outcome);
        }
        engine.check_invariants();
        outcomes
    })
}

fn assert_identical(a: &[TickOutcome], b: &[TickOutcome], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}");
    for (t, (x, y)) in a.iter().zip(b).enumerate() {
        // worker_threads is observational and intentionally excluded.
        assert_eq!(x.outcomes, y.outcomes, "{label}: tick {t} outcomes diverged");
        assert_eq!(x.total_ingested, y.total_ingested, "{label}: tick {t}");
        assert_eq!(x.total_queries, y.total_queries, "{label}: tick {t}");
    }
}

#[test]
fn plain_queries_match_offline_oracles_on_both_pools() {
    let (fleet, universe) = mixed_session_fleet(4, 1_000, 64, 0.35, 5, 0xACE);
    let ticks = round_robin_ticks(&fleet, |s| SessionId::from(s));
    assert!(ticks.len() > 8, "schedule should span many ticks");
    let queries: usize = fleet.iter().flat_map(|(_, ops)| ops.iter().map(|o| o.queries())).sum();
    assert!(queries > 50, "schedule should carry real read traffic, got {queries}");

    let seq = run_plain_checked(&ticks, universe, 1);
    let par = run_plain_checked(&ticks, universe, parallel_threads());
    assert_identical(&seq, &par, "1-thread vs full pool");
}

#[test]
fn weighted_queries_match_offline_oracles_on_both_stores_and_pools() {
    // Weighted fleets have no mixed generator of their own: interleave
    // reads into each weighted stream with the shared mixer.
    let (fleet, universe) = weighted_session_fleet(3, 700, 48, 30, 0xBEE);
    let mixed: Vec<WeightedSchedule> = fleet
        .iter()
        .enumerate()
        .map(|(i, (name, batches))| {
            (name.clone(), read_write_mix(batches, 0.35, 5, 0xBEE + i as u64))
        })
        .collect();
    let ticks = round_robin_ticks(&mixed, |s| SessionId::from(s));

    let seq = run_weighted_checked(&ticks, universe, 1);
    let par = run_weighted_checked(&ticks, universe, parallel_threads());
    assert_identical(&seq, &par, "1-thread vs full pool");
}

#[test]
fn read_only_ticks_match_the_mixed_path() {
    // After ingesting everything, a read-only execute_read over &self must
    // answer exactly like query slots appended to a mixed tick.
    let (fleet, universe) = mixed_session_fleet(3, 800, 64, 0.0, 4, 0xF00);
    let mut engine = Engine::new(EngineConfig { universe, shards: 3, ..EngineConfig::default() });
    let mut prefixes: HashMap<String, Vec<u64>> = HashMap::new();
    for tick in round_robin_ticks(&fleet, |s| SessionId::from(s)) {
        let command: Tick = tick
            .into_iter()
            .map(|(id, op)| {
                match &op {
                    ReadWriteOp::Write(b) => {
                        prefixes.entry(id.as_str().to_string()).or_default().extend_from_slice(b)
                    }
                    ReadWriteOp::Read(_) => unreachable!("mix 0.0 generates no reads"),
                }
                (id, Op::from(op))
            })
            .collect::<Tick>()
            .auto_create();
        assert!(engine.execute(&command).fully_applied());
    }

    let specs =
        [QuerySpec::RankOf(17), QuerySpec::CountAt(3), QuerySpec::TopK(6), QuerySpec::Certificate];
    let tick: ReadTick = prefixes
        .keys()
        .map(|name| {
            (
                SessionId::from(name.as_str()),
                specs.iter().copied().map(Query::from).collect::<Vec<_>>(),
            )
        })
        .collect();
    let outcome = engine.execute_read(&tick);
    assert!(outcome.fully_answered());
    assert_eq!(outcome.sessions_queried, prefixes.len());
    assert_eq!(outcome.sessions_missing, 0);
    assert_eq!(outcome.total_queries, prefixes.len() * specs.len());
    for (id, got) in &outcome.outcomes {
        let want = plain_oracle(&prefixes[id.as_str()], &specs);
        assert_eq!(got.as_ref().unwrap().answers, want, "read-only answers for {id}");
    }

    // And slot-for-slot like the same queries as Op::Query slots.
    let mixed: Tick =
        tick.slots().iter().map(|(id, q)| (id.clone(), Op::Query(q.clone()))).collect();
    let via_execute = engine.execute(&mixed);
    for ((_, read), (_, slot)) in outcome.outcomes.iter().zip(&via_execute.outcomes) {
        let OpOutput::Answered(report) = slot.as_ref().unwrap() else {
            panic!("query slot must answer")
        };
        assert_eq!(read.as_ref().unwrap(), report, "execute_read vs execute diverged");
    }
}
