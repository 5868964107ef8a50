//! `engine-bulk`: the streaming engine through the library, no sockets.
//!
//! A fleet of unweighted sessions with interleaved reads plus a few
//! weighted sessions, in large batches, runs through `Engine::execute` one
//! round-robin tick at a time; one tick is one timed operation.  Each round
//! draws a fresh fleet from a seed derived from `--seed`.  Every
//! few rounds, the warm engine is then snapshotted, encoded, decoded and
//! restored, and the restored engine is checked against the warm one.

use crate::{ns_since, timed, Ctx, Layers, Outcome};
use plis_baselines::{seq_avl, seq_bs_length};
use plis_engine::{Engine, EngineConfig, EngineSnapshot, Op, Query, SessionKind, Tick};
use plis_telemetry::{alloc_tally, crc64};
use plis_workloads::streaming::{mixed_session_fleet, weighted_session_fleet, ReadWriteOp};
use std::time::Instant;

/// Unweighted sessions, their length, mean batch and read share.
const SESSIONS: usize = 16;
const SESSION_N: usize = 250_000;
const BATCH: usize = 16_384;
const READ_MIX: f64 = 0.25;
const QUERIES_PER_READ: usize = 4;
/// Weighted sessions, their length and mean batch.
const W_SESSIONS: usize = 4;
const W_SESSION_N: usize = 62_500;
const W_BATCH: usize = 4_096;
/// Fewest rounds a run makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// Rounds per snapshot/restore round trip (the first round always makes
/// one), so most of the run is ingest.
const CHECKPOINT_EVERY: usize = 8;

/// One session's expected final state: its LIS length (unweighted) or
/// best score (weighted).
pub struct Expect {
    pub name: String,
    pub kind: SessionKind,
    pub value: u64,
}

impl Expect {
    /// Whether `engine` holds this session in its expected final state.
    pub fn holds(&self, engine: &Engine) -> bool {
        match self.kind {
            SessionKind::Unweighted => {
                engine.lis_length(&self.name).map(u64::from) == Some(self.value)
            }
            SessionKind::Weighted => engine.best_score(&self.name) == Some(self.value),
        }
    }
}

/// The prepared ticks of one round and what they must produce.
struct Schedule {
    universe: u64,
    create: Tick,
    ticks: Vec<Tick>,
    /// A tick run on both the warm and the restored engine.
    probe: Tick,
    expect: Vec<Expect>,
    elems: u64,
}

impl Schedule {
    fn generate(seed: u64) -> Schedule {
        let (mixed, u1) =
            mixed_session_fleet(SESSIONS, SESSION_N, BATCH, READ_MIX, QUERIES_PER_READ, seed);
        let (weighted, u2) =
            weighted_session_fleet(W_SESSIONS, W_SESSION_N, W_BATCH, 1_000, seed ^ 0xB01C);
        let universe = u1.max(u2).max(2);

        let mut create = Tick::new();
        let mut probe = Tick::new();
        let mut expect = Vec::new();
        let mut elems = 0u64;
        let rounds = mixed
            .iter()
            .map(|(_, ops)| ops.len())
            .chain(weighted.iter().map(|(_, b)| b.len()))
            .max()
            .unwrap_or(0);
        let mut ticks = vec![Tick::new(); rounds];

        for (name, ops) in &mixed {
            create = create.create(name.as_str(), SessionKind::Unweighted);
            let mut values = Vec::new();
            for (tick, op) in ticks.iter_mut().zip(ops) {
                match op {
                    ReadWriteOp::Write(batch) => {
                        values.extend_from_slice(batch);
                        tick.push(name.as_str(), Op::Append(batch.clone()));
                    }
                    ReadWriteOp::Read(specs) => {
                        let queries: Vec<Query> = specs.iter().copied().map(Query::from).collect();
                        tick.push(name.as_str(), Op::Query(queries.into()));
                    }
                }
            }
            elems += values.len() as u64;
            let value = u64::from(seq_bs_length(&values));
            expect.push(Expect { name: name.clone(), kind: SessionKind::Unweighted, value });
            probe = probe
                .append(name.as_str(), (0..16).map(|i| (i * 7919) % universe).collect())
                .query(name.as_str(), vec![Query::TopK(4), Query::Certificate]);
        }
        for (name, batches) in &weighted {
            create = create.create(name.as_str(), SessionKind::Weighted);
            for (tick, batch) in ticks.iter_mut().zip(batches) {
                tick.push(name.as_str(), Op::AppendWeighted(batch.clone()));
            }
            let (values, weights): (Vec<u64>, Vec<u64>) = batches.iter().flatten().copied().unzip();
            elems += values.len() as u64;
            let value = seq_avl(&values, &weights).into_iter().max().unwrap_or(0);
            expect.push(Expect { name: name.clone(), kind: SessionKind::Weighted, value });
            probe = probe.append_weighted(
                name.as_str(),
                (0..16).map(|i| ((i * 7919) % universe, 1 + i)).collect(),
            );
        }
        Schedule { universe, create, ticks, probe, expect, elems }
    }
}

/// One ingest into a throwaway engine of each session kind, so the
/// engine's one-shot cost-model calibration runs in set-up and never in a
/// timed tick.
pub fn warm_up() {
    let mut engine = Engine::new(EngineConfig::default());
    let values: Vec<u64> = (0..4_096).collect();
    let tick = Tick::new()
        .create("warm-u", SessionKind::Unweighted)
        .create("warm-w", SessionKind::Weighted)
        .append("warm-u", values.clone())
        .append_weighted("warm-w", values.iter().map(|&v| (v, 1)).collect());
    assert!(engine.execute(&tick).fully_applied(), "warm-up tick failed");
}

/// Run the workload for `--seconds` of ingest rounds.
pub fn run(ctx: &Ctx) -> Outcome {
    ctx.line(
        "inputs",
        vec![
            ("sessions", SESSIONS.into()),
            ("session_n", SESSION_N.into()),
            ("mean_batch", BATCH.into()),
            ("read_mix", READ_MIX.into()),
            ("weighted_sessions", W_SESSIONS.into()),
            ("weighted_session_n", W_SESSION_N.into()),
            ("weighted_mean_batch", W_BATCH.into()),
        ],
    );
    let mut out = Outcome::default();
    let (once_s, pool) = timed(|| {
        let pool = ctx.pool();
        pool.install(warm_up);
        pool
    });
    out.setup_once_s = once_s;
    let one_thread = crate::pool(1);
    let (mut snapshot_s, mut restore_s, mut snapshot_bytes) = (Vec::new(), Vec::new(), 0);

    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < ctx.args.seconds {
        // A fresh fleet every round: the run's median then spans many
        // inputs instead of resting on one draw of 20 streams.  Generated
        // on one thread, so the allocator's per-thread arenas (and with
        // them `peak_rss_mb`) do not depend on how the forks fell.
        let seed = ctx.args.seed.wrapping_mul(1_000_003) + rounds as u64;
        let schedule = one_thread.install(|| Schedule::generate(seed));
        let config = EngineConfig { universe: schedule.universe, ..EngineConfig::default() };
        pool.install(|| {
            let (setup_s, mut engine) = timed(|| {
                let mut engine = Engine::new(config.clone());
                assert!(engine.execute(&schedule.create).fully_applied(), "creation tick failed");
                engine
            });
            out.setup_s.push(setup_s);

            let allocs = alloc_tally();
            let ingest_start = Instant::now();
            for tick in &schedule.ticks {
                let start = Instant::now();
                let outcome = engine.execute(tick);
                out.op_ns.push(ns_since(start));
                out.attempted += tick.len() as u64;
                out.failed += outcome.errors().count() as u64;
            }
            let ingest_s = ingest_start.elapsed().as_secs_f64();
            let allocs = alloc_tally().since(allocs).allocs;
            out.work_s += ingest_s;
            out.elems += schedule.elems;
            out.rates.push(schedule.elems as f64 / ingest_s);
            out.end_round();
            for e in &schedule.expect {
                assert!(e.holds(&engine), "session {} final state differs from Seq-BS/AVL", e.name);
            }
            if ctx.traced {
                out.layers.push_engine(&engine.metrics_snapshot(), ingest_s);
                out.layers.push("engine.allocs_per_elem", allocs as f64 / schedule.elems as f64);
            }
            if rounds % CHECKPOINT_EVERY == 0 {
                let c =
                    checkpoint(engine, &config, &schedule, ctx.traced.then_some(&mut out.layers));
                snapshot_s.push(c.snapshot_s);
                restore_s.push(c.restore_s);
                snapshot_bytes = c.bytes;
            }
        });
        rounds += 1;
    }
    if ctx.traced {
        out.layers.push("rayon.join_ns", crate::join_probe_ns(&pool));
    }
    out.stages = vec![
        ("rounds", rounds.into()),
        ("checkpoints", snapshot_s.len().into()),
        ("snapshot_s", crate::median(&snapshot_s).into()),
        ("restore_s", crate::median(&restore_s).into()),
        ("snapshot_bytes", snapshot_bytes.into()),
    ];
    out
}

/// What one checkpoint round trip cost.
struct Checkpoint {
    /// Capture plus encode.
    snapshot_s: f64,
    /// Decode plus restore.
    restore_s: f64,
    bytes: usize,
}

/// Snapshot the warm `engine`, encode, decode and restore it, then check
/// the restored engine answers exactly like the warm one.
fn checkpoint(
    mut engine: Engine,
    config: &EngineConfig,
    schedule: &Schedule,
    layers: Option<&mut Layers>,
) -> Checkpoint {
    let (capture, snap) = timed(|| engine.snapshot());
    let (encode, bytes) = timed(|| snap.encode());
    drop(snap);
    let crc_s = layers.is_some().then(|| timed(|| std::hint::black_box(crc64(&bytes))).0);
    let (decode, decoded) = timed(|| EngineSnapshot::decode(&bytes));
    let decoded = decoded.expect("snapshot decodes");
    let (restore, restored) = timed(|| Engine::restore(config.clone(), &decoded));
    let mut restored = restored.expect("snapshot restores");
    drop(decoded);
    if let (Some(layers), Some(crc_s)) = (layers, crc_s) {
        layers.push("telemetry.crc64_mb_per_s", bytes.len() as f64 / 1e6 / crc_s);
        layers.push("snapshot.capture_s", capture);
        layers.push("snapshot.encode_s", encode);
        layers.push("snapshot.decode_s", decode);
        layers.push("snapshot.restore_s", restore);
        layers.push("snapshot.bytes", bytes.len() as f64);
        layers.push("snapshot.bytes_per_elem", bytes.len() as f64 / schedule.elems as f64);
    }

    for e in &schedule.expect {
        assert!(e.holds(&restored), "restored session {} differs", e.name);
    }
    let warm = engine.execute(&schedule.probe);
    let cold = restored.execute(&schedule.probe);
    assert!(warm.fully_applied(), "probe tick failed on the warm engine");
    assert!(warm == cold, "post-restore tick outcome differs from the warm engine");
    Checkpoint { snapshot_s: capture + encode, restore_s: decode + restore, bytes: bytes.len() }
}
