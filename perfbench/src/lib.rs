//! The plis benchmark: three workloads, end-to-end metrics from an untraced
//! run, per-layer metrics from a separate traced run.
//!
//! * `offline-lis` — the paper's own algorithms (Algorithm 1, Algorithm 2
//!   with both stores, vEB batch operations) on an `nproc`-wide pool.
//! * `engine-bulk` — the streaming engine through the library, with large
//!   batches, followed by a snapshot/restore round trip.
//! * `serve-mixed` — a closed loop against an in-process `plis-server`
//!   over loopback.
//!
//! Each workload reports the same end-to-end metrics ([`END_TO_END`]); the
//! traced binary reports every per-layer metric ([`PER_LAYER`]), with 0 for
//! a layer the workload does not run.  Per-layer timings come from timers
//! around calls into each crate's public functions, made from this
//! package's own code: nothing inside the measured program changes.
//!
//! `run.py` next to this package builds both binaries and is the command to
//! use; see `README.md`.

pub mod bulk;
pub mod offline;
pub mod serve;

use plis_telemetry::{json_line, JsonValue};
use std::collections::BTreeMap;
use std::time::Instant;

/// The workload names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["offline-lis", "engine-bulk", "serve-mixed"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_op_ratio", "ratio"),
    ("elems_per_sec", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.  A layer
/// the workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rayon.join_ns", "ns"),
    ("tournament.k1e2.build_s", "s"),
    ("tournament.k1e2.rounds_s", "s"),
    ("tournament.k1e2.round_p50_us", "us"),
    ("tournament.k1e2.rounds", "count"),
    ("tournament.k1e2.nodes_visited", "count"),
    ("tournament.k1e2.visited_per_nlogk", "ratio"),
    ("tournament.k1e4.build_s", "s"),
    ("tournament.k1e4.rounds_s", "s"),
    ("tournament.k1e4.round_p50_us", "us"),
    ("tournament.k1e4.rounds", "count"),
    ("tournament.k1e4.nodes_visited", "count"),
    ("tournament.k1e4.visited_per_nlogk", "ratio"),
    ("lis.k1e2.threads1_s", "s"),
    ("lis.k1e4.threads1_s", "s"),
    ("baselines.k1e2.seq_bs_s", "s"),
    ("baselines.k1e4.seq_bs_s", "s"),
    ("baselines.seq_avl_s", "s"),
    ("rangetree.build_s", "s"),
    ("rangetree.query_busy_s", "s"),
    ("rangetree.update_s", "s"),
    ("rangetree.queries", "count"),
    ("rangetree.writeback_elems", "count"),
    ("rangeveb.build_s", "s"),
    ("rangeveb.query_busy_s", "s"),
    ("rangeveb.update_s", "s"),
    ("rangeveb.queries", "count"),
    ("rangeveb.writeback_elems", "count"),
    ("veb.from_sorted_s", "s"),
    ("veb.batch_insert_s", "s"),
    ("veb.batch_delete_s", "s"),
    ("veb.range_s", "s"),
    ("offline.lis_k1e2_s", "s"),
    ("offline.lis_k1e4_s", "s"),
    ("offline.wlis_rangetree_s", "s"),
    ("offline.wlis_rangeveb_s", "s"),
    ("offline.veb_batch_s", "s"),
    ("engine.tick_p50_us", "us"),
    ("engine.tick_p99_us", "us"),
    ("engine.busy_s", "s"),
    ("engine.busy_share", "ratio"),
    ("engine.seq_ingests", "count"),
    ("engine.par_merge_ingests", "count"),
    ("engine.par_merge_elems", "count"),
    ("engine.inline_ticks", "count"),
    ("engine.tailset_veb_picks", "count"),
    ("engine.tailset_sorted_picks", "count"),
    ("engine.dommax_tree_picks", "count"),
    ("engine.dommax_veb_picks", "count"),
    ("engine.veb_delta_elems", "count"),
    ("engine.queries_answered", "count"),
    ("engine.session_bytes", "B"),
    ("engine.arena_bytes", "B"),
    ("engine.allocs_per_elem", "count"),
    ("snapshot.capture_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "B"),
    ("snapshot.bytes_per_elem", "B/elem"),
    ("telemetry.crc64_mb_per_s", "MB/s"),
    ("wire.encode_ns_per_op", "ns"),
    ("wire.decode_ns_per_op", "ns"),
    ("server.start_s", "s"),
    ("server.shutdown_s", "s"),
    ("server.ticks", "count"),
    ("server.ops_per_tick", "count"),
    ("client.send_p50_us", "us"),
    ("client.recv_wait_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Command-line arguments (see `README.md`).
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Source revision the binary was built from, for the output lines.
    pub commit: String,
    /// Untraced `op_p50_us` of the same workload, for `trace_overhead`.
    pub baseline_op_p50_us: Option<f64>,
}

impl Args {
    /// Parse `--name value` pairs.  `--trace` is accepted and ignored: the
    /// binary itself decides whether the run is traced.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            commit: "unknown".into(),
            baseline_op_p50_us: None,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
                value.parse().map_err(|_| format!("bad value for {flag}: {value:?}"))
            }
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = num(&flag, &value)?,
                "--seconds" => args.seconds = num(&flag, &value)?,
                "--commit" => args.commit = value.clone(),
                "--baseline-op-p50-us" => args.baseline_op_p50_us = Some(num(&flag, &value)?),
                "--trace" => {}
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Who is running: everything every output line carries.
pub struct Ctx {
    /// The parsed arguments.
    pub args: Args,
    /// Whether this is the traced binary.
    pub traced: bool,
    /// `std::thread::available_parallelism`.
    pub host_threads: usize,
}

impl Ctx {
    /// Print one self-describing JSON line of kind `kind`.
    pub fn line(&self, kind: &str, fields: Vec<(&str, JsonValue)>) {
        let mut all: Vec<(&str, JsonValue)> = vec![
            ("kind", kind.into()),
            ("workload", self.args.workload.as_str().into()),
            ("seed", self.args.seed.into()),
            ("commit", self.args.commit.as_str().into()),
            ("host_threads", self.host_threads.into()),
            ("profile", profile().into()),
            ("traced", u64::from(self.traced).into()),
        ];
        all.extend(fields);
        println!("{}", json_line(&all));
    }

    /// A pool as wide as the host: the load threads of every workload.
    pub fn pool(&self) -> rayon::ThreadPool {
        pool(self.host_threads)
    }
}

/// A rayon pool with `threads` workers.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("build thread pool")
}

/// `release` or `debug`.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Per-layer values, gathered as samples and reported as their median.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Record one sample of a [`PER_LAYER`] metric.
    ///
    /// # Panics
    /// Panics on a name that is not in [`PER_LAYER`].
    pub fn push(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0.entry(name).or_default().push(value);
    }

    /// The median sample of `name`, or 0 when it was never recorded.
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map(|v| median(v)).unwrap_or(0.0)
    }

    /// Sample count behind each recorded metric.
    pub fn counts(&self) -> Vec<(&'static str, JsonValue)> {
        self.0.iter().map(|(name, v)| (*name, v.len().into())).collect()
    }

    /// Record the engine-layer counters of a metrics snapshot, with
    /// `wall_s` the time the engine was under load.
    pub fn push_engine(&mut self, m: &plis_engine::MetricsSnapshot, wall_s: f64) {
        let busy_s = (m.tick_latency.sum + m.read_latency.sum) as f64 / 1e9;
        self.push("engine.tick_p50_us", m.tick_latency.p50() as f64 / 1e3);
        self.push("engine.tick_p99_us", m.tick_latency.p99() as f64 / 1e3);
        self.push("engine.busy_s", busy_s);
        self.push("engine.busy_share", busy_s / wall_s);
        self.push("engine.seq_ingests", m.seq_ingests as f64);
        self.push("engine.par_merge_ingests", m.par_merge_ingests as f64);
        self.push("engine.par_merge_elems", m.par_merge_elems as f64);
        self.push("engine.inline_ticks", m.inline_ticks as f64);
        self.push("engine.tailset_veb_picks", m.tailset_veb_picks as f64);
        self.push("engine.tailset_sorted_picks", m.tailset_sorted_picks as f64);
        self.push("engine.dommax_tree_picks", m.dommax_tree_picks as f64);
        self.push("engine.dommax_veb_picks", m.dommax_veb_picks as f64);
        self.push("engine.veb_delta_elems", m.veb_delta_elems as f64);
        self.push("engine.queries_answered", m.queries_answered as f64);
        self.push("engine.session_bytes", m.session_bytes as f64);
        self.push("engine.arena_bytes", m.arena_bytes as f64);
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (job calls, engine ops or client requests).
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// Once-per-process set-up seconds (e.g. cost-model calibration).
    pub setup_once_s: f64,
    /// Seconds of each repeated set-up; the median is reported.
    pub setup_s: Vec<f64>,
    /// Elements through the workload's main path.
    pub elems: u64,
    /// Seconds the main path took for them.
    pub work_s: f64,
    /// Elements per second of each pass or round; the median is reported.
    pub rates: Vec<f64>,
    /// Latency of every operation, in nanoseconds.
    pub op_ns: Vec<u64>,
    /// End index in `op_ns` of each round.  `op_p99_us` is the median
    /// over rounds of each round's 99th percentile, so a stall of the host
    /// during a few rounds does not decide the tail.
    pub round_ends: Vec<usize>,
    /// Per-layer samples (traced runs only).
    pub layers: Layers,
    /// Stage timings worth a line of their own (untraced runs too).
    pub stages: Vec<(&'static str, JsonValue)>,
}

impl Outcome {
    /// Close a round at the operations recorded so far.
    pub fn end_round(&mut self) {
        self.round_ends.push(self.op_ns.len());
    }

    /// Median over rounds of each round's 99th-percentile latency (all
    /// operations as one round when none was closed).
    fn round_p99_ns(&self) -> f64 {
        let ends = if self.round_ends.is_empty() {
            vec![self.op_ns.len()]
        } else {
            self.round_ends.clone()
        };
        let mut start = 0;
        let p99s: Vec<f64> = ends
            .iter()
            .map(|&end| {
                let mut round = self.op_ns[start..end].to_vec();
                round.sort_unstable();
                start = end;
                percentile(&round, 99.0) as f64
            })
            .collect();
        median(&p99s)
    }
}

/// Wall-clock seconds of `f`, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `[0, 100]`) of sorted samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Median nanoseconds of a no-op `rayon::join` on `pool` (the fork-join
/// probe).
pub fn join_probe_ns(pool: &rayon::ThreadPool) -> f64 {
    pool.install(|| {
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(rayon::join(
                    || std::hint::black_box(1u64),
                    || std::hint::black_box(2u64),
                ));
                ns_since(start) as f64
            })
            .collect();
        median(&samples)
    })
}

/// Run the workload named in the arguments and print its result line.
/// Returns the process exit code.
pub fn main_with(traced: bool) -> i32 {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> [--trace <0|1>] \
                 [--commit <id>] [--baseline-op-p50-us <us>]",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let ctx = Ctx { args, traced, host_threads };
    ctx.line("start", vec![("seconds", ctx.args.seconds.into())]);

    let mut out = match ctx.args.workload.as_str() {
        "offline-lis" => offline::run(&ctx),
        "engine-bulk" => bulk::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        other => unreachable!("workload {other} passed argument checks"),
    };

    let op_p99_us = out.round_p99_ns() / 1e3;
    out.op_ns.sort_unstable();
    let op_p50_us = percentile(&out.op_ns, 50.0) as f64 / 1e3;
    let setup_s = out.setup_once_s + median(&out.setup_s);
    let mut stages = std::mem::take(&mut out.stages);
    stages.extend([
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("op_samples", out.op_ns.len().into()),
        ("op_rounds", out.round_ends.len().into()),
        ("op_p50_us", op_p50_us.into()),
        ("op_p99_us", op_p99_us.into()),
        ("op_max_us", (out.op_ns.last().copied().unwrap_or(0) as f64 / 1e3).into()),
        ("setup_samples", out.setup_s.len().into()),
        ("setup_once_s", out.setup_once_s.into()),
        ("elems", out.elems.into()),
        ("work_s", out.work_s.into()),
        ("rate_samples", out.rates.len().into()),
    ]);
    ctx.line("summary", stages);

    let metrics: Vec<(&str, &str, f64)> = if traced {
        if let Some(base) = ctx.args.baseline_op_p50_us.filter(|b| *b > 0.0) {
            out.layers.push("trace_overhead", op_p50_us / base - 1.0);
        }
        ctx.line("layer_samples", out.layers.counts());
        PER_LAYER.iter().map(|&(name, unit)| (name, unit, out.layers.value(name))).collect()
    } else {
        let ok_ratio = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        let values = [setup_s, peak_rss_mb(), ok_ratio, median(&out.rates), op_p50_us, op_p99_us];
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect()
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    0
}
