//! `offline-lis`: the paper's own algorithms on an `nproc`-wide pool.
//!
//! One *pass* runs five jobs, and one pass is one operation:
//! Algorithm 1 on range-pattern input (k≈10²) and on line-pattern input
//! (k≈10⁴), Algorithm 2 with the range tree and with the Range-vEB store,
//! and a vEB batch insert / range / batch delete against resident keys.
//! No engine or server code runs.
//!
//! The traced pass swaps `lis_ranks_u64` for its own
//! `TournamentTree::new` + `process_frontier` loop and hands Algorithm 2 a
//! [`TimedStore`] around each store, so both layers are timed from here.

use crate::{ns_since, timed, Ctx, Layers, Outcome};
use plis_baselines::{seq_avl, seq_bs_length};
use plis_lis::{lis_ranks_u64, wlis_with_stats, DominantMaxStore};
use plis_primitives::DomMaxStats;
use plis_rangetree::RangeMaxTree;
use plis_rangeveb::RangeVeb;
use plis_tournament::TournamentTree;
use plis_veb::VebTree;
use plis_workloads::{range_pattern, uniform_weights, with_target_rank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Input length of the two Algorithm 1 jobs.
const LIS_N: usize = 1 << 17;
/// Input length of the two Algorithm 2 jobs.
const WLIS_N: usize = 12_500;
/// Target LIS length of the Algorithm 2 input.
const WLIS_K: u64 = 1_000;
/// Universe of the vEB job.
const VEB_UNIVERSE: u64 = 1 << 24;
/// Expected resident (and, separately, batch) key count of the vEB job.
const VEB_KEYS: usize = 1 << 16;
/// Input length of the warm-up pass run during set-up.
const WARM_N: usize = 1 << 12;
/// Set-up repetitions; the median is reported.
const SETUPS: usize = 5;
/// Fewest passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Passes per round of the `op_p99_us` estimate (a trailing partial round
/// is left out of it).
const PASSES_PER_ROUND: usize = 8;

/// Every input of one pass plus the answers it must produce.
struct Inputs {
    k1e2: Vec<u64>,
    k1e4: Vec<u64>,
    wvals: Vec<u64>,
    wweights: Vec<u64>,
    resident: Vec<u64>,
    batch: Vec<u64>,
    /// `seq_bs_length` of `k1e2` and `k1e4`.
    k_ref: [u32; 2],
    /// `seq_avl` dp vector of the weighted input.
    wdp_ref: Vec<u64>,
    /// The closed key range the vEB job reports, and the keys in it.
    range: (u64, u64),
    range_ref: Vec<u64>,
}

impl Inputs {
    fn generate(lis_n: usize, wlis_n: usize, veb_keys: usize, seed: u64) -> Inputs {
        let k1e2 = range_pattern(lis_n, 100, seed ^ 0x0A11);
        let k1e4 = with_target_rank(lis_n, 10_000, seed ^ 0x0A12);
        let wvals = with_target_rank(wlis_n, WLIS_K.min(wlis_n as u64), seed ^ 0x0A13);
        let wweights = uniform_weights(wlis_n, 1_000, seed ^ 0x0A14);
        let k_ref = [seq_bs_length(&k1e2), seq_bs_length(&k1e4)];
        let wdp_ref = seq_avl(&wvals, &wweights);

        // Each key of the universe joins the resident set or the batch
        // with probability veb_keys / universe.
        let mut state = seed ^ 0x0A15;
        let (mut resident, mut batch) = (Vec::new(), Vec::new());
        let threshold = (veb_keys as u128 * (u64::MAX as u128) / VEB_UNIVERSE as u128) as u64;
        for key in 0..VEB_UNIVERSE {
            let r = splitmix(&mut state);
            if r < threshold {
                resident.push(key);
            } else if r < threshold.saturating_mul(2) {
                batch.push(key);
            }
        }
        let range = (VEB_UNIVERSE / 4, 3 * VEB_UNIVERSE / 4);
        let mut range_ref: Vec<u64> = resident
            .iter()
            .chain(&batch)
            .copied()
            .filter(|k| (range.0..=range.1).contains(k))
            .collect();
        range_ref.sort_unstable();
        Inputs { k1e2, k1e4, wvals, wweights, resident, batch, k_ref, wdp_ref, range, range_ref }
    }

    /// Elements one pass consumes: every job's input length.
    fn elems(&self) -> u64 {
        (self.k1e2.len()
            + self.k1e4.len()
            + 2 * self.wvals.len()
            + self.resident.len()
            + self.batch.len()) as u64
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Timings a [`TimedStore`] publishes when Algorithm 2 drops it.
#[derive(Debug, Default, Clone, Copy)]
struct StoreTimes {
    build_s: f64,
    query_busy_s: f64,
    update_s: f64,
    stats: DomMaxStats,
}

static LAST_STORE: Mutex<Option<StoreTimes>> = Mutex::new(None);

/// A dominant-max store that times every call into the store it wraps.
/// `wlis_with_stats` builds and drops its store internally, so the times
/// are published on drop.
struct TimedStore<S: DominantMaxStore> {
    inner: S,
    build_s: f64,
    query_ns: AtomicU64,
    update_s: f64,
}

impl<S: DominantMaxStore> DominantMaxStore for TimedStore<S> {
    fn build(points: &[(u64, u64)]) -> Self {
        let (build_s, inner) = timed(|| S::build(points));
        TimedStore { inner, build_s, query_ns: AtomicU64::new(0), update_s: 0.0 }
    }

    fn dominant_max(&self, qx: u64, qy: u64) -> u64 {
        let start = Instant::now();
        let best = self.inner.dominant_max(qx, qy);
        self.query_ns.fetch_add(ns_since(start), Ordering::Relaxed);
        best
    }

    fn update_batch(&mut self, updates: &[(u64, u64, u64)]) {
        let (secs, ()) = timed(|| self.inner.update_batch(updates));
        self.update_s += secs;
    }

    fn name() -> &'static str {
        S::name()
    }

    fn stats(&self) -> DomMaxStats {
        self.inner.stats()
    }
}

impl<S: DominantMaxStore> Drop for TimedStore<S> {
    fn drop(&mut self) {
        let times = StoreTimes {
            build_s: self.build_s,
            query_busy_s: self.query_ns.load(Ordering::Relaxed) as f64 / 1e9,
            update_s: self.update_s,
            stats: self.inner.stats(),
        };
        *LAST_STORE.lock().expect("store timing lock poisoned") = Some(times);
    }
}

/// Algorithm 1 as `lis_ranks_u64` runs it, with the tree build and every
/// round timed.  Returns the LIS length.
fn traced_lis(values: &[u64], key: &str, layers: &mut Layers) -> u32 {
    let name = |metric: &str| format!("tournament.{key}.{metric}");
    let (build_s, mut tree) = timed(|| TournamentTree::new(values, u64::MAX));
    let mut rank = vec![0u32; values.len()];
    let mut round_us = Vec::new();
    let mut visited = 0usize;
    let mut round = 0u32;
    while !tree.is_empty() {
        round += 1;
        let start = Instant::now();
        let stats = tree.process_frontier(round, &mut rank);
        round_us.push(ns_since(start) as f64 / 1e3);
        visited += stats.nodes_visited;
    }
    let nlogk = values.len() as f64 * (round.max(2) as f64).log2();
    layers.push(&name("build_s"), build_s);
    layers.push(&name("rounds_s"), round_us.iter().sum::<f64>() / 1e6);
    layers.push(&name("round_p50_us"), crate::median(&round_us));
    layers.push(&name("rounds"), round as f64);
    layers.push(&name("nodes_visited"), visited as f64);
    layers.push(&name("visited_per_nlogk"), visited as f64 / nlogk);
    round
}

/// Algorithm 2 with store `S`, wrapped in a [`TimedStore`] when traced.
fn wlis<S: DominantMaxStore>(
    inputs: &Inputs,
    prefix: &str,
    layers: Option<&mut Layers>,
) -> (Vec<u64>, DomMaxStats) {
    let Some(layers) = layers else {
        return wlis_with_stats::<u64, S>(&inputs.wvals, &inputs.wweights);
    };
    let (dp, stats) = wlis_with_stats::<u64, TimedStore<S>>(&inputs.wvals, &inputs.wweights);
    let t = LAST_STORE.lock().expect("store timing lock poisoned").take().expect("store dropped");
    layers.push(&format!("{prefix}.build_s"), t.build_s);
    layers.push(&format!("{prefix}.query_busy_s"), t.query_busy_s);
    layers.push(&format!("{prefix}.update_s"), t.update_s);
    layers.push(&format!("{prefix}.queries"), t.stats.queries as f64);
    layers.push(&format!("{prefix}.writeback_elems"), t.stats.writeback_elems as f64);
    (dp, stats)
}

/// One pass of the five jobs; returns the seconds each took.  Every
/// answer is checked outside the timed calls.
fn pass(inputs: &Inputs, mut layers: Option<&mut Layers>) -> [f64; 5] {
    let mut secs = [0.0; 5];
    for (job, values) in [&inputs.k1e2, &inputs.k1e4].into_iter().enumerate() {
        let key = ["k1e2", "k1e4"][job];
        let (s, k) = match layers.as_deref_mut() {
            Some(layers) => timed(|| traced_lis(values, key, layers)),
            None => timed(|| lis_ranks_u64(values).1),
        };
        assert_eq!(k, inputs.k_ref[job], "Algorithm 1 LIS length differs from Seq-BS ({key})");
        secs[job] = s;
    }

    let (s, (dp, _)) = timed(|| wlis::<RangeMaxTree>(inputs, "rangetree", layers.as_deref_mut()));
    assert!(dp == inputs.wdp_ref, "range-tree WLIS dp differs from Seq-AVL");
    secs[2] = s;
    let (s, (dp, _)) = timed(|| wlis::<RangeVeb>(inputs, "rangeveb", layers.as_deref_mut()));
    assert!(dp == inputs.wdp_ref, "range-vEB WLIS dp differs from Seq-AVL");
    secs[3] = s;

    let (lo, hi) = inputs.range;
    let (t_build, mut tree) = timed(|| VebTree::from_sorted(VEB_UNIVERSE, &inputs.resident));
    let (t_insert, inserted) = timed(|| tree.batch_insert(&inputs.batch));
    let (t_range, keys) = timed(|| tree.range(lo, hi));
    assert_eq!(inserted, inputs.batch.len(), "batch insert skipped fresh keys");
    assert!(keys == inputs.range_ref, "vEB range differs from the inserted keys");
    assert_eq!(tree.range_count(lo, hi), keys.len(), "vEB range_count differs from range");
    let (t_delete, deleted) = timed(|| tree.batch_delete(&inputs.batch));
    assert_eq!(deleted, inputs.batch.len(), "batch delete missed keys");
    assert_eq!(tree.len(), inputs.resident.len(), "vEB size after insert + delete");
    secs[4] = t_build + t_insert + t_range + t_delete;
    if let Some(layers) = layers {
        layers.push("veb.from_sorted_s", t_build);
        layers.push("veb.batch_insert_s", t_insert);
        layers.push("veb.range_s", t_range);
        layers.push("veb.batch_delete_s", t_delete);
        for (name, s) in [
            "offline.lis_k1e2_s",
            "offline.lis_k1e4_s",
            "offline.wlis_rangetree_s",
            "offline.wlis_rangeveb_s",
            "offline.veb_batch_s",
        ]
        .into_iter()
        .zip(secs)
        {
            layers.push(name, s);
        }
    }
    secs
}

/// `range` agrees with a `succ` walk over the same keys (checked once per
/// run: the walk is slow and the tree operations are deterministic).
fn check_succ_walk(inputs: &Inputs) {
    let mut tree = VebTree::from_sorted(VEB_UNIVERSE, &inputs.resident);
    tree.batch_insert(&inputs.batch);
    let (lo, hi) = inputs.range;
    let mut walk = Vec::new();
    let mut cur = if tree.contains(lo) { Some(lo) } else { tree.succ(lo) };
    while let Some(k) = cur.filter(|&k| k <= hi) {
        walk.push(k);
        cur = tree.succ(k);
    }
    assert!(walk == tree.range(lo, hi), "vEB range differs from a succ walk");
}

/// Reference runs of the traced pass: Ours on a 1-worker pool, Seq-BS and
/// Seq-AVL.
fn references(inputs: &Inputs, layers: &mut Layers) {
    let one = crate::pool(1);
    for (values, threads1, seq_bs) in [
        (&inputs.k1e2, "lis.k1e2.threads1_s", "baselines.k1e2.seq_bs_s"),
        (&inputs.k1e4, "lis.k1e4.threads1_s", "baselines.k1e4.seq_bs_s"),
    ] {
        layers.push(threads1, timed(|| one.install(|| lis_ranks_u64(values).1)).0);
        layers.push(seq_bs, timed(|| seq_bs_length(values)).0);
    }
    layers.push("baselines.seq_avl_s", timed(|| seq_avl(&inputs.wvals, &inputs.wweights)).0);
}

/// Run the workload for `--seconds` of passes.
pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.args.seed;
    let inputs = Inputs::generate(LIS_N, WLIS_N, VEB_KEYS, seed);
    let warm = Inputs::generate(WARM_N, WARM_N, WARM_N, seed ^ 0x5E7);
    check_succ_walk(&inputs);
    ctx.line(
        "inputs",
        vec![
            ("lis_n", LIS_N.into()),
            ("k1e2", inputs.k_ref[0].into()),
            ("k1e4", inputs.k_ref[1].into()),
            ("wlis_n", WLIS_N.into()),
            ("wlis_k", seq_bs_length(&inputs.wvals).into()),
            ("veb_resident", inputs.resident.len().into()),
            ("veb_batch", inputs.batch.len().into()),
            ("veb_range_keys", inputs.range_ref.len().into()),
        ],
    );

    let mut out = Outcome::default();
    // Set-up: build the pool and run one small warm-up pass on it.
    let mut pool = None;
    for _ in 0..SETUPS {
        let (s, p) = timed(|| {
            let p = ctx.pool();
            p.install(|| pass(&warm, None));
            p
        });
        out.setup_s.push(s);
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");

    let mut jobs: [Vec<f64>; 5] = Default::default();
    let started = Instant::now();
    while out.op_ns.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.args.seconds {
        let layers = ctx.traced.then_some(&mut out.layers);
        let secs = pool.install(|| pass(&inputs, layers));
        let total: f64 = secs.iter().sum();
        for (job, s) in jobs.iter_mut().zip(secs) {
            job.push(s);
        }
        out.op_ns.push((total * 1e9) as u64);
        out.work_s += total;
        out.elems += inputs.elems();
        out.rates.push(inputs.elems() as f64 / total);
        out.attempted += 1;
        if out.op_ns.len() % PASSES_PER_ROUND == 0 {
            out.end_round();
        }
    }
    if ctx.traced {
        references(&inputs, &mut out.layers);
        out.layers.push("rayon.join_ns", crate::join_probe_ns(&pool));
    }
    out.stages = ["lis_k1e2_s", "lis_k1e4_s", "wlis_rangetree_s", "wlis_rangeveb_s", "veb_batch_s"]
        .into_iter()
        .zip(&jobs)
        .map(|(name, v)| (name, crate::median(v).into()))
        .collect();
    out
}
