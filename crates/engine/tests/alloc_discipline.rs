//! Steady-state allocation discipline: once a session is warm and
//! reserved, ingest performs **zero** heap allocations.
//!
//! The whole test binary runs under the counting global allocator
//! (`plis-testalloc`), which reports every allocation into
//! `plis_telemetry::allocmeter`.  Each case warms a session past its
//! growth phase, calls `reserve` for the measurement window, snapshots
//! the allocation tally, ingests the window, and asserts the tally did
//! not move — on both session kinds, at one thread and on a 2-thread pool
//! (ingest never forks, which is exactly why it can be allocation-free).
//! The engine-level case asserts that the tick envelope's `O(1)`
//! allocations per tick amortise away (`allocs_per_elem` floors to zero).
//!
//! The per-session cases read the calling thread's tally
//! ([`thread_alloc_tally`]): ingest never forks, and
//! `install` runs its closure on the caller, so every allocation of the
//! measured ingest lands on that thread, while allocations by the test
//! harness's own threads do not.  The engine-level case reads the
//! process-wide tally through `metrics_snapshot()`, so a case running next
//! to another one would count that case's allocations too: every case
//! holds [`SERIAL`] while it runs.

use plis_engine::{Engine, EngineConfig, SessionKind, StreamingLis, Tick, WeightedStreamingLis};
use plis_telemetry::thread_alloc_tally;
use plis_testalloc::CountingAlloc;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the cases of this file; see the module docs.
static SERIAL: Mutex<()> = Mutex::new(());

/// Hold [`SERIAL`] for the rest of the calling case.  A case that failed
/// while holding it poisons it; the guard is recovered, so that failure
/// does not fail the other cases.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const UNIVERSE: u64 = 1 << 16;
const BATCH: usize = 64;
const WARMUP: usize = 4_096;
const MEASURE: usize = 512;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn stream(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n).map(|_| xorshift(&mut state) % UNIVERSE).collect()
}

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

/// Warm an unweighted session, then assert the measurement window
/// allocates nothing.
fn drive_unweighted(label: &str) {
    let data = stream(WARMUP + MEASURE, 0x5EED_0001);
    let mut s = StreamingLis::new(UNIVERSE);
    for chunk in data[..WARMUP].chunks(BATCH) {
        s.ingest(chunk);
    }
    s.reserve(MEASURE);
    let lis_before = s.lis_length();
    let before = thread_alloc_tally();
    for chunk in data[WARMUP..].chunks(BATCH) {
        s.ingest(chunk);
    }
    let delta = thread_alloc_tally().since(before);
    assert_eq!(
        delta.allocs, 0,
        "{label}: {} allocations ({} bytes) in a warm steady-state window",
        delta.allocs, delta.bytes
    );
    // The window did real work, not a no-op.
    assert_eq!(s.len(), WARMUP + MEASURE);
    assert!(s.lis_length() >= lis_before);
    s.check_invariants();
}

/// Warm a weighted session, then assert the measurement window allocates
/// nothing.
fn drive_weighted(label: &str) {
    let values = stream(WARMUP + MEASURE, 0x5EED_0002);
    let pairs: Vec<(u64, u64)> = {
        let mut state = 0x5EED_0003u64;
        values.iter().map(|&v| (v, 1 + xorshift(&mut state) % 50)).collect()
    };
    let mut s = WeightedStreamingLis::new(UNIVERSE);
    for chunk in pairs[..WARMUP].chunks(BATCH) {
        s.ingest(chunk);
    }
    s.reserve(MEASURE);
    let before = thread_alloc_tally();
    for chunk in pairs[WARMUP..].chunks(BATCH) {
        s.ingest(chunk);
    }
    let delta = thread_alloc_tally().since(before);
    assert_eq!(
        delta.allocs, 0,
        "{label}: {} allocations ({} bytes) in a warm steady-state window",
        delta.allocs, delta.bytes
    );
    assert_eq!(s.len(), WARMUP + MEASURE);
    s.check_invariants();
}

#[test]
fn unweighted_steady_state_is_allocation_free() {
    let _serial = serial();
    drive_unweighted("unweighted");
}

#[test]
fn weighted_steady_state_is_allocation_free() {
    let _serial = serial();
    drive_weighted("weighted");
}

#[test]
fn steady_state_discipline_holds_at_one_thread_and_on_the_pool() {
    let _serial = serial();
    with_pool(1, || drive_unweighted("unweighted @ 1 thread"));
    with_pool(2, || drive_unweighted("unweighted @ pool"));
    with_pool(1, || drive_weighted("weighted @ 1 thread"));
    with_pool(2, || drive_weighted("weighted @ pool"));
}

/// Engine-level discipline: the tick envelope may allocate `O(1)` per
/// tick (result vectors, outcome assembly), but amortised over real
/// batches the telemetry floor `allocs_per_elem` must read zero — the
/// same figure the streaming bench records per cell.  The assertions
/// read `metrics_snapshot()`, which is documented all-zero when the
/// `telemetry` feature is off, so the test only exists on that feature.
#[cfg(feature = "telemetry")]
#[test]
fn engine_allocs_per_elem_floors_to_zero() {
    let _serial = serial();
    let config = EngineConfig { universe: UNIVERSE, shards: 2, ..EngineConfig::default() };
    let mut engine = Engine::new(config);
    let names = ["a", "b", "c", "d"];
    for name in names {
        engine.create_session_kind(name, SessionKind::Unweighted);
    }
    let data = stream(WARMUP, 0x5EED_0004);
    for chunk in data.chunks(BATCH) {
        let mut tick = Tick::new();
        for name in names {
            tick.push(name, plis_engine::Op::Append(chunk.to_vec()));
        }
        assert!(engine.execute(&tick).fully_applied());
    }
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.elems_ingested, (WARMUP * names.len()) as u64);
    assert!(snap.alloc_count > 0, "the counting allocator must be live");
    assert_eq!(
        snap.allocs_per_elem, 0,
        "tick envelope allocations must amortise away: {} allocs over {} elems",
        snap.alloc_count, snap.elems_ingested
    );
    assert_eq!(snap.arena_bytes, 0, "unweighted sessions keep no ingest scratch");
}
