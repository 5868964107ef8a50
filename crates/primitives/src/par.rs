//! Granularity-controlled fork-join helpers.
//!
//! Every parallel loop in this workspace forks through this module, and
//! this module forks only through [`rayon::join`], the one parallel
//! construct of the binary-forking model the paper assumes.  All parallel
//! algorithms switch to a sequential implementation below [`GRAIN`]
//! elements.  This mirrors the block size used by ParlayLib in the paper's
//! C++ implementation and keeps the constant factors of the
//! work-efficient algorithms low — work-efficiency is the paper's central
//! practical argument, so we never fork for tiny subproblems.

use rayon::join;
use std::mem::MaybeUninit;

/// Default granularity (sequential cutoff) for the divide-and-conquer
/// primitives in this crate.  Chosen to amortize the cost of a rayon task
/// spawn over a few microseconds of useful work; a fork on the work-stealing
/// pool is such a task push, so the reasoning still holds.
pub const GRAIN: usize = 2048;

/// Smallest piece, in elements, that the element loops fork for.  Sized
/// when the vendored rayon's `join` spawned a scoped thread per fork and
/// pieces had to amortize that spawn.  A fork is now a task push on a
/// persistent pool, so a finer floor may pay; the value is kept until a
/// measured retune.
pub const MIN_ADAPTIVE_GRAIN: usize = 512;

/// Piece size for a parallel loop over `n` items: aim for four pieces per
/// worker thread (to absorb imbalance) but never below `floor` items.
/// Element loops pass [`MIN_ADAPTIVE_GRAIN`]; loops whose items are
/// already coarse blocks pass a smaller floor.  Returns `usize::MAX`
/// (never fork) when the current rayon pool has a single thread, so
/// `num_threads(1)` keeps every helper in this module exactly sequential.
pub fn adaptive_grain(n: usize, floor: usize) -> usize {
    let threads = rayon::current_num_threads();
    if threads <= 1 {
        return usize::MAX;
    }
    n.div_ceil(threads * 4).max(floor)
}

/// Run `left` and `right` in parallel if `size` is at least `grain`,
/// otherwise run them sequentially (left first).
///
/// This is the single point where the crate decides between forking and
/// staying sequential, so the fork threshold is consistent everywhere.
#[inline]
pub fn maybe_join<A, B, RA, RB>(size: usize, grain: usize, left: A, right: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if size >= grain {
        join(left, right)
    } else {
        (left(), right())
    }
}

/// Parallel for over `0..n` applying `f(i)`; the closure only receives the
/// index, so it must capture any slices it needs.  Uses recursive halving with
/// the default [`GRAIN`] so the span is `O(log n)` plus the span of `f`.
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    fn go<F: Fn(usize) + Sync>(lo: usize, hi: usize, f: &F) {
        let len = hi - lo;
        if len <= GRAIN {
            for i in lo..hi {
                f(i);
            }
        } else {
            let mid = lo + len / 2;
            join(|| go(lo, mid, f), || go(mid, hi, f));
        }
    }
    if n > 0 {
        go(0, n, &f);
    }
}

/// Apply `f(chunk_index, chunk)` to disjoint mutable chunks of `data` of size
/// `chunk_size`, in parallel.  The last chunk may be shorter.  A chunk is
/// already a coarse block, so a piece may be a single chunk
/// ([`adaptive_grain`] with a floor of 1).
pub fn par_chunks_mut_for<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    fn go<T: Send, F: Fn(usize, &mut [T]) + Sync>(
        first: usize,
        data: &mut [T],
        size: usize,
        grain: usize,
        f: &F,
    ) {
        let chunks = data.len().div_ceil(size);
        if chunks <= grain {
            for (i, chunk) in data.chunks_mut(size).enumerate() {
                f(first + i, chunk);
            }
            return;
        }
        let half = chunks / 2;
        let (lo, hi) = data.split_at_mut(half * size);
        join(|| go(first, lo, size, grain, f), || go(first + half, hi, size, grain, f));
    }
    assert!(chunk_size > 0, "chunk_size must be positive");
    go(0, data, chunk_size, adaptive_grain(data.len().div_ceil(chunk_size), 1), &f);
}

/// `items.iter_mut().map(f).collect()`, in parallel with every item its
/// own piece: for a few items of heavy, uneven work, such as the engine's
/// shards, which an element-count grain would not split at all.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    fn go<T: Send, R: Send, F: Fn(&mut T) -> R + Sync>(items: &mut [T], f: &F) -> Vec<R> {
        if items.len() <= 1 {
            return items.iter_mut().map(f).collect();
        }
        let (lo, hi) = items.split_at_mut(items.len() / 2);
        let (mut left, right) = join(|| go(lo, f), || go(hi, f));
        left.extend(right);
        left
    }
    go(items, &f)
}

/// Apply `f(offset, chunk)` to disjoint chunks of `data` of an
/// [`adaptive_grain`]-chosen size, in parallel.  `offset` is the index of
/// the chunk's first element within `data`, so callers can address sibling
/// arrays.  Never calls `f` on an empty chunk.
pub fn par_for_each_chunk<T, F>(data: &[T], f: F)
where
    T: Sync,
    F: Fn(usize, &[T]) + Sync,
{
    fn go<T: Sync, F: Fn(usize, &[T]) + Sync>(offset: usize, s: &[T], grain: usize, f: &F) {
        if s.is_empty() {
            return;
        }
        if s.len() <= grain {
            f(offset, s);
            return;
        }
        let mid = s.len() / 2;
        let (lo, hi) = s.split_at(mid);
        join(|| go(offset, lo, grain, f), || go(offset + mid, hi, grain, f));
    }
    go(0, data, adaptive_grain(data.len(), MIN_ADAPTIVE_GRAIN), &f);
}

/// `Vec` of `f(0), f(1), …, f(n-1)`, computed in parallel with an adaptive
/// grain.  This is the order-preserving "parallel map" that the WLIS
/// frontier queries and the workload generators go through: equivalent to
/// `(0..n).map(f).collect()` for any thread count.
///
/// If `f` panics, the panic propagates; already-computed elements are leaked
/// (not dropped) in that case, which is safe but not tidy — acceptable for
/// the algorithmic payloads used here.
pub fn par_map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_collect_with_grain(n, adaptive_grain(n, MIN_ADAPTIVE_GRAIN), f)
}

/// [`par_map_collect`] with an explicit grain (indices per sequential
/// piece).  Use `grain = 1` when every index already stands for a coarse
/// block of work (e.g. one chunk of a larger array).
pub fn par_map_collect_with_grain<R, F>(n: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fn fill<R: Send, F: Fn(usize) -> R + Sync>(
        lo: usize,
        slots: &mut [MaybeUninit<R>],
        grain: usize,
        f: &F,
    ) {
        if slots.len() <= grain {
            for (k, slot) in slots.iter_mut().enumerate() {
                slot.write(f(lo + k));
            }
            return;
        }
        let mid = slots.len() / 2;
        let (a, b) = slots.split_at_mut(mid);
        join(|| fill(lo, a, grain, f), || fill(lo + mid, b, grain, f));
    }
    let mut out: Vec<R> = Vec::with_capacity(n);
    if n == 0 {
        return out;
    }
    let grain = grain.max(1);
    fill(0, &mut out.spare_capacity_mut()[..n], grain, &f);
    // SAFETY: `fill` wrote every one of the first `n` slots exactly once
    // (the recursion partitions `0..n` into disjoint, covering pieces).
    unsafe { out.set_len(n) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn maybe_join_runs_both_sides_sequentially() {
        let (a, b) = maybe_join(1, GRAIN, || 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn maybe_join_runs_both_sides_in_parallel() {
        let (a, b) = maybe_join(GRAIN * 4, GRAIN, || 21 * 2, || "x".repeat(3));
        assert_eq!(a, 42);
        assert_eq!(b, "xxx");
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 100_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_is_noop() {
        parallel_for(0, |_| panic!("must not be called"));
    }

    #[test]
    fn par_chunks_mut_for_labels_disjoint_chunks_in_order_on_any_pool() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;
        use std::time::{Duration, Instant};
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let caller = std::thread::current().id();
            let stolen = AtomicBool::new(false);
            let workers = Mutex::new(HashSet::new());
            let mut v = vec![usize::MAX; 100_000];
            pool.install(|| {
                par_chunks_mut_for(&mut v, 777, |ci, chunk| {
                    let me = std::thread::current().id();
                    workers.lock().unwrap().insert(me);
                    stolen.fetch_or(me != caller, Ordering::Relaxed);
                    // The caller always runs chunk 0 (the leftmost piece).
                    // Holding it until another thread has run a chunk makes
                    // a split visible without depending on wake-up timing;
                    // a loop that never split gives up after the deadline.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while ci == 0 && threads > 1 && !stolen.load(Ordering::Relaxed) {
                        if Instant::now() > deadline {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    for x in chunk.iter_mut() {
                        assert_eq!(*x, usize::MAX, "chunks must be disjoint");
                        *x = ci;
                    }
                })
            });
            (v, workers.into_inner().unwrap().len())
        };
        let (seq, _) = run(1);
        assert!(seq.iter().enumerate().all(|(i, &x)| x == i / 777), "chunks labelled in order");
        let (par, workers) = run(4);
        assert_eq!(par, seq, "the output must not depend on the pool");
        assert!(workers > 1, "par_chunks_mut_for must engage >1 thread under a 4-thread pool");
    }

    #[test]
    fn par_map_mut_maps_every_item_in_order() {
        let mut items: Vec<u64> = (0..37).collect();
        let doubled = par_map_mut(&mut items, |x| {
            *x += 1;
            *x * 2
        });
        assert_eq!(items, (1..38).collect::<Vec<u64>>());
        assert_eq!(doubled, (1..38).map(|x| x * 2).collect::<Vec<u64>>());
        assert!(par_map_mut(&mut [] as &mut [u8], |_| 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn par_chunks_mut_rejects_zero_chunk() {
        let mut v = vec![0u8; 4];
        par_chunks_mut_for(&mut v, 0, |_, _| {});
    }

    #[test]
    fn par_map_collect_matches_sequential_map() {
        let n = 100_000usize;
        let got = par_map_collect(n, |i| (i as u64) * 3 + 1);
        let want: Vec<u64> = (0..n).map(|i| (i as u64) * 3 + 1).collect();
        assert_eq!(got, want);
        assert!(par_map_collect(0, |_| 0u8).is_empty());
        // Non-Copy payloads work too.
        let strings = par_map_collect(2_000, |i| format!("x{i}"));
        assert_eq!(strings[1999], "x1999");
    }

    #[test]
    fn par_map_collect_splits_across_threads_when_possible() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut best = 1usize;
        for _attempt in 0..20 {
            let seen = Mutex::new(HashSet::new());
            let out = pool.install(|| {
                par_map_collect(50_000, |i| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    i as u64
                })
            });
            assert_eq!(out.len(), 50_000);
            assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64));
            best = best.max(seen.lock().unwrap().len());
            if best > 1 {
                break;
            }
        }
        assert!(best > 1, "par_map_collect must engage >1 thread under a 4-thread pool");
    }

    #[test]
    fn par_for_each_chunk_covers_disjointly_in_offset_order() {
        let n = 75_000usize;
        let data: Vec<u64> = (0..n as u64).collect();
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_each_chunk(&data, |offset, chunk| {
            for (k, &v) in chunk.iter().enumerate() {
                assert_eq!(v, (offset + k) as u64, "offset must address the parent slice");
                hits[offset + k].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        par_for_each_chunk::<u64, _>(&[], |_, _| panic!("must not run on empty input"));
    }

    #[test]
    fn adaptive_grain_is_sequential_on_one_thread() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.install(|| adaptive_grain(1 << 20, 1)), usize::MAX);
        let pool4 = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool4.install(|| adaptive_grain(1 << 20, MIN_ADAPTIVE_GRAIN)), 1 << 16);
        assert_eq!(pool4.install(|| adaptive_grain(1_000, MIN_ADAPTIVE_GRAIN)), MIN_ADAPTIVE_GRAIN);
        assert_eq!(pool4.install(|| adaptive_grain(20, 1)), 2);
    }
}
