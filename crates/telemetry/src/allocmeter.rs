//! Heap-allocation metering, process-wide and per thread.
//!
//! Two pairs of counters that a counting [`GlobalAlloc`] wrapper (the
//! workspace's `plis-testalloc` crate, or any `#[global_allocator]` that
//! calls [`record_alloc`]) feeds on every allocation:
//!
//! * a relaxed global pair, read by [`alloc_tally`].  The engine's
//!   telemetry snapshot reads it to report *allocations per ingested
//!   element*, the steady-state figure the streaming bench asserts is
//!   zero;
//! * a pair local to the allocating thread, read by
//!   [`thread_alloc_tally`].  A measurement that runs on one thread reads
//!   this one, so allocations made meanwhile by other threads of the
//!   process (a test harness, a pool's idle workers) do not land in it.
//!
//! Without a counting allocator installed the counters simply stay at
//! zero; reading them is always safe.  Everything here must itself be
//! allocation-free (it runs inside the allocator): the thread-local pair
//! is const-initialised `Cell<u64>`s, which have no destructor and need no
//! registration, so touching them never allocates.
//!
//! [`GlobalAlloc`]: std::alloc::GlobalAlloc

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Point-in-time reading of a pair of allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTally {
    /// Heap allocations observed (calls to `alloc`/`realloc` that
    /// returned memory; frees are not counted).
    pub allocs: u64,
    /// Total bytes those allocations requested.
    pub bytes: u64,
}

impl AllocTally {
    /// Counter deltas since an earlier tally (saturating, so a tally from
    /// another process or a fresh baseline never underflows).
    pub fn since(self, baseline: AllocTally) -> AllocTally {
        AllocTally {
            allocs: self.allocs.saturating_sub(baseline.allocs),
            bytes: self.bytes.saturating_sub(baseline.bytes),
        }
    }
}

/// Record one heap allocation of `bytes` bytes, in the process-wide and
/// the calling thread's tally.  Called from inside `GlobalAlloc`
/// implementations — must stay allocation-free (it is: two relaxed
/// `fetch_add`s and two thread-local `Cell` updates).
#[inline]
pub fn record_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // Wrapping like the atomics: an overflow check must not panic inside
    // the allocator.
    THREAD_ALLOCS.set(THREAD_ALLOCS.get().wrapping_add(1));
    THREAD_ALLOC_BYTES.set(THREAD_ALLOC_BYTES.get().wrapping_add(bytes as u64));
}

/// The current process-wide tally.  All-zero unless a counting allocator
/// is installed as the global allocator.
pub fn alloc_tally() -> AllocTally {
    AllocTally {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// The calling thread's tally: the allocations this thread made since it
/// started.  All-zero unless a counting allocator is installed as the
/// global allocator.
pub fn thread_alloc_tally() -> AllocTally {
    AllocTally { allocs: THREAD_ALLOCS.get(), bytes: THREAD_ALLOC_BYTES.get() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Held by both tests: the process-wide tally counts the allocation
    /// the second test records on its spawned thread.
    static TALLY: Mutex<()> = Mutex::new(());

    fn serialise() -> MutexGuard<'static, ()> {
        TALLY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn tally_moves_with_records_and_since_saturates() {
        let _tally = serialise();
        let before = alloc_tally();
        record_alloc(128);
        record_alloc(64);
        let after = alloc_tally();
        let delta = after.since(before);
        assert_eq!(delta.allocs, 2);
        assert_eq!(delta.bytes, 192);
        assert_eq!(before.since(after), AllocTally::default(), "saturates at zero");
    }

    #[test]
    fn thread_tally_counts_only_the_calling_thread() {
        let _tally = serialise();
        let before = thread_alloc_tally();
        record_alloc(16);
        std::thread::spawn(|| record_alloc(1 << 20)).join().unwrap();
        let delta = thread_alloc_tally().since(before);
        assert_eq!((delta.allocs, delta.bytes), (1, 16));
    }
}
