//! Traced benchmark run: per-layer metrics, with the counting allocator so
//! the engine layer can report allocations per element.

use plis_testalloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(plis_perfbench::main_with(true));
}
