//! Untraced benchmark run: end-to-end metrics, system allocator.

fn main() {
    std::process::exit(plis_perfbench::main_with(false));
}
