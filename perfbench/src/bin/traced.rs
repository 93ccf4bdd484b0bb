//! Traced benchmark binary: per-layer metrics (`--trace 1`). The only
//! binary that counts allocations.

#[global_allocator]
static ALLOCATOR: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
