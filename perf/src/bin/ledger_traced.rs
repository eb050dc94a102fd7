//! The traced-pass binary: the same ledger with a counting allocator
//! installed, so `trees.allocs_per_update` and
//! `trees.alloc_bytes_per_update` are exact. The untraced pass runs in
//! `ledger`, on the plain system allocator.

use std::process::ExitCode;

#[global_allocator]
static ALLOC: pathcopy_perf::alloc::CountingAlloc = pathcopy_perf::alloc::CountingAlloc;

fn main() -> ExitCode {
    pathcopy_perf::cli::main(true)
}
