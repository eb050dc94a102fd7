//! The untraced-pass binary (plain system allocator), plus `merge`,
//! `compare` and `dict`. The traced pass runs in `ledger_traced`.

use std::process::ExitCode;

fn main() -> ExitCode {
    pathcopy_perf::cli::main(false)
}
