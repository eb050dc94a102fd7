//! What the ledger reads from the host: core count, kernel, and this
//! process's CPU time and peak memory (from `/proc`, no `libc` crate).

use std::fs;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load threads (and connections) every workload drives with:
/// `min(nproc, 2)`, so the generator never outnumbers the cores and a
/// result from a bigger host stays comparable.
pub fn load_threads() -> usize {
    nproc().min(2)
}

/// The running kernel's release string.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// `rustc -V` of the toolchain that built this binary, as exported by
/// `run.sh` (the binary cannot ask the compiler itself).
pub fn rustc() -> String {
    std::env::var("PERF_RUSTC").unwrap_or_else(|_| "unknown".to_owned())
}

/// Peak resident set size (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time this process (all threads) has consumed, in
/// microseconds. `/proc/self/stat` counts in `USER_HZ` ticks, which is
/// 100 on every Linux ABI, so the resolution is 10 ms — fine against a
/// window that burns seconds of CPU.
pub fn cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces and parentheses;
    // the numeric fields start after the last ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(nproc() >= 1);
        assert!((1..=2).contains(&load_threads()));
        assert!(peak_rss_mb() > 0.0);
        // Burn a little CPU so the tick counter is certainly non-zero.
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_us() > 0);
        assert_ne!(kernel(), "");
    }
}
