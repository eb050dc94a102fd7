//! What every workload's phase takes and returns.
//!
//! A *phase* is one set-up → warm-up → measured windows → checks run of
//! one workload in one configuration (spans on or off). The untraced
//! pass is one phase; the traced pass is a short untraced reference
//! phase followed by a traced phase, so tracing overhead is the
//! difference between two phases of the same process.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use pathcopy_core::StatsSnapshot;

use crate::meter::Window;
use crate::ops::{EngineSize, GenCost};

/// How one phase runs.
#[derive(Debug, Clone)]
pub struct PhaseCfg {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Load threads (and at most that many connections).
    pub threads: usize,
    /// Record bench-side spans and turn on the shipped metrics/tracing.
    pub traced: bool,
    /// Load runs this long before the first window.
    pub warmup: Duration,
    /// Measured windows.
    pub windows: usize,
    /// Length of one window.
    pub window: Duration,
    /// Size of the engine workloads' structures.
    pub engine: EngineSize,
    /// Scratch directory inside the checkout (`perf/out`), for the
    /// durable log and its crash copy.
    pub out_dir: PathBuf,
}

/// One correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A verdict from a condition and the values it compared.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Check { name, ok, detail }
    }
}

/// What one phase measured.
pub struct PhaseOut {
    /// The measured windows, in time order.
    pub windows: Vec<Window>,
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// The correctness gates run after the load stopped.
    pub checks: Vec<Check>,
    /// Layer metrics read as counter deltas over the measured windows,
    /// by ledger name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Cost of generating this phase's inputs.
    pub gen: GenCost,
}

/// Runs `f`, turning a panic (a violated tree invariant) into a failed
/// check instead of tearing the process down before results are
/// written.
pub fn check_no_panic(name: &'static str, f: impl FnOnce() -> String) -> Check {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(detail) => Check::new(name, true, detail),
        Err(panic) => {
            let detail = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "panicked".to_owned());
            Check::new(name, false, detail)
        }
    }
}

/// `core.attempts_per_op`, `core.cas_fail_frac` and `core.noop_frac`
/// from the engine's counters at both ends of the measured interval.
pub fn uc_counters(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let ops = after.ops - before.ops;
    let attempts = after.attempts - before.attempts;
    out.insert("core.attempts_per_op", ratio(attempts, ops));
    out.insert(
        "core.cas_fail_frac",
        ratio(after.cas_failures - before.cas_failures, attempts),
    );
    out.insert(
        "core.noop_frac",
        ratio(after.noop_updates - before.noop_updates, ops),
    );
}

/// The gate every workload ends with: the structure holds exactly the
/// prefilled keys plus the successful inserts minus the successful
/// removes.
pub fn length_check(len: usize, prefill: usize, inserted: u64, removed: u64) -> Check {
    let expected = prefill as u64 + inserted - removed;
    Check::new(
        "len == prefill + inserts - removes",
        len as u64 == expected,
        format!("len {len}, prefill {prefill} + {inserted} - {removed} = {expected}"),
    )
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_gate_is_a_failed_check() {
        let ok = check_no_panic("fine", || "3 nodes".to_owned());
        assert!(ok.ok && ok.detail == "3 nodes");
        let bad = check_no_panic("broken", || panic!("heap order violated"));
        assert!(!bad.ok);
        assert!(bad.detail.contains("heap order violated"));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(3, 4), 0.75);
    }
}
