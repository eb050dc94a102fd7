//! End-to-end experiment orchestration for the paper's result tables.
//!
//! A table run measures, per workload:
//!
//! 1. the sequential baseline ("Seq Treap"): a mutable treap driven by
//!    one thread;
//! 2. the universal construction at each process count; the speedup
//!    column is `UC throughput / baseline throughput`.
//!
//! Prefilling exploits persistence: the 10⁶-key initial treap is built
//! **once** and cloned (O(1)) into a fresh concurrent set for every
//! trial, so trials start from identical state without re-inserting a
//! million keys each time.

use std::time::{Duration, Instant};

use pathcopy_concurrent::{ExternalBstSet, LockedTreapSet, TreapSet};
use pathcopy_core::BackoffPolicy;
use pathcopy_workloads::{BatchWorkload, OpStream, RandomWorkload};

use crate::measure::{run_concurrent, run_sequential};
use crate::sets::{prefill_ebst, prefill_mutable, prefill_treap, ConcurrentSet};
use crate::table::{PaperRow, PaperTable};

/// A constructor producing a fresh, prefilled backend for one trial —
/// the harness's registry entry. Boxing the backend behind the core
/// [`ConcurrentSet`] trait is what lets one `measure_rows` drive every
/// structure, instead of the per-backend copies this file used to carry.
pub type BackendCtor = Box<dyn Fn() -> Box<dyn ConcurrentSet<i64>> + Send + Sync>;

/// Which concurrent structure the UC columns use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// Path-copying treap under the lock-free UC (the paper's subject).
    Treap,
    /// Path-copying external BST under the lock-free UC (the model tree).
    ExternalBst,
    /// Treap under one global mutex (the intro's "simplest UC").
    MutexTreap,
}

impl StructureKind {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "treap" => Some(StructureKind::Treap),
            "ebst" | "external-bst" => Some(StructureKind::ExternalBst),
            "mutex" | "mutex-treap" => Some(StructureKind::MutexTreap),
            _ => None,
        }
    }

    /// Builds the trial constructor for this structure: the persistent
    /// prefill version is built **once** here and cloned (O(1)) into a
    /// fresh backend per call, so trials start from identical state
    /// without re-inserting the keys.
    pub fn constructor(self, prefill_keys: &[i64], backoff: BackoffPolicy) -> BackendCtor {
        match self {
            StructureKind::Treap => {
                let prefill = prefill_treap(prefill_keys);
                Box::new(move || {
                    let set = TreapSet::with_backoff(backoff);
                    set.reset_to(prefill.clone());
                    Box::new(set)
                })
            }
            StructureKind::ExternalBst => {
                let prefill = prefill_ebst(prefill_keys);
                Box::new(move || {
                    let set = ExternalBstSet::with_backoff(backoff);
                    set.reset_to(prefill.clone());
                    Box::new(set)
                })
            }
            StructureKind::MutexTreap => {
                let prefill = prefill_treap(prefill_keys);
                Box::new(move || Box::new(LockedTreapSet::from_version(prefill.clone())))
            }
        }
    }
}

/// Parameters of a full paper-table run.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Caption for the rendered table.
    pub title: String,
    /// UC process counts (the paper's per-machine columns).
    pub process_counts: Vec<usize>,
    /// Prefill size (the paper uses 10⁶).
    pub prefill_size: usize,
    /// Batch workload: keys per process block.
    pub keys_per_process: usize,
    /// Random workload: keys drawn from `[-key_range, key_range]`.
    pub key_range: i64,
    /// Measured duration of each trial.
    pub trial: Duration,
    /// Trials per data point (the paper averages 15).
    pub trials: usize,
    /// Unmeasured warmup trials before each data point.
    pub warmup_trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Structure under test.
    pub structure: StructureKind,
    /// Retry backoff (the paper uses none).
    pub backoff: BackoffPolicy,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            title: String::from("Path-copying UC vs sequential treap"),
            process_counts: vec![1, 2, 4],
            prefill_size: 1_000_000,
            keys_per_process: 100_000,
            key_range: 1_000_000,
            trial: Duration::from_millis(300),
            trials: 5,
            warmup_trials: 1,
            seed: 42,
            structure: StructureKind::Treap,
            backoff: BackoffPolicy::None,
        }
    }
}

/// The paper's per-machine process-count columns (§4 and Appendix B).
pub fn machine_profile(name: &str) -> Option<(&'static str, Vec<usize>)> {
    match name {
        "xeon5220" => Some(("Intel Xeon 5220 (18 cores) — paper §4", vec![1, 4, 10, 17])),
        "xeon8160" => Some((
            "Intel Xeon Platinum 8160 (24 cores) — paper Table 1",
            vec![1, 6, 12, 23],
        )),
        "epyc7662" => Some((
            "AMD EPYC 7662 (64 cores) — paper Table 2",
            vec![1, 8, 16, 32, 63],
        )),
        "local" => {
            let cores = std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(2);
            let mut ps = vec![1];
            if cores >= 2 {
                ps.push(2);
            }
            if cores > 2 {
                ps.push(cores);
            }
            ps.push(2 * cores); // one oversubscribed point, flagged in docs
            Some(("Local machine (last column oversubscribed)", ps))
        }
        _ => None,
    }
}

/// Measures one workload: sequential baseline plus UC speedups. One
/// generic body for every backend — the structure arrives as a
/// [`BackendCtor`] from [`StructureKind::constructor`].
fn measure_rows<St, MkStreams>(
    workload_name: &str,
    cfg: &TableConfig,
    seq_throughput: f64,
    make_set: &BackendCtor,
    make_streams: MkStreams,
) -> PaperRow
where
    St: OpStream,
    MkStreams: Fn(usize, usize) -> Vec<St>, // (processes, trial index)
{
    let mut speedups = Vec::with_capacity(cfg.process_counts.len());
    for &p in &cfg.process_counts {
        let stats = crate::measure::trials_with_warmup(cfg.warmup_trials, cfg.trials, |trial| {
            let set = make_set();
            let streams = make_streams(p, trial);
            let started = Instant::now();
            let ops = run_concurrent(set.as_ref(), streams, cfg.trial);
            (ops, started.elapsed())
        });
        speedups.push((p, stats.mean / seq_throughput));
        eprintln!(
            "  [{workload_name}] p={p}: {:.0} ops/s (±{:.1}%), speedup {:.2}x",
            stats.mean,
            100.0 * stats.rel_std_dev(),
            stats.mean / seq_throughput
        );
    }
    PaperRow {
        workload: workload_name.to_string(),
        seq_ops_per_sec: seq_throughput,
        speedups,
    }
}

/// Runs the Batch row (§4.1).
pub fn run_batch_row(cfg: &TableConfig) -> PaperRow {
    let max_p = cfg.process_counts.iter().copied().max().unwrap_or(1);
    let workload = BatchWorkload::generate(max_p, cfg.prefill_size, cfg.keys_per_process, cfg.seed);

    // Sequential baseline: the mutable treap on one thread, running the
    // first process's batch stream.
    let mut seq_set = prefill_mutable(&workload.prefill);
    let seq_stats = crate::measure::trials_with_warmup(cfg.warmup_trials, cfg.trials, |_| {
        let mut stream = workload.streams().remove(0);
        let started = Instant::now();
        let ops = run_sequential(&mut seq_set, &mut stream, cfg.trial);
        (ops, started.elapsed())
    });
    eprintln!(
        "  [Batch] seq baseline: {:.0} ops/s (±{:.1}%)",
        seq_stats.mean,
        100.0 * seq_stats.rel_std_dev()
    );

    let streams_for = |p: usize, _trial: usize| {
        let mut s = workload.streams();
        s.truncate(p);
        s
    };

    let make_set = cfg.structure.constructor(&workload.prefill, cfg.backoff);
    measure_rows("Batch", cfg, seq_stats.mean, &make_set, streams_for)
}

/// Runs the Random row (§4.2).
pub fn run_random_row(cfg: &TableConfig) -> PaperRow {
    let max_p = cfg.process_counts.iter().copied().max().unwrap_or(1);
    let workload = RandomWorkload::generate(max_p, cfg.prefill_size, cfg.key_range, cfg.seed ^ 1);

    let mut seq_set = prefill_mutable(&workload.prefill);
    let seq_stats = crate::measure::trials_with_warmup(cfg.warmup_trials, cfg.trials, |trial| {
        let mut stream = pathcopy_workloads::RandomStream::new(
            cfg.key_range,
            cfg.seed ^ (0xbeef + trial as u64),
        );
        let started = Instant::now();
        let ops = run_sequential(&mut seq_set, &mut stream, cfg.trial);
        (ops, started.elapsed())
    });
    eprintln!(
        "  [Random] seq baseline: {:.0} ops/s (±{:.1}%)",
        seq_stats.mean,
        100.0 * seq_stats.rel_std_dev()
    );

    let streams_for = |p: usize, trial: usize| {
        (0..p)
            .map(|i| {
                pathcopy_workloads::RandomStream::new(
                    cfg.key_range,
                    cfg.seed ^ (0x1234_5678 + (trial * 1000 + i) as u64),
                )
            })
            .collect::<Vec<_>>()
    };

    let make_set = cfg.structure.constructor(&workload.prefill, cfg.backoff);
    measure_rows("Random", cfg, seq_stats.mean, &make_set, streams_for)
}

/// Runs the full two-row table (Batch + Random) for one machine profile.
pub fn run_paper_table(cfg: &TableConfig) -> PaperTable {
    eprintln!("== {} ==", cfg.title);
    let batch = run_batch_row(cfg);
    let random = run_random_row(cfg);
    PaperTable {
        title: cfg.title.clone(),
        rows: vec![batch, random],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TableConfig {
        TableConfig {
            title: "test".into(),
            process_counts: vec![1, 2],
            prefill_size: 2_000,
            keys_per_process: 500,
            key_range: 2_000,
            trial: Duration::from_millis(25),
            trials: 2,
            warmup_trials: 0,
            seed: 7,
            structure: StructureKind::Treap,
            backoff: BackoffPolicy::None,
        }
    }

    #[test]
    fn machine_profiles_match_paper_columns() {
        assert_eq!(machine_profile("xeon5220").unwrap().1, vec![1, 4, 10, 17]);
        assert_eq!(machine_profile("xeon8160").unwrap().1, vec![1, 6, 12, 23]);
        assert_eq!(
            machine_profile("epyc7662").unwrap().1,
            vec![1, 8, 16, 32, 63]
        );
        assert!(machine_profile("local").is_some());
        assert!(machine_profile("nonsense").is_none());
    }

    #[test]
    fn structure_kind_parsing() {
        assert_eq!(StructureKind::parse("treap"), Some(StructureKind::Treap));
        assert_eq!(
            StructureKind::parse("ebst"),
            Some(StructureKind::ExternalBst)
        );
        assert_eq!(StructureKind::parse("bogus"), None);
    }

    #[test]
    fn batch_row_produces_speedups() {
        let row = run_batch_row(&tiny());
        assert_eq!(row.workload, "Batch");
        assert!(row.seq_ops_per_sec > 0.0);
        assert_eq!(row.speedups.len(), 2);
        for &(_, s) in &row.speedups {
            assert!(s > 0.0);
        }
    }

    #[test]
    fn random_row_produces_speedups() {
        let row = run_random_row(&tiny());
        assert_eq!(row.workload, "Random");
        assert!(row.seq_ops_per_sec > 0.0);
        assert!(row.speedups.iter().all(|&(_, s)| s > 0.0));
    }

    #[test]
    fn full_table_runs_on_alternate_structures() {
        for structure in [StructureKind::MutexTreap, StructureKind::ExternalBst] {
            let cfg = TableConfig {
                structure,
                process_counts: vec![1],
                trials: 1,
                ..tiny()
            };
            let table = run_paper_table(&cfg);
            assert_eq!(table.rows.len(), 2);
        }
    }
}
