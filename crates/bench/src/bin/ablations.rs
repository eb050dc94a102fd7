//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! ```text
//! ablations [--which noop-skip|backoff|structures|locks|alloc-rate|all]
//!           [--millis 250] [--trials 3] [--prefill 200000] [--threads 2]
//!           [--seed 42]
//! ```
//!
//! * `noop-skip`  — Random workload with and without the "skip the CAS
//!   when the operation changes nothing" optimization (§4.2's reason the
//!   Random workload scales better).
//! * `backoff`    — Batch workload under different retry backoff
//!   policies (the paper retries immediately).
//! * `structures` — the same UC over treap vs external BST.
//! * `locks`      — lock-free UC vs the global-mutex baseline.
//! * `alloc-rate` — pool nodes and global allocations per operation,
//!   successful and failed attempts included (the Appendix-B
//!   allocator-pressure story).

use std::num::NonZeroU32;
use std::time::Duration;

use pathcopy_bench::alloc_counter;
use pathcopy_bench::cli::Args;
use pathcopy_bench::harness::{run_paper_table, StructureKind, TableConfig};
use pathcopy_bench::measure::run_concurrent;
use pathcopy_bench::sets::{prefill_treap, ConcurrentSet};
use pathcopy_concurrent::TreapMap;
use pathcopy_core::{pool, BackoffPolicy, PathCopyUc, Update};
use pathcopy_workloads::{BatchWorkload, RandomWorkload};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn main() {
    let args = Args::from_env();
    let which = args.get("which").unwrap_or("all").to_string();
    let millis: u64 = args.get_or("millis", 250);
    let trials: usize = args.get_or("trials", 3);
    let prefill: usize = args.get_or("prefill", 200_000);
    let threads: usize = args.get_or("threads", 2);
    let seed: u64 = args.get_or("seed", 42);
    let all = which == "all";

    let base = TableConfig {
        title: String::new(),
        process_counts: vec![1, threads],
        prefill_size: prefill,
        keys_per_process: 50_000,
        key_range: prefill as i64,
        trial: Duration::from_millis(millis),
        trials,
        warmup_trials: 1,
        seed,
        structure: StructureKind::Treap,
        backoff: BackoffPolicy::None,
    };

    if all || which == "noop-skip" {
        ablate_noop_skip(&base, threads);
    }
    if all || which == "backoff" {
        ablate_backoff(&base);
    }
    if all || which == "structures" {
        ablate_structures(&base);
    }
    if all || which == "locks" {
        ablate_locks(&base);
    }
    if all || which == "alloc-rate" {
        ablate_alloc_rate(&base, threads);
    }
}

/// §4.2: the Random workload's no-op updates (insert of a present key,
/// remove of an absent one) complete without a CAS. Compare against a
/// variant that CASes an identical version anyway.
fn ablate_noop_skip(cfg: &TableConfig, threads: usize) {
    println!("== ablation: no-op CAS skip (Random workload, {threads} threads) ==");
    let workload = RandomWorkload::generate(threads, cfg.prefill_size, cfg.key_range, cfg.seed);
    let prefill = prefill_treap(&workload.prefill);

    // Skipping variant: the shipped set, `TreapMap<i64, ()>`.
    let skipping = pathcopy_bench::measure::trials(cfg.trials, |_| {
        let set = TreapMap::from_version(prefill.clone());
        let started = std::time::Instant::now();
        let ops = run_concurrent(&set, workload.streams(), cfg.trial);
        (ops, started.elapsed())
    });

    // Always-CAS variant: wraps the raw UC and re-installs the unchanged
    // version on no-ops (what a naive UC port would do).
    struct AlwaysCasSet {
        uc: PathCopyUc<pathcopy_trees::TreapMap<i64, ()>>,
    }
    impl ConcurrentSet<i64> for AlwaysCasSet {
        fn insert(&self, key: i64) -> bool {
            self.uc.update(|s| match s.upsert(key, ()).0 {
                Some(next) => Update::Replace(next, true),
                None => Update::Replace(s.clone(), false), // pointless CAS
            })
        }
        fn remove(&self, key: &i64) -> bool {
            self.uc.update(|s| match s.remove(key) {
                Some((next, ())) => Update::Replace(next, true),
                None => Update::Replace(s.clone(), false),
            })
        }
        fn contains(&self, key: &i64) -> bool {
            self.uc.read(|s| s.contains_key(key))
        }
        fn len(&self) -> usize {
            self.uc.read(|s| s.len())
        }
    }
    let always = pathcopy_bench::measure::trials(cfg.trials, |_| {
        let set = AlwaysCasSet {
            uc: PathCopyUc::new(prefill.clone()),
        };
        let started = std::time::Instant::now();
        let ops = run_concurrent(&set, workload.streams(), cfg.trial);
        (ops, started.elapsed())
    });

    println!(
        "  skip no-op CAS : {:>12.0} ops/s (±{:.1}%)",
        skipping.mean,
        100.0 * skipping.rel_std_dev()
    );
    println!(
        "  always CAS     : {:>12.0} ops/s (±{:.1}%)",
        always.mean,
        100.0 * always.rel_std_dev()
    );
    println!(
        "  skip/always    : {:>12.2}x\n",
        skipping.mean / always.mean
    );
}

/// Retry backoff: the paper retries immediately; spinning trades failed
/// CASes for idle time.
fn ablate_backoff(cfg: &TableConfig) {
    println!("== ablation: retry backoff (Batch workload) ==");
    let policies: [(&str, BackoffPolicy); 4] = [
        ("none (paper)", BackoffPolicy::None),
        ("exponential", BackoffPolicy::exponential()),
        (
            "fixed 64 spins",
            BackoffPolicy::FixedSpin {
                spins: NonZeroU32::new(64).unwrap(),
            },
        ),
        ("yield", BackoffPolicy::Yield),
    ];
    for (label, backoff) in policies {
        let cfg = TableConfig {
            backoff,
            title: String::new(),
            ..cfg.clone()
        };
        let row = pathcopy_bench::harness::run_batch_row(&cfg);
        let cols: Vec<String> = row
            .speedups
            .iter()
            .map(|(p, s)| format!("{p}p={s:.2}x"))
            .collect();
        println!("  {label:<15}: {}", cols.join("  "));
    }
    println!();
}

/// The same UC over different persistent structures.
fn ablate_structures(cfg: &TableConfig) {
    println!("== ablation: structure under the UC ==");
    for (label, structure) in [
        ("treap", StructureKind::Treap),
        ("external BST", StructureKind::ExternalBst),
    ] {
        let cfg = TableConfig {
            structure,
            title: format!("UC over {label}"),
            ..cfg.clone()
        };
        let table = run_paper_table(&cfg);
        print!("{}", table.render());
    }
    println!();
}

/// Lock-free UC vs the intro's global-lock UC.
fn ablate_locks(cfg: &TableConfig) {
    println!("== ablation: synchronization strategy ==");
    for (label, structure) in [
        ("CAS (lock-free)", StructureKind::Treap),
        ("global mutex", StructureKind::MutexTreap),
    ] {
        let cfg = TableConfig {
            structure,
            title: format!("UC via {label}"),
            ..cfg.clone()
        };
        let table = run_paper_table(&cfg);
        print!("{}", table.render());
    }
    println!();
}

/// Allocations per operation under contention: every failed attempt
/// allocates a full path copy that becomes garbage — the paper's
/// suggested Appendix-B bottleneck. Treap nodes come from
/// `pathcopy_core::pool`, not the global allocator, so Appendix B's
/// quantity is the pool's nodes per op; the global count beside it is
/// what is left (the version `Arc` and the deferred drop).
fn ablate_alloc_rate(cfg: &TableConfig, threads: usize) {
    println!("== ablation: allocation pressure (Batch workload) ==");
    let workload =
        BatchWorkload::generate(threads, cfg.prefill_size, cfg.keys_per_process, cfg.seed);
    let prefill = prefill_treap(&workload.prefill);

    for p in [1, threads] {
        let set = TreapMap::from_version(prefill.clone());
        let mut streams = workload.streams();
        streams.truncate(p);
        alloc_counter::reset();
        let nodes_before = pool::stats().blocks_handed_out;
        let ops = run_concurrent(&set, streams, cfg.trial);
        let allocs = alloc_counter::allocations();
        let nodes = pool::stats().blocks_handed_out - nodes_before;
        let stats = set.stats().snapshot();
        println!(
            "  p={p}: {ops} ops, {nodes} nodes from the pool ({:.1} nodes/op), \
             {allocs} global allocations ({:.1} allocs/op), \
             {:.2} attempts/op, {:.1}% first-try",
            nodes as f64 / ops.max(1) as f64,
            allocs as f64 / ops.max(1) as f64,
            stats.mean_attempts(),
            100.0 * stats.first_try_rate()
        );
    }
    println!();
}
