//! Regenerates the paper's result tables (§4 main table, Appendix-B
//! Tables 1 and 2): Batch and Random workloads, sequential-treap baseline,
//! UC speedups at the paper's process counts.
//!
//! ```text
//! paper_tables [--machine xeon5220|xeon8160|epyc7662|local|all]
//!              [--millis 300] [--trials 5] [--prefill 1000000]
//!              [--keys-per-process 100000] [--structure treap|ebst|mutex]
//!              [--seed 42] [--csv]
//! ```
//!
//! Hardware note: the paper ran on 18-, 24- and 64-core machines. On a
//! smaller host the higher process counts are oversubscribed (more worker
//! threads than hardware threads); the private-cache effect the paper
//! isolates needs real cores, so treat oversubscribed columns as
//! correctness/stress data and see `model_figures` for the scaling shape
//! at the paper's process counts.
//!
//! The tables report throughput only, timed under the system allocator.
//! Appendix B's allocation pressure per operation (pool nodes and global
//! allocations, the prefill build not counted) comes from
//! `ablations --which alloc-rate`.

use std::time::Duration;

use pathcopy_bench::cli::Args;
use pathcopy_bench::harness::{machine_profile, run_paper_table, StructureKind, TableConfig};

fn main() {
    let args = Args::from_env();
    let machine = args.get("machine").unwrap_or("local").to_string();
    let millis: u64 = args.get_or("millis", 300);
    let trials: usize = args.get_or("trials", 5);
    let prefill: usize = args.get_or("prefill", 1_000_000);
    let keys_per_process: usize = args.get_or("keys-per-process", 100_000);
    let seed: u64 = args.get_or("seed", 42);
    let csv = args.has_flag("csv");
    let structure = StructureKind::parse(args.get("structure").unwrap_or("treap"))
        .expect("--structure must be treap|ebst|mutex");

    let machines: Vec<String> = if machine == "all" {
        vec![
            "xeon5220".to_string(),
            "xeon8160".to_string(),
            "epyc7662".to_string(),
        ]
    } else {
        vec![machine]
    };

    let hw_threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "# paper_tables: structure={structure:?} prefill={prefill} trials={trials} \
         trial_millis={millis} hardware_threads={hw_threads}"
    );

    for name in machines {
        let (label, process_counts) =
            machine_profile(&name).expect("--machine must be xeon5220|xeon8160|epyc7662|local|all");
        let oversub: Vec<usize> = process_counts
            .iter()
            .copied()
            .filter(|&p| p > hw_threads)
            .collect();
        if !oversub.is_empty() {
            println!(
                "# note: process counts {oversub:?} exceed the {hw_threads} hardware threads \
                 (oversubscribed)"
            );
        }
        let cfg = TableConfig {
            title: label.to_string(),
            process_counts,
            prefill_size: prefill,
            keys_per_process,
            key_range: 1_000_000,
            trial: Duration::from_millis(millis),
            trials,
            warmup_trials: args.get_or("warmup-trials", 1),
            seed,
            structure,
            backoff: pathcopy_core::BackoffPolicy::None,
        };
        let table = run_paper_table(&cfg);
        println!();
        if csv {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.render());
        }
        println!();
    }
}
