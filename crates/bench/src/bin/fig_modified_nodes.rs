//! Fig. 5 on the **real** implementation: run concurrent updates on the
//! persistent treap, and on every CAS failure measure how many nodes on
//! the retried search path were not on the previously-traversed path —
//! i.e. how many loads a private cache could not have served.
//!
//! The paper's lemma (Appendix A) says the expectation is at most 2 per
//! missed commit. Here there is no simulator: the histogram comes from
//! actual `Arc` pointer identity on the actual contended structure.
//!
//! ```text
//! fig_modified_nodes [--threads 4] [--prefill 100000] [--ops 20000]
//!                    [--seed 42]
//! ```

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use pathcopy_bench::cli::Args;
use pathcopy_bench::sets::prefill_treap;
use pathcopy_core::{PathCopyUc, Update};
use pathcopy_trees::sharing;
use pathcopy_workloads::{BatchWorkload, OpStream};

fn main() {
    let args = Args::from_env();
    let threads: usize = args.get_or("threads", 4);
    let prefill: usize = args.get_or("prefill", 100_000);
    let ops_per_thread: u64 = args.get_or("ops", 20_000);
    let seed: u64 = args.get_or("seed", 42);

    let workload = BatchWorkload::generate(threads, prefill, 10_000, seed);
    let uc = PathCopyUc::new(prefill_treap(&workload.prefill));

    const HIST_BUCKETS: usize = 64;
    let hist: Vec<AtomicU64> = (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect();
    let retries = AtomicU64::new(0);
    let uncached_total = AtomicU64::new(0);
    let raw_samples: Mutex<Vec<u32>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for mut stream in workload.streams() {
            let uc = &uc;
            let hist = &hist;
            let retries = &retries;
            let uncached_total = &uncached_total;
            let raw_samples = &raw_samples;
            scope.spawn(move || {
                let mut local_samples = Vec::new();
                for _ in 0..ops_per_thread {
                    let op = stream.next_op();
                    let mut current = uc.snapshot();
                    loop {
                        let attempt = uc.try_update_once(&current, |set| {
                            let next = match op {
                                pathcopy_workloads::Op::Insert(k) => set.insert_if_absent(k, ()),
                                pathcopy_workloads::Op::Remove(k) => {
                                    set.remove(&k).map(|(next, ())| next)
                                }
                                pathcopy_workloads::Op::Contains(_) => None,
                            };
                            match next {
                                Some(next) => Update::Replace(next, true),
                                None => Update::Keep(false),
                            }
                        });
                        match attempt {
                            Ok(_) => break,
                            Err(fresh) => {
                                // The CAS failed: everything we traversed in
                                // `current` is (conceptually) cached; count
                                // the path nodes in `fresh` we have not seen.
                                let key = op.key();
                                let uncached = sharing::uncached_on_retry(&*current, &*fresh, &key);
                                hist[uncached.min(HIST_BUCKETS - 1)].fetch_add(1, Relaxed);
                                retries.fetch_add(1, Relaxed);
                                uncached_total.fetch_add(uncached as u64, Relaxed);
                                local_samples.push(uncached as u32);
                                current = fresh;
                            }
                        }
                    }
                }
                raw_samples.lock().unwrap().extend(local_samples);
            });
        }
    });

    let total_retries = retries.load(Relaxed);
    let mean = uncached_total.load(Relaxed) as f64 / total_retries.max(1) as f64;
    let final_len = uc.read(|s| s.len());

    println!(
        "Fig 5 (real treap) - uncached nodes on retried search paths\n\
         ------------------------------------------------------------\n\
         threads={threads} prefill={prefill} ops/thread={ops_per_thread} \
         retries observed={total_retries} final_len={final_len}\n"
    );
    if total_retries == 0 {
        println!("no CAS failures observed (increase --threads or --ops)");
        return;
    }
    println!("{:>4} {:>12} {:>10}", "k", "retries", "fraction");
    for (k, bucket) in hist.iter().enumerate().take(12) {
        let c = bucket.load(Relaxed);
        if c > 0 || k <= 4 {
            println!("{k:>4} {c:>12} {:>10.4}", c as f64 / total_retries as f64);
        }
    }
    let tail: u64 = hist.iter().skip(12).map(|b| b.load(Relaxed)).sum();
    if tail > 0 {
        println!(
            "{:>4} {tail:>12} {:>10.4}",
            ">11",
            tail as f64 / total_retries as f64
        );
    }
    println!(
        "\nmean uncached per retry = {mean:.3}  (paper's lemma: <= 2 per missed commit;\n\
         real runs can miss several commits per retry under heavy contention)"
    );

    // Median / p95 from the raw samples.
    let mut samples = raw_samples.into_inner().unwrap();
    samples.sort_unstable();
    if !samples.is_empty() {
        let med = samples[samples.len() / 2];
        let p95 = samples[(samples.len() as f64 * 0.95) as usize..][0];
        println!("median = {med}, p95 = {p95}");
    }
}
