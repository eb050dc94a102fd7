//! E6–E8 (Batch row): throughput of the UC treap on the §4.1 Batch
//! workload at several thread counts, as a Criterion throughput bench.
//! The full paper-scale table comes from the `paper_tables` binary; this
//! bench is the fast regression guard.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathcopy_bench::measure::run_concurrent;
use pathcopy_bench::sets::prefill_treap;
use pathcopy_concurrent::TreapMap;
use pathcopy_workloads::BatchWorkload;

fn bench_batch(c: &mut Criterion) {
    let workload = BatchWorkload::generate(4, 50_000, 10_000, 42);
    let prefill = prefill_treap(&workload.prefill);

    let mut group = c.benchmark_group("batch_workload");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for threads in [1usize, 2, 4] {
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("uc_treap", threads), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let set = TreapMap::from_version(prefill.clone());
                    let mut streams = workload.streams();
                    streams.truncate(threads);
                    let start = Instant::now();
                    let ops = run_concurrent(&set, streams, Duration::from_millis(80));
                    // Normalize: report time per operation.
                    total += start.elapsed() / (ops.max(1) as u32);
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
