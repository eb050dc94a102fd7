//! E6–E8 (Random row): throughput of the UC treap on the §4.2 Random
//! workload (half the updates are no-ops that skip the CAS).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcopy_bench::measure::run_concurrent;
use pathcopy_bench::sets::prefill_treap;
use pathcopy_concurrent::TreapMap;
use pathcopy_workloads::{RandomStream, RandomWorkload};

fn bench_random(c: &mut Criterion) {
    let workload = RandomWorkload::generate(4, 50_000, 50_000, 42);
    let prefill = prefill_treap(&workload.prefill);

    let mut group = c.benchmark_group("random_workload");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for threads in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("uc_treap", threads), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for i in 0..iters {
                    let set = TreapMap::from_version(prefill.clone());
                    let streams: Vec<RandomStream> = (0..threads)
                        .map(|t| RandomStream::new(50_000, 1000 + i * 17 + t as u64))
                        .collect();
                    let start = Instant::now();
                    let ops = run_concurrent(&set, streams, Duration::from_millis(80));
                    total += start.elapsed() / (ops.max(1) as u32);
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_random);
criterion_main!(benches);
