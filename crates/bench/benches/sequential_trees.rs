//! Microbenchmarks of the persistent sequential structures vs the mutable
//! baseline — the per-operation cost gap that sets the paper's `UC 1p`
//! column apart from `Seq Treap`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pathcopy_trees::mutable::MutTreapSet;
use pathcopy_trees::{ExternalBstSet, TreapMap};

const N: i64 = 10_000;

fn bench_inserts(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_10k");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(2000));
    group.warm_up_time(std::time::Duration::from_millis(400));

    group.bench_function(BenchmarkId::new("mutable_treap", N), |b| {
        b.iter(|| {
            let mut s = MutTreapSet::new();
            for k in 0..N {
                s.insert(black_box(k));
            }
            s.len()
        })
    });
    group.bench_function(BenchmarkId::new("persistent_treap", N), |b| {
        b.iter(|| {
            let mut s = TreapMap::new();
            for k in 0..N {
                if let Some(next) = s.insert_if_absent(black_box(k), ()) {
                    s = next;
                }
            }
            s.len()
        })
    });
    group.bench_function(BenchmarkId::new("persistent_external_bst", N), |b| {
        b.iter(|| {
            let mut s = ExternalBstSet::new();
            for k in 0..N {
                if let Some(next) = s.insert(black_box(k)) {
                    s = next;
                }
            }
            s.len()
        })
    });
    group.finish();
}

fn bench_lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("contains_hit");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let treap: TreapMap<i64, ()> = (0..N).map(|k| (k, ())).collect();
    let mutable: MutTreapSet<i64> = (0..N).collect();
    group.bench_function("persistent_treap", |b| {
        let mut k = 0;
        b.iter(|| {
            k = (k + 7919) % N;
            black_box(treap.contains_key(&k))
        })
    });
    group.bench_function("mutable_treap", |b| {
        let mut k = 0;
        b.iter(|| {
            k = (k + 7919) % N;
            black_box(mutable.contains(&k))
        })
    });
    group.finish();
}

fn bench_remove_insert_cycle(c: &mut Criterion) {
    // The Batch workload inner loop at steady state.
    let mut group = c.benchmark_group("remove_insert_cycle");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(2000));
    group.warm_up_time(std::time::Duration::from_millis(400));
    let base: TreapMap<i64, ()> = (0..N).map(|k| (k, ())).collect();
    group.bench_function("persistent_treap", |b| {
        let mut k = 0;
        b.iter(|| {
            k = (k + 7919) % N;
            let (removed, ()) = base.remove(&k).expect("present");
            black_box(removed.insert_if_absent(k, ()).expect("absent"))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_inserts,
    bench_lookups,
    bench_remove_insert_cycle
);
criterion_main!(benches);
