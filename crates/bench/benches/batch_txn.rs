//! Cost of atomic batch transactions versus their shard fan-out.
//!
//! The related scaling literature (slim/fat-tree scaling limits) asks
//! how composite-operation cost grows with fan-out; here the analogous
//! question is how a `transact` batch's cost grows with the number of
//! shards it spans. Fixed batch size (32 ops), varying spread:
//!
//! * `span/1` — all keys forced into one shard: the lock-free CAS fast
//!   path, one root install for the whole batch.
//! * `span/k` — keys spread across the map's shards: ordered commit
//!   locks + freeze/install over ~k roots.
//! * `per_key_baseline` — the same 32 inserts as 32 separate per-key
//!   ops (no atomicity): what the batch's atomicity actually costs.
//!
//! Run `BENCH_JSON=out.jsonl cargo bench --bench batch_txn` to capture
//! machine-readable medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcopy_concurrent::{BatchOp, ShardedTreapMap};

const BATCH_OPS: u64 = 32;
const PREFILL: u64 = 1 << 14;

/// Builds a map prefilled with `PREFILL` keys spread over all shards.
fn prefilled(shards: usize) -> ShardedTreapMap<u64, u64> {
    let m = ShardedTreapMap::with_shards(shards);
    for k in 0..PREFILL {
        m.insert(k, k);
    }
    m
}

/// Keys guaranteed to land in one shard: probe keys until `BATCH_OPS` of
/// them hash to the shard of `0`.
fn single_shard_keys(m: &ShardedTreapMap<u64, u64>) -> Vec<u64> {
    let target = m.snapshot_shard_of(&0);
    let mut keys = Vec::with_capacity(BATCH_OPS as usize);
    let mut k = 0u64;
    while keys.len() < BATCH_OPS as usize {
        // A key is in shard(0) iff inserting it there shows up in that
        // shard's snapshot; cheaper: compare snapshot identity of shards.
        if std::ptr::eq(
            std::sync::Arc::as_ptr(&m.snapshot_shard_of(&k)),
            std::sync::Arc::as_ptr(&target),
        ) {
            keys.push(k);
        }
        k += 1;
    }
    keys
}

fn bench_batch_span(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_txn");
    g.sample_size(10);

    for shards in [1usize, 4, 16] {
        let m = prefilled(shards);
        // Spread keys: strided over the whole key range, touching up to
        // `shards` distinct shards.
        let spread: Vec<u64> = (0..BATCH_OPS).map(|i| i * (PREFILL / BATCH_OPS)).collect();
        g.bench_function(BenchmarkId::new("spread", shards), |b| {
            let mut r = 0u64;
            b.iter(|| {
                r += 1;
                let batch: Vec<_> = spread.iter().map(|&k| BatchOp::Insert(k, r)).collect();
                m.transact(&batch)
            });
        });

        let pinned = single_shard_keys(&m);
        g.bench_function(BenchmarkId::new("single_shard", shards), |b| {
            let mut r = 0u64;
            b.iter(|| {
                r += 1;
                let batch: Vec<_> = pinned.iter().map(|&k| BatchOp::Insert(k, r)).collect();
                m.transact(&batch)
            });
        });

        g.bench_function(BenchmarkId::new("per_key_baseline", shards), |b| {
            let mut r = 0u64;
            b.iter(|| {
                r += 1;
                for &k in &spread {
                    m.insert(k, r);
                }
            });
        });
    }
    g.finish();
}

fn bench_batch_vs_readers(c: &mut Criterion) {
    // Transactions while a reader thread takes coherent cuts: measures
    // the freeze window's interference with snapshot_all.
    let mut g = c.benchmark_group("batch_txn_with_reader");
    g.sample_size(10);

    let m = prefilled(16);
    let spread: Vec<u64> = (0..BATCH_OPS).map(|i| i * (PREFILL / BATCH_OPS)).collect();
    g.bench_function("spread_16_shards", |b| {
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let m_ref = &m;
            let stop_ref = &stop;
            s.spawn(move || {
                while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                    criterion::black_box(m_ref.snapshot_all().len());
                }
            });
            let mut r = 0u64;
            b.iter(|| {
                r += 1;
                let batch: Vec<_> = spread.iter().map(|&k| BatchOp::Insert(k, r)).collect();
                m.transact(&batch)
            });
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_batch_span, bench_batch_vs_readers);
criterion_main!(benches);
