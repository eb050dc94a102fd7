//! Quickstart: a lock-free concurrent ordered set in a few lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use path_copying::prelude::*;

fn main() {
    // A lock-free, linearizable ordered set built from a persistent treap
    // by the paper's universal construction: a map whose values are `()`.
    let set: TreapMap<i64, ()> = TreapMap::new();

    // Writers: each thread inserts a disjoint block (the paper's Batch
    // workload in miniature). Updates are lock-free; failed CASes retry.
    std::thread::scope(|s| {
        for t in 0..4i64 {
            let set = &set;
            s.spawn(move || {
                for i in 0..10_000 {
                    set.insert(t * 10_000 + i, ());
                }
            });
        }

        // A concurrent reader: wait-free queries on immutable snapshots.
        let set = &set;
        s.spawn(move || {
            for _ in 0..100 {
                let snap = set.snapshot();
                // The snapshot is a full persistent treap: iterate, range
                // query, rank-select — all consistent, never blocking.
                let below_100 = SetSnapshot::range(&snap, ..100).count();
                assert!(below_100 <= 100);
            }
        });
    });

    assert_eq!(set.len(), 40_000);
    println!("inserted {} keys from 4 threads", set.len());

    // Snapshots are versions: they survive later updates untouched.
    let before = set.snapshot();
    for i in 0..10_000 {
        set.remove(&i);
    }
    println!(
        "after removing 10k keys: live set = {}, old snapshot still = {}",
        set.len(),
        SetSnapshot::len(&before)
    );
    assert_eq!(SetSnapshot::len(&before), 40_000);

    // The UC records contention statistics (the paper's Fig-4 quantity).
    let stats = set.stats().snapshot();
    println!(
        "updates: {} ops, {:.3} attempts/op, {:.1}% committed first try",
        stats.ops,
        stats.mean_attempts(),
        100.0 * stats.first_try_rate()
    );
}
