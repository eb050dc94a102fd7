//! Cross-crate integration tests: the concurrent front-ends under
//! realistic mixed workloads, snapshot isolation, treap vs external BST
//! agreement, and the lock-based baselines as behavioural oracles.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use path_copying::pathcopy_workloads::{self, Op, OpStream};
use path_copying::prelude::*;

/// Applies an op to anything set-shaped through a closure triple.
fn drive<I, R, C>(mut ops: impl OpStream, count: usize, mut ins: I, mut rem: R, mut con: C)
where
    I: FnMut(i64) -> bool,
    R: FnMut(i64) -> bool,
    C: FnMut(i64) -> bool,
{
    for _ in 0..count {
        match ops.next_op() {
            Op::Insert(k) => {
                ins(k);
            }
            Op::Remove(k) => {
                rem(k);
            }
            Op::Contains(k) => {
                con(k);
            }
        }
    }
}

#[test]
fn treap_and_external_bst_agree_on_the_same_random_stream() {
    // The same deterministic op stream applied to the paper's treap and
    // to the Appendix-A external BST (single-threaded here — agreement
    // is about semantics).
    let treap: TreapMap<i64, ()> = TreapMap::new();
    let ebst = ConcurrentExternalBstSet::new();

    let mk = || pathcopy_workloads::RandomStream::new(300, 99);
    drive(
        mk(),
        5_000,
        |k| treap.insert(k, ()).is_none(),
        |k| treap.remove(&k).is_some(),
        |k| treap.contains_key(&k),
    );
    drive(
        mk(),
        5_000,
        |k| ebst.insert(k),
        |k| ebst.remove(&k),
        |k| ebst.contains(&k),
    );

    let a: Vec<i64> = treap.snapshot().keys().copied().collect();
    let b: Vec<i64> = ebst.snapshot().iter().copied().collect();
    assert_eq!(a, b, "treap vs external bst disagree");
}

#[test]
fn lock_free_and_mutex_sets_reach_the_same_final_state() {
    // Under disjoint-key concurrency the final state is deterministic, so
    // the mutex baseline acts as an oracle for the lock-free set.
    const THREADS: i64 = 4;
    const PER: i64 = 500;
    let lock_free: TreapMap<i64, ()> = TreapMap::new();
    let locked = LockedTreapSet::new();

    for set_insert in [
        &(|k| lock_free.insert(k, ()).is_none()) as &(dyn Fn(i64) -> bool + Sync),
        &(|k| locked.insert(k)) as &(dyn Fn(i64) -> bool + Sync),
    ] {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER {
                        assert!(set_insert(t * PER + i));
                    }
                });
            }
        });
    }

    let a: Vec<i64> = lock_free.snapshot().keys().copied().collect();
    let b: Vec<i64> = locked.snapshot().keys().copied().collect();
    assert_eq!(a, b);
    assert_eq!(a.len() as i64, THREADS * PER);
}

#[test]
fn snapshot_isolation_under_heavy_churn() {
    let map = TreapMap::new();
    for i in 0..1_000 {
        map.insert(i, i * 10);
    }
    let stop = AtomicBool::new(false);
    let violations = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Churning writers.
        for w in 0..2i64 {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                let mut x = w as u64 + 1;
                while !stop.load(Ordering::Relaxed) {
                    x = path_copying::pathcopy_trees::hash::splitmix64(x);
                    let k = (x % 1_000) as i64;
                    if x & 1 == 0 {
                        map.insert(k, k * 10);
                    } else {
                        map.remove(&k);
                    }
                }
            });
        }
        // Snapshot readers: within one snapshot, every key's value obeys
        // the invariant value == key * 10, and two scans of the same
        // snapshot agree exactly.
        let map = &map;
        let stop = &stop;
        let violations = &violations;
        s.spawn(move || {
            for _ in 0..200 {
                let snap = map.snapshot();
                let scan1: Vec<(i64, i64)> = snap.iter().map(|(k, v)| (*k, *v)).collect();
                let scan2: Vec<(i64, i64)> = snap.iter().map(|(k, v)| (*k, *v)).collect();
                if scan1 != scan2 {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                if scan1.iter().any(|(k, v)| *v != k * 10) {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "snapshot isolation violated"
    );
}

#[test]
fn batch_and_random_workloads_run_end_to_end() {
    // A miniature of the paper's two workloads through the public API.
    let workload = pathcopy_workloads::BatchWorkload::generate(3, 2_000, 300, 5);
    let set: TreapMap<i64, ()> = TreapMap::new();
    for &k in &workload.prefill {
        Op::Insert(k).apply_to(&set);
    }
    let before = set.len();
    std::thread::scope(|s| {
        for mut stream in workload.streams() {
            let set = &set;
            s.spawn(move || {
                // Full cycles leave the set unchanged; every op succeeds.
                for _ in 0..600 {
                    match stream.next_op() {
                        op @ (Op::Insert(_) | Op::Remove(_)) => assert!(op.apply_to(set)),
                        Op::Contains(_) => unreachable!(),
                    }
                }
            });
        }
    });
    assert_eq!(set.len(), before, "full batch cycles must be conservative");
    let stats = set.stats().snapshot();
    assert_eq!(stats.noop_updates, 0);

    let random = pathcopy_workloads::RandomWorkload::generate(3, 2_000, 500, 6);
    let set2: TreapMap<i64, ()> = TreapMap::new();
    for &k in &random.prefill {
        Op::Insert(k).apply_to(&set2);
    }
    std::thread::scope(|s| {
        for mut stream in random.streams() {
            let set2 = &set2;
            s.spawn(move || {
                for _ in 0..2_000 {
                    stream.next_op().apply_to(set2);
                }
            });
        }
    });
    // Keys stay within the configured range and the structure is valid.
    let snap = set2.snapshot();
    snap.check_invariants();
    assert!(snap.keys().all(|k| (-500..=500).contains(k)));
    // Random workload must have produced some no-ops (that's its point).
    assert!(set2.stats().snapshot().noop_updates > 0);
}

#[test]
fn uc_read_during_long_iteration_sees_fixed_version() {
    let map: TreapMap<i64, i64> = TreapMap::new();
    for i in 0..5_000 {
        map.insert(i, i);
    }
    let snap = map.snapshot();
    std::thread::scope(|s| {
        let map = &map;
        s.spawn(move || {
            for i in 0..5_000 {
                map.remove(&i);
            }
        });
        // Slow reader over the retained snapshot.
        let count = snap.iter().count();
        assert_eq!(count, 5_000);
    });
    assert!(map.is_empty());
}
