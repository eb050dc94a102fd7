//! The trees' node memory, end to end: treap and external-BST nodes come
//! from `pathcopy_core::pool`, so no sequence of persistent operations,
//! retained versions, concurrent updates or short-lived threads may
//! leak a block, free one twice, or make the pool grow.
//!
//! The tests read process-wide counters, so they take turns.

use std::sync::{Mutex, MutexGuard, PoisonError};

use path_copying::pathcopy_core::pool;
use path_copying::pathcopy_trees::hash::splitmix64;
use path_copying::pathcopy_trees::TreapMap;

fn take_turns() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs deferred drops until `done` holds (they sit in the process-wide
/// epoch collector, which needs pins from several threads to advance).
#[cfg(debug_assertions)]
fn flush_epochs_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !done() {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..64 {
                        crossbeam_epoch::pin().flush();
                    }
                });
            }
        });
        crossbeam_epoch::pin().flush();
        assert!(std::time::Instant::now() < deadline, "{what}");
    }
}

/// Every structural operation the treap has, applied in a random order
/// to a population of retained versions that share subtrees every which
/// way, then the same from four threads through the universal
/// construction; then both again for the external BST. When everything
/// is dropped and the epochs are flushed the live-block count is back
/// where it started: no node leaked, and (the count is exact and
/// unsigned) none freed twice. The poison check on reuse turns a write
/// through a stale node into a panic.
#[cfg(debug_assertions)]
#[test]
fn no_operation_sequence_leaks_or_double_frees_a_node() {
    use path_copying::pathcopy_concurrent::ExternalBstSet as ConcurrentExternalBstSet;
    use path_copying::pathcopy_concurrent::TreapMap as ConcurrentTreapMap;
    use path_copying::pathcopy_trees::ExternalBstSet;

    let _turn = take_turns();
    let start = pool::live_blocks();
    {
        let mut x = 0x5eed_u64;
        let mut next = move || {
            x = splitmix64(x);
            x
        };
        let mut versions: Vec<TreapMap<i64, i64>> = vec![TreapMap::new()];
        for _ in 0..4_000 {
            let a = versions[next() as usize % versions.len()].clone();
            let b = versions[next() as usize % versions.len()].clone();
            let key = (next() % 512) as i64;
            let made = match next() % 6 {
                0 | 1 => a.insert(key, key).0,
                2 => a.remove(&key).map_or(a, |(v, _)| v),
                3 => {
                    let (low, _, high) = a.split(&key);
                    // Keep one half, rejoin the other with a split of `b`.
                    let (b_low, _, _) = b.split(&key);
                    versions.push(b_low.join(&high));
                    low
                }
                4 => a.union(&b),
                _ => a.insert_if_absent(key, -key).unwrap_or(b),
            };
            made.check_invariants();
            if versions.len() < 24 {
                versions.push(made);
            } else {
                let slot = next() as usize % versions.len();
                versions[slot] = made;
            }
        }
        assert!(pool::live_blocks() > start, "the versions hold nodes");

        let map = ConcurrentTreapMap::from_version(versions[0].clone());
        let mut snapshots = Vec::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = &map;
                s.spawn(move || {
                    let mut x = t + 1;
                    for _ in 0..3_000 {
                        x = splitmix64(x);
                        let key = (x % 256) as i64;
                        if x & (1 << 20) == 0 {
                            map.insert(key, key);
                        } else {
                            map.remove(&key);
                        }
                    }
                });
            }
            for _ in 0..50 {
                snapshots.push(map.snapshot());
            }
        });
        map.snapshot().check_invariants();
    }
    {
        let mut x = 0xeb57_u64;
        let mut next = move || {
            x = splitmix64(x);
            x
        };
        let mut versions: Vec<ExternalBstSet<i64>> = vec![ExternalBstSet::new()];
        for _ in 0..4_000 {
            let a = versions[next() as usize % versions.len()].clone();
            let key = (next() % 512) as i64;
            let made = match next() % 4 {
                0 | 1 => a.insert(key).unwrap_or(a),
                2 => a.remove(&key).unwrap_or(a),
                // A diff walks two versions by `ptr_eq`, holding both.
                _ => {
                    let b = &versions[next() as usize % versions.len()];
                    assert_eq!(a.diff(b).len(), b.diff(&a).len());
                    a
                }
            };
            made.check_invariants();
            if versions.len() < 24 {
                versions.push(made);
            } else {
                let slot = next() as usize % versions.len();
                versions[slot] = made;
            }
        }
        assert!(pool::live_blocks() > start, "the versions hold nodes");

        let set = ConcurrentExternalBstSet::from_version(versions[0].clone());
        let mut snapshots = Vec::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let set = &set;
                s.spawn(move || {
                    let mut x = t + 1;
                    for _ in 0..3_000 {
                        x = splitmix64(x);
                        let key = (x % 256) as i64;
                        if x & (1 << 20) == 0 {
                            set.insert(key);
                        } else {
                            set.remove(&key);
                        }
                    }
                });
            }
            for _ in 0..50 {
                snapshots.push(set.snapshot());
            }
        });
        set.snapshot().check_invariants();
    }
    flush_epochs_until(
        "pool blocks still live after everything was dropped",
        || pool::live_blocks() == start,
    );
}

/// A thousand short-lived threads each build and drop a thousand-key
/// treap. Their magazines go back to the depot on exit, so the process
/// never needs more node memory than the first thread did.
#[test]
fn short_lived_threads_reuse_one_threads_memory() {
    let _turn = take_turns();
    let churn = |seed: i64| {
        std::thread::spawn(move || {
            let map: TreapMap<i64, i64> = (0..1_000).map(|k| (k * 7919 + seed, k)).collect();
            assert_eq!(map.len(), 1_000);
        })
        .join()
        .expect("worker panicked");
    };
    churn(0);
    let one_thread = pool::stats().slabs_carved;
    for seed in 1..=1_000 {
        churn(seed);
    }
    assert_eq!(pool::stats().slabs_carved, one_thread);
}
