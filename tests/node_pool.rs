//! The trees' node memory, end to end: treap and external-BST nodes come
//! from `pathcopy_core::pool`, so no sequence of persistent operations,
//! retained versions, concurrent updates or short-lived threads may
//! leak a block, free one twice, or make the pool grow.
//!
//! The tests read process-wide counters, so they take turns.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use path_copying::pathcopy_concurrent::{
    BatchOp, BatchResult, ShardedTreapMap, TreapMap as ConcurrentTreapMap,
};
use path_copying::pathcopy_core::{pool, StatsSnapshot};
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
    use path_copying::pathcopy_trees::hash::splitmix64;
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

/// Pool blocks handed out so far; exact for the calling thread, and no
/// other thread allocates while a test holds its turn.
fn blocks() -> u64 {
    pool::stats().blocks_handed_out
}

/// Writes per path in [`an_equal_value_write_allocates_nothing_and_installs_nothing`].
const NOOP_WRITES: u64 = 1_000;
/// Keys prefilled as `k -> k`, so writing `(k, k)` changes nothing.
const NOOP_KEYS: i64 = 1_024;

fn noop_key(i: u64) -> i64 {
    (i as i64 * 7_919) % NOOP_KEYS
}

/// Drives one concurrent write path: `write(k, v)` must leave the map
/// untouched when `k` already holds `v` — no pool block, no CAS, the
/// same version, one no-op per write — and must copy exactly the search
/// path, in one attempt, when `v` differs.
fn assert_noop_writes_are_free(
    what: &str,
    write: impl Fn(i64, i64),
    version: impl Fn() -> Arc<TreapMap<i64, i64>>,
    stats: impl Fn() -> StatsSnapshot,
) {
    let (v0, s0, b0) = (version(), stats(), blocks());
    for i in 0..NOOP_WRITES {
        let k = noop_key(i);
        write(k, k);
    }
    let s1 = stats();
    assert_eq!(
        blocks() - b0,
        0,
        "{what}: an equal-value write took pool blocks"
    );
    assert_eq!(s1.ops - s0.ops, NOOP_WRITES, "{what}: ops");
    assert_eq!(s1.attempts - s0.attempts, NOOP_WRITES, "{what}: attempts");
    assert_eq!(
        s1.noop_updates - s0.noop_updates,
        NOOP_WRITES,
        "{what}: no-ops"
    );
    assert!(
        Arc::ptr_eq(&v0, &version()),
        "{what}: an equal-value write installed a version"
    );

    let (b1, path) = (blocks(), v0.path_len(&7) as u64);
    write(7, -7);
    let s2 = stats();
    assert_eq!(
        blocks() - b1,
        path,
        "{what}: a changed value must copy the search path"
    );
    assert_eq!(
        s2.noop_updates, s1.noop_updates,
        "{what}: a change counted as a no-op"
    );
    assert_eq!(
        version().get(&7),
        Some(&-7),
        "{what}: the change did not land"
    );
}

/// A write that stores the value its key already holds changes nothing,
/// so on every write path it costs a descent and nothing more: no node
/// is copied and no root is CASed (the paper's Random workload counts on
/// this for half its inserts). A different value still copies the path.
#[test]
fn an_equal_value_write_allocates_nothing_and_installs_nothing() {
    let _turn = take_turns();

    let base: TreapMap<i64, i64> = (0..NOOP_KEYS).map(|k| (k, k)).collect();
    let b0 = blocks();
    for i in 0..NOOP_WRITES {
        let k = noop_key(i);
        let (next, old) = base.insert(k, k);
        assert_eq!(old, Some(k));
        let (a, b) = (next.root().unwrap(), base.root().unwrap());
        assert!(pool::PoolArc::ptr_eq(a, b), "trees: not the same version");
    }
    assert_eq!(
        blocks() - b0,
        0,
        "trees: an equal-value insert took pool blocks"
    );
    let (b1, path) = (blocks(), base.path_len(&7) as u64);
    let (next, old) = base.insert(7, -7);
    assert_eq!((old, next.get(&7)), (Some(7), Some(&-7)));
    assert_eq!(
        blocks() - b1,
        path,
        "trees: a changed value must copy the search path"
    );

    let single = || ConcurrentTreapMap::from_version(base.clone());
    let m = single();
    assert_noop_writes_are_free(
        "TreapMap::insert",
        |k, v| {
            m.insert(k, v);
        },
        || m.snapshot().as_inner().clone(),
        || m.stats().snapshot(),
    );
    let m = single();
    assert_noop_writes_are_free(
        "TreapMap::compute",
        |k, v| {
            m.compute(&k, |_| Some(v));
        },
        || m.snapshot().as_inner().clone(),
        || m.stats().snapshot(),
    );

    // One shard, so every batch below takes the lock-free single-shard
    // path and `snapshot_shard(0)` is the whole map.
    let sharded = || {
        let m = ShardedTreapMap::with_shards(1);
        for k in 0..NOOP_KEYS {
            m.insert(k, k);
        }
        m
    };
    let m = sharded();
    assert_noop_writes_are_free(
        "ShardedTreapMap::insert",
        |k, v| {
            m.insert(k, v);
        },
        || m.snapshot_shard(0),
        || m.stats_snapshot(),
    );
    let m = sharded();
    assert_noop_writes_are_free(
        "ShardedTreapMap::compute",
        |k, v| {
            m.compute(&k, |_| Some(v));
        },
        || m.snapshot_shard(0),
        || m.stats_snapshot(),
    );
    let m = sharded();
    assert_noop_writes_are_free(
        "transact([Insert])",
        |k, v| {
            let r = m.transact(&[BatchOp::Insert(k, v)]);
            assert!(matches!(r[..], [BatchResult::Inserted(Some(_))]));
        },
        || m.snapshot_shard(0),
        || m.stats_snapshot(),
    );
    let m = sharded();
    assert_noop_writes_are_free(
        "transact([Cas])",
        |k, v| {
            let cas = BatchOp::Cas {
                key: k,
                expected: Some(k),
                new: Some(v),
            };
            assert_eq!(m.transact(&[cas]), vec![BatchResult::Cas(true)]);
        },
        || m.snapshot_shard(0),
        || m.stats_snapshot(),
    );
}
