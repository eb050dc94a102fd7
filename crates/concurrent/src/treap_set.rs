//! The lock-free concurrent ordered set: the paper's benchmark subject.
//!
//! A set is a [`TreapMap<K, ()>`](crate::TreapMap): one path-copying
//! treap behind one root, so its updates are lock-free, its reads
//! wait-free, and its `snapshot` an O(1) coherent cut whose
//! [`SetSnapshot`](pathcopy_core::SetSnapshot) view iterates keys. This
//! module makes it a [`ConcurrentSet`](pathcopy_core::ConcurrentSet): a
//! present-key insert and an absent-key remove copy nothing and skip the
//! CAS. A [`transact`](crate::TreapMap::transact) of `Insert`, `Remove`
//! or `Get` ops is a multi-key batch that commits (or reads) atomically.
//!
//! ```
//! use pathcopy_concurrent::TreapMap;
//! use pathcopy_core::{ConcurrentSet, SetSnapshot};
//!
//! let set: TreapMap<i64, ()> = TreapMap::new();
//! std::thread::scope(|s| {
//!     for t in 0..4i64 {
//!         let set = &set;
//!         s.spawn(move || {
//!             for i in 0..100 {
//!                 ConcurrentSet::insert(set, t * 100 + i);
//!             }
//!         });
//!     }
//! });
//! assert_eq!(set.len(), 400);
//! assert!(set.contains(&123));
//!
//! // Snapshots are consistent point-in-time views:
//! let snap = set.snapshot();
//! set.remove(&123);
//! assert!(snap.contains(&123));
//! assert!(!set.contains(&123));
//! ```

use std::hash::Hash;

use pathcopy_core::api;
use pathcopy_core::StatsSnapshot;

use crate::TreapMap;

impl<K: Ord + Clone + Hash + Send + Sync> api::ConcurrentSet<K> for TreapMap<K, ()> {
    fn insert(&self, key: K) -> bool {
        TreapMap::insert(self, key, ()).is_none()
    }

    fn remove(&self, key: &K) -> bool {
        TreapMap::remove(self, key).is_some()
    }

    fn contains(&self, key: &K) -> bool {
        self.contains_key(key)
    }

    fn len(&self) -> usize {
        TreapMap::len(self)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use crate::{BatchOp, BatchResult, TreapMap};
    use pathcopy_core::{ConcurrentSet, SetSnapshot};

    type Set = TreapMap<i64, ()>;

    #[test]
    fn sequential_set_semantics() {
        let m = Set::new();
        let s: &dyn ConcurrentSet<i64> = &m;
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert!(s.is_empty());
    }

    #[test]
    fn sharded_set_semantics() {
        // The same answers through the map's own point operations.
        let m = Set::new();
        assert!(m.insert_if_absent(1, ()));
        assert!(!m.insert_if_absent(1, ()));
        assert!(m.contains_key(&1));
        assert!(m.remove(&1).is_some());
        assert!(m.remove(&1).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        const THREADS: i64 = 8;
        const PER: i64 = 300;
        let m = Set::new();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let s: &dyn ConcurrentSet<i64> = &m;
                sc.spawn(move || {
                    for i in 0..PER {
                        assert!(s.insert(t * PER + i));
                    }
                });
            }
        });
        assert_eq!(m.len() as i64, THREADS * PER);
        let snap = m.snapshot();
        snap.check_invariants();
        assert!(snap.iter().copied().eq(0..THREADS * PER));
    }

    #[test]
    fn concurrent_insert_remove_cycles_leave_empty() {
        // The Batch workload in miniature: each thread inserts then
        // removes its disjoint keys; the set must end empty.
        const THREADS: i64 = 4;
        const PER: i64 = 200;
        let m = Set::new();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let s: &dyn ConcurrentSet<i64> = &m;
                sc.spawn(move || {
                    for _round in 0..3 {
                        let base = t * PER; // same keys each round
                        for i in 0..PER {
                            assert!(s.insert(base + i), "insert must succeed");
                        }
                        for i in 0..PER {
                            assert!(s.remove(&(base + i)), "remove must succeed");
                        }
                    }
                });
            }
        });
        assert!(m.is_empty());
        let stats = m.stats().snapshot();
        assert_eq!(stats.ops, (THREADS * PER * 2 * 3) as u64);
        assert_eq!(stats.noop_updates, 0, "disjoint keys: no no-ops");
    }

    #[test]
    fn contended_same_key_exactly_one_winner() {
        let m = Set::new();
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for _ in 0..8 {
                let s: &dyn ConcurrentSet<i64> = &m;
                let winners = &winners;
                sc.spawn(move || {
                    if s.insert(42) {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn snapshot_isolation_under_writers() {
        let m = Set::new();
        for i in 0..100 {
            ConcurrentSet::insert(&m, i);
        }
        let snap = m.snapshot();
        std::thread::scope(|sc| {
            let s: &dyn ConcurrentSet<i64> = &m;
            sc.spawn(move || {
                for i in 0..100 {
                    s.remove(&i);
                }
            });
            // Reader: the snapshot never changes, whatever the writer does.
            for _ in 0..50 {
                assert_eq!(snap.len(), 100);
                assert_eq!(snap.iter().count(), 100);
            }
        });
        assert!(m.is_empty());
        assert_eq!(snap.len(), 100);
    }

    #[test]
    fn reported_attempts_reflect_contention() {
        let m = Set::new();
        let r = m.insert_reported(1, ());
        assert_eq!(r.result, None, "inserted");
        assert_eq!(r.attempts, 1);
        let r = m.insert_reported(1, ());
        assert_eq!(r.result, Some(()), "already present");
        assert!(r.was_noop);
    }

    /// Applies `op` to every key in one `transact` batch and reports, per
    /// key, whether it took effect: inserted a new key, removed a present
    /// one, or found one.
    fn set_batch(s: &Set, keys: &[i64], op: fn(i64) -> BatchOp<i64, ()>) -> Vec<bool> {
        let ops: Vec<_> = keys.iter().map(|&k| op(k)).collect();
        s.transact(&ops)
            .into_iter()
            .map(|r| {
                matches!(
                    r,
                    BatchResult::Inserted(None)
                        | BatchResult::Removed(Some(()))
                        | BatchResult::Got(Some(()))
                )
            })
            .collect()
    }

    fn insert(k: i64) -> BatchOp<i64, ()> {
        BatchOp::Insert(k, ())
    }

    #[test]
    fn set_batches_report_per_key_outcomes() {
        let s = Set::new();
        assert_eq!(
            set_batch(&s, &[1, 2, 2, 3], insert),
            vec![true, true, false, true]
        );
        assert_eq!(s.len(), 3);
        assert_eq!(
            set_batch(&s, &[1, 2, 3, 4], BatchOp::Get),
            vec![true, true, true, false]
        );
        assert_eq!(
            set_batch(&s, &[2, 4, 3], BatchOp::Remove),
            vec![true, false, true]
        );
        assert!(s.snapshot().iter().eq([&1i64]));
    }

    #[test]
    fn set_snapshot_is_immutable() {
        let s = Set::new();
        let keys: Vec<i64> = (0..100).collect();
        set_batch(&s, &keys, insert);
        let snap = s.snapshot();
        set_batch(&s, &keys, BatchOp::Remove);
        assert!(s.is_empty());
        assert_eq!(snap.len(), 100);
        assert!(snap.iter().copied().eq(0..100));
        assert!(snap.contains(&42));
    }

    #[test]
    fn set_batches_are_atomic_units() {
        // Each thread inserts then removes its whole disjoint block as
        // one batch; any torn batch leaves strays behind, or shows an
        // observer's cut a block that is partly there.
        let s = Set::new();
        let writers_left = std::sync::atomic::AtomicUsize::new(4);
        std::thread::scope(|sc| {
            for t in 0..4i64 {
                let (s, writers_left) = (&s, &writers_left);
                sc.spawn(move || {
                    let block: Vec<i64> = (t * 64..(t + 1) * 64).collect();
                    for _ in 0..20 {
                        assert!(set_batch(s, &block, insert).into_iter().all(|b| b));
                        assert!(set_batch(s, &block, BatchOp::Remove).into_iter().all(|b| b));
                    }
                    writers_left.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
            while writers_left.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                let snap = s.snapshot();
                for t in 0..4i64 {
                    let n = snap.range(t * 64..(t + 1) * 64).count();
                    assert!(n == 0 || n == 64, "cut saw {n} of block {t}'s 64 keys");
                }
            }
        });
        assert_eq!(s.snapshot().len(), 0);
    }
}
