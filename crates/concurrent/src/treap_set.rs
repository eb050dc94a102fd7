//! Lock-free concurrent ordered set: the paper's benchmark subject.
//!
//! [`TreapSet`] applies the path-copying universal construction to the
//! persistent treap of `pathcopy-trees`. Every operation is linearizable;
//! updates are lock-free; reads are wait-free and never interfere with
//! writers.
//!
//! A set with atomic multi-key batches is a
//! [`TreapMap<K, ()>`](crate::TreapMap): `insert_if_absent` / `remove` /
//! `contains_key` are its point operations, `snapshot` its coherent cut,
//! and a [`transact`](crate::TreapMap::transact) of `Insert`, `Remove` or
//! `Get` ops a multi-key batch that commits (or reads) atomically. The
//! `sharded_set_*` tests below pin that use; their names are kept from
//! the sharded map that served it before.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use pathcopy_core::api;
use pathcopy_core::{BackoffPolicy, PathCopyUc, StatsSnapshot, UcStats, Update, UpdateReport};
use pathcopy_trees::treap;

use crate::snapshot::TreapSetSnapshot;

/// A lock-free concurrent ordered set backed by a persistent treap.
///
/// # Examples
///
/// ```
/// use pathcopy_concurrent::TreapSet;
///
/// let set = TreapSet::new();
/// std::thread::scope(|s| {
///     for t in 0..4i64 {
///         let set = &set;
///         s.spawn(move || {
///             for i in 0..100 {
///                 set.insert(t * 100 + i);
///             }
///         });
///     }
/// });
/// assert_eq!(set.len(), 400);
/// assert!(set.contains(&123));
///
/// // Snapshots are consistent point-in-time views:
/// let snap = set.snapshot();
/// set.remove(&123);
/// assert!(snap.contains(&123));
/// assert!(!set.contains(&123));
/// ```
pub struct TreapSet<K> {
    uc: PathCopyUc<treap::TreapSet<K>>,
}

impl<K: Ord + Clone + Hash + Send + Sync> Default for TreapSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> TreapSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        TreapSet {
            uc: PathCopyUc::new(treap::TreapSet::empty()),
        }
    }

    /// Creates an empty set with an explicit retry backoff policy.
    pub fn with_backoff(backoff: BackoffPolicy) -> Self {
        TreapSet {
            uc: PathCopyUc::with_backoff(treap::TreapSet::empty(), backoff),
        }
    }

    /// Creates a set holding the given initial version (e.g. a prefilled
    /// treap built off-line).
    pub fn from_version(initial: treap::TreapSet<K>) -> Self {
        TreapSet {
            uc: PathCopyUc::new(initial),
        }
    }

    /// Inserts `key`. Returns `true` if the set changed (`false` if the
    /// key was already present — in that case no CAS is performed).
    pub fn insert(&self, key: K) -> bool {
        self.insert_reported(key).result
    }

    /// [`insert`](Self::insert) with attempt-count instrumentation.
    pub fn insert_reported(&self, key: K) -> UpdateReport<bool> {
        self.uc
            .update_reported(move |set| match set.insert(key.clone()) {
                Some(next) => Update::Replace(next, true),
                None => Update::Keep(false),
            })
    }

    /// Removes `key`. Returns `true` if the set changed (`false` if the
    /// key was absent — in that case no CAS is performed).
    pub fn remove(&self, key: &K) -> bool {
        self.remove_reported(key).result
    }

    /// [`remove`](Self::remove) with attempt-count instrumentation.
    pub fn remove_reported(&self, key: &K) -> UpdateReport<bool> {
        self.uc.update_reported(|set| match set.remove(key) {
            Some(next) => Update::Replace(next, true),
            None => Update::Keep(false),
        })
    }

    /// `true` if `key` is present. Wait-free.
    pub fn contains(&self, key: &K) -> bool {
        self.uc.read(|set| set.contains(key))
    }

    /// Number of keys. Wait-free (the persistent treap tracks sizes).
    pub fn len(&self) -> usize {
        self.uc.read(|set| set.len())
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns an immutable point-in-time snapshot. The snapshot supports
    /// every read operation of [`pathcopy_trees::TreapSet`] (iteration,
    /// rank queries through `as_map`, …) plus the
    /// [`SetSnapshot`](pathcopy_core::SetSnapshot) interface (lazy
    /// `range`, snapshot-to-snapshot `diff`), and stays valid forever.
    pub fn snapshot(&self) -> TreapSetSnapshot<K> {
        TreapSetSnapshot::new(self.uc.snapshot())
    }

    /// Collects the current keys in ascending order.
    pub fn to_vec(&self) -> Vec<K> {
        self.uc.read(|set| set.iter().cloned().collect())
    }

    /// Attempt/retry statistics (shared with all handles to this set).
    pub fn stats(&self) -> &Arc<UcStats> {
        self.uc.stats()
    }

    /// Unconditionally replaces the contents (not linearizable; intended
    /// for benchmark setup/reset).
    pub fn reset_to(&self, version: treap::TreapSet<K>) {
        self.uc.replace_version(version);
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> api::ConcurrentSet<K> for TreapSet<K> {
    fn insert(&self, key: K) -> bool {
        TreapSet::insert(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        TreapSet::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        TreapSet::contains(self, key)
    }

    fn len(&self) -> usize {
        TreapSet::len(self)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.uc.stats().snapshot()
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> api::Snapshottable for TreapSet<K> {
    type Snapshot = TreapSetSnapshot<K>;

    /// O(1): loads the current root.
    fn snapshot(&self) -> TreapSetSnapshot<K> {
        TreapSet::snapshot(self)
    }
}

impl<K: Ord + Clone + Hash + Send + Sync + fmt::Debug> fmt::Debug for TreapSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.uc
            .read(|set| f.debug_set().entries(set.iter()).finish())
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> FromIterator<K> for TreapSet<K> {
    /// Builds the persistent prefill off-line, then wraps it — no CAS
    /// traffic during construction.
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        TreapSet::from_version(iter.into_iter().collect())
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> Extend<K> for TreapSet<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchOp, BatchResult, TreapMap};

    #[test]
    fn sequential_set_semantics() {
        let s = TreapSet::new();
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        const THREADS: i64 = 8;
        const PER: i64 = 300;
        let s = TreapSet::new();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..PER {
                        assert!(s.insert(t * PER + i));
                    }
                });
            }
        });
        assert_eq!(s.len() as i64, THREADS * PER);
        let snap = s.snapshot();
        snap.check_invariants();
        assert!(snap.iter().copied().eq(0..THREADS * PER));
    }

    #[test]
    fn concurrent_insert_remove_cycles_leave_empty() {
        // The Batch workload in miniature: each thread inserts then
        // removes its disjoint keys; the set must end empty.
        const THREADS: i64 = 4;
        const PER: i64 = 200;
        let s = TreapSet::new();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let s = &s;
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
        assert!(s.is_empty());
        let stats = s.stats().snapshot();
        assert_eq!(stats.ops, (THREADS * PER * 2 * 3) as u64);
        assert_eq!(stats.noop_updates, 0, "disjoint keys: no no-ops");
    }

    #[test]
    fn contended_same_key_exactly_one_winner() {
        let s: TreapSet<i64> = TreapSet::new();
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for _ in 0..8 {
                let s = &s;
                let winners = &winners;
                sc.spawn(move || {
                    if s.insert(42) {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn snapshot_isolation_under_writers() {
        let s = TreapSet::new();
        for i in 0..100 {
            s.insert(i);
        }
        let snap = s.snapshot();
        std::thread::scope(|sc| {
            let s = &s;
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
        assert!(s.is_empty());
        assert_eq!(snap.len(), 100);
    }

    #[test]
    fn reported_attempts_reflect_contention() {
        let s = TreapSet::new();
        let r = s.insert_reported(1);
        assert!(r.result);
        assert_eq!(r.attempts, 1);
        let r = s.insert_reported(1);
        assert!(!r.result);
        assert!(r.was_noop);
    }

    /// Applies `op` to every key in one `transact` batch and reports, per
    /// key, whether it took effect: inserted a new key, removed a present
    /// one, or found one.
    fn set_batch(
        s: &TreapMap<i64, ()>,
        keys: &[i64],
        op: fn(i64) -> BatchOp<i64, ()>,
    ) -> Vec<bool> {
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
    fn sharded_set_semantics() {
        let s: TreapMap<i64, ()> = TreapMap::new();
        assert!(s.insert_if_absent(1, ()));
        assert!(!s.insert_if_absent(1, ()));
        assert!(s.contains_key(&1));
        assert!(s.remove(&1).is_some());
        assert!(s.remove(&1).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn sharded_set_batches_report_per_key_outcomes() {
        let s: TreapMap<i64, ()> = TreapMap::new();
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
        assert!(s.snapshot().iter().eq([(&1, &())]));
    }

    #[test]
    fn sharded_set_snapshot_is_immutable() {
        let s: TreapMap<i64, ()> = TreapMap::new();
        let keys: Vec<i64> = (0..100).collect();
        set_batch(&s, &keys, insert);
        let snap = s.snapshot();
        set_batch(&s, &keys, BatchOp::Remove);
        assert!(s.is_empty());
        assert_eq!(snap.len(), 100);
        assert!(snap.iter().map(|(k, ())| *k).eq(0..100));
        assert!(snap.contains_key(&42));
    }

    #[test]
    fn sharded_set_concurrent_batches_are_atomic_units() {
        // Each thread inserts then removes its whole disjoint block as
        // one batch; any torn batch leaves strays behind, or shows an
        // observer's cut a block that is partly there.
        let s: TreapMap<i64, ()> = TreapMap::new();
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
