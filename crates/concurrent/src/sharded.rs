//! The sharded map's former names, kept only because the perf ledger
//! (`perf/`) still calls them. The map they name is the one-root
//! [`TreapMap`]: no key is hashed to a shard, and
//! `ShardedTreapMap::with_shards(n)` is `TreapMap::new()` for any `n`.
//! This file is the whole shim; the ledger's next revision deletes it.

use std::hash::Hash;
use std::sync::Arc;

use pathcopy_core::StatsSnapshot;
use pathcopy_trees::TreapMap as PTreapMap;

use crate::{TreapMap, TreapSnapshot};

/// [`TreapMap`]'s former name, from when the map was N of them.
///
/// ```
/// use pathcopy_concurrent::ShardedTreapMap;
///
/// let m = ShardedTreapMap::with_shards(8); // one root, whatever the count
/// m.insert(1, "one");
/// let snap = m.snapshot_all();
/// m.remove(&1);
/// assert_eq!((snap.shard_count(), snap.len()), (1, 1));
/// assert_eq!(snap.to_sorted_vec(), vec![(1, "one")]);
/// ```
#[doc(hidden)]
pub type ShardedTreapMap<K, V> = TreapMap<K, V>;

#[doc(hidden)]
impl<K, V> TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// An empty map, as [`TreapMap::new`]; `_shards` is ignored.
    pub fn with_shards(_shards: usize) -> Self {
        TreapMap::new()
    }

    /// [`TreapMap::snapshot`].
    pub fn snapshot_all(&self) -> TreapSnapshot<K, V> {
        self.snapshot()
    }

    /// The counters of [`TreapMap::stats`].
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats().snapshot()
    }
}

#[doc(hidden)]
impl<K, V> TreapSnapshot<K, V> {
    /// Always 1: the map is one root.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// The whole version.
    ///
    /// # Panics
    ///
    /// Panics if `index != 0`.
    pub fn shard(&self, index: usize) -> &Arc<PTreapMap<K, V>> {
        assert_eq!(index, 0, "a one-root snapshot has one shard");
        self.as_inner()
    }

    /// Every entry, cloned, in key order.
    pub fn to_sorted_vec(&self) -> Vec<(K, V)>
    where
        K: Ord + Clone,
        V: Clone,
    {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_semantics() {
        let m = ShardedTreapMap::with_shards(4);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(&1), Some(11));
        assert!(m.contains_key(&1));
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.remove(&1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn single_shard_degenerates_to_plain_uc() {
        let m: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(1);
        for k in 0..100 {
            m.insert(k, -k);
        }
        assert_eq!(m.snapshot_all().shard(0).len(), 100);
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn snapshot_all_is_immutable_and_exact() {
        let m = ShardedTreapMap::with_shards(8);
        for k in 0..500i64 {
            m.insert(k, k * 2);
        }
        let snap = m.snapshot_all();
        for k in 0..500 {
            m.remove(&k);
        }
        assert!(m.is_empty());
        assert_eq!(snap.len(), 500);
        for k in 0..500 {
            assert_eq!(snap.get(&k), Some(&(k * 2)));
        }
        let sorted = snap.to_sorted_vec();
        assert!(sorted.iter().map(|(k, _)| *k).eq(0..500));
    }

    #[test]
    fn compute_is_atomic_per_key() {
        let m: ShardedTreapMap<&'static str, u64> = ShardedTreapMap::with_shards(4);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let m = &m;
                sc.spawn(move || {
                    for _ in 0..500 {
                        m.compute(&"hits", |v| Some(v.copied().unwrap_or(0) + 1));
                    }
                });
            }
        });
        assert_eq!(m.get(&"hits"), Some(2000));
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let m: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(16);
        std::thread::scope(|sc| {
            for t in 0..8i64 {
                let m = &m;
                sc.spawn(move || {
                    for i in 0..500 {
                        let k = t * 500 + i;
                        assert_eq!(m.insert(k, k), None);
                    }
                });
            }
        });
        let snap = m.snapshot_all();
        assert_eq!(snap.len(), 4000);
        assert!(snap.to_sorted_vec().iter().map(|(k, _)| *k).eq(0..4000));
    }

    #[test]
    fn snapshot_all_never_observes_torn_transfers() {
        // Two keys updated in turn (+1 on key 0, then -1 on key 1) sum to
        // 0 or 1 at every instant, so no snapshot may see another sum.
        let m: ShardedTreapMap<u32, i64> = ShardedTreapMap::with_shards(16);
        m.insert(0, 0);
        m.insert(1, 0);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|sc| {
            let m_ref = &m;
            let stop_ref = &stop;
            sc.spawn(move || {
                for _ in 0..20_000i64 {
                    m_ref.compute(&0, |v| Some(v.copied().unwrap_or(0) + 1));
                    m_ref.compute(&1, |v| Some(v.copied().unwrap_or(0) - 1));
                }
                stop_ref.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            let mut cuts = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = m.snapshot_all();
                let a = *snap.get(&0).unwrap();
                let b = *snap.get(&1).unwrap();
                assert!(
                    (0..=1).contains(&(a + b)),
                    "torn snapshot: {a} + {b} = {}",
                    a + b
                );
                cuts += 1;
            }
            assert!(cuts > 0);
        });
    }

    // The name is kept from the sharded map; the one root has one block
    // of counters.
    #[test]
    fn stats_merge_across_shards() {
        let m: ShardedTreapMap<i64, ()> = ShardedTreapMap::with_shards(4);
        for k in 0..100 {
            m.insert(k, ());
        }
        let stats = m.stats_snapshot();
        assert_eq!(stats.ops, 100);
        assert!(stats.attempts >= 100);
        assert_eq!((stats.frozen_installs, stats.freeze_retries), (0, 0));
    }
}
