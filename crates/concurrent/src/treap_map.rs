//! Lock-free concurrent ordered map built on the persistent treap.

use std::fmt;
use std::hash::Hash;
use std::ops::RangeBounds;
use std::sync::Arc;

use pathcopy_core::api;
use pathcopy_core::{BackoffPolicy, PathCopyUc, StatsSnapshot, UcStats, Update, UpdateReport};
use pathcopy_trees::TreapMap as PTreapMap;

use crate::snapshot::TreapSnapshot;

/// A lock-free concurrent ordered map backed by a persistent treap.
///
/// Values are cloned out of snapshots on reads, so `V: Clone` (use
/// `Arc<V>` for expensive payloads — exactly what an MVCC store does).
///
/// # Examples
///
/// ```
/// use pathcopy_concurrent::TreapMap;
///
/// let m = TreapMap::new();
/// m.insert(1, "one");
/// m.insert(2, "two");
/// assert_eq!(m.get(&1), Some("one"));
/// assert_eq!(m.insert(1, "uno"), Some("one"));
///
/// // Consistent multi-key reads via snapshots:
/// let snap = m.snapshot();
/// m.remove(&2);
/// assert_eq!(snap.get(&2), Some(&"two"));
/// ```
pub struct TreapMap<K, V> {
    uc: PathCopyUc<PTreapMap<K, V>>,
}

impl<K, V> Default for TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// Creates an empty map.
    pub fn new() -> Self {
        TreapMap {
            uc: PathCopyUc::new(PTreapMap::new()),
        }
    }

    /// Creates an empty map with an explicit retry backoff policy.
    pub fn with_backoff(backoff: BackoffPolicy) -> Self {
        TreapMap {
            uc: PathCopyUc::with_backoff(PTreapMap::new(), backoff),
        }
    }

    /// Creates a map from a prebuilt persistent version.
    pub fn from_version(initial: PTreapMap<K, V>) -> Self {
        TreapMap {
            uc: PathCopyUc::new(initial),
        }
    }

    /// Inserts `key -> value`, returning the previous value if any (no
    /// allocation and no CAS when `key` already maps to an equal value).
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.insert_reported(key, value).result
    }

    /// [`insert`](Self::insert) with attempt-count instrumentation.
    pub fn insert_reported(&self, key: K, value: V) -> UpdateReport<Option<V>> {
        self.uc
            .update_reported(move |map| match map.upsert(key.clone(), value.clone()) {
                (Some(next), old) => Update::Replace(next, old),
                (None, old) => Update::Keep(old),
            })
    }

    /// Inserts only if `key` is absent; returns `true` on success. When
    /// the key exists, no CAS is performed.
    pub fn insert_if_absent(&self, key: K, value: V) -> bool {
        self.uc
            .update_reported(
                move |map| match map.insert_if_absent(key.clone(), value.clone()) {
                    Some(next) => Update::Replace(next, true),
                    None => Update::Keep(false),
                },
            )
            .result
    }

    /// Removes `key`, returning its value if present (no CAS when absent).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.remove_reported(key).result
    }

    /// [`remove`](Self::remove) with attempt-count instrumentation.
    pub fn remove_reported(&self, key: &K) -> UpdateReport<Option<V>> {
        self.uc.update_reported(|map| match map.remove(key) {
            Some((next, v)) => Update::Replace(next, Some(v)),
            None => Update::Keep(None),
        })
    }

    /// Atomically applies `f` to the value at `key` (or `None` if absent)
    /// and stores its result (`None` result removes the key). Returns the
    /// previous value. This is a general read-modify-write linearized at
    /// the root CAS — or, when `f` changes nothing, at the root load.
    pub fn compute(&self, key: &K, f: impl Fn(Option<&V>) -> Option<V>) -> Option<V> {
        self.uc.update(|map| {
            let old = map.get(key).cloned();
            match f(old.as_ref()) {
                Some(new_v) => match map.upsert(key.clone(), new_v) {
                    (Some(next), prev) => Update::Replace(next, prev),
                    (None, prev) => Update::Keep(prev),
                },
                None => match map.remove(key) {
                    Some((next, prev)) => Update::Replace(next, Some(prev)),
                    None => Update::Keep(None),
                },
            }
        })
    }

    /// Looks up `key`, cloning the value. Wait-free.
    pub fn get(&self, key: &K) -> Option<V> {
        self.uc.read(|map| map.get(key).cloned())
    }

    /// `true` if `key` is present. Wait-free.
    pub fn contains_key(&self, key: &K) -> bool {
        self.uc.read(|map| map.contains_key(key))
    }

    /// Number of entries. Wait-free.
    pub fn len(&self) -> usize {
        self.uc.read(|map| map.len())
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable point-in-time snapshot supporting all persistent-map
    /// reads (iteration, `range`, `select`, `rank`, …) plus the
    /// [`MapSnapshot`](pathcopy_core::MapSnapshot) interface (lazy
    /// `range`, snapshot-to-snapshot `diff`).
    pub fn snapshot(&self) -> TreapSnapshot<K, V> {
        TreapSnapshot::new(self.uc.snapshot())
    }

    /// Collects the entries in `range` from a consistent snapshot into a
    /// `Vec`. Eager; prefer `self.snapshot().range(..)` (see
    /// [`MapSnapshot`](pathcopy_core::MapSnapshot)) to iterate lazily
    /// without materializing.
    pub fn range_to_vec<R: RangeBounds<K>>(&self, range: R) -> Vec<(K, V)> {
        self.uc.read(|map| {
            map.range(range)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        })
    }

    /// Attempt/retry statistics.
    pub fn stats(&self) -> &Arc<UcStats> {
        self.uc.stats()
    }

    /// Unconditionally replaces the contents (benchmark setup/reset).
    pub fn reset_to(&self, version: PTreapMap<K, V>) {
        self.uc.replace_version(version);
    }
}

impl<K, V> api::ConcurrentMap<K, V> for TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    fn insert(&self, key: K, value: V) -> Option<V> {
        TreapMap::insert(self, key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        TreapMap::remove(self, key)
    }

    fn get(&self, key: &K) -> Option<V> {
        TreapMap::get(self, key)
    }

    fn contains_key(&self, key: &K) -> bool {
        TreapMap::contains_key(self, key)
    }

    fn len(&self) -> usize {
        TreapMap::len(self)
    }

    fn compute(&self, key: &K, f: &dyn Fn(Option<&V>) -> Option<V>) -> Option<V> {
        TreapMap::compute(self, key, f)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.uc.stats().snapshot()
    }
}

impl<K, V> api::Snapshottable for TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    type Snapshot = TreapSnapshot<K, V>;

    /// O(1): loads the current root.
    fn snapshot(&self) -> TreapSnapshot<K, V> {
        TreapMap::snapshot(self)
    }
}

impl<K, V> fmt::Debug for TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync + fmt::Debug,
    V: Clone + Send + Sync + fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.uc
            .read(|map| f.debug_map().entries(map.iter()).finish())
    }
}

impl<K, V> FromIterator<(K, V)> for TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// Builds the persistent prefill off-line, then wraps it — no CAS
    /// traffic during construction.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        TreapMap::from_version(iter.into_iter().collect())
    }
}

impl<K, V> Extend<(K, V)> for TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_semantics() {
        let m = TreapMap::new();
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.remove(&1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn insert_if_absent_races_have_one_winner() {
        let m: TreapMap<i64, usize> = TreapMap::new();
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for t in 0..8 {
                let m = &m;
                let winners = &winners;
                sc.spawn(move || {
                    if m.insert_if_absent(7, t) {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(m.get(&7).is_some());
    }

    #[test]
    fn compute_is_atomic_counter() {
        let m: TreapMap<&'static str, u64> = TreapMap::new();
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
    fn compute_none_removes() {
        let m: TreapMap<i64, i64> = TreapMap::new();
        m.insert(1, 5);
        let prev = m.compute(&1, |_| None);
        assert_eq!(prev, Some(5));
        assert!(!m.contains_key(&1));
        // Removing an absent key via compute is a no-op.
        let prev = m.compute(&1, |_| None);
        assert_eq!(prev, None);
    }

    #[test]
    fn range_reads_are_consistent() {
        let m: TreapMap<i64, i64> = TreapMap::new();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        let v = m.range_to_vec(10..15);
        assert_eq!(v, (10..15).map(|k| (k, k * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn snapshots_see_stable_history() {
        let m: TreapMap<i64, String> = TreapMap::new();
        let mut snaps = Vec::new();
        for i in 0..10 {
            m.insert(i, format!("v{i}"));
            snaps.push(m.snapshot());
        }
        for (i, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.len(), i + 1, "snapshot {i} drifted");
        }
    }
}
