//! Lock-free concurrent ordered map built on the persistent treap.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use pathcopy_core::api;
use pathcopy_core::{BackoffPolicy, PathCopyUc, UcStats, Update, UpdateReport};
use pathcopy_trees::TreapMap as PTreapMap;

use crate::batch::{apply_batch, failed_guards, BatchOp, BatchResult, GuardAbort};
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
    pub(crate) uc: PathCopyUc<PTreapMap<K, V>>,
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

    /// Atomically applies a batch of operations, returning one
    /// [`BatchResult`] per op, in batch order.
    ///
    /// The batch is one sequential function from one version to the
    /// next, so it commits with one root CAS like any point update — or
    /// with none when it changes nothing, linearizing at the root load.
    /// Ops apply in order: later ops (a [`BatchOp::Get`], a
    /// [`BatchOp::Cas`] guard) see earlier writes of the same batch. A
    /// failed `Cas` reports `Cas(false)` and the rest of the batch
    /// commits. An empty batch touches nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathcopy_concurrent::{BatchOp, BatchResult, TreapMap};
    ///
    /// let m: TreapMap<u64, u64> = TreapMap::new();
    /// let r = m.transact(&[
    ///     BatchOp::Insert(1, 10),
    ///     BatchOp::Insert(2, 20),
    ///     BatchOp::Cas { key: 1, expected: Some(10), new: Some(11) },
    ///     BatchOp::Remove(3),
    /// ]);
    /// assert_eq!(
    ///     r,
    ///     vec![
    ///         BatchResult::Inserted(None),
    ///         BatchResult::Inserted(None),
    ///         BatchResult::Cas(true),
    ///         BatchResult::Removed(None),
    ///     ]
    /// );
    /// ```
    pub fn transact(&self, batch: &[BatchOp<K, V>]) -> Vec<BatchResult<V>> {
        self.transact_ops(batch, false)
            .expect("unguarded batches never abort")
    }

    /// Sinfonia-style guarded form of [`transact`](Self::transact): if
    /// **any** [`BatchOp::Cas`] guard fails, the whole batch aborts with
    /// zero writes and the failed guard indices come back as a
    /// [`GuardAbort`]. The abort returns without a CAS, so it linearizes
    /// at the root load that evaluated the guards.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathcopy_concurrent::{BatchOp, GuardAbort, TreapMap};
    ///
    /// let m: TreapMap<u64, u64> = TreapMap::new();
    /// m.insert(1, 10);
    /// // The guard is stale, so the insert must not land either.
    /// let err = m
    ///     .transact_guarded(&[
    ///         BatchOp::Cas { key: 1, expected: Some(99), new: Some(100) },
    ///         BatchOp::Insert(2, 20),
    ///     ])
    ///     .unwrap_err();
    /// assert_eq!(err, GuardAbort { failed: vec![0] });
    /// assert_eq!(m.get(&2), None, "aborted batch wrote nothing");
    /// ```
    pub fn transact_guarded(
        &self,
        batch: &[BatchOp<K, V>],
    ) -> Result<Vec<BatchResult<V>>, GuardAbort> {
        self.transact_ops(batch, true)
    }

    /// `batch` as one load/path-copy/CAS loop.
    fn transact_ops(
        &self,
        batch: &[BatchOp<K, V>],
        guarded: bool,
    ) -> Result<Vec<BatchResult<V>>, GuardAbort> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        self.uc.update(|map| {
            let (next, results) = apply_batch(map, batch);
            if guarded {
                let failed = failed_guards(&results);
                if !failed.is_empty() {
                    return Update::Keep(Err(GuardAbort { failed }));
                }
            }
            match next {
                Some(next) => Update::Replace(next, Ok(results)),
                None => Update::Keep(Ok(results)),
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

    /// Attempt/retry statistics.
    pub fn stats(&self) -> &Arc<UcStats> {
        self.uc.stats()
    }

    /// Unconditionally replaces the contents (benchmark setup/reset).
    pub fn reset_to(&self, version: PTreapMap<K, V>) {
        self.uc.replace_version(version);
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

/// Entries an `Extend` applies per [`TreapMap::transact`]: each chunk is
/// one descent and one root CAS instead of one per key, and the buffer
/// stays small however long the input is. Larger chunks build no faster
/// (the spine a chunk re-copies is ~20 nodes) but their buffers and the
/// batch's bookkeeping raise the peak heap: filling eight 2^16-key maps
/// read +2 MiB peak RSS at 1 024, +3.5–6.5 MiB at 4 096 and none at
/// 256.
const EXTEND_CHUNK: usize = 256;

impl<K, V> Extend<(K, V)> for TreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// Inserts the entries a few hundred at a time, each chunk one
    /// atomic [`transact`](TreapMap::transact): one descent and one CAS
    /// per chunk, not one per key.
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        let mut chunk = Vec::new();
        for (k, v) in iter {
            chunk.push(BatchOp::Insert(k, v));
            if chunk.len() == EXTEND_CHUNK {
                self.transact(&chunk);
                chunk.clear();
            }
        }
        self.transact(&chunk);
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
    fn a_batch_is_one_update_and_sees_its_own_writes() {
        let m: TreapMap<i64, i64> = TreapMap::new();
        m.insert(1, 10);
        let r = m.transact(&[
            BatchOp::Insert(2, 20),
            BatchOp::Get(2),
            BatchOp::Cas {
                key: 1,
                expected: Some(10),
                new: None,
            },
            BatchOp::Remove(3),
        ]);
        assert_eq!(
            r,
            vec![
                BatchResult::Inserted(None),
                BatchResult::Got(Some(20)),
                BatchResult::Cas(true),
                BatchResult::Removed(None),
            ]
        );
        assert_eq!((m.get(&1), m.get(&2)), (None, Some(20)));
        let stats = m.stats().snapshot();
        assert_eq!((stats.ops, stats.attempts), (2, 2), "insert + one batch");

        // A batch that changes nothing is a no-op update, not a CAS.
        m.transact(&[BatchOp::Get(2), BatchOp::Insert(2, 20)]);
        assert_eq!(m.stats().snapshot().noop_updates, 1);
    }

    #[test]
    fn a_guarded_abort_writes_nothing_and_an_empty_batch_touches_nothing() {
        let m: TreapMap<i64, i64> = TreapMap::new();
        m.insert(1, 10);
        let err = m
            .transact_guarded(&[
                BatchOp::Insert(2, 20),
                BatchOp::Cas {
                    key: 1,
                    expected: Some(99),
                    new: Some(100),
                },
            ])
            .unwrap_err();
        assert_eq!(err, GuardAbort { failed: vec![1] });
        assert_eq!((m.get(&1), m.get(&2)), (Some(10), None));
        let before = m.stats().snapshot();
        assert!(m.transact(&[]).is_empty());
        assert_eq!(m.transact_guarded(&[]), Ok(Vec::new()));
        assert_eq!(m.stats().snapshot(), before);
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
