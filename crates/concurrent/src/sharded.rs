//! Sharded universal construction: hash-partitioning keys across many
//! independent `Root_Ptr` registers.
//!
//! The paper's construction serializes every successful update through a
//! single [`VersionCell`](pathcopy_core::VersionCell) CAS. Its own model
//! (§3) shows that this stops scaling once the per-update path-copying
//! work no longer dominates the root CAS — the single register becomes
//! the ceiling. [`ShardedTreapMap`] pushes past that ceiling the way
//! production stores do: keys are hash-partitioned across `N` independent
//! [`PathCopyUc`] roots, so updates to different shards never contend,
//! while every per-shard operation keeps the UC's lock-freedom and
//! linearizability.
//!
//! What is preserved and what is traded:
//!
//! * **Per-key operations** (`insert`, `remove`, `get`, `compute`, …)
//!   remain linearizable: a key lives in exactly one shard, and that
//!   shard is a plain path-copying UC.
//! * **Per-shard snapshots** ([`ShardedTreapMap::snapshot_shard`]) remain
//!   O(1), and wait-free except while a cross-shard
//!   [`transact`](ShardedTreapMap::transact) is mid-install on the shard
//!   (a window of a few atomic operations, during which reads of the
//!   involved shards briefly spin so the batch flips atomically).
//! * **Whole-map snapshots** ([`ShardedTreapMap::snapshot_all`]) need a
//!   validated double scan over the shard roots: the scan retries until
//!   it observes every root unchanged across two passes, which proves a
//!   moment existed between the passes when all recorded versions were
//!   simultaneously current (versions are never re-installed, so pointer
//!   equality across both passes rules out intermediate changes). This
//!   is lock-free but no longer wait-free — the price of a consistent
//!   cut across `N` registers without a global serialization point.
//! * **Ordered whole-map iteration** requires merging shards
//!   ([`ShardedSnapshot::to_sorted_vec`]); hash partitioning destroys
//!   cross-shard key order.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Peekable;
use std::ops::Bound;
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pathcopy_core::api::{self, DiffEntry};
use pathcopy_core::{BackoffPolicy, PathCopyUc, StatsSnapshot, Update};
use pathcopy_trees::hash::splitmix64;
use pathcopy_trees::{treap, TreapMap as PTreapMap};

use crate::snapshot::TreapRange;

/// A lock-free concurrent ordered-per-shard map: keys are hash-partitioned
/// across `N` independent path-copying universal constructions.
///
/// # Examples
///
/// ```
/// use pathcopy_concurrent::ShardedTreapMap;
///
/// let m = ShardedTreapMap::with_shards(8);
/// m.insert(1, "one");
/// m.insert(2, "two");
/// assert_eq!(m.get(&1), Some("one"));
///
/// // A coherent cut across all shards:
/// let snap = m.snapshot_all();
/// m.remove(&2);
/// assert_eq!(snap.get(&2), Some(&"two"));
/// assert_eq!(snap.len(), 2);
/// ```
pub struct ShardedTreapMap<K, V> {
    pub(crate) shards: Box<[Shard<K, V>]>,
    /// `shards.len() - 1`; shard count is always a power of two.
    pub(crate) mask: u64,
    /// Per-shard commit locks for cross-shard batch transactions
    /// ([`ShardedTreapMap::transact`]): a multi-shard commit acquires the
    /// locks of its shards in ascending index order (deadlock-free) to
    /// exclude rival multi-shard commits. Per-key operations and
    /// single-shard batches never touch these locks.
    pub(crate) commit_locks: Box<[CachePadded<Mutex<()>>]>,
}

/// One shard: a cache-padded single-root UC, so neighbouring `Root_Ptr`
/// registers never share a line (the whole point is independent CAS
/// targets).
pub(crate) type Shard<K, V> = CachePadded<PathCopyUc<PTreapMap<K, V>>>;

/// Salt folded into the shard hash so shard choice is decorrelated from
/// the treap priority (which is also derived from the key's hash).
const SHARD_SALT: u64 = 0x9e6c_63d0_876a_46b1;

pub(crate) fn shard_index<K: Hash + ?Sized>(key: &K, mask: u64) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (splitmix64(h.finish() ^ SHARD_SALT) & mask) as usize
}

impl<K, V> Default for ShardedTreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// An 8-shard map; see [`ShardedTreapMap::with_shards`] to choose.
    fn default() -> Self {
        Self::with_shards(8)
    }
}

impl<K, V> ShardedTreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// Creates an empty map with `shards` partitions (rounded up to a
    /// power of two, minimum 1). With 1 shard this is exactly the paper's
    /// single-root construction.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_backoff(shards, BackoffPolicy::None)
    }

    /// [`with_shards`](Self::with_shards) with an explicit per-shard CAS
    /// retry backoff policy.
    pub fn with_shards_and_backoff(shards: usize, backoff: BackoffPolicy) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| CachePadded::new(PathCopyUc::with_backoff(PTreapMap::new(), backoff)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let commit_locks = (0..n)
            .map(|_| CachePadded::new(Mutex::new(())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedTreapMap {
            shards,
            mask: (n - 1) as u64,
            commit_locks,
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for<Q: Hash + ?Sized>(&self, key: &Q) -> &PathCopyUc<PTreapMap<K, V>> {
        &self.shards[shard_index(key, self.mask)]
    }

    /// Inserts `key -> value`, returning the previous value if any (no
    /// allocation and no CAS when `key` already maps to an equal value).
    /// Lock-free; contends only with updates that hash to the same shard.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key)
            .update(move |map| match map.upsert(key.clone(), value.clone()) {
                (Some(next), old) => Update::Replace(next, old),
                (None, old) => Update::Keep(old),
            })
    }

    /// Inserts only if `key` is absent; returns `true` on success. When
    /// the key exists, no CAS is performed.
    pub fn insert_if_absent(&self, key: K, value: V) -> bool {
        self.shard_for(&key).update(move |map| {
            match map.insert_if_absent(key.clone(), value.clone()) {
                Some(next) => Update::Replace(next, true),
                None => Update::Keep(false),
            }
        })
    }

    /// Removes `key`, returning its value if present (no CAS when absent).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard_for(key).update(|map| match map.remove(key) {
            Some((next, v)) => Update::Replace(next, Some(v)),
            None => Update::Keep(None),
        })
    }

    /// Atomically applies `f` to the value at `key` (or `None` if absent)
    /// and stores its result (`None` removes the key). Returns the
    /// previous value. Linearized at the owning shard's root CAS — or,
    /// when `f` changes nothing, at the root load.
    ///
    /// Like [`PathCopyUc::update`], `f` may run several times (once per
    /// CAS attempt under contention), so it must be a pure function of
    /// the value it is given — side effects would fire once per attempt.
    pub fn compute(&self, key: &K, f: impl Fn(Option<&V>) -> Option<V>) -> Option<V> {
        self.shard_for(key).update(|map| {
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

    /// Looks up `key`, cloning the value. Wait-free, except that it
    /// briefly spins if a cross-shard [`transact`](Self::transact) is
    /// mid-install on the owning shard.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_for(key).read(|map| map.get(key).cloned())
    }

    /// `true` if `key` is present. Wait-free, with the same
    /// mid-install caveat as [`get`](Self::get).
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).read(|map| map.contains_key(key))
    }

    /// Total number of entries, summed shard by shard.
    ///
    /// **Not a linearizable count.** Each per-shard count is exact, but
    /// the shards are read at different moments, so under concurrent
    /// updates the sum can correspond to no single point in time — e.g.
    /// a cross-shard [`transact`](Self::transact) that removes a key
    /// from one shard and inserts one into another can be observed
    /// half-summed, skewing the total by ±1 per in-flight batch (like
    /// `ConcurrentHashMap::size`). For an exact, linearizable count take
    /// a coherent cut: [`snapshot_all`](Self::snapshot_all)`.len()`
    /// (the trait form is
    /// [`Snapshottable::snapshot`](pathcopy_core::Snapshottable::snapshot)
    /// + [`MapSnapshot::len`](pathcopy_core::MapSnapshot::len)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read(|m| m.len())).sum()
    }

    /// `true` if every shard is empty (weakly consistent, like
    /// [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read(|m| m.is_empty()))
    }

    /// O(1) snapshot of the single shard owning `key` (wait-free, with
    /// the mid-install caveat of [`get`](Self::get)).
    ///
    /// All operations on keys that hash to this shard are linearizable
    /// against the returned version; keys of other shards are absent.
    pub fn snapshot_shard_of(&self, key: &K) -> Arc<PTreapMap<K, V>> {
        self.shard_for(key).snapshot()
    }

    /// O(1) snapshot of shard `index` (wait-free, with the mid-install
    /// caveat of [`get`](Self::get)).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.shard_count()`.
    pub fn snapshot_shard(&self, index: usize) -> Arc<PTreapMap<K, V>> {
        self.shards[index].snapshot()
    }

    /// A coherent point-in-time snapshot of **all** shards.
    ///
    /// Linearizable: retries a double scan until every shard root is
    /// pointer-identical across two passes. Versions are never
    /// re-installed (every committed update allocates a fresh `Arc`, and
    /// the scan holds the first pass's versions alive, so their addresses
    /// cannot be recycled) — equality across both passes therefore proves
    /// each root was unchanged for the whole interval between the end of
    /// pass one and the start of pass two, and any instant in that gap is
    /// a consistent cut. Lock-free, not wait-free: sustained updates on
    /// every shard can force retries.
    pub fn snapshot_all(&self) -> ShardedSnapshot<K, V> {
        let mut pass: Vec<Arc<PTreapMap<K, V>>> =
            self.shards.iter().map(|s| s.snapshot()).collect();
        loop {
            let mut stable = true;
            for (i, shard) in self.shards.iter().enumerate() {
                if !shard.is_current_version(&pass[i]) {
                    pass[i] = shard.snapshot();
                    stable = false;
                }
            }
            if stable {
                return ShardedSnapshot {
                    shards: pass,
                    mask: self.mask,
                };
            }
        }
    }

    /// Merged attempt/retry statistics across all shards.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut merged = self.shards[0].stats().snapshot();
        for shard in &self.shards[1..] {
            let s = shard.stats().snapshot();
            merged.ops += s.ops;
            merged.attempts += s.attempts;
            merged.cas_failures += s.cas_failures;
            merged.noop_updates += s.noop_updates;
            merged.reads += s.reads;
            merged.frozen_installs += s.frozen_installs;
            merged.freeze_retries += s.freeze_retries;
            for (acc, v) in merged.attempt_hist.iter_mut().zip(s.attempt_hist) {
                *acc += v;
            }
        }
        merged
    }
}

/// An immutable, coherent point-in-time view of a [`ShardedTreapMap`];
/// see [`ShardedTreapMap::snapshot_all`].
///
/// Implements [`MapSnapshot`](pathcopy_core::MapSnapshot): iteration and
/// `range(..)` are **lazy** k-way merges of the per-shard persistent
/// trees (hash partitioning destroys cross-shard order, so the merge
/// restores it on the fly), `len` is exact, and `diff` runs shard by
/// shard, pruning shard roots — and subtrees — shared between the two
/// cuts.
pub struct ShardedSnapshot<K, V> {
    shards: Vec<Arc<PTreapMap<K, V>>>,
    mask: u64,
}

impl<K, V> Clone for ShardedSnapshot<K, V> {
    fn clone(&self) -> Self {
        ShardedSnapshot {
            shards: self.shards.clone(),
            mask: self.mask,
        }
    }
}

impl<K, V> ShardedSnapshot<K, V>
where
    K: Ord + Clone + Hash,
    V: Clone,
{
    /// Looks up `key` in the snapshot.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.shards[shard_index(key, self.mask)].get(key)
    }

    /// `true` if `key` was present at snapshot time.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shards[shard_index(key, self.mask)].contains_key(key)
    }

    /// Exact number of entries at snapshot time.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` if the map was empty at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Number of shards in the snapshot.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The snapshot of shard `index`.
    pub fn shard(&self, index: usize) -> &Arc<PTreapMap<K, V>> {
        &self.shards[index]
    }

    /// Lazy iterator over every entry in global key order (a k-way merge
    /// of the per-shard trees; no intermediate `Vec`).
    pub fn iter(&self) -> MergedRange<'_, K, V> {
        self.range_by(Bound::Unbounded, Bound::Unbounded)
    }

    /// Lazy iterator over the entries between the two bounds, in global
    /// key order.
    pub fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> MergedRange<'_, K, V> {
        MergedRange {
            arms: self
                .shards
                .iter()
                .map(|s| s.range((lo.cloned(), hi.cloned())).peekable())
                .collect(),
        }
    }

    /// Lazy iterator over the entries in `range`, in global key order.
    pub fn range<R: std::ops::RangeBounds<K>>(&self, range: R) -> MergedRange<'_, K, V> {
        self.range_by(range.start_bound(), range.end_bound())
    }

    /// Collects all entries in global key order.
    pub fn to_sorted_vec(&self) -> Vec<(K, V)> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

impl<K, V> fmt::Debug for ShardedSnapshot<K, V>
where
    K: Ord + Clone + Hash + fmt::Debug,
    V: Clone + fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> api::MapSnapshot<K, V> for ShardedSnapshot<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    type Range<'a>
        = MergedRange<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn get(&self, key: &K) -> Option<&V> {
        ShardedSnapshot::get(self, key)
    }

    fn len(&self) -> usize {
        ShardedSnapshot::len(self)
    }

    fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> Self::Range<'_> {
        ShardedSnapshot::range_by(self, lo, hi)
    }

    fn diff(&self, newer: &Self) -> Vec<DiffEntry<K, V>> {
        let mut out = Vec::new();
        if self.mask == newer.mask {
            // Keys never move between shards while the count is fixed,
            // so the diff decomposes per shard; unchanged shard roots
            // (and shared subtrees below changed roots) are pruned by
            // pointer equality inside the per-shard diff.
            for (a, b) in self.shards.iter().zip(&newer.shards) {
                out.extend(a.diff(b));
            }
            out.sort_by(|x, y| x.key().cmp(y.key()));
        } else {
            // Different shard counts (e.g. across a future re-sharding):
            // fall back to a linear merge of the ordered iterations.
            let mut a = self.iter().peekable();
            let mut b = newer.iter().peekable();
            loop {
                match (a.peek(), b.peek()) {
                    (None, None) => break,
                    (Some(_), None) => {
                        let (k, v) = a.next().expect("peeked");
                        out.push(DiffEntry::Removed(k.clone(), v.clone()));
                    }
                    (None, Some(_)) => {
                        let (k, v) = b.next().expect("peeked");
                        out.push(DiffEntry::Added(k.clone(), v.clone()));
                    }
                    (Some(&(ka, _)), Some(&(kb, _))) => match ka.cmp(kb) {
                        std::cmp::Ordering::Less => {
                            let (k, v) = a.next().expect("peeked");
                            out.push(DiffEntry::Removed(k.clone(), v.clone()));
                        }
                        std::cmp::Ordering::Greater => {
                            let (k, v) = b.next().expect("peeked");
                            out.push(DiffEntry::Added(k.clone(), v.clone()));
                        }
                        std::cmp::Ordering::Equal => {
                            let (k, va) = a.next().expect("peeked");
                            let (_, vb) = b.next().expect("peeked");
                            if va != vb {
                                out.push(DiffEntry::Changed(k.clone(), va.clone(), vb.clone()));
                            }
                        }
                    },
                }
            }
        }
        out
    }
}

/// Lazy k-way merge over the per-shard range iterators of a
/// [`ShardedSnapshot`]: yields entries in global key order without
/// materializing anything.
pub struct MergedRange<'a, K: Ord, V> {
    arms: Vec<Peekable<TreapRange<'a, K, V>>>,
}

impl<'a, K: Ord, V> Iterator for MergedRange<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        // Shard counts are small (a handful to a few dozen), so a linear
        // scan for the minimum head beats heap bookkeeping.
        let mut best: Option<(usize, &'a K)> = None;
        for (i, arm) in self.arms.iter_mut().enumerate() {
            if let Some(&(k, _)) = arm.peek() {
                let better = match best {
                    None => true,
                    Some((_, bk)) => k < bk,
                };
                if better {
                    best = Some((i, k));
                }
            }
        }
        let (i, _) = best?;
        self.arms[i].next()
    }
}

/// Owning form of [`MergedRange`]: consumes a [`ShardedSnapshot`],
/// yielding `(K, V)` clones in global key order.
/// One arm of [`ShardedIntoIter`]: the buffered head entry plus the rest
/// of that shard's stream.
type IntoArm<K, V> = (Option<(K, V)>, treap::IntoIter<K, V>);

/// Owning form of [`MergedRange`]: consumes a [`ShardedSnapshot`],
/// yielding `(K, V)` clones in global key order.
pub struct ShardedIntoIter<K, V> {
    arms: Vec<IntoArm<K, V>>,
}

impl<K: Ord + Clone, V: Clone> Iterator for ShardedIntoIter<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<usize> = None;
        for (i, (head, _)) in self.arms.iter().enumerate() {
            if let Some((k, _)) = head {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (bk, _) = self.arms[b].0.as_ref().expect("best head present");
                        k < bk
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let i = best?;
        let item = self.arms[i].0.take();
        self.arms[i].0 = self.arms[i].1.next();
        item
    }
}

impl<K: Ord + Clone, V: Clone> IntoIterator for ShardedSnapshot<K, V> {
    type Item = (K, V);
    type IntoIter = ShardedIntoIter<K, V>;

    fn into_iter(self) -> Self::IntoIter {
        ShardedIntoIter {
            arms: self
                .shards
                .into_iter()
                .map(|s| {
                    let mut it = PTreapMap::clone(&s).into_iter();
                    (it.next(), it)
                })
                .collect(),
        }
    }
}

impl<'a, K, V> IntoIterator for &'a ShardedSnapshot<K, V>
where
    K: Ord + Clone + Hash,
    V: Clone,
{
    type Item = (&'a K, &'a V);
    type IntoIter = MergedRange<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K, V> api::ConcurrentMap<K, V> for ShardedTreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    fn insert(&self, key: K, value: V) -> Option<V> {
        ShardedTreapMap::insert(self, key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        ShardedTreapMap::remove(self, key)
    }

    fn get(&self, key: &K) -> Option<V> {
        ShardedTreapMap::get(self, key)
    }

    fn contains_key(&self, key: &K) -> bool {
        ShardedTreapMap::contains_key(self, key)
    }

    /// Weakly consistent per-shard sum — see [`ShardedTreapMap::len`].
    fn len(&self) -> usize {
        ShardedTreapMap::len(self)
    }

    fn compute(&self, key: &K, f: &dyn Fn(Option<&V>) -> Option<V>) -> Option<V> {
        ShardedTreapMap::compute(self, key, f)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        ShardedTreapMap::stats_snapshot(self)
    }
}

impl<K, V> api::Snapshottable for ShardedTreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    type Snapshot = ShardedSnapshot<K, V>;

    /// A coherent cut of all shards via the validated double scan
    /// (lock-free, not wait-free) — see
    /// [`ShardedTreapMap::snapshot_all`].
    fn snapshot(&self) -> ShardedSnapshot<K, V> {
        self.snapshot_all()
    }
}

impl<K, V> fmt::Debug for ShardedTreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync + fmt::Debug,
    V: Clone + PartialEq + Send + Sync + fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot_all();
        f.debug_map().entries(snap.iter()).finish()
    }
}

impl<K, V> FromIterator<(K, V)> for ShardedTreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// Builds a map with the default shard count
    /// ([`ShardedTreapMap::default`]).
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let map = ShardedTreapMap::default();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K, V> Extend<(K, V)> for ShardedTreapMap<K, V>
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
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedTreapMap<i64, ()> = ShardedTreapMap::with_shards(5);
        assert_eq!(m.shard_count(), 8);
        let m: ShardedTreapMap<i64, ()> = ShardedTreapMap::with_shards(0);
        assert_eq!(m.shard_count(), 1);
    }

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
    fn keys_spread_across_shards() {
        let m: ShardedTreapMap<i64, ()> = ShardedTreapMap::with_shards(16);
        for k in 0..4096 {
            m.insert(k, ());
        }
        let snap = m.snapshot_all();
        let loads: Vec<usize> = (0..m.shard_count()).map(|i| snap.shard(i).len()).collect();
        assert_eq!(loads.iter().sum::<usize>(), 4096);
        // Uniform hashing: no shard should be empty or grossly oversized.
        let expect = 4096 / 16;
        for (i, &l) in loads.iter().enumerate() {
            assert!(
                l > expect / 3 && l < expect * 3,
                "shard {i} holds {l} of 4096 keys (expected ~{expect})"
            );
        }
    }

    #[test]
    fn single_shard_degenerates_to_plain_uc() {
        let m: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(1);
        for k in 0..100 {
            m.insert(k, -k);
        }
        assert_eq!(m.snapshot_shard(0).len(), 100);
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
        // A "bank transfer" invariant: two keys (in different shards with
        // high probability) always sum to 0 under paired updates; a
        // coherent snapshot must never see a half-applied pair. With
        // per-shard snapshots taken naively this fails quickly.
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
            let mut coherent_cuts = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = m.snapshot_all();
                let a = *snap.get(&0).unwrap();
                let b = *snap.get(&1).unwrap();
                // The writer updates key 0 then key 1, so a cut between
                // the two computes may see the sum mid-transfer by design;
                // what must NEVER happen is seeing a *future* value of
                // key 1 with a *past* value of key 0 (sum < 0 is
                // impossible in any prefix-consistent cut).
                assert!(
                    (0..=1).contains(&(a + b)),
                    "torn snapshot: {a} + {b} = {}",
                    a + b
                );
                coherent_cuts += 1;
            }
            assert!(coherent_cuts > 0);
        });
    }

    #[test]
    fn stats_merge_across_shards() {
        let m: ShardedTreapMap<i64, ()> = ShardedTreapMap::with_shards(4);
        for k in 0..100 {
            m.insert(k, ());
        }
        let stats = m.stats_snapshot();
        assert_eq!(stats.ops, 100);
        assert!(stats.attempts >= 100);
    }
}
