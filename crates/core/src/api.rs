//! The concurrent-collection trait family.
//!
//! The set backends in `pathcopy-concurrent` — the one-root treap as
//! `TreapMap<K, ()>`, the external BST and the lock-based baseline —
//! expose the same divergent-looking inherent API; these traits are the
//! one abstraction boundary over them, so benchmarks, oracle tests and
//! applications are written once and run against every set backend. The
//! one map backend, `TreapMap`, is named directly; its snapshot
//! implements [`MapSnapshot`].
//!
//! * [`ConcurrentSet`] — linearizable point operations plus statistics.
//!   Object safe, so backends can live behind
//!   `Box<dyn ConcurrentSet<i64>>` in registries and harnesses.
//! * [`Snapshottable`] — the paper's headline capability as a
//!   first-class handle: `snapshot()` returns a cheap (`O(1)`),
//!   immutable, `Send + Sync` view.
//! * [`MapSnapshot`] / [`SetSnapshot`] — what a snapshot can do:
//!   **lazy** in-order iteration ([`iter`](MapSnapshot::iter),
//!   [`range`](MapSnapshot::range) return real iterators over the
//!   persistent tree, never an intermediate `Vec`), exact
//!   [`len`](MapSnapshot::len), point reads, and snapshot-to-snapshot
//!   [`diff`](MapSnapshot::diff) that exploits shared-subtree pointer
//!   equality to skip unchanged regions — the canonical path-copying
//!   trick, giving sublinear diffs between nearby versions.

use std::ops::{Bound, RangeBounds};

use crate::stats::StatsSnapshot;

/// One entry of a snapshot-to-snapshot map diff, in ascending key order.
///
/// `old.diff(&new)` describes how to get from `old` to `new`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffEntry<K, V> {
    /// The key is present in the newer snapshot only.
    Added(K, V),
    /// The key is present in the older snapshot only.
    Removed(K, V),
    /// The key is present in both snapshots with different values
    /// (`Changed(key, old_value, new_value)`).
    Changed(K, V, V),
}

impl<K, V> DiffEntry<K, V> {
    /// The key this entry concerns.
    pub fn key(&self) -> &K {
        match self {
            DiffEntry::Added(k, _) | DiffEntry::Removed(k, _) | DiffEntry::Changed(k, _, _) => k,
        }
    }
}

/// One entry of a snapshot-to-snapshot set diff, in ascending key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetDiffEntry<K> {
    /// The key is present in the newer snapshot only.
    Added(K),
    /// The key is present in the older snapshot only.
    Removed(K),
}

impl<K> SetDiffEntry<K> {
    /// The key this entry concerns.
    pub fn key(&self) -> &K {
        match self {
            SetDiffEntry::Added(k) | SetDiffEntry::Removed(k) => k,
        }
    }

    /// Converts a unit-valued map diff into a set diff — the shared
    /// plumbing for set snapshots implemented over `Map<K, ()>`.
    /// `Changed` cannot occur for unit values.
    pub fn from_unit_diff(diff: Vec<DiffEntry<K, ()>>) -> Vec<SetDiffEntry<K>> {
        diff.into_iter()
            .map(|e| match e {
                DiffEntry::Added(k, ()) => SetDiffEntry::Added(k),
                DiffEntry::Removed(k, ()) => SetDiffEntry::Removed(k),
                DiffEntry::Changed(..) => unreachable!("unit values never change"),
            })
            .collect()
    }
}

/// A linearizable concurrent set.
///
/// Object safe: registries and harnesses may hold backends as
/// `Box<dyn ConcurrentSet<K>>`.
pub trait ConcurrentSet<K>: Send + Sync {
    /// Inserts `key`; `true` if the set changed.
    fn insert(&self, key: K) -> bool;

    /// Removes `key`; `true` if the set changed.
    fn remove(&self, key: &K) -> bool;

    /// `true` if `key` is present.
    fn contains(&self, key: &K) -> bool;

    /// Number of keys.
    fn len(&self) -> usize;

    /// `true` if the set has no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempt/retry statistics accumulated by this backend. Lock-based
    /// backends without counters return an empty snapshot.
    fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::empty()
    }
}

/// A structure that can hand out cheap immutable point-in-time views.
///
/// The snapshot is a first-class handle: `Clone + Send + Sync`, valid
/// forever, and never blocks (or is blocked by) writers. Taking it is
/// O(1).
pub trait Snapshottable {
    /// The snapshot handle type. See [`MapSnapshot`] / [`SetSnapshot`]
    /// for what it supports.
    type Snapshot: Clone + Send + Sync;

    /// Takes a consistent point-in-time snapshot.
    fn snapshot(&self) -> Self::Snapshot;
}

/// Read operations of an immutable map snapshot.
///
/// Iteration is **lazy**: [`iter`](Self::iter) and
/// [`range`](Self::range) walk the persistent tree directly and never
/// materialize an intermediate `Vec`.
pub trait MapSnapshot<K, V>: Send + Sync {
    /// Lazy in-order iterator over a key range of the snapshot.
    type Range<'a>: Iterator<Item = (&'a K, &'a V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Looks up `key` at snapshot time.
    fn get(&self, key: &K) -> Option<&V>;

    /// Exact number of entries at snapshot time.
    fn len(&self) -> usize;

    /// Lazy in-order iterator over the entries whose keys lie between
    /// the two bounds. Prefer the [`range`](Self::range) convenience.
    fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> Self::Range<'_>;

    /// Difference between this (older) snapshot and `newer`, in
    /// ascending key order. Implementations prune pointer-identical
    /// shared subtrees, so the cost is proportional to the *change*
    /// between the versions (plus the boundary search paths), not the
    /// total size.
    fn diff(&self, newer: &Self) -> Vec<DiffEntry<K, V>>;

    /// `true` if `key` was present at snapshot time.
    fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// `true` if the snapshot holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lazy in-order iterator over every entry.
    fn iter(&self) -> Self::Range<'_> {
        self.range_by(Bound::Unbounded, Bound::Unbounded)
    }

    /// Lazy in-order iterator over the entries in `range`
    /// (e.g. `snap.range(10..20)`).
    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::Range<'_> {
        self.range_by(range.start_bound(), range.end_bound())
    }
}

/// Read operations of an immutable set snapshot.
///
/// Iteration is **lazy**, exactly as in [`MapSnapshot`].
pub trait SetSnapshot<K>: Send + Sync {
    /// Lazy ascending iterator over a key range of the snapshot.
    type Range<'a>: Iterator<Item = &'a K>
    where
        Self: 'a,
        K: 'a;

    /// `true` if `key` was present at snapshot time.
    fn contains(&self, key: &K) -> bool;

    /// Exact number of keys at snapshot time.
    fn len(&self) -> usize;

    /// Lazy ascending iterator over the keys between the two bounds.
    /// Prefer the [`range`](Self::range) convenience.
    fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> Self::Range<'_>;

    /// Difference between this (older) snapshot and `newer`, in
    /// ascending key order, pruning shared subtrees as in
    /// [`MapSnapshot::diff`].
    fn diff(&self, newer: &Self) -> Vec<SetDiffEntry<K>>;

    /// `true` if the snapshot holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lazy ascending iterator over every key.
    fn iter(&self) -> Self::Range<'_> {
        self.range_by(Bound::Unbounded, Bound::Unbounded)
    }

    /// Lazy ascending iterator over the keys in `range`.
    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::Range<'_> {
        self.range_by(range.start_bound(), range.end_bound())
    }
}
