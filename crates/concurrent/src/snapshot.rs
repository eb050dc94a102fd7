//! First-class snapshot handles for the single-root backends.
//!
//! A snapshot is the paper's headline capability made into an API: an
//! O(1), immutable, `Send + Sync` view of a concurrent structure that
//! stays valid forever and never blocks (or is blocked by) writers. The
//! wrapper types here implement the [`MapSnapshot`] / [`SetSnapshot`]
//! traits — **lazy** `iter()`/`range(..)` straight over the persistent
//! tree, exact `len()`, and pointer-equality-pruned `diff()` — and also
//! deref to the underlying persistent structure, so every read operation
//! of `pathcopy-trees` (rank/select, `check_invariants`, …) keeps
//! working on them.

use std::fmt;
use std::ops::{Bound, Deref};
use std::sync::Arc;

use pathcopy_core::api::{DiffEntry, MapSnapshot, SetDiffEntry, SetSnapshot};
use pathcopy_trees::external_bst::EbRange;
use pathcopy_trees::treap;
use pathcopy_trees::ExternalBstSet as PExternalBstSet;
use pathcopy_trees::TreapMap as PTreapMap;

/// Owned range type of the treap-backed snapshots.
pub type TreapRange<'a, K, V> = treap::Range<'a, K, V, (Bound<K>, Bound<K>)>;

/// Immutable point-in-time view of a [`TreapMap`](crate::TreapMap).
///
/// Derefs to the persistent [`pathcopy_trees::TreapMap`], so all of its
/// read operations are available directly.
pub struct TreapSnapshot<K, V> {
    inner: Arc<PTreapMap<K, V>>,
}

impl<K, V> TreapSnapshot<K, V> {
    pub(crate) fn new(inner: Arc<PTreapMap<K, V>>) -> Self {
        TreapSnapshot { inner }
    }

    /// The underlying persistent version.
    pub fn as_inner(&self) -> &Arc<PTreapMap<K, V>> {
        &self.inner
    }
}

impl<K, V> Clone for TreapSnapshot<K, V> {
    fn clone(&self) -> Self {
        TreapSnapshot {
            inner: self.inner.clone(),
        }
    }
}

impl<K, V> Deref for TreapSnapshot<K, V> {
    type Target = PTreapMap<K, V>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<K: fmt::Debug + Ord, V: fmt::Debug> fmt::Debug for TreapSnapshot<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<K, V> MapSnapshot<K, V> for TreapSnapshot<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    type Range<'a>
        = TreapRange<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> Self::Range<'_> {
        self.inner.range((lo.cloned(), hi.cloned()))
    }

    fn diff(&self, newer: &Self) -> Vec<DiffEntry<K, V>> {
        self.inner.diff(&newer.inner)
    }
}

impl<K: Clone, V: Clone> IntoIterator for TreapSnapshot<K, V> {
    type Item = (K, V);
    type IntoIter = treap::IntoIter<K, V>;

    fn into_iter(self) -> Self::IntoIter {
        PTreapMap::clone(&self.inner).into_iter()
    }
}

impl<'a, K, V> IntoIterator for &'a TreapSnapshot<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = treap::Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.as_ref().into_iter()
    }
}

/// Lazy ascending key iterator over a treap-backed set snapshot.
pub struct SetRange<'a, K> {
    inner: TreapRange<'a, K, ()>,
}

impl<'a, K: Ord> Iterator for SetRange<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(k, ())| k)
    }
}

/// Immutable point-in-time view of a treap-backed concurrent set
/// ([`TreapSet`](crate::TreapSet), [`LockedTreapSet`](crate::LockedTreapSet)).
///
/// Derefs to the persistent [`pathcopy_trees::treap::TreapSet`].
pub struct TreapSetSnapshot<K> {
    inner: Arc<treap::TreapSet<K>>,
}

impl<K> TreapSetSnapshot<K> {
    pub(crate) fn new(inner: Arc<treap::TreapSet<K>>) -> Self {
        TreapSetSnapshot { inner }
    }

    /// The underlying persistent version.
    pub fn as_inner(&self) -> &Arc<treap::TreapSet<K>> {
        &self.inner
    }
}

impl<K> Clone for TreapSetSnapshot<K> {
    fn clone(&self) -> Self {
        TreapSetSnapshot {
            inner: self.inner.clone(),
        }
    }
}

impl<K> Deref for TreapSetSnapshot<K> {
    type Target = treap::TreapSet<K>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<K: fmt::Debug + Ord> fmt::Debug for TreapSetSnapshot<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<K> SetSnapshot<K> for TreapSetSnapshot<K>
where
    K: Ord + Clone + Send + Sync,
{
    type Range<'a>
        = SetRange<'a, K>
    where
        Self: 'a,
        K: 'a;

    fn contains(&self, key: &K) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> Self::Range<'_> {
        SetRange {
            inner: self.inner.as_map().range((lo.cloned(), hi.cloned())),
        }
    }

    fn diff(&self, newer: &Self) -> Vec<SetDiffEntry<K>> {
        SetDiffEntry::from_unit_diff(self.inner.as_map().diff(newer.inner.as_map()))
    }
}

impl<K: Clone> IntoIterator for TreapSetSnapshot<K> {
    type Item = K;
    type IntoIter = treap::SetIntoIter<K>;

    fn into_iter(self) -> Self::IntoIter {
        treap::TreapSet::clone(&self.inner).into_iter()
    }
}

/// Immutable point-in-time view of a concurrent
/// [`ExternalBstSet`](crate::ExternalBstSet).
///
/// Derefs to the persistent [`pathcopy_trees::ExternalBstSet`].
pub struct EbstSnapshot<K> {
    inner: Arc<PExternalBstSet<K>>,
}

impl<K> EbstSnapshot<K> {
    pub(crate) fn new(inner: Arc<PExternalBstSet<K>>) -> Self {
        EbstSnapshot { inner }
    }

    /// The underlying persistent version.
    pub fn as_inner(&self) -> &Arc<PExternalBstSet<K>> {
        &self.inner
    }
}

impl<K> Clone for EbstSnapshot<K> {
    fn clone(&self) -> Self {
        EbstSnapshot {
            inner: self.inner.clone(),
        }
    }
}

impl<K> Deref for EbstSnapshot<K> {
    type Target = PExternalBstSet<K>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<K: fmt::Debug + Ord + Clone> fmt::Debug for EbstSnapshot<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<K> SetSnapshot<K> for EbstSnapshot<K>
where
    K: Ord + Clone + Send + Sync,
{
    type Range<'a>
        = EbRange<'a, K>
    where
        Self: 'a,
        K: 'a;

    fn contains(&self, key: &K) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> Self::Range<'_> {
        self.inner.range_by(lo, hi)
    }

    fn diff(&self, newer: &Self) -> Vec<SetDiffEntry<K>> {
        self.inner.diff(&newer.inner)
    }
}
