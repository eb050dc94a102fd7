//! The lock-protected baseline with the same set API as the lock-free
//! [`TreapMap<K, ()>`](crate::TreapMap) — the "simplest UC" from the
//! paper's introduction: one global mutex around the treap.
//!
//! Because the protected structure is still the *persistent* treap,
//! snapshots stay O(1) even under a mutex: the lock is held only long
//! enough to clone the root `Arc`.

use std::hash::Hash;

use pathcopy_core::api;
use pathcopy_core::{MutexUc, Update};
use pathcopy_trees::TreapMap as PTreapMap;

use crate::snapshot::TreapSnapshot;

/// Treap set protected by one global mutex (reads and writes serialize).
pub struct LockedTreapSet<K> {
    uc: MutexUc<PTreapMap<K, ()>>,
}

impl<K: Ord + Clone + Hash + Send + Sync> Default for LockedTreapSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> LockedTreapSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        LockedTreapSet {
            uc: MutexUc::new(PTreapMap::new()),
        }
    }

    /// Creates a set from a prebuilt persistent version.
    pub fn from_version(initial: PTreapMap<K, ()>) -> Self {
        LockedTreapSet {
            uc: MutexUc::new(initial),
        }
    }

    /// Inserts `key`; `true` if the set changed.
    pub fn insert(&self, key: K) -> bool {
        self.uc
            .update(move |set| match set.insert_if_absent(key, ()) {
                Some(next) => Update::Replace(next, true),
                None => Update::Keep(false),
            })
    }

    /// Removes `key`; `true` if the set changed.
    pub fn remove(&self, key: &K) -> bool {
        self.uc.update(|set| match set.remove(key) {
            Some((next, ())) => Update::Replace(next, true),
            None => Update::Keep(false),
        })
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.uc.read(|set| set.contains_key(key))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.uc.read(|set| set.len())
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time snapshot (persistent versions make this O(1) even
    /// under a mutex).
    pub fn snapshot(&self) -> TreapSnapshot<K, ()> {
        TreapSnapshot::new(self.uc.snapshot())
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> api::ConcurrentSet<K> for LockedTreapSet<K> {
    fn insert(&self, key: K) -> bool {
        LockedTreapSet::insert(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        LockedTreapSet::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        LockedTreapSet::contains(self, key)
    }

    fn len(&self) -> usize {
        LockedTreapSet::len(self)
    }
}

impl<K: Ord + Clone + Hash + Send + Sync> api::Snapshottable for LockedTreapSet<K> {
    type Snapshot = TreapSnapshot<K, ()>;

    fn snapshot(&self) -> TreapSnapshot<K, ()> {
        LockedTreapSet::snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_set_correct_under_threads() {
        let s = LockedTreapSet::new();
        std::thread::scope(|sc| {
            for t in 0..4i64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..200 {
                        assert!(s.insert(t * 200 + i));
                    }
                });
            }
        });
        assert_eq!(s.len(), 800);
        assert!(s.contains(&799));
        assert!(!s.contains(&800));
    }

    #[test]
    fn locked_snapshots_are_persistent_too() {
        let s = LockedTreapSet::new();
        s.insert(1);
        let snap = s.snapshot();
        s.remove(&1);
        assert!(snap.contains_key(&1));
        assert!(!s.contains(&1));
    }
}
