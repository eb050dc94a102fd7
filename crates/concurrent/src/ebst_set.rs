//! Lock-free concurrent set over the persistent **external** BST — the
//! structure the paper's Appendix-A model analyses (no rotations; an
//! update copies exactly its root-to-leaf path).

use std::sync::Arc;

use pathcopy_core::api;
use pathcopy_core::{BackoffPolicy, PathCopyUc, StatsSnapshot, UcStats, Update, UpdateReport};
use pathcopy_trees::ExternalBstSet as PExternalBstSet;

use crate::snapshot::EbstSnapshot;

/// A lock-free concurrent ordered set backed by a persistent external BST.
///
/// Functionally equivalent to the treap set
/// [`TreapMap<K, ()>`](crate::TreapMap); structurally it matches the paper's
/// model exactly, which makes it the reference subject for the
/// modified-nodes-on-path measurements (Fig. 5).
pub struct ExternalBstSet<K> {
    uc: PathCopyUc<PExternalBstSet<K>>,
}

impl<K: Ord + Clone + Send + Sync> Default for ExternalBstSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone + Send + Sync> ExternalBstSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ExternalBstSet {
            uc: PathCopyUc::new(PExternalBstSet::new()),
        }
    }

    /// Creates an empty set with an explicit retry backoff policy.
    pub fn with_backoff(backoff: BackoffPolicy) -> Self {
        ExternalBstSet {
            uc: PathCopyUc::with_backoff(PExternalBstSet::new(), backoff),
        }
    }

    /// Creates a set from a prebuilt persistent version.
    pub fn from_version(initial: PExternalBstSet<K>) -> Self {
        ExternalBstSet {
            uc: PathCopyUc::new(initial),
        }
    }

    /// Inserts `key`; `true` if the set changed.
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

    /// Removes `key`; `true` if the set changed.
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

    /// Number of keys. Wait-free.
    pub fn len(&self) -> usize {
        self.uc.read(|set| set.len())
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable point-in-time snapshot, supporting the
    /// [`SetSnapshot`](pathcopy_core::SetSnapshot) interface (lazy
    /// `range`, snapshot-to-snapshot `diff`).
    pub fn snapshot(&self) -> EbstSnapshot<K> {
        EbstSnapshot::new(self.uc.snapshot())
    }

    /// Attempt/retry statistics.
    pub fn stats(&self) -> &Arc<UcStats> {
        self.uc.stats()
    }

    /// Unconditionally replaces the contents (benchmark setup/reset).
    pub fn reset_to(&self, version: PExternalBstSet<K>) {
        self.uc.replace_version(version);
    }
}

impl<K: Ord + Clone + Send + Sync> api::ConcurrentSet<K> for ExternalBstSet<K> {
    fn insert(&self, key: K) -> bool {
        ExternalBstSet::insert(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        ExternalBstSet::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        ExternalBstSet::contains(self, key)
    }

    fn len(&self) -> usize {
        ExternalBstSet::len(self)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.uc.stats().snapshot()
    }
}

impl<K: Ord + Clone + Send + Sync> api::Snapshottable for ExternalBstSet<K> {
    type Snapshot = EbstSnapshot<K>;

    /// O(1): loads the current root.
    fn snapshot(&self) -> EbstSnapshot<K> {
        ExternalBstSet::snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics() {
        let s = ExternalBstSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(&3));
        assert!(s.remove(&3));
        assert!(!s.remove(&3));
    }

    #[test]
    fn concurrent_disjoint_inserts_then_removes() {
        const THREADS: i64 = 4;
        const PER: i64 = 250;
        let s = ExternalBstSet::new();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..PER {
                        assert!(s.insert(t * PER + i));
                    }
                    for i in 0..PER {
                        assert!(s.remove(&(t * PER + i)));
                    }
                });
            }
        });
        assert!(s.is_empty());
        s.snapshot().check_invariants();
    }

    #[test]
    fn snapshot_stability() {
        let s = ExternalBstSet::new();
        for i in 0..50 {
            s.insert(i);
        }
        let snap = s.snapshot();
        for i in 0..50 {
            s.remove(&i);
        }
        assert_eq!(snap.len(), 50);
        assert!(s.is_empty());
    }
}
