//! Backend plumbing for the benchmark runners.
//!
//! The per-backend façade trait that used to live here is gone: the
//! harness is generic over
//! [`pathcopy_core::ConcurrentSet`] (re-exported below), which every
//! backend in `pathcopy-concurrent` implements, and backends are
//! constructed through
//! [`StructureKind::constructor`](crate::harness::StructureKind::constructor)
//! instead of hand-wired impls. What remains here is the sequential
//! baseline trait and the shared prefill builders.

use pathcopy_trees::mutable::MutTreapSet;
use pathcopy_trees::{ExternalBstSet as PExternalBstSet, TreapMap as PTreapMap};
use pathcopy_workloads::Op;

pub use pathcopy_core::ConcurrentSet;

/// Single-threaded set interface for the "Seq Treap" baseline.
pub trait SequentialSet {
    /// Inserts `key`; `true` if the set changed.
    fn insert(&mut self, key: i64) -> bool;
    /// Removes `key`; `true` if the set changed.
    fn remove(&mut self, key: i64) -> bool;
    /// Membership test.
    fn contains(&self, key: i64) -> bool;
    /// Applies one workload operation.
    fn apply(&mut self, op: Op) -> bool {
        match op {
            Op::Insert(k) => self.insert(k),
            Op::Remove(k) => self.remove(k),
            Op::Contains(k) => {
                let _ = self.contains(k);
                false
            }
        }
    }
}

impl SequentialSet for MutTreapSet<i64> {
    fn insert(&mut self, key: i64) -> bool {
        MutTreapSet::insert(self, key)
    }
    fn remove(&mut self, key: i64) -> bool {
        MutTreapSet::remove(self, &key)
    }
    fn contains(&self, key: i64) -> bool {
        MutTreapSet::contains(self, &key)
    }
}

/// Builds the persistent prefill treap once; cloning it per trial is O(1)
/// thanks to persistence. The keys are sorted first, so the build is one
/// allocation per key and no path copies.
pub fn prefill_treap(keys: &[i64]) -> PTreapMap<i64, ()> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.into_iter().map(|k| (k, ())).collect()
}

/// Builds the persistent prefill external BST.
pub fn prefill_ebst(keys: &[i64]) -> PExternalBstSet<i64> {
    let mut set = PExternalBstSet::new();
    for &k in keys {
        if let Some(next) = set.insert(k) {
            set = next;
        }
    }
    set
}

/// Builds the mutable baseline treap.
pub fn prefill_mutable(keys: &[i64]) -> MutTreapSet<i64> {
    keys.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcopy_concurrent::TreapMap;

    #[test]
    fn core_trait_dispatches_correctly() {
        let s: TreapMap<i64, ()> = TreapMap::new();
        assert!(ConcurrentSet::insert(&s, 1));
        assert!(ConcurrentSet::contains(&s, &1));
        assert!(Op::Remove(1).apply_to(&s));
        assert!(!Op::Contains(1).apply_to(&s));
        assert!(ConcurrentSet::is_empty(&s));
    }

    #[test]
    fn prefills_agree() {
        let keys = vec![5, 1, 9, 1, 5]; // duplicates collapse
        let t = prefill_treap(&keys);
        let e = prefill_ebst(&keys);
        let m = prefill_mutable(&keys);
        assert_eq!(t.len(), 3);
        assert_eq!(e.len(), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn sequential_facade_works() {
        let mut s = MutTreapSet::new();
        assert!(SequentialSet::insert(&mut s, 2));
        assert!(s.apply(Op::Insert(3)));
        assert!(!s.apply(Op::Insert(3)));
        assert!(s.apply(Op::Remove(2)));
    }
}
