//! Backend plumbing for the benchmark runners.
//!
//! The per-backend façade trait that used to live here is gone: the
//! harness is generic over
//! [`pathcopy_core::ConcurrentSet`] (re-exported below), which every
//! set backend in `pathcopy-concurrent` implements, and backends are
//! constructed through
//! [`StructureKind::constructor`](crate::harness::StructureKind::constructor)
//! instead of hand-wired impls. What remains here are the shared prefill
//! builders; the sequential baseline is the mutable treap, by name.

use pathcopy_trees::mutable::MutTreapSet;
use pathcopy_trees::{ExternalBstSet as PExternalBstSet, TreapMap as PTreapMap};

pub use pathcopy_core::ConcurrentSet;

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
    use pathcopy_workloads::Op;

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
        assert!(s.insert(2));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.remove(&2));
    }
}
