//! Structural-sharing measurements between versions.
//!
//! These utilities quantify the two effects at the heart of the paper:
//!
//! * **Fig. 1** — after an update, the new version shares all but the
//!   copied path with the old version: [`sharing_stats`].
//! * **Fig. 5 / Appendix A** — when a process retries an operation on the
//!   version installed by a competitor, the number of nodes on its search
//!   path that it has not already loaded (and therefore has not cached)
//!   is small — in expectation ≤ 2: [`uncached_on_retry`].
//!
//! Node identity is the node's allocation address (its `PoolArc`
//! block); two versions that are both alive share a node exactly when
//! the addresses match.

use std::collections::HashSet;

/// Structure-agnostic view of a search tree for sharing measurements.
///
/// Implemented by the persistent trees in this crate. Addresses reported
/// to the callbacks must be stable node identities (allocation addresses).
pub trait SearchTree {
    /// Key type ordered by the tree.
    type Key: Ord;

    /// Visits the node addresses on the root-to-`key` search path, in
    /// root-first order, stopping at the key or at a nil child.
    fn visit_path(&self, key: &Self::Key, visit: &mut dyn FnMut(usize));

    /// Visits every node address in the tree (any order).
    fn visit_all(&self, visit: &mut dyn FnMut(usize));
}

/// Node-sharing breakdown between two versions (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingStats {
    /// Nodes in the old version.
    pub old_nodes: usize,
    /// Nodes in the new version.
    pub new_nodes: usize,
    /// Nodes present in both (by address).
    pub shared: usize,
    /// Nodes only in the new version — the freshly copied path.
    pub fresh: usize,
    /// Nodes only in the old version — retired by the update.
    pub retired: usize,
}

/// Computes the node-sharing breakdown between two versions. O(n) in the
/// tree sizes; intended for tests, examples and offline analysis.
pub fn sharing_stats<T: SearchTree>(old: &T, new: &T) -> SharingStats {
    let mut old_set = HashSet::new();
    old.visit_all(&mut |addr| {
        old_set.insert(addr);
    });
    let mut new_nodes = 0usize;
    let mut shared = 0usize;
    new.visit_all(&mut |addr| {
        new_nodes += 1;
        if old_set.contains(&addr) {
            shared += 1;
        }
    });
    SharingStats {
        old_nodes: old_set.len(),
        new_nodes,
        shared,
        fresh: new_nodes - shared,
        retired: old_set.len() - shared,
    }
}

/// The Fig.-5 quantity: how many nodes on the search path for `key` in
/// `new` were **not** on the search path for `key` in `old`.
///
/// In the paper's model, a process that just traversed `old` has exactly
/// the `old` path in its cache; on retry against `new` every path node it
/// has not seen is an uncached (cost-`R`) load. Appendix A shows the
/// expectation of this count is at most 2 for uniformly random keys.
pub fn uncached_on_retry<T: SearchTree>(old: &T, new: &T, key: &T::Key) -> usize {
    // Search paths are O(log n); a tiny Vec + linear scan beats hashing.
    let mut old_path = Vec::with_capacity(64);
    old.visit_path(key, &mut |addr| old_path.push(addr));
    let mut uncached = 0usize;
    new.visit_path(key, &mut |addr| {
        if !old_path.contains(&addr) {
            uncached += 1;
        }
    });
    uncached
}

/// Total node count of a tree via [`SearchTree::visit_all`].
pub fn node_count<T: SearchTree>(tree: &T) -> usize {
    let mut n = 0usize;
    tree.visit_all(&mut |_| n += 1);
    n
}

// --- implementations for the crate's trees ------------------------------

use crate::treap::TreapMap;
use pathcopy_core::pool::PoolArc;

impl<K: Ord, V> SearchTree for TreapMap<K, V> {
    type Key = K;

    fn visit_path(&self, key: &K, visit: &mut dyn FnMut(usize)) {
        let mut cur = self.root();
        while let Some(n) = cur {
            visit(PoolArc::as_ptr(n) as usize);
            match key.cmp(n.key()) {
                std::cmp::Ordering::Less => cur = n.left(),
                std::cmp::Ordering::Equal => return,
                std::cmp::Ordering::Greater => cur = n.right(),
            }
        }
    }

    fn visit_all(&self, visit: &mut dyn FnMut(usize)) {
        fn walk<K, V>(
            node: Option<&PoolArc<crate::treap::Node<K, V>>>,
            visit: &mut dyn FnMut(usize),
        ) {
            if let Some(n) = node {
                visit(PoolArc::as_ptr(n) as usize);
                walk(n.left(), visit);
                walk(n.right(), visit);
            }
        }
        walk(self.root(), visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_after_one_insert_is_high() {
        let v1: TreapMap<i64, i64> = (0..1000).map(|k| (k, k)).collect();
        let (v2, _) = v1.insert(5000, 0);
        let stats = sharing_stats(&v1, &v2);
        assert_eq!(stats.old_nodes, 1000);
        assert_eq!(stats.new_nodes, 1001);
        assert_eq!(stats.fresh + stats.shared, stats.new_nodes);
        // Path copying: fresh nodes are O(log n), not O(n).
        assert!(
            stats.fresh <= 2 * v1.height() + 2,
            "fresh = {} too large",
            stats.fresh
        );
        // Almost everything is shared.
        assert!(stats.shared >= 1000 - 2 * v1.height());
    }

    #[test]
    fn identical_versions_share_everything() {
        let v: TreapMap<i64, i64> = (0..100).map(|k| (k, k)).collect();
        let stats = sharing_stats(&v, &v.clone());
        assert_eq!(stats.fresh, 0);
        assert_eq!(stats.retired, 0);
        assert_eq!(stats.shared, 100);
    }

    #[test]
    fn uncached_on_retry_zero_when_unchanged() {
        let v: TreapMap<i64, i64> = (0..100).map(|k| (k, k)).collect();
        assert_eq!(uncached_on_retry(&v, &v.clone(), &42), 0);
    }

    #[test]
    fn uncached_on_retry_counts_winner_path_overlap() {
        let v1: TreapMap<i64, i64> = (0..1024).map(|k| (k * 2, k)).collect();
        // A competitor inserts some key; our retried path to another key
        // shares only a prefix with the competitor's path.
        let (v2, _) = v1.insert(777, 0);
        let our_key = 1600;
        let uncached = uncached_on_retry(&v1, &v2, &our_key);
        let path = v2.path_len(&our_key);
        assert!(uncached <= path);
        // The overlap is at most the whole path, usually much less; the
        // root always changed, so at least one node is uncached.
        assert!(uncached >= 1);
    }

    #[test]
    fn expected_uncached_is_small_over_random_keys() {
        // Empirical check of the Appendix-A lemma on the *real* treap:
        // average "uncached on retry" over many random winner/retry pairs
        // should be small (the model bound is 2 for external trees; the
        // internal treap with split/merge shuffling stays close).
        use crate::hash::splitmix64;
        let n = 4096i64;
        let base: TreapMap<i64, i64> = (0..n).map(|k| (k, k)).collect();
        let mut x = 7u64;
        let mut total = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            x = splitmix64(x);
            let winner_key = (x % (n as u64)) as i64;
            x = splitmix64(x);
            let our_key = (x % (n as u64)) as i64;
            // Winner commits a remove+insert cycle on its key.
            let (after, _) = base.remove(&winner_key).unwrap().0.insert(winner_key, 1);
            total += uncached_on_retry(&base, &after, &our_key);
        }
        let mean = total as f64 / trials as f64;
        assert!(
            mean < 4.0,
            "mean uncached-on-retry {mean:.2} is far above the model's 2"
        );
    }

    #[test]
    fn node_count_matches_len() {
        let v: TreapMap<i64, i64> = (0..321).map(|k| (k, k)).collect();
        assert_eq!(node_count(&v), 321);
    }
}
