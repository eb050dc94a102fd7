//! Classical **mutable** sequential treap — the paper's "Seq Treap"
//! baseline column.
//!
//! This is a textbook split/merge treap with owned (`Box`) nodes and
//! in-place mutation: no persistence, no sharing, no synchronization.
//! Like typical reference implementations, `insert` and `remove` always
//! perform their full split/merge work even when the operation turns out
//! not to change the set (inserting a present key, removing an absent
//! one). That matters for reproducing the paper's Random-workload
//! numbers: the universal construction *skips* such no-ops, which is a
//! large part of why `UC 1p` beats `Seq Treap` there (1.48×) while
//! losing on Batch (0.89×), where every operation modifies the set.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::hash::Hash;

use crate::hash::priority_of;

type Link<K> = Option<Box<MutNode<K>>>;

#[derive(Debug)]
struct MutNode<K> {
    key: K,
    priority: u64,
    left: Link<K>,
    right: Link<K>,
}

/// A mutable sequential treap set (single-threaded baseline).
///
/// # Examples
///
/// ```
/// use pathcopy_trees::mutable::MutTreapSet;
///
/// let mut s = MutTreapSet::new();
/// assert!(s.insert(3));
/// assert!(!s.insert(3));
/// assert!(s.contains(&3));
/// assert!(s.remove(&3));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct MutTreapSet<K> {
    root: Link<K>,
    len: usize,
}

impl<K: Ord + Hash> MutTreapSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        MutTreapSet { root: None, len: 0 }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Less => cur = n.left.as_deref(),
                Equal => return true,
                Greater => cur = n.right.as_deref(),
            }
        }
        false
    }

    /// Inserts `key`; returns `true` if the set changed. Always performs
    /// the full split/merge work (see the module docs).
    pub fn insert(&mut self, key: K) -> bool {
        let priority = priority_of(&key);
        let root = self.root.take();
        let (left, mid, right) = split(root, &key);
        let changed = mid.is_none();
        let mid = match mid {
            Some(existing) => existing, // key already present: keep it
            None => Box::new(MutNode {
                key,
                priority,
                left: None,
                right: None,
            }),
        };
        self.root = merge(merge(left, Some(mid)), right);
        if changed {
            self.len += 1;
        }
        changed
    }

    /// Removes `key`; returns `true` if the set changed. Always performs
    /// the full split/merge work.
    pub fn remove(&mut self, key: &K) -> bool {
        let root = self.root.take();
        let (left, mid, right) = split(root, key);
        let changed = mid.is_some();
        self.root = merge(left, right);
        if changed {
            self.len -= 1;
        }
        changed
    }

    /// Keys in ascending order (for verification).
    pub fn to_vec(&self) -> Vec<&K> {
        let mut out = Vec::with_capacity(self.len);
        fn walk<'a, K>(link: &'a Link<K>, out: &mut Vec<&'a K>) {
            if let Some(n) = link {
                walk(&n.left, out);
                out.push(&n.key);
                walk(&n.right, out);
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// Validates treap invariants; returns the node count.
    ///
    /// # Panics
    ///
    /// Panics on violated key or heap order, or a stale `len`.
    pub fn check_invariants(&self) -> usize {
        fn walk<K: Ord>(link: &Link<K>, lo: Option<&K>, hi: Option<&K>) -> usize {
            match link {
                None => 0,
                Some(n) => {
                    if let Some(lo) = lo {
                        assert!(n.key > *lo, "BST order violated");
                    }
                    if let Some(hi) = hi {
                        assert!(n.key < *hi, "BST order violated");
                    }
                    for c in [&n.left, &n.right].into_iter().flatten() {
                        assert!(c.priority <= n.priority, "heap order violated");
                    }
                    1 + walk(&n.left, lo, Some(&n.key)) + walk(&n.right, Some(&n.key), hi)
                }
            }
        }
        let count = walk(&self.root, None, None);
        assert_eq!(count, self.len, "len out of date");
        count
    }
}

impl<K> Drop for MutTreapSet<K> {
    fn drop(&mut self) {
        // Iterative teardown: treap height is O(log n) w.h.p., but a
        // pathological priority stream could make recursion deep.
        let mut stack = Vec::new();
        if let Some(root) = self.root.take() {
            stack.push(root);
        }
        while let Some(mut n) = stack.pop() {
            if let Some(l) = n.left.take() {
                stack.push(l);
            }
            if let Some(r) = n.right.take() {
                stack.push(r);
            }
        }
    }
}

impl<K: Ord + Hash> FromIterator<K> for MutTreapSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut s = MutTreapSet::new();
        for k in iter {
            s.insert(k);
        }
        s
    }
}

/// Splits into (`< key`, node with `key` if present, `> key`).
fn split<K: Ord>(link: Link<K>, key: &K) -> (Link<K>, Option<Box<MutNode<K>>>, Link<K>) {
    match link {
        None => (None, None, None),
        Some(mut n) => match key.cmp(&n.key) {
            Equal => {
                let left = n.left.take();
                let right = n.right.take();
                (left, Some(n), right)
            }
            Less => {
                let (l, m, lr) = split(n.left.take(), key);
                n.left = lr;
                (l, m, Some(n))
            }
            Greater => {
                let (rl, m, r) = split(n.right.take(), key);
                n.right = rl;
                (Some(n), m, r)
            }
        },
    }
}

/// Merges two treaps with `l`'s keys all below `r`'s.
fn merge<K: Ord>(l: Link<K>, r: Link<K>) -> Link<K> {
    match (l, r) {
        (None, r) => r,
        (l, None) => l,
        (Some(mut a), Some(mut b)) => {
            if a.priority >= b.priority {
                a.right = merge(a.right.take(), Some(b));
                Some(a)
            } else {
                b.left = merge(Some(a), b.left.take());
                Some(b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_contains() {
        let mut s = MutTreapSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&1));
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert_eq!(s.len(), 1);
        s.check_invariants();
    }

    #[test]
    fn matches_btreeset() {
        let mut reference = BTreeSet::new();
        let mut s = MutTreapSet::new();
        let mut x = 1u64;
        for _ in 0..4000 {
            x = crate::hash::splitmix64(x);
            let k = (x % 400) as i64;
            if x % 2 == 0 {
                assert_eq!(s.insert(k), reference.insert(k));
            } else {
                assert_eq!(s.remove(&k), reference.remove(&k));
            }
        }
        assert_eq!(s.len(), reference.len());
        let got: Vec<i64> = s.to_vec().into_iter().copied().collect();
        let want: Vec<i64> = reference.into_iter().collect();
        assert_eq!(got, want);
        s.check_invariants();
    }

    #[test]
    fn same_canonical_shape_as_persistent_treap() {
        // Both treaps use hashed priorities, so the same key set should
        // give the same sorted contents and identical heights.
        let keys: Vec<i64> = (0..512).map(|k| k * 3 % 512).collect();
        let mutable: MutTreapSet<i64> = keys.iter().copied().collect();
        let persistent: crate::TreapMap<i64, ()> = keys.iter().map(|&k| (k, ())).collect();
        let a: Vec<i64> = mutable.to_vec().into_iter().copied().collect();
        let b: Vec<i64> = persistent.keys().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn large_set_stays_valid_and_drops_cleanly() {
        let mut s: MutTreapSet<u64> = (0..100_000).collect();
        assert_eq!(s.len(), 100_000);
        for k in 0..50_000 {
            assert!(s.remove(&k));
        }
        s.check_invariants();
        drop(s); // iterative drop must not overflow the stack
    }
}
