//! Persistent **external** binary search tree — the tree analysed in the
//! paper's Appendix A.
//!
//! In an external (leaf-oriented) BST, data lives only in the leaves;
//! internal nodes carry routing keys. Our routing convention: an internal
//! node with router `k` sends keys `< k` left and keys `>= k` right, and
//! its router equals the minimum key of its right subtree.
//!
//! Updates path-copy exactly the root-to-leaf search path:
//! * insert replaces the reached leaf by an internal node over two leaves;
//! * remove replaces the removed leaf's parent by the leaf's sibling.
//!
//! There are no rotations, so — unlike the treap — the search path for a
//! key changes **only** when a committed update's path overlaps it, which
//! is the exact premise of the paper's cache analysis. Built from random
//! keys the tree is balanced with high probability.
//!
//! Nodes are [`PoolArc`] blocks from `pathcopy_core::pool`, one cache
//! line each — the treap's allocator, so the modelled tree and the
//! measured one pay the same for a copied node.

use std::borrow::Borrow;
use std::cmp::Ordering::{Equal, Greater, Less};
use std::fmt;
use std::ops::{Bound, RangeBounds};

use pathcopy_core::api::SetDiffEntry;
use pathcopy_core::pool::PoolArc;

/// A node of the external BST.
#[derive(Debug)]
pub enum EbNode<K> {
    /// A data-carrying leaf.
    Leaf {
        /// The stored key.
        key: K,
    },
    /// A routing node: keys `< router` live on the left, `>= router` on
    /// the right.
    Internal {
        /// The routing key.
        router: K,
        /// Keys `< router`.
        left: PoolArc<EbNode<K>>,
        /// Keys `>= router`.
        right: PoolArc<EbNode<K>>,
        /// Number of leaves below this node.
        size: usize,
    },
}

// One node, one cache line, as for the treap: the reference count plus
// an `i64`-keyed internal node (router, two links, size, tag) fits the
// pool's 64-byte, 64-aligned class; a field that breaks this fails the
// build.
const _: () =
    assert!(PoolArc::<EbNode<i64>>::BLOCK_BYTES == 64 && PoolArc::<EbNode<i64>>::BLOCK_ALIGN == 64);

impl<K> EbNode<K> {
    fn size(&self) -> usize {
        match self {
            EbNode::Leaf { .. } => 1,
            EbNode::Internal { size, .. } => *size,
        }
    }
}

/// A persistent ordered set stored as an external BST.
///
/// # Examples
///
/// ```
/// use pathcopy_trees::ExternalBstSet;
///
/// let s0: ExternalBstSet<i64> = ExternalBstSet::new();
/// let s1 = s0.insert(10).unwrap();
/// let s2 = s1.insert(20).unwrap();
/// assert!(s2.insert(10).is_none()); // duplicate: no-op
/// assert!(s2.contains(&10) && s2.contains(&20));
/// assert!(!s1.contains(&20)); // old version untouched
/// ```
pub struct ExternalBstSet<K> {
    root: Option<PoolArc<EbNode<K>>>,
}

impl<K> Clone for ExternalBstSet<K> {
    fn clone(&self) -> Self {
        ExternalBstSet {
            root: self.root.clone(),
        }
    }
}

impl<K> Default for ExternalBstSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ExternalBstSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ExternalBstSet { root: None }
    }

    /// Number of keys (leaves).
    pub fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |r| r.size())
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The root node, for structural inspection.
    pub fn root(&self) -> Option<&PoolArc<EbNode<K>>> {
        self.root.as_ref()
    }
}

fn mk_internal<K: Clone + Ord>(
    left: PoolArc<EbNode<K>>,
    right: PoolArc<EbNode<K>>,
) -> PoolArc<EbNode<K>> {
    let router = min_key(&right).clone();
    let size = left.size() + right.size();
    PoolArc::new(EbNode::Internal {
        router,
        left,
        right,
        size,
    })
}

fn min_key<K>(node: &EbNode<K>) -> &K {
    match node {
        EbNode::Leaf { key } => key,
        EbNode::Internal { left, .. } => min_key(left),
    }
}

impl<K: Ord + Clone> ExternalBstSet<K> {
    /// Inserts `key`; `None` means it was already present (no-op).
    pub fn insert(&self, key: K) -> Option<Self> {
        match &self.root {
            None => Some(ExternalBstSet {
                root: Some(PoolArc::new(EbNode::Leaf { key })),
            }),
            Some(root) => insert_rec(root, key).map(|root| ExternalBstSet { root: Some(root) }),
        }
    }

    /// Removes `key`; `None` means it was absent (no-op).
    pub fn remove<Q>(&self, key: &Q) -> Option<Self>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match &self.root {
            None => None,
            Some(root) => match remove_rec(root, key)? {
                Removed::Empty => Some(ExternalBstSet { root: None }),
                Removed::Tree(root) => Some(ExternalBstSet { root: Some(root) }),
            },
        }
    }

    /// `true` if `key` is present.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = match &self.root {
            None => return false,
            Some(r) => r,
        };
        loop {
            match &**cur {
                EbNode::Leaf { key: leaf_key } => return leaf_key.borrow() == key,
                EbNode::Internal {
                    router,
                    left,
                    right,
                    ..
                } => {
                    cur = if key < router.borrow() { left } else { right };
                }
            }
        }
    }

    /// Keys in ascending order.
    pub fn iter(&self) -> EbIter<'_, K> {
        EbIter::new(self.root.as_deref())
    }

    /// Lazy ascending iterator over the keys between the two bounds.
    /// Routing keys steer the descent, so whole subtrees below the lower
    /// bound are skipped without being visited.
    pub fn range_by(&self, lo: Bound<&K>, hi: Bound<&K>) -> EbRange<'_, K> {
        EbRange::new(self.root.as_ref(), lo.cloned(), hi.cloned())
    }

    /// Lazy ascending iterator over the keys in `range`
    /// (e.g. `set.range(10..20)`).
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> EbRange<'_, K> {
        self.range_by(range.start_bound(), range.end_bound())
    }

    /// Difference between this (older) version and `newer`, in ascending
    /// key order, skipping subtrees shared by pointer equality (see
    /// [`diff_counted`](Self::diff_counted)).
    pub fn diff(&self, newer: &Self) -> Vec<SetDiffEntry<K>> {
        self.diff_counted(newer).0
    }

    /// [`diff`](Self::diff) that also reports how many tree nodes the
    /// walk visited — two identical versions visit 0 nodes, and nearby
    /// versions visit only the changed region plus its boundary paths.
    pub fn diff_counted(&self, newer: &Self) -> (Vec<SetDiffEntry<K>>, usize) {
        let mut old: Vec<&PoolArc<EbNode<K>>> = self.root.iter().collect();
        let mut new: Vec<&PoolArc<EbNode<K>>> = newer.root.iter().collect();
        let mut out = Vec::new();
        let mut visited = 0usize;
        loop {
            // Skip subtrees (and leaves) shared between the versions.
            while let (Some(a), Some(b)) = (old.last(), new.last()) {
                if PoolArc::ptr_eq(a, b) {
                    old.pop();
                    new.pop();
                } else {
                    break;
                }
            }
            // Open internal tops one level at a time so the skip check
            // above sees every shared child before it is expanded.
            if let Some(top) = old.last() {
                if let EbNode::Internal { left, right, .. } = &***top {
                    visited += 1;
                    old.pop();
                    old.push(right);
                    old.push(left);
                    continue;
                }
            }
            if let Some(top) = new.last() {
                if let EbNode::Internal { left, right, .. } = &***top {
                    visited += 1;
                    new.pop();
                    new.push(right);
                    new.push(left);
                    continue;
                }
            }
            // Both tops are now leaves (or a side is exhausted).
            fn leaf<K>(n: &EbNode<K>) -> &K {
                match n {
                    EbNode::Leaf { key } => key,
                    EbNode::Internal { .. } => unreachable!("internal tops expanded above"),
                }
            }
            match (old.last(), new.last()) {
                (None, None) => break,
                (Some(a), None) => {
                    visited += 1;
                    out.push(SetDiffEntry::Removed(leaf(a).clone()));
                    old.pop();
                }
                (None, Some(b)) => {
                    visited += 1;
                    out.push(SetDiffEntry::Added(leaf(b).clone()));
                    new.pop();
                }
                (Some(a), Some(b)) => match leaf(a).cmp(leaf(b)) {
                    Less => {
                        visited += 1;
                        out.push(SetDiffEntry::Removed(leaf(a).clone()));
                        old.pop();
                    }
                    Greater => {
                        visited += 1;
                        out.push(SetDiffEntry::Added(leaf(b).clone()));
                        new.pop();
                    }
                    Equal => {
                        visited += 2;
                        old.pop();
                        new.pop();
                    }
                },
            }
        }
        (out, visited)
    }

    /// Height in edges on the longest root-to-leaf path (0 for empty or a
    /// single leaf). O(n).
    pub fn height(&self) -> usize {
        fn h<K>(n: &EbNode<K>) -> usize {
            match n {
                EbNode::Leaf { .. } => 0,
                EbNode::Internal { left, right, .. } => 1 + h(left).max(h(right)),
            }
        }
        self.root.as_deref().map_or(0, h)
    }

    /// Validates external-BST invariants; returns the leaf count.
    ///
    /// # Panics
    ///
    /// Panics on violated key order, router placement, or size fields.
    pub fn check_invariants(&self) -> usize {
        fn walk<K: Ord>(n: &EbNode<K>, lo: Option<&K>, hi: Option<&K>) -> usize {
            match n {
                EbNode::Leaf { key } => {
                    if let Some(lo) = lo {
                        assert!(key >= lo, "leaf below its lower bound");
                    }
                    if let Some(hi) = hi {
                        assert!(key < hi, "leaf at/above its upper bound");
                    }
                    1
                }
                EbNode::Internal {
                    router,
                    left,
                    right,
                    size,
                } => {
                    assert!(
                        min_key(right) == router,
                        "router must equal the right subtree's minimum"
                    );
                    let ls = walk(left, lo, Some(router));
                    let rs = walk(right, Some(router), hi);
                    assert_eq!(*size, ls + rs, "size field out of date");
                    *size
                }
            }
        }
        self.root.as_deref().map_or(0, |r| walk(r, None, None))
    }
}

enum Removed<K> {
    Empty,
    Tree(PoolArc<EbNode<K>>),
}

fn insert_rec<K: Ord + Clone>(node: &PoolArc<EbNode<K>>, key: K) -> Option<PoolArc<EbNode<K>>> {
    match &**node {
        EbNode::Leaf { key: leaf_key } => match key.cmp(leaf_key) {
            Equal => None,
            Less => {
                let new_leaf = PoolArc::new(EbNode::Leaf { key });
                Some(mk_internal(new_leaf, node.clone()))
            }
            Greater => {
                let new_leaf = PoolArc::new(EbNode::Leaf { key });
                Some(mk_internal(node.clone(), new_leaf))
            }
        },
        EbNode::Internal {
            router,
            left,
            right,
            ..
        } => {
            if key < *router {
                let new_left = insert_rec(left, key)?;
                Some(mk_internal(new_left, right.clone()))
            } else {
                let new_right = insert_rec(right, key)?;
                Some(mk_internal(left.clone(), new_right))
            }
        }
    }
}

fn remove_rec<K, Q>(node: &PoolArc<EbNode<K>>, key: &Q) -> Option<Removed<K>>
where
    K: Ord + Clone + Borrow<Q>,
    Q: Ord + ?Sized,
{
    match &**node {
        EbNode::Leaf { key: leaf_key } => {
            if leaf_key.borrow() == key {
                Some(Removed::Empty)
            } else {
                None
            }
        }
        EbNode::Internal {
            router,
            left,
            right,
            ..
        } => {
            if key < router.borrow() {
                match remove_rec(left, key)? {
                    // Removed the left child entirely: the sibling replaces
                    // this internal node (the paper's leaf-removal rule).
                    Removed::Empty => Some(Removed::Tree(right.clone())),
                    Removed::Tree(new_left) => {
                        Some(Removed::Tree(mk_internal(new_left, right.clone())))
                    }
                }
            } else {
                match remove_rec(right, key)? {
                    Removed::Empty => Some(Removed::Tree(left.clone())),
                    Removed::Tree(new_right) => {
                        Some(Removed::Tree(mk_internal(left.clone(), new_right)))
                    }
                }
            }
        }
    }
}

/// Ascending key iterator over an [`ExternalBstSet`].
pub struct EbIter<'a, K> {
    stack: Vec<&'a EbNode<K>>,
}

impl<'a, K> EbIter<'a, K> {
    fn new(root: Option<&'a EbNode<K>>) -> Self {
        let mut it = EbIter { stack: Vec::new() };
        if let Some(r) = root {
            it.descend(r);
        }
        it
    }

    fn descend(&mut self, mut cur: &'a EbNode<K>) {
        loop {
            match cur {
                EbNode::Leaf { .. } => {
                    self.stack.push(cur);
                    return;
                }
                EbNode::Internal { left, .. } => {
                    self.stack.push(cur);
                    cur = left;
                }
            }
        }
    }
}

impl<'a, K> Iterator for EbIter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let top = self.stack.pop()?;
            match top {
                EbNode::Leaf { key } => return Some(key),
                EbNode::Internal { right, .. } => self.descend(right),
            }
        }
    }
}

/// Lazy ascending iterator over a key range of an [`ExternalBstSet`].
pub struct EbRange<'a, K> {
    stack: Vec<&'a EbNode<K>>,
    lo: Bound<K>,
    hi: Bound<K>,
}

impl<'a, K: Ord> EbRange<'a, K> {
    fn new(root: Option<&'a PoolArc<EbNode<K>>>, lo: Bound<K>, hi: Bound<K>) -> Self {
        let mut it = EbRange {
            stack: Vec::new(),
            lo,
            hi,
        };
        if let Some(r) = root {
            it.descend(r);
        }
        it
    }

    /// Walks to the first in-range leaf, skipping left subtrees whose
    /// keys all lie below the lower bound (`keys < router <= lo`).
    fn descend(&mut self, mut cur: &'a EbNode<K>) {
        loop {
            match cur {
                EbNode::Leaf { .. } => {
                    self.stack.push(cur);
                    return;
                }
                EbNode::Internal {
                    router,
                    left,
                    right,
                    ..
                } => {
                    let left_below = match &self.lo {
                        Bound::Included(lo) | Bound::Excluded(lo) => router <= lo,
                        Bound::Unbounded => false,
                    };
                    if left_below {
                        cur = right;
                    } else {
                        self.stack.push(cur);
                        cur = left;
                    }
                }
            }
        }
    }

    fn below_lower(&self, key: &K) -> bool {
        match &self.lo {
            Bound::Included(lo) => key < lo,
            Bound::Excluded(lo) => key <= lo,
            Bound::Unbounded => false,
        }
    }

    fn above_upper(&self, key: &K) -> bool {
        match &self.hi {
            Bound::Included(hi) => key > hi,
            Bound::Excluded(hi) => key >= hi,
            Bound::Unbounded => false,
        }
    }
}

impl<'a, K: Ord> Iterator for EbRange<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let top = self.stack.pop()?;
            match top {
                EbNode::Leaf { key } => {
                    // The first reached leaf can still sit below the
                    // lower bound (only whole subtrees are pruned).
                    if self.below_lower(key) {
                        continue;
                    }
                    if self.above_upper(key) {
                        self.stack.clear();
                        return None;
                    }
                    return Some(key);
                }
                EbNode::Internal { right, .. } => self.descend(right),
            }
        }
    }
}

impl<K: Ord + Clone> FromIterator<K> for ExternalBstSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut s = ExternalBstSet::new();
        for k in iter {
            if let Some(next) = s.insert(k) {
                s = next;
            }
        }
        s
    }
}

impl<K: fmt::Debug + Ord + Clone> fmt::Debug for ExternalBstSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

// Sharing-measurement support.
impl<K: Ord + Clone> crate::sharing::SearchTree for ExternalBstSet<K> {
    type Key = K;

    fn visit_path(&self, key: &K, visit: &mut dyn FnMut(usize)) {
        let mut cur = match self.root() {
            None => return,
            Some(r) => r,
        };
        loop {
            visit(PoolArc::as_ptr(cur) as usize);
            match &**cur {
                EbNode::Leaf { .. } => return,
                EbNode::Internal {
                    router,
                    left,
                    right,
                    ..
                } => {
                    cur = if key < router { left } else { right };
                }
            }
        }
    }

    fn visit_all(&self, visit: &mut dyn FnMut(usize)) {
        fn walk<K>(n: &PoolArc<EbNode<K>>, visit: &mut dyn FnMut(usize)) {
            visit(PoolArc::as_ptr(n) as usize);
            if let EbNode::Internal { left, right, .. } = &**n {
                walk(left, visit);
                walk(right, visit);
            }
        }
        if let Some(r) = self.root() {
            walk(r, visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing::{sharing_stats, uncached_on_retry, SearchTree};
    use std::collections::BTreeSet;

    #[test]
    fn empty_set_basics() {
        let s: ExternalBstSet<i64> = ExternalBstSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(&1));
        assert!(s.remove(&1).is_none());
        assert_eq!(s.check_invariants(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let s: ExternalBstSet<i64> = ExternalBstSet::new();
        let s = s.insert(5).unwrap();
        let s = s.insert(3).unwrap();
        let s = s.insert(8).unwrap();
        assert!(s.insert(5).is_none());
        assert_eq!(s.len(), 3);
        assert!(s.contains(&3) && s.contains(&5) && s.contains(&8));
        assert!(!s.contains(&4));
        s.check_invariants();
        let s = s.remove(&5).unwrap();
        assert!(!s.contains(&5));
        assert_eq!(s.len(), 2);
        assert!(s.remove(&5).is_none());
        s.check_invariants();
    }

    #[test]
    fn matches_btreeset_on_mixed_ops() {
        let mut reference = BTreeSet::new();
        let mut s: ExternalBstSet<i64> = ExternalBstSet::new();
        let mut x = 99u64;
        for _ in 0..4000 {
            x = crate::hash::splitmix64(x);
            let k = (x % 300) as i64;
            if x % 2 == 0 {
                let expected = reference.insert(k);
                match s.insert(k) {
                    Some(next) => {
                        assert!(expected);
                        s = next;
                    }
                    None => assert!(!expected),
                }
            } else {
                let expected = reference.remove(&k);
                match s.remove(&k) {
                    Some(next) => {
                        assert!(expected);
                        s = next;
                    }
                    None => assert!(!expected),
                }
            }
        }
        assert_eq!(s.len(), reference.len());
        assert!(s.iter().copied().eq(reference.into_iter()));
        s.check_invariants();
    }

    #[test]
    fn iter_sorted() {
        let s: ExternalBstSet<i64> = [5, 1, 9, 3, 7].into_iter().collect();
        let got: Vec<i64> = s.iter().copied().collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn remove_last_key_empties() {
        let s: ExternalBstSet<i64> = [42].into_iter().collect();
        let s = s.remove(&42).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn persistence_and_sharing() {
        let v1: ExternalBstSet<i64> = (0..1024).collect();
        let v2 = v1.insert(5000).unwrap();
        assert!(!v1.contains(&5000));
        assert!(v2.contains(&5000));
        let stats = sharing_stats(&v1, &v2);
        // Insert copies the search path only: internal path + 1 internal +
        // 1 leaf.
        assert!(
            stats.fresh <= v1.height() + 3,
            "fresh {} exceeds path bound",
            stats.fresh
        );
    }

    #[test]
    fn random_build_is_balanced() {
        use crate::hash::splitmix64;
        let mut s: ExternalBstSet<u64> = ExternalBstSet::new();
        let mut x = 5u64;
        for _ in 0..4096 {
            x = splitmix64(x);
            if let Some(next) = s.insert(x) {
                s = next;
            }
        }
        let h = s.height();
        assert!(h <= 40, "height {h} too large for ~4096 random keys");
    }

    #[test]
    fn modified_on_path_expectation_close_to_two() {
        // The Appendix-A lemma on the exact structure it is proved for:
        // uniform random winner key, uniform random retry key, external
        // tree, no rotations. The expectation must be <= 2 and empirically
        // close to it from below on a balanced tree.
        use crate::hash::splitmix64;
        let keys: Vec<u64> = {
            let mut x = 11u64;
            (0..4096)
                .map(|_| {
                    x = splitmix64(x);
                    x
                })
                .collect()
        };
        let base: ExternalBstSet<u64> = keys.iter().copied().collect();
        let mut x = 17u64;
        let mut total = 0usize;
        let trials = 4000;
        for _ in 0..trials {
            x = splitmix64(x);
            let winner = keys[(x % keys.len() as u64) as usize];
            x = splitmix64(x);
            let ours = keys[(x % keys.len() as u64) as usize];
            // Winner removes+reinserts its key: copies its search path.
            let after = base.remove(&winner).unwrap().insert(winner).unwrap();
            total += uncached_on_retry(&base, &after, &ours);
        }
        let mean = total as f64 / trials as f64;
        assert!(
            mean <= 2.5,
            "mean modified-on-path {mean:.3} violates the <=2 lemma margin"
        );
        assert!(mean > 0.5, "suspiciously low mean {mean:.3}");
    }

    #[test]
    fn range_iterates_lazily_and_in_order() {
        let s: ExternalBstSet<i64> = (0..100).collect();
        let got: Vec<i64> = s.range(10..20).copied().collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        let got: Vec<i64> = s.range(90..).copied().collect();
        assert_eq!(got, (90..100).collect::<Vec<_>>());
        let got: Vec<i64> = s.range(..=5).copied().collect();
        assert_eq!(got, (0..=5).collect::<Vec<_>>());
        assert_eq!(s.range(200..300).count(), 0);
        let empty: ExternalBstSet<i64> = ExternalBstSet::new();
        assert_eq!(empty.range(..).count(), 0);
    }

    #[test]
    fn diff_reports_membership_changes_in_order() {
        let v1: ExternalBstSet<i64> = (0..100).collect();
        let v2 = v1.insert(500).unwrap().remove(&7).unwrap();
        assert_eq!(
            v1.diff(&v2),
            vec![SetDiffEntry::Removed(7), SetDiffEntry::Added(500)]
        );
        assert_eq!(
            v2.diff(&v1),
            vec![SetDiffEntry::Added(7), SetDiffEntry::Removed(500)]
        );
        let (diff, visited) = v1.diff_counted(&v1.clone());
        assert!(diff.is_empty());
        assert_eq!(visited, 0, "shared root must short-circuit");
    }

    #[test]
    fn visit_path_ends_at_leaf() {
        let s: ExternalBstSet<i64> = (0..64).collect();
        let mut path = Vec::new();
        s.visit_path(&13, &mut |a| path.push(a));
        assert!(!path.is_empty());
        assert!(path.len() <= s.height() + 1);
    }
}
