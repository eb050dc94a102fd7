//! Persistent treap — the data structure the paper benchmarks.
//!
//! A treap (Seidel & Aragon, *Randomized search trees*, Algorithmica 1996)
//! is a binary search tree in key order that is simultaneously a max-heap
//! in priority order; with uniform random priorities its height is
//! `O(log n)` with high probability.
//!
//! This implementation is **persistent**: every modifying operation
//! returns a *new* version and leaves the receiver untouched. New versions
//! share all untouched nodes with the old version; an update allocates
//! only the nodes on (roughly) the root-to-key search path — this is the
//! *path copying* of the paper's title, and the source of the cache
//! effect it analyzes.
//!
//! Priorities are derived by hashing the key (see [`crate::hash`]), so a
//! given key set always produces the same canonical tree, regardless of
//! operation order. Explicit-priority entry points exist for callers that
//! want classical randomized behaviour.

use std::borrow::Borrow;
use std::cmp::Ordering::{Equal, Greater, Less};
use std::fmt;
use std::hash::Hash;
use std::ops::Bound;
use std::ops::RangeBounds;

use pathcopy_core::api::DiffEntry;
use pathcopy_core::pool::PoolArc;

use crate::hash::priority_of;

/// Shared, immutable treap node.
#[derive(Debug)]
pub struct Node<K, V> {
    key: K,
    value: V,
    priority: u64,
    /// Number of nodes in this subtree (enables rank/select in O(log n)).
    size: usize,
    left: Link<K, V>,
    right: Link<K, V>,
}

pub(crate) type Link<K, V> = Option<PoolArc<Node<K, V>>>;

// One node, one cache line: the reference count plus a word-keyed node is
// 56 bytes, so the pool serves it from its 64-byte, 64-aligned class. A
// field added to `Node` that breaks this doubles every update's memory
// traffic, so it fails the build rather than a benchmark.
const _: () = assert!(
    PoolArc::<Node<i64, i64>>::BLOCK_BYTES == 64 && PoolArc::<Node<i64, i64>>::BLOCK_ALIGN == 64
);

impl<K, V> Node<K, V> {
    /// The node's key.
    pub fn key(&self) -> &K {
        &self.key
    }
    /// The node's value.
    pub fn value(&self) -> &V {
        &self.value
    }
    /// The node's heap priority.
    pub fn priority(&self) -> u64 {
        self.priority
    }
    /// Left child, if any.
    pub fn left(&self) -> Option<&PoolArc<Node<K, V>>> {
        self.left.as_ref()
    }
    /// Right child, if any.
    pub fn right(&self) -> Option<&PoolArc<Node<K, V>>> {
        self.right.as_ref()
    }
}

#[inline]
fn size_of<K, V>(link: &Link<K, V>) -> usize {
    link.as_ref().map_or(0, |n| n.size)
}

#[inline]
fn mk<K, V>(
    key: K,
    value: V,
    priority: u64,
    left: Link<K, V>,
    right: Link<K, V>,
) -> PoolArc<Node<K, V>> {
    let size = 1 + size_of(&left) + size_of(&right);
    PoolArc::new(Node {
        key,
        value,
        priority,
        size,
        left,
        right,
    })
}

/// A persistent ordered map backed by a treap.
///
/// Cloning is O(1) (it clones the root's `PoolArc`); all updates are
/// O(log n) expected time and allocate O(log n) nodes, sharing the rest
/// with the previous version.
///
/// # Examples
///
/// ```
/// use pathcopy_trees::TreapMap;
///
/// let v0: TreapMap<i64, &str> = TreapMap::new();
/// let (v1, _) = v0.insert(1, "one");
/// let (v2, _) = v1.insert(2, "two");
/// let (v3, old) = v2.insert(1, "uno");
/// assert_eq!(old, Some("one"));
///
/// // Every version is still intact:
/// assert_eq!(v1.get(&1), Some(&"one"));
/// assert_eq!(v3.get(&1), Some(&"uno"));
/// assert_eq!(v0.len(), 0);
/// ```
pub struct TreapMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Clone for TreapMap<K, V> {
    fn clone(&self) -> Self {
        TreapMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for TreapMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> TreapMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        TreapMap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size_of(&self.root)
    }

    /// `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The root node, exposed for structural inspection (sharing
    /// measurements, invariant checks).
    pub fn root(&self) -> Option<&PoolArc<Node<K, V>>> {
        self.root.as_ref()
    }
}

impl<K: Ord + Clone + Hash, V: Clone + PartialEq> TreapMap<K, V> {
    /// Inserts `key -> value` with the canonical hashed priority,
    /// returning the new version and the previous value, if any. If the
    /// key already maps to an equal value the "new" version is a clone
    /// of `self`: nothing is allocated (see [`upsert`](Self::upsert)).
    pub fn insert(&self, key: K, value: V) -> (Self, Option<V>) {
        let priority = priority_of(&key);
        self.insert_with_priority(key, value, priority)
    }

    /// [`insert`](Self::insert) that reports whether a version was built:
    /// `None` means the key already maps to an equal value, so the
    /// operation changes nothing — **no node is allocated or cloned**,
    /// letting the universal construction skip its CAS. The second field
    /// is the previous value, if any.
    pub fn upsert(&self, key: K, value: V) -> (Option<Self>, Option<V>) {
        let priority = priority_of(&key);
        let (root, old) = insert_rec(&self.root, key, value, priority, Present::Replace);
        (root.map(|root| TreapMap { root: Some(root) }), old)
    }

    /// Inserts `key -> value` only if absent; `None` means the key was
    /// already present and **no new version was created** (the operation
    /// is a no-op, letting the universal construction skip its CAS).
    ///
    /// Single traversal: presence is detected during the descent, so a
    /// no-op costs no allocation.
    pub fn insert_if_absent(&self, key: K, value: V) -> Option<Self> {
        let priority = priority_of(&key);
        insert_rec(&self.root, key, value, priority, Present::Keep)
            .0
            .map(|root| TreapMap { root: Some(root) })
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> TreapMap<K, V> {
    /// Inserts with an explicit priority (classical randomized treap use).
    ///
    /// A present key whose node ranks at or above `priority` keeps its
    /// node's priority; if it also maps to an equal value the result is a
    /// clone of `self` and nothing is allocated. A present key ranked
    /// below `priority` is moved up to it.
    pub fn insert_with_priority(&self, key: K, value: V, priority: u64) -> (Self, Option<V>) {
        let (root, old) = insert_rec(&self.root, key, value, priority, Present::Replace);
        let next = root.map_or_else(|| self.clone(), |root| TreapMap { root: Some(root) });
        (next, old)
    }
}

impl<K: Ord + Clone, V: Clone> TreapMap<K, V> {
    /// Removes `key`, returning the new version and the removed value;
    /// `None` means the key was absent (no new version created).
    pub fn remove<Q>(&self, key: &Q) -> Option<(Self, V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        remove_rec(&self.root, key).map(|(root, v)| (TreapMap { root }, v))
    }

    /// Splits into (`< key`, value at `key`, `> key`).
    pub fn split<Q>(&self, key: &Q) -> (Self, Option<V>, Self)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (l, m, r) = split_rec(&self.root, key);
        (
            TreapMap { root: l },
            m.map(|n| n.value.clone()),
            TreapMap { root: r },
        )
    }

    /// Joins two maps; every key of `self` must be strictly less than
    /// every key of `right`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the key ranges overlap.
    pub fn join(&self, right: &Self) -> Self {
        debug_assert!(
            match (self.max_entry(), right.min_entry()) {
                (Some((a, _)), Some((b, _))) => a < b,
                _ => true,
            },
            "join requires disjoint, ordered key ranges"
        );
        TreapMap {
            root: merge(&self.root, &right.root),
        }
    }

    /// Set-union of two maps; on key collisions values from `self` win.
    pub fn union(&self, other: &Self) -> Self {
        TreapMap {
            root: union_rec(&self.root, &other.root),
        }
    }

    /// Returns the entry with the smallest key ≥ `key`.
    pub fn ceiling<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut best = None;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Less => {
                    best = Some((&n.key, &n.value));
                    cur = n.left.as_deref();
                }
                Equal => return Some((&n.key, &n.value)),
                Greater => cur = n.right.as_deref(),
            }
        }
        best
    }

    /// Returns the entry with the largest key ≤ `key`.
    pub fn floor<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut best = None;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Greater => {
                    best = Some((&n.key, &n.value));
                    cur = n.right.as_deref();
                }
                Equal => return Some((&n.key, &n.value)),
                Less => cur = n.left.as_deref(),
            }
        }
        best
    }
}

impl<K: Ord, V> TreapMap<K, V> {
    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Less => cur = n.left.as_deref(),
                Equal => return Some(&n.value),
                Greater => cur = n.right.as_deref(),
            }
        }
        None
    }

    /// `true` if the key is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Entry with the minimum key.
    pub fn min_entry(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(l) = cur.left.as_deref() {
            cur = l;
        }
        Some((&cur.key, &cur.value))
    }

    /// Entry with the maximum key.
    pub fn max_entry(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(r) = cur.right.as_deref() {
            cur = r;
        }
        Some((&cur.key, &cur.value))
    }

    /// Entry with rank `k` (0-based in key order).
    pub fn select(&self, mut k: usize) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        loop {
            let ls = size_of(&cur.left);
            match k.cmp(&ls) {
                Less => cur = cur.left.as_deref()?,
                Equal => return Some((&cur.key, &cur.value)),
                Greater => {
                    k -= ls + 1;
                    cur = cur.right.as_deref()?;
                }
            }
        }
    }

    /// Number of keys strictly less than `key`.
    pub fn rank<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        let mut acc = 0;
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Less => cur = n.left.as_deref(),
                Equal => return acc + size_of(&n.left),
                Greater => {
                    acc += size_of(&n.left) + 1;
                    cur = n.right.as_deref();
                }
            }
        }
        acc
    }

    /// In-order iterator over `(&K, &V)`.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(&self.root)
    }

    /// In-order iterator over keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// In-order iterator over the entries whose keys lie in `range`.
    pub fn range<R>(&self, range: R) -> Range<'_, K, V, R>
    where
        R: RangeBounds<K>,
    {
        Range::new(&self.root, range)
    }

    /// Tree height (0 for the empty tree). O(n).
    pub fn height(&self) -> usize {
        fn h<K, V>(link: &Link<K, V>) -> usize {
            link.as_ref().map_or(0, |n| 1 + h(&n.left).max(h(&n.right)))
        }
        h(&self.root)
    }

    /// Number of nodes on the root-to-key search path (the quantity the
    /// paper's cost model charges per operation). Counts nodes visited
    /// until the key is found or a nil child is reached.
    pub fn path_len<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        let mut n_visited = 0;
        while let Some(n) = cur {
            n_visited += 1;
            match key.cmp(n.key.borrow()) {
                Less => cur = n.left.as_deref(),
                Equal => break,
                Greater => cur = n.right.as_deref(),
            }
        }
        n_visited
    }

    /// Validates the treap invariants, returning the node count.
    ///
    /// # Panics
    ///
    /// Panics if key order, heap order, or size bookkeeping is violated.
    pub fn check_invariants(&self) -> usize {
        fn walk<K: Ord, V>(link: &Link<K, V>, lo: Option<&K>, hi: Option<&K>) -> usize {
            match link {
                None => 0,
                Some(n) => {
                    if let Some(lo) = lo {
                        assert!(n.key > *lo, "BST order violated (left bound)");
                    }
                    if let Some(hi) = hi {
                        assert!(n.key < *hi, "BST order violated (right bound)");
                    }
                    for c in [&n.left, &n.right].into_iter().flatten() {
                        assert!(
                            c.priority <= n.priority,
                            "heap order violated: child priority above parent"
                        );
                    }
                    let ls = walk(&n.left, lo, Some(&n.key));
                    let rs = walk(&n.right, Some(&n.key), hi);
                    assert_eq!(n.size, ls + rs + 1, "size field out of date");
                    n.size
                }
            }
        }
        walk(&self.root, None, None)
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> TreapMap<K, V> {
    /// Difference between this (older) version and `newer`, in ascending
    /// key order.
    ///
    /// Exploits path copying: a subtree that is pointer-identical in both
    /// versions is skipped without being visited, so the cost is
    /// proportional to the changed region plus its boundary search paths
    /// — sublinear in the map size for nearby versions.
    pub fn diff(&self, newer: &Self) -> Vec<DiffEntry<K, V>> {
        self.diff_counted(newer).0
    }

    /// [`diff`](Self::diff) that also reports how many tree nodes the
    /// walk visited — the observable form of the shared-subtree
    /// short-circuit (two identical versions visit 0 nodes).
    pub fn diff_counted(&self, newer: &Self) -> (Vec<DiffEntry<K, V>>, usize) {
        let mut old = DiffWalk::new(&self.root);
        let mut new = DiffWalk::new(&newer.root);
        let mut out = Vec::new();
        let mut visited = 0usize;
        loop {
            // Skip subtrees shared between the versions: both walks are
            // positioned just before the same run of entries, so the run
            // contributes nothing to the diff.
            while let (Some(a), Some(b)) = (old.top_subtree(), new.top_subtree()) {
                if PoolArc::ptr_eq(a, b) {
                    old.pop();
                    new.pop();
                } else {
                    break;
                }
            }
            // Expand unexplored tops one level at a time so the skip
            // check above sees every shared child before it is opened.
            if old.top_subtree().is_some() {
                visited += 1;
                old.expand_top();
                continue;
            }
            if new.top_subtree().is_some() {
                visited += 1;
                new.expand_top();
                continue;
            }
            match (old.top_entry(), new.top_entry()) {
                (None, None) => break,
                (Some(n), None) => {
                    out.push(DiffEntry::Removed(n.key.clone(), n.value.clone()));
                    old.pop();
                }
                (None, Some(n)) => {
                    out.push(DiffEntry::Added(n.key.clone(), n.value.clone()));
                    new.pop();
                }
                (Some(a), Some(b)) => match a.key.cmp(&b.key) {
                    Less => {
                        out.push(DiffEntry::Removed(a.key.clone(), a.value.clone()));
                        old.pop();
                    }
                    Greater => {
                        out.push(DiffEntry::Added(b.key.clone(), b.value.clone()));
                        new.pop();
                    }
                    Equal => {
                        if a.value != b.value {
                            out.push(DiffEntry::Changed(
                                a.key.clone(),
                                a.value.clone(),
                                b.value.clone(),
                            ));
                        }
                        old.pop();
                        new.pop();
                    }
                },
            }
        }
        (out, visited)
    }
}

/// One pending step of an in-order diff walk.
enum DiffFrame<'a, K, V> {
    /// A node whose own entry is the next thing in order (its left
    /// subtree has already been dispatched).
    Entry(&'a Node<K, V>),
    /// An unexplored subtree, still skippable as a whole.
    Subtree(&'a PoolArc<Node<K, V>>),
}

/// In-order walk that exposes its unexplored subtrees, so the diff can
/// skip ones shared with the other version before opening them.
struct DiffWalk<'a, K, V> {
    frames: Vec<DiffFrame<'a, K, V>>,
}

impl<'a, K, V> DiffWalk<'a, K, V> {
    fn new(root: &'a Link<K, V>) -> Self {
        DiffWalk {
            frames: root.as_ref().map(DiffFrame::Subtree).into_iter().collect(),
        }
    }

    fn top_subtree(&self) -> Option<&'a PoolArc<Node<K, V>>> {
        match self.frames.last() {
            Some(DiffFrame::Subtree(s)) => Some(s),
            _ => None,
        }
    }

    fn top_entry(&self) -> Option<&'a Node<K, V>> {
        match self.frames.last() {
            Some(DiffFrame::Entry(n)) => Some(n),
            _ => None,
        }
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    /// Replaces the top `Subtree` frame by (right subtree, own entry,
    /// left subtree), leaving the left subtree on top.
    fn expand_top(&mut self) {
        let Some(DiffFrame::Subtree(s)) = self.frames.pop() else {
            unreachable!("expand_top requires a Subtree top");
        };
        if let Some(r) = s.right.as_ref() {
            self.frames.push(DiffFrame::Subtree(r));
        }
        self.frames.push(DiffFrame::Entry(s));
        if let Some(l) = s.left.as_ref() {
            self.frames.push(DiffFrame::Subtree(l));
        }
    }
}

impl<K: Ord + Clone + Hash, V: Clone + PartialEq> FromIterator<(K, V)> for TreapMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = TreapMap::new();
        for (k, v) in iter {
            map = map.insert(k, v).0;
        }
        map
    }
}

impl<K: fmt::Debug + Ord, V: fmt::Debug> fmt::Debug for TreapMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord, V: PartialEq> PartialEq for TreapMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}
impl<K: Ord, V: Eq> Eq for TreapMap<K, V> {}

// ---------------------------------------------------------------------------
// Recursive machinery. Every function here allocates only along the search
// path: untouched subtrees are shared via `PoolArc` clones.
// ---------------------------------------------------------------------------

/// Copies a node, replacing its children.
#[inline]
fn with_children<K: Clone, V: Clone>(
    n: &Node<K, V>,
    left: Link<K, V>,
    right: Link<K, V>,
) -> PoolArc<Node<K, V>> {
    mk(n.key.clone(), n.value.clone(), n.priority, left, right)
}

/// What [`insert_rec`] does with a key that is already present.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Present {
    /// Leave the entry as it is (insert-if-absent).
    Keep,
    /// Replace the value, unless it is equal to the one given.
    Replace,
}

/// The one insert descent. Returns the new subtree, or `None` when the
/// insert changes nothing (per `present`) — in which case nothing has
/// been allocated or cloned on the way down — plus the previous value.
fn insert_rec<K: Ord + Clone, V: Clone + PartialEq>(
    link: &Link<K, V>,
    key: K,
    value: V,
    priority: u64,
    present: Present,
) -> (Link<K, V>, Option<V>) {
    match link {
        None => (Some(mk(key, value, priority, None, None)), None),
        Some(n) => {
            if priority > n.priority {
                // The new node belongs above this subtree: split the
                // subtree around the key and put the new node on top.
                // With hashed priorities a present key has our exact
                // priority and we could not be above it, so `m` is `None`
                // except under explicit priorities or hash ties; a present
                // key moves up to the new priority unless `Keep`.
                let (l, m, r) = split_rec(link, &key);
                let old = m.map(|mid| mid.value.clone());
                if old.is_some() && present == Present::Keep {
                    return (None, old);
                }
                (Some(mk(key, value, priority, l, r)), old)
            } else {
                match key.cmp(&n.key) {
                    Equal => {
                        let old = Some(n.value.clone());
                        if present == Present::Keep || n.value == value {
                            return (None, old);
                        }
                        // Same key: replace the value, keep shape.
                        let node = mk(key, value, n.priority, n.left.clone(), n.right.clone());
                        (Some(node), old)
                    }
                    Less => {
                        let (nl, old) = insert_rec(&n.left, key, value, priority, present);
                        // `nl.priority <= n.priority` (the new node either
                        // stayed below or had priority <= ours), so the
                        // heap property holds without rotations here.
                        (
                            nl.map(|nl| with_children(n, Some(nl), n.right.clone())),
                            old,
                        )
                    }
                    Greater => {
                        let (nr, old) = insert_rec(&n.right, key, value, priority, present);
                        (nr.map(|nr| with_children(n, n.left.clone(), Some(nr))), old)
                    }
                }
            }
        }
    }
}

fn remove_rec<K, V, Q>(link: &Link<K, V>, key: &Q) -> Option<(Link<K, V>, V)>
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    let n = link.as_ref()?;
    match key.cmp(n.key.borrow()) {
        Equal => Some((merge(&n.left, &n.right), n.value.clone())),
        Less => {
            let (nl, v) = remove_rec(&n.left, key)?;
            Some((Some(with_children(n, nl, n.right.clone())), v))
        }
        Greater => {
            let (nr, v) = remove_rec(&n.right, key)?;
            Some((Some(with_children(n, n.left.clone(), nr)), v))
        }
    }
}

/// Merges two treaps where every key of `l` < every key of `r`.
fn merge<K: Ord + Clone, V: Clone>(l: &Link<K, V>, r: &Link<K, V>) -> Link<K, V> {
    match (l, r) {
        (None, _) => r.clone(),
        (_, None) => l.clone(),
        (Some(a), Some(b)) => {
            if a.priority >= b.priority {
                Some(with_children(a, a.left.clone(), merge(&a.right, r)))
            } else {
                Some(with_children(b, merge(l, &b.left), b.right.clone()))
            }
        }
    }
}

/// Splits around `key` into (`< key`, the node with `key` if present,
/// `> key`).
#[allow(clippy::type_complexity)]
fn split_rec<K, V, Q>(
    link: &Link<K, V>,
    key: &Q,
) -> (Link<K, V>, Option<PoolArc<Node<K, V>>>, Link<K, V>)
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    match link {
        None => (None, None, None),
        Some(n) => match key.cmp(n.key.borrow()) {
            Equal => (n.left.clone(), Some(n.clone()), n.right.clone()),
            Less => {
                let (l, m, lr) = split_rec(&n.left, key);
                (l, m, Some(with_children(n, lr, n.right.clone())))
            }
            Greater => {
                let (rl, m, r) = split_rec(&n.right, key);
                (Some(with_children(n, n.left.clone(), rl)), m, r)
            }
        },
    }
}

/// Union by split-and-recurse; `a`'s values win on collisions. The root
/// of the result is whichever input root has the higher priority, which
/// keeps the heap order intact.
fn union_rec<K: Ord + Clone, V: Clone>(a: &Link<K, V>, b: &Link<K, V>) -> Link<K, V> {
    match (a, b) {
        (None, _) => b.clone(),
        (_, None) => a.clone(),
        (Some(an), Some(bn)) => {
            if an.priority >= bn.priority {
                let (bl, _bm, br) = split_rec(b, an.key.borrow());
                let left = union_rec(&an.left, &bl);
                let right = union_rec(&an.right, &br);
                Some(with_children(an, left, right))
            } else {
                let (al, am, ar) = split_rec(a, bn.key.borrow());
                let left = union_rec(&al, &bn.left);
                let right = union_rec(&ar, &bn.right);
                // `a`'s value wins if both trees carry `bn.key`.
                let value = am.map_or_else(|| bn.value.clone(), |m| m.value.clone());
                Some(mk(bn.key.clone(), value, bn.priority, left, right))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Iterators
// ---------------------------------------------------------------------------

/// In-order iterator over a [`TreapMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn new(root: &'a Link<K, V>) -> Self {
        let mut it = Iter { stack: Vec::new() };
        it.push_left_spine(root.as_deref());
        it
    }

    fn push_left_spine(&mut self, mut cur: Option<&'a Node<K, V>>) {
        while let Some(n) = cur {
            self.stack.push(n);
            cur = n.left.as_deref();
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        self.push_left_spine(n.right.as_deref());
        Some((&n.key, &n.value))
    }
}

/// Owning in-order iterator over a [`TreapMap`] version.
///
/// Holds `PoolArc` references to the pending subtrees, so it is independent
/// of any borrow of the map — the iterator form of a snapshot handle.
/// Entries are cloned out of the shared nodes as they are produced.
pub struct IntoIter<K, V> {
    stack: Vec<PoolArc<Node<K, V>>>,
}

impl<K, V> IntoIter<K, V> {
    fn new(root: Link<K, V>) -> Self {
        let mut it = IntoIter { stack: Vec::new() };
        it.push_left_spine(root);
        it
    }

    fn push_left_spine(&mut self, mut cur: Link<K, V>) {
        while let Some(n) = cur {
            cur = n.left.clone();
            self.stack.push(n);
        }
    }
}

impl<K: Clone, V: Clone> Iterator for IntoIter<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        self.push_left_spine(n.right.clone());
        Some((n.key.clone(), n.value.clone()))
    }
}

impl<K: Clone, V: Clone> IntoIterator for TreapMap<K, V> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V>;

    fn into_iter(self) -> Self::IntoIter {
        IntoIter::new(self.root)
    }
}

impl<'a, K, V> IntoIterator for &'a TreapMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        Iter::new(&self.root)
    }
}

/// Iterator over a key range of a [`TreapMap`].
pub struct Range<'a, K, V, R> {
    stack: Vec<&'a Node<K, V>>,
    range: R,
}

impl<'a, K: Ord, V, R: RangeBounds<K>> Range<'a, K, V, R> {
    fn new(root: &'a Link<K, V>, range: R) -> Self {
        let mut it = Range {
            stack: Vec::new(),
            range,
        };
        it.push_from(root.as_deref());
        it
    }

    /// Pushes the left spine, skipping subtrees entirely below the lower
    /// bound.
    fn push_from(&mut self, mut cur: Option<&'a Node<K, V>>) {
        while let Some(n) = cur {
            let below = match self.range.start_bound() {
                Bound::Included(lo) => n.key < *lo,
                Bound::Excluded(lo) => n.key <= *lo,
                Bound::Unbounded => false,
            };
            if below {
                cur = n.right.as_deref();
            } else {
                self.stack.push(n);
                cur = n.left.as_deref();
            }
        }
    }
}

impl<'a, K: Ord, V, R: RangeBounds<K>> Iterator for Range<'a, K, V, R> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        self.push_from(n.right.as_deref());
        let above = match self.range.end_bound() {
            Bound::Included(hi) => n.key > *hi,
            Bound::Excluded(hi) => n.key >= *hi,
            Bound::Unbounded => false,
        };
        if above {
            self.stack.clear();
            return None;
        }
        Some((&n.key, &n.value))
    }
}

// ---------------------------------------------------------------------------
// Set façade
// ---------------------------------------------------------------------------

/// A persistent ordered set backed by [`TreapMap<K, ()>`].
///
/// `insert`/`remove` return `None` when the operation would not change the
/// set, so the universal construction can skip its CAS (paper §4.2: "some
/// operations do not modify the data structure").
#[derive(Clone, Default)]
pub struct TreapSet<K> {
    map: TreapMap<K, ()>,
}

impl<K: Ord + Clone + Hash> TreapSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self
    where
        K: Default,
    {
        TreapSet {
            map: TreapMap::new(),
        }
    }

    /// Creates an empty set (no `Default` bound).
    pub fn empty() -> Self {
        TreapSet {
            map: TreapMap::new(),
        }
    }

    /// Inserts `key`; `None` means it was already present.
    pub fn insert(&self, key: K) -> Option<Self> {
        self.map
            .insert_if_absent(key, ())
            .map(|map| TreapSet { map })
    }

    /// Removes `key`; `None` means it was absent.
    pub fn remove<Q>(&self, key: &Q) -> Option<Self>
    where
        K: Borrow<Q>,
        Q: Ord + Hash + ?Sized,
    {
        self.map.remove(key).map(|(map, ())| TreapSet { map })
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        TreapSet {
            map: self.map.union(&other.map),
        }
    }
}

impl<K: Ord> TreapSet<K> {
    /// `true` if `key` is present.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterator over keys in order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// The underlying map (for structural inspection).
    pub fn as_map(&self) -> &TreapMap<K, ()> {
        &self.map
    }

    /// Validates treap invariants; returns the node count.
    pub fn check_invariants(&self) -> usize {
        self.map.check_invariants()
    }
}

/// Owning ascending key iterator over a [`TreapSet`] version.
pub struct SetIntoIter<K> {
    inner: IntoIter<K, ()>,
}

impl<K: Clone> Iterator for SetIntoIter<K> {
    type Item = K;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(k, ())| k)
    }
}

impl<K: Clone> IntoIterator for TreapSet<K> {
    type Item = K;
    type IntoIter = SetIntoIter<K>;

    fn into_iter(self) -> Self::IntoIter {
        SetIntoIter {
            inner: self.map.into_iter(),
        }
    }
}

impl<K: fmt::Debug + Ord> fmt::Debug for TreapSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone + Hash> FromIterator<K> for TreapSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        TreapSet {
            map: iter.into_iter().map(|k| (k, ())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_map_basics() {
        let m: TreapMap<i64, i64> = TreapMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.iter().count(), 0);
        m.check_invariants();
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let m = TreapMap::new();
        let (m, old) = m.insert(5, "five");
        assert_eq!(old, None);
        let (m, old) = m.insert(3, "three");
        assert_eq!(old, None);
        let (m, old) = m.insert(5, "FIVE");
        assert_eq!(old, Some("five"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&5), Some(&"FIVE"));
        let (m, v) = m.remove(&5).unwrap();
        assert_eq!(v, "FIVE");
        assert_eq!(m.len(), 1);
        assert!(m.remove(&5).is_none());
        m.check_invariants();
    }

    #[test]
    fn persistence_versions_are_independent() {
        let v0: TreapMap<i64, i64> = TreapMap::new();
        let (v1, _) = v0.insert(1, 10);
        let (v2, _) = v1.insert(2, 20);
        let (v3, _) = v2.remove(&1).unwrap();
        assert_eq!(v0.len(), 0);
        assert_eq!(v1.len(), 1);
        assert_eq!(v2.len(), 2);
        assert_eq!(v3.len(), 1);
        assert_eq!(v1.get(&1), Some(&10));
        assert_eq!(v3.get(&1), None);
        for v in [&v0, &v1, &v2, &v3] {
            v.check_invariants();
        }
    }

    #[test]
    fn canonical_shape_is_history_independent() {
        // Hashed priorities: the same key set must give the same tree no
        // matter the insertion/removal history.
        let a: TreapMap<i64, i64> = (0..100).map(|k| (k, k)).collect();
        let mut b: TreapMap<i64, i64> = (0..200).rev().map(|k| (k, k)).collect();
        for k in 100..200 {
            b = b.remove(&k).unwrap().0;
        }
        fn same_shape<K: Ord, V>(a: &Link<K, V>, b: &Link<K, V>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => {
                    x.key == y.key && same_shape(&x.left, &y.left) && same_shape(&x.right, &y.right)
                }
                _ => false,
            }
        }
        assert!(same_shape(&a.root, &b.root));
    }

    #[test]
    fn matches_btreemap_on_mixed_ops() {
        let mut reference = BTreeMap::new();
        let mut m: TreapMap<i64, i64> = TreapMap::new();
        let mut x = 12345u64;
        for _ in 0..4000 {
            x = crate::hash::splitmix64(x);
            let k = (x % 500) as i64;
            if x % 3 == 0 {
                let expected = reference.remove(&k);
                let got = m.remove(&k);
                match (expected, got) {
                    (None, None) => {}
                    (Some(ev), Some((nm, gv))) => {
                        assert_eq!(ev, gv);
                        m = nm;
                    }
                    other => panic!("remove mismatch: {other:?}"),
                }
            } else {
                let v = (x >> 32) as i64;
                let expected = reference.insert(k, v);
                let (nm, got) = m.insert(k, v);
                assert_eq!(expected, got);
                m = nm;
            }
        }
        assert_eq!(m.len(), reference.len());
        assert!(m.iter().map(|(k, v)| (*k, *v)).eq(reference.into_iter()));
        m.check_invariants();
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let m: TreapMap<i64, i64> = (0..1000).map(|k| (k * 7 % 1000, k)).collect();
        let keys: Vec<i64> = m.keys().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), m.len());
    }

    #[test]
    fn range_queries() {
        let m: TreapMap<i64, i64> = (0..100).map(|k| (k, k)).collect();
        let got: Vec<i64> = m.range(10..20).map(|(k, _)| *k).collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        let got: Vec<i64> = m.range(90..).map(|(k, _)| *k).collect();
        assert_eq!(got, (90..100).collect::<Vec<_>>());
        let got: Vec<i64> = m.range(..=5).map(|(k, _)| *k).collect();
        assert_eq!(got, (0..=5).collect::<Vec<_>>());
        let got: Vec<i64> = m.range(200..300).map(|(k, _)| *k).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn rank_select_floor_ceiling() {
        let m: TreapMap<i64, i64> = (0..100).map(|k| (k * 2, k)).collect(); // evens 0..198
        assert_eq!(m.select(0).unwrap().0, &0);
        assert_eq!(m.select(99).unwrap().0, &198);
        assert!(m.select(100).is_none());
        assert_eq!(m.rank(&0), 0);
        assert_eq!(m.rank(&7), 4); // 0,2,4,6
        assert_eq!(m.rank(&500), 100);
        assert_eq!(m.floor(&7).unwrap().0, &6);
        assert_eq!(m.ceiling(&7).unwrap().0, &8);
        assert_eq!(m.floor(&-1), None);
        assert_eq!(m.ceiling(&199), None);
        assert_eq!(m.min_entry().unwrap().0, &0);
        assert_eq!(m.max_entry().unwrap().0, &198);
    }

    #[test]
    fn split_and_join() {
        let m: TreapMap<i64, i64> = (0..100).map(|k| (k, k)).collect();
        let (l, mid, r) = m.split(&50);
        assert_eq!(mid, Some(50));
        assert_eq!(l.len(), 50);
        assert_eq!(r.len(), 49);
        l.check_invariants();
        r.check_invariants();
        let joined = l.join(&r);
        assert_eq!(joined.len(), 99);
        assert!(!joined.contains_key(&50));
        joined.check_invariants();
    }

    #[test]
    fn union_prefers_left_values() {
        let a: TreapMap<i64, &str> = [(1, "a1"), (2, "a2")].into_iter().collect();
        let b: TreapMap<i64, &str> = [(2, "b2"), (3, "b3")].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.get(&2), Some(&"a2"));
        assert_eq!(u.get(&3), Some(&"b3"));
        u.check_invariants();
    }

    #[test]
    fn path_copying_shares_structure() {
        let m: TreapMap<i64, i64> = (0..1024).map(|k| (k, k)).collect();
        let height = m.height();
        let (m2, _) = m.insert(5000, 5000);
        // Count nodes of m2 not shared with m: must be bounded by the
        // path length (+1 for a possible split spine), not the tree size.
        let olds: std::collections::HashSet<*const Node<i64, i64>> = {
            fn collect<K, V>(
                l: &Link<K, V>,
                out: &mut std::collections::HashSet<*const Node<K, V>>,
            ) {
                if let Some(n) = l {
                    out.insert(PoolArc::as_ptr(n));
                    collect(&n.left, out);
                    collect(&n.right, out);
                }
            }
            let mut s = std::collections::HashSet::new();
            collect(&m.root, &mut s);
            s
        };
        fn count_fresh<K, V>(
            l: &Link<K, V>,
            olds: &std::collections::HashSet<*const Node<K, V>>,
        ) -> usize {
            match l {
                None => 0,
                Some(n) => {
                    if olds.contains(&PoolArc::as_ptr(n)) {
                        0 // entire subtree is shared
                    } else {
                        1 + count_fresh(&n.left, olds) + count_fresh(&n.right, olds)
                    }
                }
            }
        }
        let fresh = count_fresh(&m2.root, &olds);
        assert!(fresh > 0);
        assert!(
            fresh <= 2 * height + 2,
            "insert allocated {fresh} nodes, expected O(path) = O({height})"
        );
    }

    #[test]
    fn height_is_logarithmic() {
        let n = 1 << 14;
        let m: TreapMap<u64, ()> = (0..n).map(|k| (k, ())).collect();
        let h = m.height();
        // E[height] ≈ 3 log2 n for treaps; 6 log2 n is a generous bound.
        let bound = 6 * (n as f64).log2() as usize;
        assert!(h <= bound, "height {h} exceeds {bound}");
    }

    #[test]
    fn set_facade_noop_semantics() {
        let s: TreapSet<i64> = TreapSet::empty();
        let s = s.insert(1).unwrap();
        assert!(s.insert(1).is_none(), "duplicate insert is a no-op");
        assert!(s.remove(&2).is_none(), "absent remove is a no-op");
        let s2 = s.remove(&1).unwrap();
        assert!(s.contains(&1), "old version untouched");
        assert!(!s2.contains(&1));
        assert_eq!(s2.len(), 0);
    }

    #[test]
    fn upsert_of_the_value_already_held_builds_no_version() {
        let m: TreapMap<i64, i64> = (0..100).map(|k| (k, k)).collect();
        assert!(
            matches!(m.upsert(7, 7), (None, Some(7))),
            "same value: no-op"
        );
        let (next, old) = m.upsert(7, 70);
        assert_eq!((next.unwrap().get(&7), old), (Some(&70), Some(7)));
        let (next, old) = m.upsert(500, 5);
        assert_eq!((next.unwrap().len(), old), (101, None));
        assert!(m.insert_if_absent(7, 70).is_none(), "present: no-op");
        assert_eq!(m.get(&7), Some(&7), "old version untouched");
    }

    #[test]
    fn diff_reports_adds_removes_changes_in_key_order() {
        let v1: TreapMap<i64, i64> = (0..100).map(|k| (k, k)).collect();
        let (v2, _) = v1.insert(200, 200); // added
        let (v2, _) = v2.remove(&10).unwrap(); // removed
        let (v2, _) = v2.insert(50, -50); // changed
        let diff = v1.diff(&v2);
        assert_eq!(
            diff,
            vec![
                DiffEntry::Removed(10, 10),
                DiffEntry::Changed(50, 50, -50),
                DiffEntry::Added(200, 200),
            ]
        );
        // Reversed direction swaps the roles.
        let back = v2.diff(&v1);
        assert_eq!(
            back,
            vec![
                DiffEntry::Added(10, 10),
                DiffEntry::Changed(50, -50, 50),
                DiffEntry::Removed(200, 200),
            ]
        );
    }

    #[test]
    fn diff_of_identical_versions_visits_nothing() {
        let v: TreapMap<i64, i64> = (0..1000).map(|k| (k, k)).collect();
        let (diff, visited) = v.diff_counted(&v.clone());
        assert!(diff.is_empty());
        assert_eq!(visited, 0, "shared root must short-circuit the walk");
    }

    #[test]
    fn diff_against_empty_is_the_full_contents() {
        let v: TreapMap<i64, i64> = (0..50).map(|k| (k, k * 3)).collect();
        let empty = TreapMap::new();
        let diff = empty.diff(&v);
        assert_eq!(diff.len(), 50);
        assert!(diff
            .iter()
            .enumerate()
            .all(|(i, e)| *e == DiffEntry::Added(i as i64, i as i64 * 3)));
        assert!(v.diff(&v).is_empty());
        assert!(empty.diff(&empty).is_empty());
    }

    #[test]
    fn owning_into_iter_matches_borrowing_iter() {
        let m: TreapMap<i64, i64> = (0..500).map(|k| (k * 3 % 500, k)).collect();
        let borrowed: Vec<(i64, i64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        let owned: Vec<(i64, i64)> = m.clone().into_iter().collect();
        assert_eq!(owned, borrowed);
        let set: TreapSet<i64> = (0..100).collect();
        assert!(set.clone().into_iter().eq(0..100));
    }

    #[test]
    fn insert_with_priority_can_build_spines() {
        // Monotone priorities force a right spine: check it stays a valid
        // treap (exercise explicit-priority path, incl. `split_rec`).
        let mut m: TreapMap<i64, ()> = TreapMap::new();
        for (i, k) in (0..64).enumerate() {
            m = m.insert_with_priority(k, (), 1000 + i as u64).0;
        }
        m.check_invariants();
        assert_eq!(m.len(), 64);
        // Re-insert an existing key with a much higher priority: it must
        // move to the root while preserving the key set.
        let (m2, old) = m.insert_with_priority(32, (), u64::MAX);
        assert_eq!(old, Some(()));
        assert_eq!(m2.len(), 64);
        m2.check_invariants();
        assert_eq!(m2.root().unwrap().key(), &32);
    }
}
