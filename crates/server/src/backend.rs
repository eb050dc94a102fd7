//! The engine the server serves, behind an object-safe seam.
//!
//! The server holds its backend as `Box<dyn ServeBackend>`.
//! [`ServeBackend`]/[`ServeSnapshot`] flatten exactly the surface the
//! wire protocol needs — point ops, batches, pinned snapshots, bounded
//! range scans, diffs, stats — out of the engine's generic trait family,
//! whose snapshots are associated types with lazy iterators that `dyn`
//! cannot carry.
//!
//! One implementation ships: [`ShardedServe`] over [`ShardedTreapMap`],
//! mapping [`Request::Batch`](crate::proto::Request::Batch) onto
//! [`ShardedTreapMap::transact`] — the cross-shard two-phase commit — so
//! every served batch, guarded or not, is one linearizable operation.
//! The traits stay a seam for two other holders: a shared
//! `Arc<dyn ServeBackend>` is itself servable (a replica serves the
//! store its pump applies to), and a test can wrap a backend to inject
//! delays. [`by_name`] resolves the one served name, `"sharded_map_8"`.

use std::any::Any;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pathcopy_concurrent::{BatchOp, BatchResult, ShardedSnapshot, ShardedTreapMap};
use pathcopy_core::api::MapSnapshot;
use pathcopy_core::{DiffEntry, StatsSnapshot};

use crate::proto::diff_fits_frame;

/// An immutable, coherent point-in-time view a server can pin in its
/// version feed and scan or diff on demand.
pub trait ServeSnapshot: Send + Sync + 'static {
    /// Looks up `key` at snapshot time.
    fn get(&self, key: i64) -> Option<i64>;

    /// Exact number of entries at snapshot time.
    fn len(&self) -> usize;

    /// `true` if the snapshot holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ordered scan of the keys between the bounds, stopping after
    /// `limit` entries (`0` = unlimited). The second component is `false`
    /// when the scan stopped early with entries remaining.
    fn range(&self, lo: Bound<i64>, hi: Bound<i64>, limit: usize) -> (Vec<(i64, i64)>, bool);

    /// Difference between this (older) snapshot and `newer`, pruning
    /// pointer-shared subtrees. `None` if `newer` comes from an
    /// incompatible backend.
    fn diff(&self, newer: &dyn ServeSnapshot) -> Option<Vec<DiffEntry<i64, i64>>>;

    /// Downcast support for [`diff`](Self::diff).
    fn as_any(&self) -> &dyn Any;
}

/// The surface a backend exposes to the TCP server: object safe, `i64`
/// keys and values (the wire protocol's domain).
pub trait ServeBackend: Send + Sync + 'static {
    /// Looks up `key`.
    fn get(&self, key: i64) -> Option<i64>;

    /// Inserts `key -> value`, returning the previous value if any.
    fn insert(&self, key: i64, value: i64) -> Option<i64>;

    /// Removes `key`, returning its value if present.
    fn remove(&self, key: i64) -> Option<i64>;

    /// Atomic compare-and-set: if the value at `key` equals `expected`,
    /// store `new` (`None` removes); returns whether it matched.
    fn cas(&self, key: i64, expected: Option<i64>, new: Option<i64>) -> bool;

    /// Applies a batch of operations as one linearizable operation,
    /// returning one result per op in batch order.
    fn transact(&self, ops: &[BatchOp<i64, i64>]) -> Vec<BatchResult<i64>>;

    /// Guarded (Sinfonia-style) form of [`transact`](Self::transact): if
    /// any [`BatchOp::Cas`] guard fails, the whole batch aborts with
    /// zero writes and `Err` carries the failed guard indices (into the
    /// batch, ascending). The abort is linearizable.
    fn transact_guarded(
        &self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Vec<BatchResult<i64>>, Vec<u32>>;

    /// Takes a coherent snapshot.
    fn snapshot(&self) -> Arc<dyn ServeSnapshot>;

    /// Number of entries (weakly consistent on sharded backends).
    fn len(&self) -> usize;

    /// `true` if the map has no entries (same caveat as [`len`](Self::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backend's accumulated operation statistics.
    fn stats(&self) -> StatsSnapshot;
}

/// A [`ShardedSnapshot`] as a [`ServeSnapshot`], remembering its diff
/// from the first predecessor it is diffed against.
///
/// A primary diffs each published epoch against the one before it
/// several times — the durable log's record, the subscribers' `Push`,
/// a `PullDiff` from `head - 1` — and the memo makes those one walk.
struct SnapWrap {
    snap: ShardedSnapshot<i64, i64>,
    /// Process-unique, never reused. The memo is keyed by it and not by
    /// address: the node pool hands freed blocks out again, so a
    /// dropped predecessor's successor can live at its old address.
    id: u64,
    /// `(predecessor id, diff from it)`, set by the first diff into
    /// this snapshot that fits one frame.
    memo: OnceLock<(u64, Vec<DiffEntry<i64, i64>>)>,
}

static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

impl SnapWrap {
    fn new(snap: ShardedSnapshot<i64, i64>) -> Self {
        SnapWrap {
            snap,
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
            memo: OnceLock::new(),
        }
    }
}

impl ServeSnapshot for SnapWrap {
    fn get(&self, key: i64) -> Option<i64> {
        self.snap.get(&key).copied()
    }

    fn len(&self) -> usize {
        self.snap.len()
    }

    fn range(&self, lo: Bound<i64>, hi: Bound<i64>, limit: usize) -> (Vec<(i64, i64)>, bool) {
        let mut iter = self.snap.range_by(lo.as_ref(), hi.as_ref());
        if limit == 0 {
            return (iter.map(|(k, v)| (*k, *v)).collect(), true);
        }
        let mut out = Vec::with_capacity(limit.min(1024));
        for (k, v) in iter.by_ref() {
            if out.len() == limit {
                return (out, false);
            }
            out.push((*k, *v));
        }
        (out, true)
    }

    fn diff(&self, newer: &dyn ServeSnapshot) -> Option<Vec<DiffEntry<i64, i64>>> {
        let newer = newer.as_any().downcast_ref::<SnapWrap>()?;
        if let Some((from, entries)) = newer.memo.get() {
            if *from == self.id {
                return Some(entries.clone());
            }
        }
        let entries = self.snap.diff(&newer.snap);
        // A diff too fat for one frame is neither pushed nor logged, so
        // it is not worth holding.
        if diff_fits_frame(entries.len()) {
            let _ = newer.memo.set((self.id, entries.clone()));
        }
        Some(entries)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Serves a [`ShardedTreapMap`] natively: batches go through
/// [`ShardedTreapMap::transact`] (single-shard batches stay on the
/// lock-free CAS path, cross-shard batches use the freeze/install
/// two-phase commit), so a batch is one linearizable operation even when
/// it spans shards.
pub struct ShardedServe {
    map: ShardedTreapMap<i64, i64>,
}

impl ShardedServe {
    /// A fresh sharded map with `shards` partitions.
    pub fn with_shards(shards: usize) -> Self {
        ShardedServe {
            map: ShardedTreapMap::with_shards(shards),
        }
    }

    /// Wraps an existing sharded map for serving.
    pub fn new(map: ShardedTreapMap<i64, i64>) -> Self {
        ShardedServe { map }
    }
}

impl ServeBackend for ShardedServe {
    fn get(&self, key: i64) -> Option<i64> {
        self.map.get(&key)
    }

    fn insert(&self, key: i64, value: i64) -> Option<i64> {
        self.map.insert(key, value)
    }

    fn remove(&self, key: i64) -> Option<i64> {
        self.map.remove(&key)
    }

    fn cas(&self, key: i64, expected: Option<i64>, new: Option<i64>) -> bool {
        match self.map.transact(&[BatchOp::Cas { key, expected, new }])[0] {
            BatchResult::Cas(ok) => ok,
            ref other => unreachable!("Cas op answered with {other:?}"),
        }
    }

    fn transact(&self, ops: &[BatchOp<i64, i64>]) -> Vec<BatchResult<i64>> {
        self.map.transact(ops)
    }

    fn transact_guarded(
        &self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Vec<BatchResult<i64>>, Vec<u32>> {
        self.map
            .transact_guarded(ops)
            .map_err(|abort| abort.failed.into_iter().map(|i| i as u32).collect())
    }

    fn snapshot(&self) -> Arc<dyn ServeSnapshot> {
        Arc::new(SnapWrap::new(self.map.snapshot_all()))
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn stats(&self) -> StatsSnapshot {
        self.map.stats_snapshot()
    }
}

/// A shared handle is itself servable: the server and another owner (a
/// replica applying pushed diffs, an in-process inspector) can hold the
/// **same** backend. This is what lets a replica serve read traffic from
/// the store its pump is keeping up to date.
impl ServeBackend for Arc<dyn ServeBackend> {
    fn get(&self, key: i64) -> Option<i64> {
        (**self).get(key)
    }

    fn insert(&self, key: i64, value: i64) -> Option<i64> {
        (**self).insert(key, value)
    }

    fn remove(&self, key: i64) -> Option<i64> {
        (**self).remove(key)
    }

    fn cas(&self, key: i64, expected: Option<i64>, new: Option<i64>) -> bool {
        (**self).cas(key, expected, new)
    }

    fn transact(&self, ops: &[BatchOp<i64, i64>]) -> Vec<BatchResult<i64>> {
        (**self).transact(ops)
    }

    fn transact_guarded(
        &self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Vec<BatchResult<i64>>, Vec<u32>> {
        (**self).transact_guarded(ops)
    }

    fn snapshot(&self) -> Arc<dyn ServeSnapshot> {
        (**self).snapshot()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn stats(&self) -> StatsSnapshot {
        (**self).stats()
    }
}

/// Builds the backend served under `name`: `"sharded_map_8"` is a fresh
/// [`ShardedServe`] with 8 shards; any other name is `None`.
pub fn by_name(name: &str) -> Option<Box<dyn ServeBackend>> {
    (name == "sharded_map_8").then(|| Box::new(ShardedServe::with_shards(8)) as _)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_point_ops_and_snapshots() {
        assert!(by_name("treap_map").is_none(), "one served name");
        let b = by_name("sharded_map_8").expect("the served engine");
        assert_eq!(b.insert(1, 10), None);
        assert_eq!(b.insert(2, 20), None);
        assert_eq!(b.get(1), Some(10));
        assert!(b.cas(1, Some(10), Some(11)));
        assert!(!b.cas(1, Some(10), Some(12)), "stale cas");
        assert_eq!(b.get(1), Some(11));
        assert!(b.cas(3, None, Some(30)), "absent-guard cas");
        assert!(b.cas(3, Some(30), None), "cas-remove");
        assert_eq!(b.get(3), None);

        let snap = b.snapshot();
        assert_eq!(snap.len(), 2);
        b.remove(1);
        assert_eq!(snap.get(1), Some(11), "snapshot immutable");
        let (entries, complete) = snap.range(Bound::Unbounded, Bound::Unbounded, 0);
        assert_eq!(entries, vec![(1, 11), (2, 20)]);
        assert!(complete);
        let (first, complete) = snap.range(Bound::Unbounded, Bound::Unbounded, 1);
        assert_eq!(first, vec![(1, 11)]);
        assert!(!complete, "limit must report truncation");

        let newer = b.snapshot();
        let diff = snap.diff(newer.as_ref()).expect("same backend diffs");
        assert_eq!(diff, vec![DiffEntry::Removed(1, 11)], "diff is the removal");
    }

    #[test]
    fn a_snapshot_remembers_only_its_first_predecessors_diff() {
        let b = ShardedServe::with_shards(4);
        b.insert(1, 10);
        let s1 = b.snapshot();
        b.insert(2, 20);
        let s2 = b.snapshot();
        b.insert(1, 11);
        let s3 = b.snapshot();
        let from_s2 = vec![DiffEntry::Changed(1, 10, 11)];
        assert_eq!(
            s2.diff(s3.as_ref()),
            Some(from_s2.clone()),
            "fills s3's memo"
        );
        assert_eq!(
            s1.diff(s3.as_ref()),
            Some(vec![DiffEntry::Changed(1, 10, 11), DiffEntry::Added(2, 20)]),
            "another predecessor must not read s2's memo"
        );
        assert_eq!(s2.diff(s3.as_ref()), Some(from_s2), "the memo survives");
        assert_eq!(s3.diff(s1.as_ref()).map(|d| d.len()), Some(2));
    }

    #[test]
    fn a_predecessor_recreated_at_a_recycled_address_misses_the_memo() {
        let b = ShardedServe::with_shards(4);
        b.insert(1, 10);
        let old = b.snapshot();
        b.insert(2, 20);
        let newer = b.snapshot();
        assert_eq!(old.diff(newer.as_ref()).map(|d| d.len()), Some(1));
        let addr = Arc::as_ptr(&old) as *const u8;
        drop(old);
        // A different state, allocated until it lands where `old` was.
        b.insert(3, 30);
        let mut held = Vec::new();
        let recycled = loop {
            let s = b.snapshot();
            if Arc::as_ptr(&s) as *const u8 == addr {
                break s;
            }
            assert!(held.len() < 4096, "the allocator never reused the address");
            held.push(s);
        };
        assert_eq!(
            recycled.diff(newer.as_ref()),
            Some(vec![DiffEntry::Removed(3, 30)]),
            "keyed by address, the memo would answer with the old diff"
        );
    }

    #[test]
    fn batch_results_match_transact_semantics() {
        let b = ShardedServe::with_shards(8);
        let r = b.transact(&[
            BatchOp::Insert(1, 10),
            BatchOp::Get(1),
            BatchOp::Cas {
                key: 1,
                expected: Some(10),
                new: Some(11),
            },
            BatchOp::Remove(2),
        ]);
        assert_eq!(
            r,
            vec![
                BatchResult::Inserted(None),
                BatchResult::Got(Some(10)),
                BatchResult::Cas(true),
                BatchResult::Removed(None),
            ]
        );
        assert_eq!(b.get(1), Some(11));
    }

    #[test]
    fn guarded_batches_abort_with_zero_writes() {
        let b = ShardedServe::with_shards(8);
        b.insert(1, 10);
        let failed = b
            .transact_guarded(&[
                BatchOp::Insert(2, 20),
                BatchOp::Cas {
                    key: 1,
                    expected: Some(99), // stale guard
                    new: Some(100),
                },
            ])
            .unwrap_err();
        assert_eq!(failed, vec![1]);
        assert_eq!(b.get(1), Some(10));
        assert_eq!(b.get(2), None, "aborted batch leaked a write");

        // Passing guards commit, and a guard sees earlier batch writes.
        let r = b
            .transact_guarded(&[
                BatchOp::Insert(2, 20),
                BatchOp::Cas {
                    key: 2,
                    expected: Some(20),
                    new: Some(21),
                },
            ])
            .unwrap_or_else(|e| panic!("guards must pass: {e:?}"));
        assert_eq!(r[1], BatchResult::Cas(true));
        assert_eq!(b.get(2), Some(21));
    }

    #[test]
    fn shared_backend_handle_serves_and_aliases() {
        let inner: Arc<dyn ServeBackend> = Arc::new(ShardedServe::with_shards(4));
        let alias = Arc::clone(&inner);
        inner.insert(1, 10);
        assert_eq!(alias.get(1), Some(10), "both handles see the same map");
        let snap = ServeBackend::snapshot(&alias);
        assert_eq!(snap.len(), 1);
    }

    #[test]
    fn mismatched_snapshots_refuse_to_diff() {
        /// A snapshot from some other implementation of the trait.
        struct Foreign;
        impl ServeSnapshot for Foreign {
            fn get(&self, _key: i64) -> Option<i64> {
                None
            }
            fn len(&self) -> usize {
                0
            }
            fn range(&self, _: Bound<i64>, _: Bound<i64>, _: usize) -> (Vec<(i64, i64)>, bool) {
                (Vec::new(), true)
            }
            fn diff(&self, _newer: &dyn ServeSnapshot) -> Option<Vec<DiffEntry<i64, i64>>> {
                None
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let sharded = ShardedServe::with_shards(4).snapshot();
        assert!(sharded.diff(&Foreign).is_none());
    }
}
