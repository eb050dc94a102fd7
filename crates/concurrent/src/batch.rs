//! Atomic multi-key batch transactions.
//!
//! The paper's point is that path copying makes composite operations
//! cheap: a batch of updates is just another sequential function from one
//! persistent version to the next, installed with a single root CAS —
//! which is all [`TreapMap::transact`](crate::TreapMap::transact) does.
//!
//! Within a batch, operations apply in order: a [`BatchOp::Get`] after a
//! [`BatchOp::Insert`] of the same key sees the inserted value. Across
//! threads the whole batch is one linearizable operation. The ops are
//! applied as one key-sorted run
//! ([`apply_sorted`](pathcopy_trees::TreapMap::apply_sorted)), so the
//! batch copies the union of its ops' paths once rather than one whole
//! path per op.
//!
//! ```
//! use pathcopy_concurrent::{BatchOp, BatchResult, TreapMap};
//!
//! let m: TreapMap<&'static str, i64> = TreapMap::new();
//! m.insert("alice", 100);
//! m.insert("bob", 0);
//!
//! // Move 30 from alice to bob atomically: one root CAS.
//! let results = m.transact(&[
//!     BatchOp::Insert("alice", 70),
//!     BatchOp::Insert("bob", 30),
//!     BatchOp::Get("alice"),
//! ]);
//! assert_eq!(results[0], BatchResult::Inserted(Some(100)));
//! assert_eq!(results[1], BatchResult::Inserted(Some(0)));
//! assert_eq!(results[2], BatchResult::Got(Some(70))); // sees the batch's own write
//! ```

use std::hash::Hash;

use pathcopy_core::DiffEntry;
use pathcopy_trees::treap::RunOp;
use pathcopy_trees::TreapMap as PTreapMap;

/// One operation inside a
/// [`TreapMap::transact`](crate::TreapMap::transact) batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp<K, V> {
    /// Read the value at a key (at the batch's linearization point,
    /// seeing earlier writes of the same batch).
    Get(K),
    /// Insert or overwrite a key.
    Insert(K, V),
    /// Remove a key.
    Remove(K),
    /// Compare-and-set one key: if the current value equals `expected`,
    /// store `new` (`None` removes the key); otherwise leave it alone.
    Cas {
        /// The key to compare and set.
        key: K,
        /// Value the key must currently hold (`None` = absent).
        expected: Option<V>,
        /// Value to store on match (`None` removes the key).
        new: Option<V>,
    },
}

impl<K, V> BatchOp<K, V> {
    fn key(&self) -> &K {
        match self {
            BatchOp::Get(k) | BatchOp::Remove(k) | BatchOp::Insert(k, _) => k,
            BatchOp::Cas { key, .. } => key,
        }
    }
}

impl<K, V: Clone + PartialEq> RunOp<K, V> for BatchOp<K, V> {
    type Out = BatchResult<V>;

    fn key(&self) -> &K {
        BatchOp::key(self)
    }

    fn apply(&self, cur: &mut Option<V>) -> BatchResult<V> {
        match self {
            BatchOp::Get(_) => BatchResult::Got(cur.clone()),
            BatchOp::Insert(_, v) => BatchResult::Inserted(cur.replace(v.clone())),
            BatchOp::Remove(_) => BatchResult::Removed(cur.take()),
            BatchOp::Cas { expected, new, .. } => {
                let hit = cur == expected;
                if hit {
                    cur.clone_from(new);
                }
                BatchResult::Cas(hit)
            }
        }
    }
}

/// Per-operation outcome of a [`TreapMap::transact`](crate::TreapMap::transact)
/// batch, in batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchResult<V> {
    /// Result of a [`BatchOp::Get`]: the value, if present.
    Got(Option<V>),
    /// Result of a [`BatchOp::Insert`]: the previous value, if any.
    Inserted(Option<V>),
    /// Result of a [`BatchOp::Remove`]: the removed value, if any.
    Removed(Option<V>),
    /// Result of a [`BatchOp::Cas`]: whether the comparison matched and
    /// the write was applied.
    Cas(bool),
}

/// Converts a snapshot-to-snapshot diff into the batch that replays it:
/// `Added`/`Changed` become [`BatchOp::Insert`] of the new value,
/// `Removed` becomes [`BatchOp::Remove`].
///
/// Applying the result through
/// [`TreapMap::transact`](crate::TreapMap::transact) moves a map holding
/// the older version to the newer one **atomically** — the
/// replication layer's catch-up step: a replica at version `a` receives
/// `a.diff(&b)` and flips to `b` in one linearizable operation, so its
/// readers only ever observe published versions.
///
/// ```
/// use pathcopy_concurrent::{diff_to_ops, TreapMap};
/// use pathcopy_core::MapSnapshot as _;
///
/// let primary: TreapMap<i64, i64> = TreapMap::new();
/// primary.insert(1, 10);
/// let old = primary.snapshot();
/// primary.insert(2, 20);
/// primary.remove(&1);
/// let new = primary.snapshot();
///
/// let replica: TreapMap<i64, i64> = TreapMap::new();
/// replica.insert(1, 10); // replica holds the old version
/// replica.transact(&diff_to_ops(&old.diff(&new)));
/// assert_eq!(replica.snapshot().iter().collect::<Vec<_>>(), [(&2, &20)]);
/// ```
pub fn diff_to_ops<K: Clone, V: Clone>(diff: &[DiffEntry<K, V>]) -> Vec<BatchOp<K, V>> {
    diff.iter()
        .map(|e| match e {
            DiffEntry::Added(k, v) => BatchOp::Insert(k.clone(), v.clone()),
            DiffEntry::Changed(k, _, v) => BatchOp::Insert(k.clone(), v.clone()),
            DiffEntry::Removed(k, _) => BatchOp::Remove(k.clone()),
        })
        .collect()
}

/// Which [`BatchOp::Cas`] guards of a guarded batch failed — the payload
/// of a [`TreapMap::transact_guarded`](crate::TreapMap::transact_guarded)
/// abort, as op indices into the submitted batch, in batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardAbort {
    /// Indices (into the batch) of the `Cas` ops whose guards failed.
    pub failed: Vec<usize>,
}

/// The batch indices of the failed `Cas` guards in a batch's results.
pub(crate) fn failed_guards<V>(results: &[BatchResult<V>]) -> Vec<usize> {
    results
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, BatchResult::Cas(false)))
        .map(|(i, _)| i)
        .collect()
}

/// Applies `batch` to `map`, returning the new version — `None` if no op
/// changed anything, so the update needs no CAS — and the per-op
/// results, in batch order.
///
/// One descent: the ops are sorted by key (stably, so ops on one key
/// keep batch order) and applied as one
/// [`apply_sorted`](PTreapMap::apply_sorted) run, which copies the union
/// of their paths once.
pub(crate) fn apply_batch<K, V>(
    map: &PTreapMap<K, V>,
    batch: &[BatchOp<K, V>],
) -> (Option<PTreapMap<K, V>>, Vec<BatchResult<V>>)
where
    K: Ord + Clone + Hash,
    V: Clone + PartialEq,
{
    let mut order: Vec<usize> = (0..batch.len()).collect();
    order.sort_by(|&a, &b| batch[a].key().cmp(batch[b].key()));
    let run: Vec<&BatchOp<K, V>> = order.iter().map(|&i| &batch[i]).collect();
    let (next, outs) = map.apply_sorted(&run);
    let mut results: Vec<Option<BatchResult<V>>> = vec![None; batch.len()];
    for (i, result) in order.into_iter().zip(outs) {
        results[i] = Some(result);
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every op resolved"))
        .collect();
    (next, results)
}

/// The op-by-op form [`apply_batch`] replaced, kept as its oracle:
/// each op copies its path from the version the previous op built.
#[cfg(test)]
fn apply_ops_one_by_one<K, V>(
    map: &PTreapMap<K, V>,
    batch: &[BatchOp<K, V>],
) -> (Option<PTreapMap<K, V>>, Vec<BatchResult<V>>)
where
    K: Ord + Clone + Hash,
    V: Clone + PartialEq,
{
    let mut next: Option<PTreapMap<K, V>> = None;
    let mut results = Vec::with_capacity(batch.len());
    for op in batch {
        let cur = next.as_ref().unwrap_or(map);
        let (version, result) = match op {
            BatchOp::Get(k) => (None, BatchResult::Got(cur.get(k).cloned())),
            BatchOp::Insert(k, v) => {
                let (version, prev) = cur.upsert(k.clone(), v.clone());
                (version, BatchResult::Inserted(prev))
            }
            BatchOp::Remove(k) => match cur.remove(k) {
                Some((version, v)) => (Some(version), BatchResult::Removed(Some(v))),
                None => (None, BatchResult::Removed(None)),
            },
            BatchOp::Cas { key, expected, new } => {
                if cur.get(key) == expected.as_ref() {
                    let version = match new {
                        Some(v) => cur.upsert(key.clone(), v.clone()).0,
                        None => cur.remove(key).map(|(version, _)| version),
                    };
                    (version, BatchResult::Cas(true))
                } else {
                    (None, BatchResult::Cas(false))
                }
            }
        };
        if version.is_some() {
            next = version;
        }
        results.push(result);
    }
    (next, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreapMap;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// One drawn op: (kind, key selector, value, second value).
    type RawOp = (u8, u16, u16, u16);

    /// Turns drawn ops into a batch over a map holding the even keys
    /// `0, 2, .., 2 * size - 2` (each `k -> k % 4`). A quarter of the ops
    /// hit one of three hot keys, so one key often carries a chain of
    /// ops; values come from `0..4`, so many writes store the value a
    /// key already holds.
    fn to_batch(raw: &[RawOp], size: usize) -> Vec<BatchOp<u32, u16>> {
        let domain = 2 * size as u32 + 16;
        raw.iter()
            .map(|&(kind, sel, v, w)| {
                let key = if sel % 4 == 0 {
                    u32::from(sel >> 2) % 3 * 2
                } else {
                    u32::from(sel) % domain
                };
                match kind {
                    0 => BatchOp::Get(key),
                    1 => BatchOp::Insert(key, v),
                    2 => BatchOp::Remove(key),
                    _ => BatchOp::Cas {
                        key,
                        expected: (w % 4 != 0).then_some(w % 4),
                        new: (sel % 3 != 0).then_some(v),
                    },
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One descent agrees with applying the ops one at a time: the
        /// same results in batch order, the same final map, valid treap
        /// invariants, and a new version exactly when the contents
        /// changed. Guarded, the batch aborts exactly when a guard of
        /// the oracle's run fails, and then writes nothing.
        #[test]
        fn apply_batch_matches_the_op_by_op_oracle(
            size in 0usize..4096,
            raw in prop::collection::vec((0u8..4, any::<u16>(), 0u16..4, 0u16..5), 0..160),
        ) {
            let map: PTreapMap<u32, u16> =
                (0..size as u32).map(|k| (2 * k, (2 * k % 4) as u16)).collect();
            let batch = to_batch(&raw, size);
            let (want_next, want) = apply_ops_one_by_one(&map, &batch);
            let (got_next, got) = apply_batch(&map, &batch);
            prop_assert_eq!(&got, &want);
            let want_map = want_next.unwrap_or_else(|| map.clone());
            prop_assert_eq!(got_next.is_some(), want_map != map, "a version iff the contents changed");
            let got_map = got_next.unwrap_or_else(|| map.clone());
            prop_assert_eq!(&got_map, &want_map);
            prop_assert_eq!(got_map.check_invariants(), want_map.len());

            let shared = TreapMap::from_version(map.clone());
            let failed = failed_guards(&want);
            match shared.transact_guarded(&batch) {
                Ok(results) => {
                    prop_assert!(failed.is_empty());
                    prop_assert_eq!(results, want);
                    prop_assert_eq!(&*shared.snapshot(), &want_map);
                }
                Err(abort) => {
                    prop_assert_eq!(abort.failed, failed);
                    prop_assert_eq!(&*shared.snapshot(), &map, "an abort writes nothing");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        assert!(m.transact(&[]).is_empty());
        assert_eq!(m.stats().snapshot().ops, 0);
    }

    #[test]
    fn batch_ops_apply_in_order() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        let r = m.transact(&[
            BatchOp::Insert(1, 10),
            BatchOp::Get(1),
            BatchOp::Insert(1, 11),
            BatchOp::Get(1),
            BatchOp::Remove(2),
            BatchOp::Insert(2, 20),
            BatchOp::Remove(2),
        ]);
        assert_eq!(
            r,
            vec![
                BatchResult::Inserted(None),
                BatchResult::Got(Some(10)),
                BatchResult::Inserted(Some(10)),
                BatchResult::Got(Some(11)),
                BatchResult::Removed(None),
                BatchResult::Inserted(None),
                BatchResult::Removed(Some(20)),
            ]
        );
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.get(&2), None);
    }

    #[test]
    fn cas_applies_only_on_match_and_sees_batch_writes() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        m.insert(7, 70);
        let r = m.transact(&[
            BatchOp::Cas {
                key: 7,
                expected: Some(69),
                new: Some(0),
            },
            BatchOp::Cas {
                key: 7,
                expected: Some(70),
                new: Some(71),
            },
            BatchOp::Cas {
                key: 7,
                expected: Some(71),
                new: None,
            },
            BatchOp::Cas {
                key: 8,
                expected: None,
                new: Some(80),
            },
        ]);
        assert_eq!(
            r,
            vec![
                BatchResult::Cas(false),
                BatchResult::Cas(true),
                BatchResult::Cas(true),
                BatchResult::Cas(true),
            ]
        );
        assert_eq!(m.get(&7), None);
        assert_eq!(m.get(&8), Some(80));
    }

    /// A Get-only batch of any size is one no-op update.
    #[test]
    fn read_only_batch_installs_nothing() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        for k in 0..64 {
            m.insert(k, k);
        }
        let root = m.snapshot();
        let before = m.stats().snapshot();
        let r = m.transact(&(0..64).map(BatchOp::Get).collect::<Vec<_>>());
        for (k, res) in r.into_iter().enumerate() {
            assert_eq!(res, BatchResult::Got(Some(k as u64)));
        }
        let after = m.stats().snapshot();
        assert_eq!(after.ops - before.ops, 1, "the batch is one update");
        assert_eq!(
            after.noop_updates - before.noop_updates,
            1,
            "a pure-read batch skips the CAS"
        );
        assert!(
            Arc::ptr_eq(root.as_inner(), m.snapshot().as_inner()),
            "a pure-read batch installs no root"
        );
    }

    #[test]
    fn batch_takes_the_lock_free_cas_path() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        let r = m.transact(&[
            BatchOp::Insert(1, 1),
            BatchOp::Insert(2, 2),
            BatchOp::Get(1),
        ]);
        assert_eq!(r[2], BatchResult::Got(Some(1)));
        let stats = m.stats().snapshot();
        assert_eq!(stats.ops, 1, "the batch is one CAS-loop op");
        assert_eq!(stats.attempts, 1, "one root CAS, uncontended");
    }

    #[test]
    fn guarded_abort_writes_nothing() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        m.insert(1, 10);
        let err = m
            .transact_guarded(&[
                BatchOp::Insert(2, 20),
                BatchOp::Cas {
                    key: 1,
                    expected: Some(11), // stale guard
                    new: Some(12),
                },
                BatchOp::Insert(3, 30),
            ])
            .unwrap_err();
        assert_eq!(err.failed, vec![1]);
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.get(&2), None, "write before the failed guard aborted");
        assert_eq!(m.get(&3), None, "write after the failed guard aborted");
        // The abort itself is a no-CAS op.
        assert_eq!(m.stats().snapshot().noop_updates, 1);
    }

    #[test]
    fn guarded_abort_reports_all_failures_and_installs_no_root() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        m.insert(1, 10);
        m.insert(2, 20);
        let root = m.snapshot();
        let mut batch: Vec<BatchOp<u64, u64>> = (100..164).map(|k| BatchOp::Insert(k, k)).collect();
        batch.push(BatchOp::Cas {
            key: 1,
            expected: Some(11),
            new: Some(12),
        });
        batch.push(BatchOp::Cas {
            key: 2,
            expected: Some(20), // this one would match...
            new: Some(21),
        });
        batch.push(BatchOp::Cas {
            key: 2,
            expected: Some(22), // ...but this one is stale
            new: Some(23),
        });
        let err = m.transact_guarded(&batch).unwrap_err();
        assert_eq!(err.failed, vec![64, 66], "failed guard indices, in order");
        for k in 100..164 {
            assert_eq!(m.get(&k), None, "aborted batch leaked key {k}");
        }
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.get(&2), Some(20), "matching guard's write aborted too");
        assert!(
            Arc::ptr_eq(root.as_inner(), m.snapshot().as_inner()),
            "abort must not install a root"
        );
    }

    #[test]
    fn guarded_batch_with_passing_guards_commits_like_transact() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        m.insert(1, 10);
        let r = m
            .transact_guarded(&[
                BatchOp::Cas {
                    key: 1,
                    expected: Some(10),
                    new: Some(11),
                },
                BatchOp::Insert(2, 20),
                BatchOp::Cas {
                    key: 2,
                    expected: Some(20), // sees the batch's own write
                    new: Some(21),
                },
            ])
            .expect("all guards match");
        assert_eq!(
            r,
            vec![
                BatchResult::Cas(true),
                BatchResult::Inserted(None),
                BatchResult::Cas(true),
            ]
        );
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.get(&2), Some(21));
    }

    #[test]
    fn concurrent_guarded_toggles_are_atomic() {
        // A guarded counter: each increment guards on the value it last
        // observed; rivals make guards fail, and a failed guard must
        // abort the rider keys too, so the riders always mirror the
        // number of *successful* increments.
        let m: TreapMap<u64, i64> = TreapMap::new();
        m.insert(0, 0);
        const THREADS: usize = 4;
        const TRIES: usize = 200;
        let committed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                let committed = &committed;
                s.spawn(move || {
                    for i in 0..TRIES {
                        let seen = m.get(&0).unwrap();
                        let rider = 1000 + ((t * TRIES + i) as u64);
                        match m.transact_guarded(&[
                            BatchOp::Cas {
                                key: 0,
                                expected: Some(seen),
                                new: Some(seen + 1),
                            },
                            BatchOp::Insert(rider, seen + 1),
                        ]) {
                            Ok(_) => {
                                committed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(abort) => {
                                assert_eq!(abort.failed, vec![0]);
                                assert_eq!(m.get(&rider), None, "aborted rider leaked");
                            }
                        }
                    }
                });
            }
        });
        let commits = committed.load(std::sync::atomic::Ordering::Relaxed) as i64;
        assert_eq!(m.get(&0), Some(commits), "counter equals commits");
        let riders = m.snapshot().len() - 1;
        assert_eq!(riders as i64, commits, "one rider per committed batch");
    }

    #[test]
    fn diff_to_ops_replays_a_diff() {
        use pathcopy_core::api::MapSnapshot as _;
        let primary: TreapMap<u64, u64> = TreapMap::new();
        for k in 0..50 {
            primary.insert(k, k);
        }
        let old = primary.snapshot();
        primary.insert(3, 33);
        primary.remove(&7);
        primary.insert(100, 100);
        let new = primary.snapshot();

        let replica: TreapMap<u64, u64> = TreapMap::new();
        for k in 0..50 {
            replica.insert(k, k);
        }
        replica.transact(&diff_to_ops(&old.diff(&new)));
        assert_eq!(
            *replica.snapshot(),
            *new,
            "replaying the diff reconstructs the newer version"
        );
    }

    #[test]
    fn concurrent_disjoint_batches_all_commit() {
        let m: TreapMap<u64, u64> = TreapMap::new();
        const THREADS: u64 = 8;
        const BATCHES: u64 = 50;
        const SPAN: u64 = 16;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for b in 0..BATCHES {
                        let base = (t * BATCHES + b) * SPAN;
                        let batch: Vec<_> =
                            (base..base + SPAN).map(|k| BatchOp::Insert(k, k)).collect();
                        for r in m.transact(&batch) {
                            assert_eq!(r, BatchResult::Inserted(None));
                        }
                    }
                });
            }
        });
        assert_eq!(m.snapshot().len(), (THREADS * BATCHES * SPAN) as usize);
    }

    #[test]
    fn batches_interleaved_with_per_key_ops_lose_nothing() {
        // A writer hammers per-key inserts on even keys while a
        // transactor commits batches on odd keys; both must fully land.
        let m: TreapMap<u64, u64> = TreapMap::new();
        const N: u64 = 4_000;
        std::thread::scope(|s| {
            let m_ref = &m;
            s.spawn(move || {
                for k in (0..N).step_by(2) {
                    assert_eq!(m_ref.insert(k, k), None);
                }
            });
            s.spawn(move || {
                for chunk in (1..N).step_by(2).collect::<Vec<_>>().chunks(8) {
                    let batch: Vec<_> = chunk.iter().map(|&k| BatchOp::Insert(k, k)).collect();
                    m_ref.transact(&batch);
                }
            });
        });
        let snap = m.snapshot();
        assert_eq!(snap.len(), N as usize);
        assert!(snap.iter().map(|(k, _)| *k).eq(0..N));
    }
}
