//! Atomic multi-key batch transactions.
//!
//! The paper's point is that path copying makes composite operations
//! cheap: a batch of updates is just another sequential function from one
//! persistent version to the next, installed with a single root CAS —
//! which is all [`TreapMap::transact`](crate::TreapMap::transact) does.
//! On the sharded map ([`ShardedTreapMap`]) a batch may span *several*
//! roots, so [`ShardedTreapMap::transact`] runs a two-phase commit:
//!
//! 1. **Group** the batch by shard (keys hash to shards exactly as the
//!    per-key operations do).
//! 2. **Single-shard fast path** — if every key lands in one shard, the
//!    batch is that shard's own `TreapMap::transact`: one lock-free CAS
//!    loop, no locks, no freezing.
//! 3. **Multi-shard commit** — acquire the involved shards' commit locks
//!    in ascending shard-index order (deadlock-free; these locks only
//!    exclude *rival multi-shard commits* — per-key operations never
//!    take them), speculatively build every involved shard's new
//!    persistent root by path copying, then **freeze** each shard root
//!    in ascending order — backing the window out and re-copying if a
//!    concurrent per-key update moved a root — and finally install all
//!    new roots. Freezing (see
//!    [`pathcopy_core::VersionCell::try_freeze`]) makes concurrent reads
//!    of the involved shards spin for the handful of CASes the install
//!    window lasts, which is precisely what makes the whole batch flip
//!    atomically: no reader, per-key writer, or
//!    [`ShardedTreapMap::snapshot_all`] can observe some shards
//!    post-batch and others pre-batch.
//!
//! Within a batch, operations apply in order: a [`BatchOp::Get`] after a
//! [`BatchOp::Insert`] of the same key sees the inserted value. Across
//! threads the whole batch is one linearizable operation.
//!
//! ```
//! use pathcopy_concurrent::{BatchOp, BatchResult, ShardedTreapMap};
//!
//! let m: ShardedTreapMap<&'static str, i64> = ShardedTreapMap::with_shards(8);
//! m.insert("alice", 100);
//! m.insert("bob", 0);
//!
//! // Move 30 from alice to bob atomically, whatever shards they hash to.
//! let results = m.transact(&[
//!     BatchOp::Insert("alice", 70),
//!     BatchOp::Insert("bob", 30),
//!     BatchOp::Get("alice"),
//! ]);
//! assert_eq!(results[0], BatchResult::Inserted(Some(100)));
//! assert_eq!(results[1], BatchResult::Inserted(Some(0)));
//! assert_eq!(results[2], BatchResult::Got(Some(70))); // sees the batch's own write
//! ```

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

use pathcopy_core::{BackoffPolicy, DiffEntry};
use pathcopy_trees::TreapMap as PTreapMap;

use crate::sharded::{shard_index, ShardedTreapMap};

/// One operation inside a [`ShardedTreapMap::transact`] batch.
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

/// Per-operation outcome of a [`ShardedTreapMap::transact`] batch, in
/// batch order.
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
/// Applying the result through [`ShardedTreapMap::transact`] moves a map
/// holding the older version to the newer one **atomically** — the
/// replication layer's catch-up step: a replica at version `a` receives
/// `a.diff(&b)` and flips to `b` in one linearizable operation, so its
/// readers only ever observe published versions.
///
/// ```
/// use pathcopy_concurrent::{diff_to_ops, ShardedTreapMap};
/// use pathcopy_core::{MapSnapshot as _, Snapshottable as _};
///
/// let primary: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(4);
/// primary.insert(1, 10);
/// let old = primary.snapshot();
/// primary.insert(2, 20);
/// primary.remove(&1);
/// let new = primary.snapshot();
///
/// let replica: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(4);
/// replica.insert(1, 10); // replica holds the old version
/// replica.transact(&diff_to_ops(&old.diff(&new)));
/// assert_eq!(replica.snapshot().to_sorted_vec(), vec![(2, 20)]);
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
/// of a [`ShardedTreapMap::transact_guarded`] abort, as op indices into
/// the submitted batch, in batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardAbort {
    /// Indices (into the batch) of the `Cas` ops whose guards failed.
    pub failed: Vec<usize>,
}

/// Collects the batch indices of failed `Cas` guards in one shard's
/// speculative results.
pub(crate) fn failed_guards<V>(idxs: &[usize], results: &[BatchResult<V>]) -> Vec<usize> {
    idxs.iter()
        .zip(results)
        .filter(|(_, r)| matches!(r, BatchResult::Cas(false)))
        .map(|(&i, _)| i)
        .collect()
}

/// Applies a shard's slice of the batch (op indices `idxs`, in batch
/// order) to `map`, returning the new version — `None` if no op changed
/// anything, so the shard needs no CAS — and the per-op results.
pub(crate) fn apply_shard_ops<K, V>(
    map: &PTreapMap<K, V>,
    batch: &[BatchOp<K, V>],
    idxs: &[usize],
) -> (Option<PTreapMap<K, V>>, Vec<BatchResult<V>>)
where
    K: Ord + Clone + Hash,
    V: Clone + PartialEq,
{
    let mut next: Option<PTreapMap<K, V>> = None;
    let mut results = Vec::with_capacity(idxs.len());
    for &i in idxs {
        let cur = next.as_ref().unwrap_or(map);
        let (version, result) = match &batch[i] {
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

impl<K, V> ShardedTreapMap<K, V>
where
    K: Ord + Clone + Hash + Send + Sync,
    V: Clone + PartialEq + Send + Sync,
{
    /// Atomically applies a batch of operations that may span shards,
    /// returning one [`BatchResult`] per op, in batch order.
    ///
    /// The whole batch is a single linearizable operation: no concurrent
    /// reader, per-key writer, or [`snapshot_all`](Self::snapshot_all)
    /// ever observes it partially applied. Operations inside the batch
    /// apply in order, so later ops see earlier ops' writes (including
    /// across a [`BatchOp::Cas`] on the same key).
    ///
    /// Cost model (the regime the paper predicts path copying wins):
    ///
    /// * batch touching **one shard** — the ordinary lock-free CAS loop,
    ///   a single root install for the whole batch;
    /// * batch touching **`k` shards** — ascending-order acquisition of
    ///   `k` commit locks (contended only by other multi-shard batches),
    ///   speculative path-copying of `k` new roots, then a freeze +
    ///   install window of `2k` atomic operations during which reads of
    ///   the involved shards briefly spin.
    ///
    /// A failed [`BatchOp::Cas`] does not abort the batch; it simply
    /// reports `Cas(false)` while the rest of the batch commits.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathcopy_concurrent::{BatchOp, BatchResult, ShardedTreapMap};
    ///
    /// let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(4);
    /// let r = m.transact(&[
    ///     BatchOp::Insert(1, 10),
    ///     BatchOp::Insert(2, 20),
    ///     BatchOp::Cas { key: 1, expected: Some(10), new: Some(11) },
    ///     BatchOp::Remove(3),
    /// ]);
    /// assert_eq!(
    ///     r,
    ///     vec![
    ///         BatchResult::Inserted(None),
    ///         BatchResult::Inserted(None),
    ///         BatchResult::Cas(true),
    ///         BatchResult::Removed(None),
    ///     ]
    /// );
    /// ```
    pub fn transact(&self, batch: &[BatchOp<K, V>]) -> Vec<BatchResult<V>> {
        self.transact_impl(batch, false)
            .expect("unguarded batches never abort")
    }

    /// Sinfonia-style guarded mini-transaction: like
    /// [`transact`](Self::transact), except that if **any**
    /// [`BatchOp::Cas`] guard fails, the *whole batch aborts* — zero
    /// writes land, and the failed guard indices come back as a
    /// [`GuardAbort`].
    ///
    /// The abort is linearizable: on the single-shard path the guards are
    /// evaluated against the root the no-CAS return linearizes at, and on
    /// the multi-shard path they are evaluated against the validated
    /// bases of a successful freeze pass — every involved shard is frozen
    /// at the moment the abort decision is made, so no interleaving can
    /// make a concurrent observer disagree about whether the batch
    /// happened.
    ///
    /// Within a committing batch, semantics match `transact`: ops apply
    /// in order and later ops (including guards) see earlier writes of
    /// the same batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathcopy_concurrent::{BatchOp, GuardAbort, ShardedTreapMap};
    ///
    /// let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(4);
    /// m.insert(1, 10);
    /// // The guard is stale, so the inserts must not land either.
    /// let err = m
    ///     .transact_guarded(&[
    ///         BatchOp::Cas { key: 1, expected: Some(99), new: Some(100) },
    ///         BatchOp::Insert(2, 20),
    ///     ])
    ///     .unwrap_err();
    /// assert_eq!(err, GuardAbort { failed: vec![0] });
    /// assert_eq!(m.get(&2), None, "aborted batch wrote nothing");
    /// ```
    pub fn transact_guarded(
        &self,
        batch: &[BatchOp<K, V>],
    ) -> Result<Vec<BatchResult<V>>, GuardAbort> {
        self.transact_impl(batch, true)
    }

    fn transact_impl(
        &self,
        batch: &[BatchOp<K, V>],
        guarded: bool,
    ) -> Result<Vec<BatchResult<V>>, GuardAbort> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }

        // Phase 0: group op indices by shard, preserving batch order
        // within each shard. BTreeMap iteration gives ascending shard
        // indices, which is the global lock/freeze order.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, op) in batch.iter().enumerate() {
            groups
                .entry(shard_index(op.key(), self.mask))
                .or_default()
                .push(i);
        }

        if groups.len() == 1 {
            // Fast path: the batch lives in one shard, so it is that
            // shard's own `TreapMap` batch — one lock-free CAS loop, and
            // a guarded abort returns without a CAS.
            let (&shard, idxs) = groups.iter().next().unwrap();
            return self.shards[shard].transact_ops(batch, idxs, guarded);
        }

        // Read-only multi-shard batch: no roots change, so consistency
        // needs no locks and no freezing — a validated double scan over
        // just the involved shards (the `snapshot_all` idiom, sharded.rs)
        // yields a stable cut without blocking anyone.
        if batch.iter().all(|op| matches!(op, BatchOp::Get(_))) {
            let involved: Vec<usize> = groups.keys().copied().collect();
            let mut pass: Vec<Arc<PTreapMap<K, V>>> = involved
                .iter()
                .map(|&i| self.shards[i].uc.snapshot())
                .collect();
            loop {
                let mut stable = true;
                for (j, &i) in involved.iter().enumerate() {
                    if !self.shards[i].uc.is_current_version(&pass[j]) {
                        pass[j] = self.shards[i].uc.snapshot();
                        stable = false;
                    }
                }
                if stable {
                    break;
                }
            }
            let mut out: Vec<Option<BatchResult<V>>> = vec![None; batch.len()];
            for (j, idxs) in groups.values().enumerate() {
                let (_, results) = apply_shard_ops(&pass[j], batch, idxs);
                for (&i, r) in idxs.iter().zip(results) {
                    out[i] = Some(r);
                }
            }
            // A Get-only batch carries no guards, so `guarded` is moot.
            return Ok(out
                .into_iter()
                .map(|r| r.expect("every op resolved"))
                .collect());
        }

        // Phase 1: exclude rival multi-shard commits on any overlapping
        // shard, in ascending order (deadlock-free).
        let _guards: Vec<_> = groups
            .keys()
            .map(|&shard| self.commit_locks[shard].lock())
            .collect();

        // Phase 2: speculatively path-copy each involved shard's new root
        // from its current version. Per-key updates may still move a root
        // under us; that is caught and repaired at freeze time.
        let mut staged: Vec<ShardStage<'_, K, V>> = groups
            .iter()
            .map(|(&shard, idxs)| {
                let base = self.shards[shard].uc.snapshot();
                let (next, results) = apply_shard_ops(&base, batch, idxs);
                ShardStage {
                    shard,
                    idxs,
                    base,
                    next,
                    results,
                }
            })
            .collect();

        // Phase 3: freeze every involved root in ascending order. A
        // freeze fails only if a per-key update moved that root since we
        // copied it; when that happens, back the whole window out
        // (unfreeze everything frozen so far), rebuild that shard's
        // stage, and start the pass over. Two invariants fall out:
        //
        // * the frozen window is always exactly one freeze+install pass
        //   (2k atomic operations) — readers never spin while a rebuild
        //   runs, however contended the shards are;
        // * no user code (`K`/`V` `Ord`/`Clone`/`PartialEq`) ever runs
        //   while any root is frozen, so a panic in user code can unwind
        //   through `transact` without wedging the map behind a leaked
        //   freeze tag.
        //
        // Each restart is caused by a per-key update that committed, so
        // the system as a whole stays lock-free. Between restarts we back
        // off adaptively (exponential spin, capped): the freeze window
        // competes with the per-key CAS loops for the same roots, and an
        // immediate retry under sustained per-key traffic mostly loses the
        // race again — unlike the paper's single-root CAS retry, a restart
        // here repeats a multi-root copy pass, so losing is expensive.
        // Backed-out passes are counted per shard as `freeze_retries`.
        let mut backoff = BackoffPolicy::exponential().start();
        'freeze: loop {
            for j in 0..staged.len() {
                if let Err(current) = self.shards[staged[j].shard]
                    .uc
                    .try_freeze_root(&staged[j].base)
                {
                    for prior in &staged[..j] {
                        self.shards[prior.shard].uc.unfreeze_root();
                    }
                    self.shards[staged[j].shard].stats().record_freeze_retry();
                    let (next, results) = apply_shard_ops(&current, batch, staged[j].idxs);
                    let stage = &mut staged[j];
                    stage.base = current;
                    stage.next = next;
                    stage.results = results;
                    backoff.wait();
                    continue 'freeze;
                }
            }
            break;
        }

        // Guard check, inside the frozen window: the freeze pass proved
        // every staged base simultaneously current, so the speculative
        // results are a consistent evaluation of all guards. Any failed
        // guard aborts the whole batch by unfreezing without installing —
        // zero writes, and the abort linearizes in the window.
        if guarded {
            let mut failed: Vec<usize> = staged
                .iter()
                .flat_map(|stage| failed_guards(stage.idxs, &stage.results))
                .collect();
            if !failed.is_empty() {
                for stage in &staged {
                    self.shards[stage.shard].uc.unfreeze_root();
                }
                failed.sort_unstable();
                return Err(GuardAbort { failed });
            }
        }

        // Phase 4: install. All involved roots are frozen, so no read of
        // any of them completes until its install below — the batch
        // becomes visible everywhere at once.
        let mut out: Vec<Option<BatchResult<V>>> = (0..batch.len()).map(|_| None).collect();
        for stage in staged {
            let uc = &self.shards[stage.shard].uc;
            match stage.next {
                Some(next) => uc.install_frozen_root(next),
                None => uc.unfreeze_root(),
            }
            for (&i, r) in stage.idxs.iter().zip(stage.results) {
                out[i] = Some(r);
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every op resolved"))
            .collect())
    }
}

/// Per-shard staging area for a multi-shard commit.
struct ShardStage<'a, K, V> {
    shard: usize,
    idxs: &'a [usize],
    /// The version the new root was copied from; must still be current
    /// at freeze time.
    base: Arc<PTreapMap<K, V>>,
    /// The copied root; `None` if the shard's ops change nothing.
    next: Option<PTreapMap<K, V>>,
    results: Vec<BatchResult<V>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_a_noop() {
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(4);
        assert!(m.transact(&[]).is_empty());
        assert_eq!(m.stats_snapshot().ops, 0);
    }

    #[test]
    fn batch_ops_apply_in_order_within_and_across_shards() {
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(8);
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
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(8);
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

    #[test]
    fn read_only_multi_shard_batch_installs_nothing() {
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(8);
        for k in 0..64 {
            m.insert(k, k);
        }
        let before = m.stats_snapshot();
        let r = m.transact(&(0..64).map(BatchOp::Get).collect::<Vec<_>>());
        for (k, res) in r.into_iter().enumerate() {
            assert_eq!(res, BatchResult::Got(Some(k as u64)));
        }
        let after = m.stats_snapshot();
        assert_eq!(
            after.frozen_installs, before.frozen_installs,
            "pure-read batch must not install any root"
        );
    }

    #[test]
    fn single_shard_batch_takes_the_lock_free_cas_path() {
        // One shard: every batch is single-shard by construction, so the
        // freeze hook must never fire and the plain CAS loop must count
        // the op.
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(1);
        let r = m.transact(&[
            BatchOp::Insert(1, 1),
            BatchOp::Insert(2, 2),
            BatchOp::Get(1),
        ]);
        assert_eq!(r[2], BatchResult::Got(Some(1)));
        let stats = m.stats_snapshot();
        assert_eq!(stats.frozen_installs, 0, "single-shard batch froze a root");
        assert_eq!(stats.ops, 1, "the batch is one CAS-loop op");
        assert_eq!(stats.freeze_retries, 0, "nothing to back out");
    }

    #[test]
    fn multi_shard_batch_goes_through_the_freeze_hook() {
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(16);
        // 64 spread-out keys certainly span >= 2 shards.
        let batch: Vec<_> = (0..64).map(|k| BatchOp::Insert(k, k)).collect();
        m.transact(&batch);
        let stats = m.stats_snapshot();
        assert!(
            stats.frozen_installs >= 2,
            "cross-shard batch must install via the freeze hook (got {})",
            stats.frozen_installs
        );
        assert_eq!(
            stats.freeze_retries, 0,
            "no concurrent writers, so the first freeze pass must stick"
        );
        for k in 0..64 {
            assert_eq!(m.get(&k), Some(k));
        }
    }

    #[test]
    fn guarded_single_shard_abort_writes_nothing() {
        // One shard forces the lock-free fast path.
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(1);
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
        let stats = m.stats_snapshot();
        assert_eq!(stats.frozen_installs, 0);
        // The abort itself is a no-CAS op on the fast path.
        assert_eq!(stats.noop_updates, 1);
    }

    #[test]
    fn guarded_multi_shard_abort_writes_nothing_and_reports_all_failures() {
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(16);
        m.insert(1, 10);
        m.insert(2, 20);
        let installs_before = m.stats_snapshot().frozen_installs;
        // 64 spread-out inserts span many shards; two stale guards.
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
        assert_eq!(
            m.stats_snapshot().frozen_installs,
            installs_before,
            "abort must not install any root"
        );
    }

    #[test]
    fn guarded_batch_with_passing_guards_commits_like_transact() {
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(8);
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
        let m: ShardedTreapMap<u64, i64> = ShardedTreapMap::with_shards(8);
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
        let riders = m.snapshot_all().len() - 1;
        assert_eq!(riders as i64, commits, "one rider per committed batch");
    }

    #[test]
    fn diff_to_ops_replays_a_diff() {
        use pathcopy_core::api::MapSnapshot as _;
        use pathcopy_core::Snapshottable as _;
        let primary: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(4);
        for k in 0..50 {
            primary.insert(k, k);
        }
        let old = primary.snapshot();
        primary.insert(3, 33);
        primary.remove(&7);
        primary.insert(100, 100);
        let new = primary.snapshot();

        let replica: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(4);
        for k in 0..50 {
            replica.insert(k, k);
        }
        replica.transact(&diff_to_ops(&old.diff(&new)));
        assert_eq!(
            replica.snapshot().to_sorted_vec(),
            new.to_sorted_vec(),
            "replaying the diff reconstructs the newer version"
        );
    }

    #[test]
    fn concurrent_disjoint_batches_all_commit() {
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(8);
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
        let snap = m.snapshot_all();
        assert_eq!(snap.len(), (THREADS * BATCHES * SPAN) as usize);
    }

    #[test]
    fn batches_interleaved_with_per_key_ops_lose_nothing() {
        // Writers hammer per-key inserts on even keys while a transactor
        // commits cross-shard batches on odd keys; both must fully land.
        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(8);
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
        let snap = m.snapshot_all();
        assert_eq!(snap.len(), N as usize);
        assert!(snap.to_sorted_vec().iter().map(|(k, _)| *k).eq(0..N));
    }
}
