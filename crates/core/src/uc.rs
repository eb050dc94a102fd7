//! The path-copying universal construction (Section 2 of the paper).
//!
//! [`PathCopyUc`] turns any *persistent* sequential data structure `S`
//! (one whose update operations build a new version sharing structure
//! with the old, instead of mutating in place) into a lock-free
//! linearizable concurrent object:
//!
//! * **queries** ([`PathCopyUc::read`]) load the current version from the
//!   [`VersionCell`] and run sequentially on that immutable snapshot;
//! * **updates** ([`PathCopyUc::update`]) loop: load the current version,
//!   apply the sequential update by path copying, try to CAS the root to
//!   the new version, and retry on failure.
//!
//! Successful updates are serialized by the CAS — and yet, as the paper
//! shows, the construction scales, because failed attempts leave the
//! retrying process's cache warm and the winning update replaced (in
//! expectation) no more than 2 nodes on any other process's search path.
//!
//! An update closure may also report that the operation does not change
//! the structure (e.g. inserting a key that is already mapped to an equal
//! value) by returning [`Update::Keep`]; such operations complete
//! **without a CAS** (they linearize at the load that saw the unchanged
//! state), which is why the paper's Random workload (§4.2) behaves partly like a
//! read-only workload and scales better than Batch.

use std::sync::Arc;

use crate::backoff::BackoffPolicy;
use crate::stats::UcStats;
use crate::version::VersionCell;

/// Result of applying a sequential update to a snapshot.
#[derive(Debug)]
pub enum Update<S, R> {
    /// The operation built a new version; install it and return `R`.
    Replace(S, R),
    /// The operation changes nothing; return `R` without a CAS.
    Keep(R),
}

/// Outcome details of a completed update, for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport<R> {
    /// The operation's return value.
    pub result: R,
    /// Total attempts, including the successful one.
    pub attempts: u64,
    /// Whether the final attempt skipped the CAS ([`Update::Keep`]).
    pub was_noop: bool,
}

/// The lock-free universal construction over a persistent structure `S`.
///
/// # Examples
///
/// A concurrent counter-with-history in five lines (any persistent
/// structure works the same way — see `pathcopy-concurrent` for trees):
///
/// ```
/// use pathcopy_core::{PathCopyUc, Update};
///
/// let uc = PathCopyUc::new(0u64);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for _ in 0..100 {
///                 uc.update(|&n| Update::Replace(n + 1, ()));
///             }
///         });
///     }
/// });
/// assert_eq!(uc.read(|&n| n), 400);
/// ```
pub struct PathCopyUc<S> {
    root: VersionCell<S>,
    backoff: BackoffPolicy,
    stats: Arc<UcStats>,
}

impl<S> std::fmt::Debug for PathCopyUc<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathCopyUc")
            .field("backoff", &self.backoff)
            .finish_non_exhaustive()
    }
}

impl<S: Send + Sync> PathCopyUc<S> {
    /// Wraps an initial version of the persistent structure.
    pub fn new(initial: S) -> Self {
        Self::with_backoff(initial, BackoffPolicy::None)
    }

    /// Wraps an initial version with an explicit retry backoff policy.
    pub fn with_backoff(initial: S, backoff: BackoffPolicy) -> Self {
        PathCopyUc {
            root: VersionCell::new(initial),
            backoff,
            stats: Arc::new(UcStats::new()),
        }
    }

    /// Returns a snapshot of the current version.
    ///
    /// The snapshot is immutable and stays valid forever; iterating it,
    /// running queries on it, or stashing it for later "time-travel" reads
    /// never blocks or is blocked by writers.
    pub fn snapshot(&self) -> Arc<S> {
        self.root.load()
    }

    /// Runs a read-only operation on the current version.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.stats.record_read();
        f(&self.root.load())
    }

    /// Runs a modifying operation: the paper's load / path-copy / CAS loop.
    ///
    /// `f` is called with the current version and must either build a new
    /// version ([`Update::Replace`]) or declare the operation a no-op
    /// ([`Update::Keep`]). `f` may run several times (once per attempt),
    /// so it must be deterministic given the snapshot it sees.
    pub fn update<R>(&self, f: impl FnMut(&S) -> Update<S, R>) -> R {
        self.update_reported(f).result
    }

    /// Like [`update`](Self::update) but also reports attempt counts.
    pub fn update_reported<R>(&self, mut f: impl FnMut(&S) -> Update<S, R>) -> UpdateReport<R> {
        let mut backoff = self.backoff.start();
        let mut current = self.root.load();
        let mut attempts = 1u64;
        loop {
            match f(&current) {
                Update::Keep(result) => {
                    self.stats.record_update(attempts, true);
                    return UpdateReport {
                        result,
                        attempts,
                        was_noop: true,
                    };
                }
                Update::Replace(new_version, result) => {
                    match self.root.compare_exchange(&current, Arc::new(new_version)) {
                        Ok(()) => {
                            self.stats.record_update(attempts, false);
                            return UpdateReport {
                                result,
                                attempts,
                                was_noop: false,
                            };
                        }
                        Err(race) => {
                            // Someone else committed first: retry on the
                            // version their CAS installed (handed to us by
                            // the failed CAS, saving a reload).
                            current = race.current;
                            attempts += 1;
                            backoff.wait();
                        }
                    }
                }
            }
        }
    }

    /// Performs a single attempt without retrying; `Err` carries the fresh
    /// version on CAS failure. Exposed for tests and for harnesses that
    /// want custom retry loops.
    pub fn try_update_once<R>(
        &self,
        current: &Arc<S>,
        f: impl FnOnce(&S) -> Update<S, R>,
    ) -> Result<(R, bool), Arc<S>> {
        match f(current) {
            Update::Keep(r) => Ok((r, true)),
            Update::Replace(new_version, r) => {
                match self.root.compare_exchange(current, Arc::new(new_version)) {
                    Ok(()) => Ok((r, false)),
                    Err(race) => Err(race.current),
                }
            }
        }
    }

    /// Freezes the root at version `expected` for a coordinated
    /// multi-object install (e.g. a cross-shard batch transaction that
    /// must flip several UC roots atomically).
    ///
    /// While frozen, concurrent reads of this object briefly spin,
    /// concurrent updates stall in their CAS retry, and
    /// [`is_current_version`](Self::is_current_version) reports `false`
    /// — so no observer can see any root of the commit between its first
    /// freeze and its last install. On failure (the root moved since
    /// `expected` was loaded) returns a snapshot of the actual current
    /// version so the caller can rebuild and retry.
    ///
    /// Callers freezing several objects must acquire them in a global
    /// order and exclude rival freezers (e.g. via per-object commit
    /// locks); see [`VersionCell::try_freeze`](crate::VersionCell::try_freeze).
    pub fn try_freeze_root(&self, expected: &Arc<S>) -> Result<(), Arc<S>> {
        self.root.try_freeze(expected)
    }

    /// Publishes `new` as the current version and releases the freeze in
    /// one atomic step. Must only be called after a successful
    /// [`try_freeze_root`](Self::try_freeze_root). Counted in
    /// [`stats`](Self::stats) as a frozen install, not as a CAS-loop op.
    pub fn install_frozen_root(&self, new: S) {
        self.root.install_and_unfreeze(Arc::new(new));
        self.stats.record_frozen_install();
    }

    /// Releases a freeze without installing anything (the commit turned
    /// out not to modify this object, or is backing out).
    pub fn unfreeze_root(&self) {
        self.root.unfreeze();
    }

    /// `true` if `version` is (pointer-)identical to the current version.
    ///
    /// Because committed updates always install freshly allocated
    /// versions, a held snapshot that is still current was never replaced
    /// in between — the basis for optimistic multi-object validation
    /// (see `pathcopy_concurrent`'s sharded snapshots).
    pub fn is_current_version(&self, version: &Arc<S>) -> bool {
        self.root.is_current(version)
    }

    /// Unconditionally replaces the current version (not linearizable with
    /// respect to concurrent updates; intended for setup/reset phases).
    pub fn replace_version(&self, new_version: S) {
        self.root.store(Arc::new(new_version));
    }

    /// Shared statistics block for this object.
    pub fn stats(&self) -> &Arc<UcStats> {
        &self.stats
    }

    /// The backoff policy updates use between failed attempts.
    pub fn backoff_policy(&self) -> BackoffPolicy {
        self.backoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A tiny persistent "structure": an immutable sorted set, cloned on
    /// write. Deliberately naive — the UC does not care how the new
    /// version is produced.
    #[derive(Clone, Default)]
    struct PSet(BTreeSet<i64>);

    impl PSet {
        fn insert(&self, k: i64) -> Option<PSet> {
            if self.0.contains(&k) {
                None
            } else {
                let mut next = self.0.clone();
                next.insert(k);
                Some(PSet(next))
            }
        }
        fn remove(&self, k: i64) -> Option<PSet> {
            if self.0.contains(&k) {
                let mut next = self.0.clone();
                next.remove(&k);
                Some(PSet(next))
            } else {
                None
            }
        }
    }

    fn insert(uc: &PathCopyUc<PSet>, k: i64) -> bool {
        uc.update(|s| match s.insert(k) {
            Some(next) => Update::Replace(next, true),
            None => Update::Keep(false),
        })
    }

    fn remove(uc: &PathCopyUc<PSet>, k: i64) -> bool {
        uc.update(|s| match s.remove(k) {
            Some(next) => Update::Replace(next, true),
            None => Update::Keep(false),
        })
    }

    #[test]
    fn sequential_semantics() {
        let uc = PathCopyUc::new(PSet::default());
        assert!(insert(&uc, 5));
        assert!(!insert(&uc, 5));
        assert!(uc.read(|s| s.0.contains(&5)));
        assert!(remove(&uc, 5));
        assert!(!remove(&uc, 5));
        assert!(!uc.read(|s| s.0.contains(&5)));
    }

    #[test]
    fn snapshots_are_immutable() {
        let uc = PathCopyUc::new(PSet::default());
        insert(&uc, 1);
        let snap = uc.snapshot();
        insert(&uc, 2);
        remove(&uc, 1);
        assert!(snap.0.contains(&1));
        assert!(!snap.0.contains(&2));
    }

    #[test]
    fn disjoint_concurrent_inserts_all_land() {
        const THREADS: i64 = 4;
        const PER: i64 = 500;
        let uc = PathCopyUc::new(PSet::default());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let uc = &uc;
                s.spawn(move || {
                    for i in 0..PER {
                        assert!(insert(uc, t * PER + i));
                    }
                });
            }
        });
        assert_eq!(uc.read(|s| s.0.len()) as i64, THREADS * PER);
    }

    #[test]
    fn noop_updates_skip_cas_and_are_counted() {
        let uc = PathCopyUc::new(PSet::default());
        insert(&uc, 7);
        let report = uc.update_reported(|s| match s.insert(7) {
            Some(next) => Update::Replace(next, true),
            None => Update::Keep(false),
        });
        assert!(!report.result);
        assert!(report.was_noop);
        assert_eq!(report.attempts, 1);
        let snap = uc.stats().snapshot();
        assert_eq!(snap.noop_updates, 1);
    }

    #[test]
    fn contended_updates_report_retries() {
        let uc = PathCopyUc::new(PSet::default());
        let total_attempts = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let uc = &uc;
                let total_attempts = &total_attempts;
                s.spawn(move || {
                    let mut local = 0;
                    for i in 0..200 {
                        let r = uc.update_reported(|set| {
                            Update::Replace(set.insert(t * 1000 + i).unwrap(), ())
                        });
                        local += r.attempts;
                    }
                    total_attempts.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        let snap = uc.stats().snapshot();
        assert_eq!(snap.ops, 800);
        assert_eq!(
            snap.attempts,
            total_attempts.load(std::sync::atomic::Ordering::Relaxed)
        );
        assert_eq!(snap.cas_failures, snap.attempts - snap.ops);
    }

    #[test]
    fn try_update_once_surfaces_races() {
        let uc = PathCopyUc::new(PSet::default());
        let stale = uc.snapshot();
        insert(&uc, 1); // invalidate `stale`
        let err = uc
            .try_update_once(&stale, |s| Update::Replace(s.insert(2).unwrap(), ()))
            .expect_err("CAS on stale snapshot must fail");
        assert!(err.0.contains(&1), "error carries the fresh version");
    }

    #[test]
    fn replace_version_resets_state() {
        let uc = PathCopyUc::new(PSet::default());
        insert(&uc, 1);
        uc.replace_version(PSet::default());
        assert_eq!(uc.read(|s| s.0.len()), 0);
    }
}
