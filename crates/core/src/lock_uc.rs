//! The baselines the path-copying UC is measured against: the global
//! lock from the paper's introduction ("The simplest approach uses locks that protect a
//! sequential data structure and allow only one process to access it at a
//! time").
//!
//! [`MutexUc`] exposes the *same* [`Update`]-closure interface as
//! [`PathCopyUc`](crate::PathCopyUc) and operates on the same persistent
//! structures, so benchmark comparisons isolate the synchronization
//! strategy (global lock vs. root CAS) rather than the data-structure
//! implementation. [`SeqUc`] is the single-threaded baseline with the
//! same interface.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::uc::Update;

/// Universal construction with one global mutex: every operation, read or
/// write, takes the lock. Blocking; the paper's strawman.
#[derive(Debug)]
pub struct MutexUc<S> {
    state: Mutex<Arc<S>>,
}

impl<S: Send + Sync> MutexUc<S> {
    /// Wraps an initial version.
    pub fn new(initial: S) -> Self {
        MutexUc {
            state: Mutex::new(Arc::new(initial)),
        }
    }

    /// Runs a read-only operation under the lock.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        let guard = self.state.lock();
        f(&guard)
    }

    /// Returns a snapshot of the current version. Because versions are
    /// immutable, the snapshot stays valid after the lock is released.
    pub fn snapshot(&self) -> Arc<S> {
        self.state.lock().clone()
    }

    /// Runs a modifying operation under the lock. Never retries: the lock
    /// serializes writers, so the first attempt always commits.
    pub fn update<R>(&self, f: impl FnOnce(&S) -> Update<S, R>) -> R {
        let mut guard = self.state.lock();
        match f(&guard) {
            Update::Keep(r) => r,
            Update::Replace(next, r) => {
                *guard = Arc::new(next);
                r
            }
        }
    }
}

/// Plain single-threaded wrapper with the same closure interface — the
/// "Seq Treap" baseline column of the paper's tables. Zero
/// synchronization; requires `&mut self` for updates.
#[derive(Debug)]
pub struct SeqUc<S> {
    state: S,
}

impl<S> SeqUc<S> {
    /// Wraps an initial version.
    pub fn new(initial: S) -> Self {
        SeqUc { state: initial }
    }

    /// Runs a read-only operation.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.state)
    }

    /// Runs a modifying operation in place.
    pub fn update<R>(&mut self, f: impl FnOnce(&S) -> Update<S, R>) -> R {
        match f(&self.state) {
            Update::Keep(r) => r,
            Update::Replace(next, r) => {
                self.state = next;
                r
            }
        }
    }

    /// Consumes the wrapper, returning the final version.
    pub fn into_inner(self) -> S {
        self.state
    }

    /// Borrows the current version.
    pub fn inner(&self) -> &S {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incr(n: &u64) -> Update<u64, u64> {
        Update::Replace(n + 1, n + 1)
    }

    #[test]
    fn mutex_uc_counts_correctly_under_threads() {
        let uc = MutexUc::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        uc.update(incr);
                    }
                });
            }
        });
        assert_eq!(uc.read(|&n| n), 1000);
    }

    #[test]
    fn snapshots_survive_later_updates() {
        let uc = MutexUc::new(vec![1]);
        let snap = uc.snapshot();
        uc.update(|v| {
            let mut next = v.clone();
            next.push(2);
            Update::Replace(next, ())
        });
        assert_eq!(*snap, vec![1]);
        assert_eq!(uc.read(|v| v.len()), 2);
    }

    #[test]
    fn seq_uc_applies_and_keeps() {
        let mut uc = SeqUc::new(10u64);
        let r = uc.update(|&n| incr(&n));
        assert_eq!(r, 11);
        let r = uc.update(|&n| Update::Keep(n));
        assert_eq!(r, 11);
        assert_eq!(uc.into_inner(), 11);
    }
}
