//! The `Root_Ptr` register from the paper: an atomic cell holding the
//! current version of a persistent data structure.
//!
//! The paper (Section 2) stores "a pointer to the current version of the
//! persistent data structure … in a Read/CAS register called `Root_Ptr`".
//! In Java the garbage collector keeps superseded versions alive while
//! readers still use them. In Rust we reproduce that with two mechanisms:
//!
//! * versions are reference counted (`Arc<T>`), which also gives the
//!   structural sharing between versions that path copying relies on;
//! * the cell itself holds a raw pointer obtained from [`Arc::into_raw`],
//!   and readers resolve it to a real `Arc` under an epoch pin
//!   (`crossbeam-epoch`). A writer that displaces a version *defers* the
//!   matching strong-count decrement until every pin that might still be
//!   dereferencing the raw pointer has been released.
//!
//! This is the classic epoch-protected atomic-`Arc` idiom. All operations
//! are lock-free; `load` is additionally wait-free (a single atomic load,
//! an increment, and an epoch pin).
//!
//! # ABA
//!
//! [`VersionCell::compare_exchange`] takes the expected version as
//! `&Arc<T>`. Because the caller *holds* that `Arc`, its strong count is
//! nonzero, so the allocation cannot be freed and its address cannot be
//! recycled while the CAS is in flight — the ABA problem cannot arise.

use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam_epoch as epoch;

/// An atomic, lock-free cell holding an `Arc<T>` — the `Root_Ptr` register.
///
/// See the [module documentation](self) for the reclamation protocol.
///
/// # Examples
///
/// ```
/// use pathcopy_core::VersionCell;
/// use std::sync::Arc;
///
/// let cell = VersionCell::new(vec![1, 2, 3]);
/// let v0 = cell.load();
/// assert_eq!(*v0, vec![1, 2, 3]);
///
/// // Install a new version derived from the old one.
/// let v1 = Arc::new(vec![1, 2, 3, 4]);
/// cell.compare_exchange(&v0, v1).unwrap();
/// assert_eq!(cell.load().len(), 4);
///
/// // The old snapshot is still intact: persistence in action.
/// assert_eq!(v0.len(), 3);
/// ```
pub struct VersionCell<T> {
    /// Raw pointer produced by `Arc::into_raw`; the cell owns one strong
    /// reference to whatever this points at.
    ptr: AtomicPtr<T>,
}

/// Error returned by a failed [`VersionCell::compare_exchange`].
pub struct CasError<T> {
    /// The version we tried to install, handed back to the caller so the
    /// allocation can be reused or dropped.
    pub proposed: Arc<T>,
    /// A snapshot of the version that was actually current at CAS time.
    pub current: Arc<T>,
}

impl<T> fmt::Debug for CasError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CasError").finish_non_exhaustive()
    }
}

impl<T: Send + Sync> VersionCell<T> {
    /// Creates a cell holding `initial` as the current version.
    pub fn new(initial: T) -> Self {
        Self::from_arc(Arc::new(initial))
    }

    /// Creates a cell from an existing `Arc`.
    pub fn from_arc(initial: Arc<T>) -> Self {
        VersionCell {
            ptr: AtomicPtr::new(Arc::into_raw(initial) as *mut T),
        }
    }

    /// Returns a snapshot of the current version.
    ///
    /// The returned `Arc` stays valid (and immutable) forever, no matter
    /// how many updates are installed afterwards — this is what makes
    /// read-only operations "trivially atomic" in the paper's words.
    pub fn load(&self) -> Arc<T> {
        let guard = epoch::pin();
        let raw = self.ptr.load(Ordering::Acquire);
        // SAFETY: `raw` was produced by `Arc::into_raw`. A writer that
        // displaced it defers the strong-count decrement until after
        // every pin concurrent with its CAS is released; our pin
        // predates any such reclamation, so the allocation is alive
        // and its count >= 1.
        unsafe { Arc::increment_strong_count(raw) };
        drop(guard);
        // SAFETY: we just minted a strong reference for ourselves.
        unsafe { Arc::from_raw(raw) }
    }

    /// Atomically replaces `expected` with `new`.
    ///
    /// On success the displaced version's strong count is decremented once
    /// the epoch allows. On failure, returns both the proposed version and
    /// a snapshot of the actual current version, so the caller can retry
    /// without an extra [`load`](Self::load).
    pub fn compare_exchange(&self, expected: &Arc<T>, new: Arc<T>) -> Result<(), CasError<T>> {
        let expected_raw = Arc::as_ptr(expected) as *mut T;
        let new_raw = Arc::into_raw(new) as *mut T;
        let guard = epoch::pin();
        match self
            .ptr
            .compare_exchange(expected_raw, new_raw, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(displaced) => {
                // SAFETY: `displaced` carries the strong reference the cell
                // owned. Readers may still hold the raw pointer, but only
                // under pins concurrent with this guard; the deferred drop
                // runs after all of them unpin.
                unsafe {
                    guard.defer_unchecked(move || drop(Arc::from_raw(displaced)));
                }
                Ok(())
            }
            Err(actual) => {
                // Take back ownership of the version we failed to install.
                // SAFETY: we produced `new_raw` above and the CAS did not
                // consume it.
                let proposed = unsafe { Arc::from_raw(new_raw) };
                // SAFETY: same argument as in `load`; we are still pinned,
                // so `actual` cannot have been reclaimed.
                unsafe { Arc::increment_strong_count(actual) };
                // SAFETY: we just minted a strong reference for ourselves.
                let current = unsafe { Arc::from_raw(actual) };
                Err(CasError { proposed, current })
            }
        }
    }

    /// Unconditionally installs `new`, returning a snapshot of the
    /// displaced version.
    pub fn swap(&self, new: Arc<T>) -> Arc<T> {
        let new_raw = Arc::into_raw(new) as *mut T;
        let guard = epoch::pin();
        let displaced = self.ptr.swap(new_raw, Ordering::AcqRel);
        // Hand one strong reference to the caller...
        // SAFETY: pinned, so `displaced` is alive (see `load`).
        unsafe { Arc::increment_strong_count(displaced) };
        // SAFETY: we just minted a strong reference for ourselves.
        let snapshot = unsafe { Arc::from_raw(displaced) };
        // ...and defer releasing the reference the cell owned.
        // SAFETY: readers still holding the raw pointer do so only under
        // pins concurrent with this guard; the deferred drop runs after
        // all of them unpin.
        unsafe {
            guard.defer_unchecked(move || drop(Arc::from_raw(displaced)));
        }
        snapshot
    }

    /// Unconditionally installs `new`.
    pub fn store(&self, new: Arc<T>) {
        drop(self.swap(new));
    }

    /// Returns `true` if `version` is (pointer-)identical to the current
    /// version. Useful for optimistic validation.
    pub fn is_current(&self, version: &Arc<T>) -> bool {
        std::ptr::eq(self.ptr.load(Ordering::Acquire), Arc::as_ptr(version))
    }
}

impl<T> Drop for VersionCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent readers or writers exist, so the
        // cell's strong reference can be released immediately.
        let raw = *self.ptr.get_mut();
        // SAFETY: the cell owned one strong reference to `raw`.
        drop(unsafe { Arc::from_raw(raw) });
    }
}

impl<T: Send + Sync + fmt::Debug> fmt::Debug for VersionCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("VersionCell").field(&self.load()).finish()
    }
}

// SAFETY: the cell hands out `Arc<T>` snapshots across threads, so it
// needs exactly the bounds `Arc<T>` itself needs to be `Send + Sync`.
unsafe impl<T: Send + Sync> Send for VersionCell<T> {}
// SAFETY: same argument as for `Send` above — shared access only ever
// yields `Arc<T>` snapshots.
unsafe impl<T: Send + Sync> Sync for VersionCell<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    #[test]
    fn load_returns_initial() {
        let cell = VersionCell::new(42u32);
        assert_eq!(*cell.load(), 42);
    }

    #[test]
    fn cas_success_installs_new_version() {
        let cell = VersionCell::new(1u32);
        let cur = cell.load();
        cell.compare_exchange(&cur, Arc::new(2)).unwrap();
        assert_eq!(*cell.load(), 2);
        // The old snapshot is unaffected.
        assert_eq!(*cur, 1);
    }

    #[test]
    fn cas_failure_returns_proposed_and_current() {
        let cell = VersionCell::new(1u32);
        let stale = cell.load();
        cell.compare_exchange(&stale, Arc::new(2)).unwrap();
        let err = cell
            .compare_exchange(&stale, Arc::new(3))
            .expect_err("stale CAS must fail");
        assert_eq!(*err.proposed, 3);
        assert_eq!(*err.current, 2);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn is_current_tracks_installs() {
        let cell = VersionCell::new(7u32);
        let v0 = cell.load();
        assert!(cell.is_current(&v0));
        cell.store(Arc::new(8));
        assert!(!cell.is_current(&v0));
        let v1 = cell.load();
        assert!(cell.is_current(&v1));
    }

    #[test]
    fn swap_returns_displaced() {
        let cell = VersionCell::new(String::from("a"));
        let old = cell.swap(Arc::new(String::from("b")));
        assert_eq!(*old, "a");
        assert_eq!(*cell.load(), "b");
    }

    /// Value that counts live instances, to detect leaks and double frees.
    struct Counted(&'static AtomicUsize);
    impl Counted {
        fn new(c: &'static AtomicUsize) -> Self {
            c.fetch_add(1, Relaxed);
            Counted(c)
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Relaxed);
        }
    }

    #[test]
    fn versions_are_reclaimed_not_leaked() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        {
            let cell = VersionCell::new(Counted::new(&LIVE));
            for _ in 0..1000 {
                let cur = cell.load();
                cell.compare_exchange(&cur, Arc::new(Counted::new(&LIVE)))
                    .unwrap();
            }
        }
        // Reclamation is deferred through the process-global epoch
        // collector, which other tests share; keep nudging it until all
        // instances are gone (bounded by a deadline so a genuine leak
        // still fails the test).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while LIVE.load(Relaxed) != 0 {
            crossbeam_epoch::pin().flush();
            assert!(
                std::time::Instant::now() < deadline,
                "live versions leaked: {}",
                LIVE.load(Relaxed)
            );
        }
    }

    #[test]
    fn concurrent_cas_exactly_one_winner_per_round() {
        use std::sync::atomic::AtomicU64;
        const THREADS: usize = 4;
        const OPS: u64 = 2000;

        let cell = VersionCell::new(0u64);
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut done = 0;
                    while done < OPS {
                        let cur = cell.load();
                        let next = Arc::new(*cur + 1);
                        if cell.compare_exchange(&cur, next).is_ok() {
                            successes.fetch_add(1, Relaxed);
                            done += 1;
                        }
                    }
                });
            }
        });
        // Every success incremented the value exactly once: the final value
        // equals the number of successful CASes, i.e. no lost updates.
        assert_eq!(*cell.load(), successes.load(Relaxed));
        assert_eq!(*cell.load(), (THREADS as u64) * OPS);
    }

    #[test]
    fn concurrent_readers_see_monotonic_values() {
        let cell = VersionCell::new(0u64);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 1..=10_000u64 {
                    cell.store(Arc::new(i));
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let v = *cell.load();
                        assert!(v >= last, "versions went backwards: {v} < {last}");
                        last = v;
                    }
                });
            }
            writer.join().unwrap();
        });
    }
}
