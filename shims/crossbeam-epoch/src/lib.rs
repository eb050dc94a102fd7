//! In-tree shim for the subset of `crossbeam-epoch` this workspace uses:
//! [`pin`], [`Guard::defer_unchecked`] and [`Guard::flush`].
//!
//! This is a real epoch-based-reclamation implementation, not a stub —
//! `pathcopy_core::VersionCell` relies on it for memory safety:
//!
//! * Every thread registers a *participant* record on first pin. While a
//!   thread is pinned, the record publishes which global epoch it pinned
//!   in; unpinned threads publish "not pinned".
//! * Deferred functions accumulate in a thread-local bag. Bags are sealed
//!   into a global garbage queue stamped with the epoch at seal time
//!   (automatically once a bag holds a few, or eagerly on
//!   [`Guard::flush`]). An automatic seal then runs a bounded number of
//!   the oldest ready bags and leaves the rest queued, so reclamation is
//!   spread over operations instead of landing on one; `flush` runs
//!   everything that is ready.
//! * The global epoch may advance from `E` to `E + 1` only when every
//!   currently-pinned participant pinned in `E`. Hence active pins always
//!   span at most `{E - 1, E}`, and garbage stamped `E` is executed only
//!   once the global epoch reaches `E + 2` — at which point every pin
//!   that could have observed the retired pointer has been released.
//!
//! Differences from the real crate: bags migrate through two `Mutex`es
//! (registration and the garbage list) instead of lock-free lists, so
//! *reclamation* is blocking. Pinning itself — the per-`load` hot path —
//! stays a handful of atomics on the participant record, and retired
//! memory is never touched before it is provably unreachable.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Seal a thread-local bag into the global garbage list once it holds
/// this many deferred functions.
const BAG_SEAL_THRESHOLD: usize = 4;

/// Ready bags one automatic seal executes at most; the rest stay queued
/// for the next seal (on any thread). Each seal adds one bag and retires
/// up to this many, so the queue drains whenever it is longer than the
/// epoch lag, yet no single operation pays for a whole backlog: with the
/// former threshold of 64 and no cap, one unlucky update ran every
/// thread's ready garbage — ~1 600 node frees inside one operation, the
/// 60–90 us p99 over a 5.7 us p50 on the perf ledger's `engine_update`.
const BAGS_PER_SEAL: usize = 2;

type Deferred = Box<dyn FnOnce() + Send>;

/// Per-thread published state: 0 = not pinned, otherwise `epoch + 1`.
struct Participant {
    pinned: AtomicU64,
}

struct Global {
    epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    /// Sealed bags, oldest first: `(seal_epoch, deferred functions)`.
    garbage: Mutex<VecDeque<(u64, Vec<Deferred>)>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicU64::new(0),
        participants: Mutex::new(Vec::new()),
        garbage: Mutex::new(VecDeque::new()),
    })
}

impl Global {
    /// Advances the epoch if every pinned participant pinned in the
    /// current one. Returns `true` if the epoch moved.
    fn try_advance(&self) -> bool {
        let participants = self
            .participants
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let epoch = self.epoch.load(Ordering::SeqCst);
        for p in participants.iter() {
            let pinned = p.pinned.load(Ordering::SeqCst);
            if pinned != 0 && pinned - 1 != epoch {
                return false;
            }
        }
        self.epoch
            .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Executes up to `max_bags` of the oldest sealed bags that are at
    /// least two epochs old. The deferred functions run *outside* the
    /// garbage lock so that a drop which itself defers cannot deadlock.
    ///
    /// Bags are queued in seal order. Two threads can enqueue slightly
    /// out of epoch order (the stamp is read before the lock is taken);
    /// stopping at the first bag that is not ready only delays the ones
    /// behind it, it never runs one early.
    fn collect(&self, max_bags: usize) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        for _ in 0..max_bags {
            let bag = {
                let mut garbage = self.garbage.lock().unwrap_or_else(PoisonError::into_inner);
                match garbage.front() {
                    Some((sealed, _)) if sealed + 2 <= epoch => garbage.pop_front(),
                    _ => None,
                }
            };
            let Some((_, bag)) = bag else { return };
            for f in bag {
                f();
            }
        }
    }

    fn seal(&self, sealed_at: u64, bag: Vec<Deferred>) {
        if bag.is_empty() {
            return;
        }
        self.garbage
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back((sealed_at, bag));
    }
}

/// Thread-local handle: the participant record plus the open bag.
struct Local {
    participant: Arc<Participant>,
    pin_count: Cell<u32>,
    bag: RefCell<Vec<Deferred>>,
}

impl Local {
    fn register() -> Local {
        let participant = Arc::new(Participant {
            pinned: AtomicU64::new(0),
        });
        global()
            .participants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&participant));
        Local {
            participant,
            pin_count: Cell::new(0),
            bag: RefCell::new(Vec::new()),
        }
    }

    /// Moves the open bag into the global garbage list.
    fn seal_bag(&self) {
        // The replacement is sized for a whole bag, so filling it costs
        // one allocation rather than one per doubling.
        let bag = std::mem::replace(
            &mut *self.bag.borrow_mut(),
            Vec::with_capacity(BAG_SEAL_THRESHOLD),
        );
        let epoch = global().epoch.load(Ordering::SeqCst);
        global().seal(epoch, bag);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: hand any pending garbage to the global list and
        // deregister, so a parked thread cannot block the epoch forever.
        self.seal_bag();
        let mut participants = global()
            .participants
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        participants.retain(|p| !Arc::ptr_eq(p, &self.participant));
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// An RAII guard keeping the current thread pinned; see [`pin`].
pub struct Guard {
    /// `Guard` is `!Send`/`!Sync`: unpinning must happen on the pinning
    /// thread, as with the real crate.
    _not_send: PhantomData<*mut ()>,
}

/// Pins the current thread, preventing any memory retired from this point
/// on from being reclaimed until the returned [`Guard`] is dropped.
pub fn pin() -> Guard {
    LOCAL.with(|local| {
        let count = local.pin_count.get();
        local.pin_count.set(count + 1);
        if count == 0 {
            let g = global();
            // Publish the epoch we pin in; the fence orders the publish
            // before the re-read, so a concurrent `try_advance` either
            // sees our pin or we see its new epoch and re-publish.
            loop {
                let epoch = g.epoch.load(Ordering::SeqCst);
                local.participant.pinned.store(epoch + 1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if g.epoch.load(Ordering::SeqCst) == epoch {
                    break;
                }
            }
        }
    });
    Guard {
        _not_send: PhantomData,
    }
}

impl Guard {
    /// Defers `f` until no thread pinned at (or before) the current epoch
    /// remains pinned.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `f` (and everything it captures) remains
    /// valid until the deferral runs, and is safe to run on another
    /// thread — the same contract as `crossbeam_epoch`'s
    /// `Guard::defer_unchecked`, which this shim mirrors (including
    /// erasing `Send`/lifetime bounds on `f`).
    pub unsafe fn defer_unchecked<F: FnOnce()>(&self, f: F) {
        // SAFETY: per the function contract the caller vouches for
        // lifetime and cross-thread validity, so extending to a
        // `'static + Send` boxed closure is sound.
        let deferred: Deferred = unsafe {
            std::mem::transmute::<Box<dyn FnOnce()>, Box<dyn FnOnce() + Send>>(Box::new(f))
        };
        LOCAL.with(|local| {
            local.bag.borrow_mut().push(deferred);
            if local.bag.borrow().len() >= BAG_SEAL_THRESHOLD {
                local.seal_bag();
                let g = global();
                g.try_advance();
                g.collect(BAGS_PER_SEAL);
            }
        });
    }

    /// Seals this thread's pending deferrals into the global garbage list
    /// and attempts to advance the epoch and reclaim.
    pub fn flush(&self) {
        LOCAL.with(|local| local.seal_bag());
        let g = global();
        g.try_advance();
        g.collect(usize::MAX);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // `try_with`: the guard may drop during thread-local teardown,
        // after `LOCAL` itself was destroyed (and deregistered us).
        let _ = LOCAL.try_with(|local| {
            let count = local.pin_count.get();
            debug_assert!(count > 0, "unpinning a thread that is not pinned");
            local.pin_count.set(count - 1);
            if count == 1 {
                local.participant.pinned.store(0, Ordering::SeqCst);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::Relaxed;

    fn drain(live: &'static AtomicUsize, expect: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while live.load(Relaxed) != expect {
            pin().flush();
            assert!(
                std::time::Instant::now() < deadline,
                "not drained: {} != {expect}",
                live.load(Relaxed)
            );
        }
    }

    #[test]
    fn deferred_functions_eventually_run_exactly_once() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        const N: usize = 1000;
        for _ in 0..N {
            let guard = pin();
            // SAFETY: the closure captures nothing with a lifetime.
            unsafe {
                guard.defer_unchecked(|| {
                    RAN.fetch_add(1, Relaxed);
                })
            };
        }
        drain(&RAN, N);
        // Nothing runs twice: the count stays exactly N.
        for _ in 0..10 {
            pin().flush();
        }
        assert_eq!(RAN.load(Relaxed), N);
    }

    #[test]
    fn reclamation_waits_for_concurrent_pins() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        let blocker = pin();
        {
            let guard = pin();
            // SAFETY: 'static capture only.
            unsafe {
                guard.defer_unchecked(|| {
                    FREED.fetch_add(1, Relaxed);
                })
            };
            guard.flush();
        }
        // We are still pinned (from `blocker`'s epoch): the deferral can
        // run at the earliest two epochs later, and the epoch cannot
        // advance twice past a live pin.
        for _ in 0..50 {
            global().try_advance();
            global().collect(usize::MAX);
        }
        assert_eq!(FREED.load(Relaxed), 0, "freed under an active pin");
        drop(blocker);
        drain(&FREED, 1);
    }

    #[test]
    fn a_capped_collect_runs_the_oldest_ready_bags_and_queues_the_rest() {
        // A private collector, so other tests' seals cannot drain it.
        let g = Global {
            epoch: AtomicU64::new(0),
            participants: Mutex::new(Vec::new()),
            garbage: Mutex::new(VecDeque::new()),
        };
        let ran = Arc::new(Mutex::new(Vec::new()));
        let bag = |id: u32| -> Vec<Deferred> {
            let ran = Arc::clone(&ran);
            vec![Box::new(move || ran.lock().unwrap().push(id))]
        };
        for id in 0..5 {
            g.seal(0, bag(id));
        }
        g.seal(1, bag(5));
        g.collect(BAGS_PER_SEAL);
        assert!(ran.lock().unwrap().is_empty(), "nothing is two epochs old");
        g.epoch.store(2, Ordering::SeqCst);
        g.collect(BAGS_PER_SEAL);
        assert_eq!(*ran.lock().unwrap(), [0, 1], "oldest first, capped");
        g.collect(usize::MAX);
        assert_eq!(
            *ran.lock().unwrap(),
            [0, 1, 2, 3, 4],
            "the bag sealed in epoch 1 waits for epoch 3"
        );
        g.epoch.store(3, Ordering::SeqCst);
        g.collect(BAGS_PER_SEAL);
        assert_eq!(ran.lock().unwrap().len(), 6);
    }

    #[test]
    fn concurrent_churn_reclaims_everything() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Tracked {
            fn new() -> Tracked {
                LIVE.fetch_add(1, Relaxed);
                Tracked
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Relaxed);
            }
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..5_000u32 {
                        let guard = pin();
                        let item = Tracked::new();
                        // SAFETY: `item` is moved into the closure and
                        // owns no borrowed data.
                        unsafe { guard.defer_unchecked(move || drop(item)) };
                        if i % 256 == 0 {
                            guard.flush();
                        }
                    }
                });
            }
        });
        drain(&LIVE, 0);
    }
}
