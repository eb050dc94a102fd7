//! The backend registry: every concurrent structure, wired up **once**.
//!
//! [`for_each_set_backend`] runs a visitor ("driver") that is
//! instantiated per set backend with the concrete type, so generic code
//! gets the point operations *and* the [`Snapshottable`] machinery
//! (snapshot `range`/`iter`/`diff`), which associated types keep out of
//! `dyn` reach. The one map backend, [`TreapMap`], needs no visitor.
//!
//! Adding a backend here makes every registry-driven oracle test pick it
//! up automatically.

use pathcopy_core::api::{ConcurrentSet, SetSnapshot, Snapshottable};

use crate::{ExternalBstSet, LockedTreapSet, TreapMap};

/// Visitor instantiated once per set backend with the concrete type —
/// write the generic logic once in [`drive`](Self::drive), then run it
/// over every backend with [`for_each_set_backend`].
pub trait SetBackendDriver {
    /// Called once per backend with its name and a constructor.
    fn drive<S>(&mut self, name: &str, make: fn() -> S)
    where
        S: ConcurrentSet<i64> + Snapshottable,
        S::Snapshot: SetSnapshot<i64>;
}

/// Runs `driver` over every set backend (the lock-free treap — the map of
/// units — and external BST, and the mutex baseline).
pub fn for_each_set_backend<D: SetBackendDriver>(driver: &mut D) {
    driver.drive("treap_set", TreapMap::<i64, ()>::new);
    driver.drive("ebst_set", ExternalBstSet::new);
    driver.drive("mutex_treap_set", LockedTreapSet::new);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_registries_visit_every_backend() {
        struct SetCount(Vec<String>);
        impl SetBackendDriver for SetCount {
            fn drive<S>(&mut self, name: &str, make: fn() -> S)
            where
                S: ConcurrentSet<i64> + Snapshottable,
                S::Snapshot: SetSnapshot<i64>,
            {
                let s = make();
                s.insert(3);
                assert!(
                    SetSnapshot::contains(&Snapshottable::snapshot(&s), &3),
                    "[{name}]"
                );
                self.0.push(name.to_string());
            }
        }
        let mut d = SetCount(Vec::new());
        for_each_set_backend(&mut d);
        assert_eq!(d.0, ["treap_set", "ebst_set", "mutex_treap_set"]);
    }
}
