//! The backend registry: every concurrent structure, wired up **once**.
//!
//! [`for_each_map_backend`] / [`for_each_set_backend`] run a visitor
//! ("driver") that is instantiated per backend with the concrete type,
//! so generic code gets the point operations *and* the
//! [`Snapshottable`] machinery (snapshot `range`/`iter`/`diff`), which
//! associated types keep out of `dyn` reach.
//!
//! Adding a backend here makes every registry-driven oracle test pick it
//! up automatically.

use pathcopy_core::api::{ConcurrentMap, ConcurrentSet, MapSnapshot, SetSnapshot, Snapshottable};

use crate::{ExternalBstSet, LockedTreapSet, ShardedTreapMap, TreapMap, TreapSet};

/// Visitor instantiated once per map backend with the concrete type —
/// write the generic logic once in [`drive`](Self::drive), then run it
/// over every backend with [`for_each_map_backend`].
pub trait MapBackendDriver {
    /// Called once per backend with its name and a constructor.
    fn drive<M>(&mut self, name: &str, make: fn() -> M)
    where
        M: ConcurrentMap<i64, i64> + Snapshottable,
        M::Snapshot: MapSnapshot<i64, i64>;
}

/// Runs `driver` over every map backend (lock-free single-root and
/// sharded at two shard counts).
pub fn for_each_map_backend<D: MapBackendDriver>(driver: &mut D) {
    driver.drive("treap_map", TreapMap::new);
    driver.drive("sharded_map_1", || ShardedTreapMap::with_shards(1));
    driver.drive("sharded_map_8", || ShardedTreapMap::with_shards(8));
}

/// Visitor instantiated once per set backend; the set counterpart of
/// [`MapBackendDriver`].
pub trait SetBackendDriver {
    /// Called once per backend with its name and a constructor.
    fn drive<S>(&mut self, name: &str, make: fn() -> S)
    where
        S: ConcurrentSet<i64> + Snapshottable,
        S::Snapshot: SetSnapshot<i64>;
}

/// Runs `driver` over every set backend (the lock-free treap and external
/// BST, and the mutex baseline).
pub fn for_each_set_backend<D: SetBackendDriver>(driver: &mut D) {
    driver.drive("treap_set", TreapSet::new);
    driver.drive("ebst_set", ExternalBstSet::new);
    driver.drive("mutex_treap_set", LockedTreapSet::new);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_registries_visit_every_backend() {
        struct Count(Vec<String>);
        impl MapBackendDriver for Count {
            fn drive<M>(&mut self, name: &str, make: fn() -> M)
            where
                M: ConcurrentMap<i64, i64> + Snapshottable,
                M::Snapshot: MapSnapshot<i64, i64>,
            {
                let m = make();
                m.insert(7, 70);
                let snap = Snapshottable::snapshot(&m);
                assert_eq!(MapSnapshot::len(&snap), 1, "[{name}]");
                assert_eq!(MapSnapshot::get(&snap, &7), Some(&70), "[{name}]");
                self.0.push(name.to_string());
            }
        }
        let mut d = Count(Vec::new());
        for_each_map_backend(&mut d);
        assert_eq!(d.0, ["treap_map", "sharded_map_1", "sharded_map_8"]);

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
