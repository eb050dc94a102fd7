//! The backend registry: every concurrent structure, wired up **once**.
//!
//! Benches, oracle tests, and examples used to hand-wire each backend
//! separately; this module replaces that copy-paste with two access
//! styles over one list:
//!
//! * [`set_backends`] — `&dyn`-able constructors
//!   (`fn() -> Box<dyn ConcurrentSet<i64>>`) for harnesses that only
//!   need the point operations;
//! * [`for_each_map_backend`] / [`for_each_set_backend`] — a visitor
//!   ("driver") that is instantiated per backend with the concrete
//!   type, for code that also needs the [`Snapshottable`] machinery
//!   (snapshot `range`/`iter`/`diff`), which associated types keep out
//!   of `dyn` reach.
//!
//! Adding a backend here makes every registry-driven bench and oracle
//! test pick it up automatically.

use pathcopy_core::api::{ConcurrentMap, ConcurrentSet, MapSnapshot, SetSnapshot, Snapshottable};

use crate::{
    ExternalBstSet, LockedMap, LockedTreapSet, RwLockedTreapSet, ShardedTreapMap, ShardedTreapSet,
    TreapMap, TreapSet,
};

/// A named, `dyn`-able constructor for a set backend over `i64` keys.
pub struct SetBackend {
    /// Stable display name (also used as a bench id component).
    pub name: &'static str,
    /// Builds a fresh, empty instance.
    pub make: fn() -> Box<dyn ConcurrentSet<i64>>,
}

/// Every set backend, as `dyn` constructors (same list, same names, and
/// same order as [`for_each_set_backend`]).
pub fn set_backends() -> Vec<SetBackend> {
    vec![
        SetBackend {
            name: "treap_set",
            make: || Box::new(TreapSet::new()),
        },
        SetBackend {
            name: "sharded_set_8",
            make: || Box::new(ShardedTreapSet::with_shards(8)),
        },
        SetBackend {
            name: "ebst_set",
            make: || Box::new(ExternalBstSet::new()),
        },
        SetBackend {
            name: "mutex_treap_set",
            make: || Box::new(LockedTreapSet::new()),
        },
        SetBackend {
            name: "rwlock_treap_set",
            make: || Box::new(RwLockedTreapSet::new()),
        },
    ]
}

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

/// Runs `driver` over every map backend (lock-free single-root, sharded
/// at two shard counts, and the mutex baseline).
pub fn for_each_map_backend<D: MapBackendDriver>(driver: &mut D) {
    driver.drive("treap_map", TreapMap::new);
    driver.drive("sharded_map_1", || ShardedTreapMap::with_shards(1));
    driver.drive("sharded_map_8", || ShardedTreapMap::with_shards(8));
    driver.drive("locked_map", LockedMap::new);
}

/// Visitor instantiated once per snapshot-capable set backend; the set
/// counterpart of [`MapBackendDriver`].
pub trait SetBackendDriver {
    /// Called once per backend with its name and a constructor.
    fn drive<S>(&mut self, name: &str, make: fn() -> S)
    where
        S: ConcurrentSet<i64> + Snapshottable,
        S::Snapshot: SetSnapshot<i64>;
}

/// Runs `driver` over every snapshot-capable set backend.
pub fn for_each_set_backend<D: SetBackendDriver>(driver: &mut D) {
    driver.drive("treap_set", TreapSet::new);
    driver.drive("sharded_set_8", || ShardedTreapSet::with_shards(8));
    driver.drive("ebst_set", ExternalBstSet::new);
    driver.drive("mutex_treap_set", LockedTreapSet::new);
    driver.drive("rwlock_treap_set", RwLockedTreapSet::new);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyn_registry_backends_all_work() {
        for backend in set_backends() {
            let set = (backend.make)();
            assert!(set.insert(1), "[{}] first insert", backend.name);
            assert!(!set.insert(1), "[{}] duplicate insert", backend.name);
            assert!(set.contains(&1), "[{}] contains", backend.name);
            assert_eq!(set.len(), 1, "[{}] len", backend.name);
            assert!(set.remove(&1), "[{}] remove", backend.name);
            assert!(set.is_empty(), "[{}] empty", backend.name);
        }
    }

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
        assert_eq!(
            d.0,
            ["treap_map", "sharded_map_1", "sharded_map_8", "locked_map"]
        );

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
        assert_eq!(
            d.0,
            [
                "treap_set",
                "sharded_set_8",
                "ebst_set",
                "mutex_treap_set",
                "rwlock_treap_set"
            ]
        );
    }

    #[test]
    fn dyn_set_backends_match_the_visitor_list() {
        struct Names(Vec<String>);
        impl SetBackendDriver for Names {
            fn drive<S>(&mut self, name: &str, _make: fn() -> S)
            where
                S: ConcurrentSet<i64> + Snapshottable,
                S::Snapshot: SetSnapshot<i64>,
            {
                self.0.push(name.to_string());
            }
        }
        let mut visitor = Names(Vec::new());
        for_each_set_backend(&mut visitor);
        let dyn_names: Vec<String> = set_backends().iter().map(|b| b.name.to_string()).collect();
        assert_eq!(visitor.0, dyn_names);
    }
}
