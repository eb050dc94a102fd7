//! Backend-generic oracle tests for the unified trait family.
//!
//! One proptest body, `N` backends: the registry
//! ([`pathcopy_concurrent::registry`]) instantiates the generic driver
//! for every map and set backend, and each must match the `std` oracle
//! (`BTreeMap`/`BTreeSet`) on point ops, snapshot `iter()`, lazy
//! `range(..)`, and snapshot-to-snapshot `diff()`. Also asserts the
//! structural guarantees behind `diff`: the walk short-circuits on
//! shared subtrees (node-visit counter), and the sharded `len()` is a
//! weak estimate while the snapshot count is exact.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use path_copying::pathcopy_concurrent::registry::{
    for_each_map_backend, for_each_set_backend, MapBackendDriver, SetBackendDriver,
};
use path_copying::prelude::*;

/// `(insert?, key, value)` triples over a small key space so removes and
/// overwrites actually hit; half the values come from a 3-value range, so
/// overwrites with the value already held (no-op inserts) hit too.
fn ops_strategy() -> impl Strategy<Value = Vec<(bool, i64, i64)>> {
    let value = prop_oneof![-100i64..100, 0i64..3];
    prop::collection::vec((any::<bool>(), 0i64..64, value), 0..80)
}

/// The reference diff: same contract as `MapSnapshot::diff`.
fn btree_diff(old: &BTreeMap<i64, i64>, new: &BTreeMap<i64, i64>) -> Vec<DiffEntry<i64, i64>> {
    let keys: BTreeSet<i64> = old.keys().chain(new.keys()).copied().collect();
    let mut out = Vec::new();
    for k in keys {
        match (old.get(&k), new.get(&k)) {
            (Some(a), None) => out.push(DiffEntry::Removed(k, *a)),
            (None, Some(b)) => out.push(DiffEntry::Added(k, *b)),
            (Some(a), Some(b)) if a != b => out.push(DiffEntry::Changed(k, *a, *b)),
            _ => {}
        }
    }
    out
}

struct MapOracle {
    ops: Vec<(bool, i64, i64)>,
    cut: usize,
    lo: i64,
    hi: i64,
}

impl MapBackendDriver for MapOracle {
    fn drive<M>(&mut self, name: &str, make: fn() -> M)
    where
        M: ConcurrentMap<i64, i64> + Snapshottable,
        M::Snapshot: MapSnapshot<i64, i64>,
    {
        let m = make();
        let mut reference = BTreeMap::new();
        let mut at_cut = None;
        for (i, &(ins, k, v)) in self.ops.iter().enumerate() {
            if i == self.cut {
                at_cut = Some((Snapshottable::snapshot(&m), reference.clone()));
            }
            if ins {
                assert_eq!(
                    m.insert(k, v),
                    reference.insert(k, v),
                    "[{name}] insert({k})"
                );
            } else {
                assert_eq!(m.remove(&k), reference.remove(&k), "[{name}] remove({k})");
            }
        }
        assert_eq!(m.len(), reference.len(), "[{name}] len at quiescence");

        let snap = Snapshottable::snapshot(&m);
        assert_eq!(
            MapSnapshot::len(&snap),
            reference.len(),
            "[{name}] snap len"
        );

        // Lazy full iteration matches the oracle, in order.
        let got: Vec<(i64, i64)> = snap.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i64, i64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "[{name}] snapshot iter");

        // Lazy range iteration matches the oracle over an arbitrary window.
        let (lo, hi) = (self.lo.min(self.hi), self.lo.max(self.hi));
        let got: Vec<(i64, i64)> = snap.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i64, i64)> = reference.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "[{name}] snapshot range({lo}..={hi})");
        let got: Vec<i64> = snap.range(lo..hi).map(|(k, _)| *k).collect();
        let want: Vec<i64> = reference.range(lo..hi).map(|(k, _)| *k).collect();
        assert_eq!(got, want, "[{name}] snapshot half-open range");

        // Point reads on the snapshot.
        for k in [lo, hi, 0, 63] {
            assert_eq!(snap.get(&k), reference.get(&k), "[{name}] snap get({k})");
            assert_eq!(
                snap.contains_key(&k),
                reference.contains_key(&k),
                "[{name}] snap contains({k})"
            );
        }

        // Diff between the mid-stream snapshot and the final one.
        if let Some((before, before_ref)) = at_cut {
            assert_eq!(
                before.diff(&snap),
                btree_diff(&before_ref, &reference),
                "[{name}] snapshot diff"
            );
        }
        // A snapshot diffed against itself is empty.
        assert!(snap.diff(&snap).is_empty(), "[{name}] self diff");
    }
}

struct SetOracle {
    ops: Vec<(bool, i64, i64)>,
    cut: usize,
    lo: i64,
    hi: i64,
}

impl SetBackendDriver for SetOracle {
    fn drive<S>(&mut self, name: &str, make: fn() -> S)
    where
        S: ConcurrentSet<i64> + Snapshottable,
        S::Snapshot: SetSnapshot<i64>,
    {
        let s = make();
        let mut reference = BTreeSet::new();
        let mut at_cut = None;
        for (i, &(ins, k, _)) in self.ops.iter().enumerate() {
            if i == self.cut {
                at_cut = Some((Snapshottable::snapshot(&s), reference.clone()));
            }
            if ins {
                assert_eq!(s.insert(k), reference.insert(k), "[{name}] insert({k})");
            } else {
                assert_eq!(s.remove(&k), reference.remove(&k), "[{name}] remove({k})");
            }
        }
        assert_eq!(s.len(), reference.len(), "[{name}] len at quiescence");

        let snap = Snapshottable::snapshot(&s);
        assert_eq!(
            SetSnapshot::len(&snap),
            reference.len(),
            "[{name}] snap len"
        );
        assert!(
            snap.iter().copied().eq(reference.iter().copied()),
            "[{name}] snap iter"
        );

        let (lo, hi) = (self.lo.min(self.hi), self.lo.max(self.hi));
        let got: Vec<i64> = snap.range(lo..=hi).copied().collect();
        let want: Vec<i64> = reference.range(lo..=hi).copied().collect();
        assert_eq!(got, want, "[{name}] snap range({lo}..={hi})");

        if let Some((before, before_ref)) = at_cut {
            let want: Vec<SetDiffEntry<i64>> = {
                let keys: BTreeSet<i64> = before_ref.union(&reference).copied().collect();
                keys.into_iter()
                    .filter_map(
                        |k| match (before_ref.contains(&k), reference.contains(&k)) {
                            (true, false) => Some(SetDiffEntry::Removed(k)),
                            (false, true) => Some(SetDiffEntry::Added(k)),
                            _ => None,
                        },
                    )
                    .collect()
            };
            assert_eq!(before.diff(&snap), want, "[{name}] snapshot diff");
        }
        assert!(snap.diff(&snap).is_empty(), "[{name}] self diff");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_map_backend_matches_btreemap(
        ops in ops_strategy(),
        cut in 0usize..80,
        lo in 0i64..64,
        hi in 0i64..64,
    ) {
        for_each_map_backend(&mut MapOracle { ops, cut, lo, hi });
    }

    #[test]
    fn every_set_backend_matches_btreeset(
        ops in ops_strategy(),
        cut in 0usize..80,
        lo in 0i64..64,
        hi in 0i64..64,
    ) {
        for_each_set_backend(&mut SetOracle { ops, cut, lo, hi });
    }
}

/// Std-trait parity: the concurrent structures drop into generic code
/// like `std` collections — `FromIterator`, `Extend`, `Debug`, `Default`,
/// and `IntoIterator` on their snapshots (both owned and by-ref forms).
#[test]
fn std_trait_parity_for_concurrent_structures() {
    // FromIterator + Debug + Default.
    let m: TreapMap<i64, i64> = (0..5).map(|k| (k, k * 10)).collect();
    assert_eq!(format!("{m:?}"), "{0: 0, 1: 10, 2: 20, 3: 30, 4: 40}");
    assert!(TreapMap::<i64, i64>::default().is_empty());

    let sm: ShardedTreapMap<i64, i64> = (0..5).map(|k| (k, k)).collect();
    assert_eq!(format!("{sm:?}"), "{0: 0, 1: 1, 2: 2, 3: 3, 4: 4}");
    assert!(ShardedTreapMap::<i64, i64>::default().is_empty());

    let ts: TreapSet<i64> = (0..4).collect();
    assert_eq!(format!("{ts:?}"), "{0, 1, 2, 3}");

    // Extend.
    let mut m2 = m;
    m2.extend([(9, 90), (0, -1)]);
    assert_eq!(m2.get(&9), Some(90));
    assert_eq!(m2.get(&0), Some(-1));
    let mut sm = sm;
    sm.extend([(9, 9), (10, 10)]);
    assert_eq!(sm.len(), 7);

    // IntoIterator on snapshots: by-ref borrows lazily, owned clones out.
    let snap = m2.snapshot();
    let by_ref: Vec<(i64, i64)> = (&snap).into_iter().map(|(k, v)| (*k, *v)).collect();
    let owned: Vec<(i64, i64)> = snap.clone().into_iter().collect();
    assert_eq!(by_ref, owned);
    assert!(owned.iter().map(|(k, _)| *k).eq([0, 1, 2, 3, 4, 9]));

    let sm_snap = sm.snapshot_all();
    let by_ref: Vec<(i64, i64)> = (&sm_snap).into_iter().map(|(k, v)| (*k, *v)).collect();
    let owned: Vec<(i64, i64)> = sm_snap.into_iter().collect();
    assert_eq!(
        by_ref, owned,
        "sharded snapshot iteration is merged in order"
    );
    assert!(owned.iter().map(|(k, _)| *k).eq([0, 1, 2, 3, 4, 9, 10]));

    // `for` loops work directly (the whole point of IntoIterator).
    let mut n = 0;
    for (_k, _v) in &m2.snapshot() {
        n += 1;
    }
    assert_eq!(n, 6);
}

/// The headline structural property: diffing two nearby versions of a
/// large map must *not* walk the whole tree — shared subtrees are pruned
/// by pointer equality, so the visit count stays near the boundary
/// paths. Asserted through the node-visit counter.
#[test]
fn diff_short_circuits_on_shared_subtrees() {
    const N: i64 = 20_000;
    const CHANGES: usize = 6;
    let v1: PersistentTreapMap<i64, i64> = (0..N).map(|k| (k, k)).collect();

    let (v2, _) = v1.insert(N + 1, -1); // added
    let (v2, _) = v2.insert(N / 2, -2); // changed
    let (v2, _) = v2.remove(&7).unwrap(); // removed
    let (v2, _) = v2.remove(&(N - 3)).unwrap(); // removed
    let (v2, _) = v2.insert(N + 9, -3); // added
    let (v2, _) = v2.insert(1, -4); // changed

    let (diff, visited) = v1.diff_counted(&v2);
    assert_eq!(
        diff,
        vec![
            DiffEntry::Changed(1, 1, -4),
            DiffEntry::Removed(7, 7),
            DiffEntry::Changed(N / 2, N / 2, -2),
            DiffEntry::Removed(N - 3, N - 3),
            DiffEntry::Added(N + 1, -1),
            DiffEntry::Added(N + 9, -3),
        ]
    );

    // Each change exposes at most a couple of root-to-key paths in each
    // version; everything else must be skipped. The bound is generous
    // (8 nodes of slack per path) yet far below the 20k tree size.
    let height = v1.height();
    let bound = 2 * (CHANGES + 1) * (height + 8);
    assert!(
        visited <= bound,
        "diff visited {visited} nodes, expected <= {bound} (height {height}, n {N})"
    );
    assert!(
        visited < (N as usize) / 8,
        "diff visited {visited} nodes of a {N}-node tree: not sublinear"
    );

    // Identical versions short-circuit at the root: zero visits.
    let (empty_diff, zero) = v2.diff_counted(&v2.clone());
    assert!(empty_diff.is_empty());
    assert_eq!(zero, 0);

    // Same property on the external BST (the paper's model tree). The
    // EBST has no rebalancing, so insert in hash-shuffled order — as the
    // paper's workloads do — to get the balanced-with-high-probability
    // shape (ascending order would build a depth-N spine).
    let e1: ExternalBstSet<i64> = {
        let mut keys: Vec<i64> = (0..N).collect();
        keys.sort_by_key(|&k| path_copying::pathcopy_trees::hash::splitmix64(k as u64));
        keys.into_iter().collect()
    };
    let e2 = e1.insert(N + 1).unwrap().remove(&7).unwrap();
    let (ediff, evisited) = e1.diff_counted(&e2);
    assert_eq!(
        ediff,
        vec![SetDiffEntry::Removed(7), SetDiffEntry::Added(N + 1)]
    );
    let ebound = 2 * 3 * (e1.height() + 8);
    assert!(
        evisited <= ebound,
        "ebst diff visited {evisited} nodes, expected <= {ebound}"
    );
}

/// `ShardedTreapMap::len()` is a per-shard sum — a weakly consistent
/// estimate under churn — while the snapshot count is exact. This pins
/// the documented distinction: with one writer atomically swapping keys
/// (constant true size), every coherent cut must count exactly `N`,
/// whereas the live sum is only required to stay near `N` and to be
/// exact at quiescence.
#[test]
fn sharded_len_is_weak_but_snapshot_len_is_exact() {
    const N: i64 = 256;
    const SWAPS: i64 = 4_000;

    let m: ShardedTreapMap<i64, ()> = ShardedTreapMap::with_shards(16);
    for k in 0..N {
        m.insert(k, ());
    }

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let m_ref = &m;
        let done_ref = &done;
        scope.spawn(move || {
            // Each transaction atomically removes one key and inserts a
            // fresh one (usually in a different shard): the true size
            // never changes, but a torn per-shard sum can see the pair
            // half-applied.
            for i in 0..SWAPS {
                let old = i % N;
                let new = N + i;
                m_ref.transact(&[BatchOp::Remove(old), BatchOp::Insert(new, ())]);
                m_ref.transact(&[BatchOp::Remove(new), BatchOp::Insert(old, ())]);
            }
            done_ref.store(true, std::sync::atomic::Ordering::Relaxed);
        });

        let mut cuts = 0u64;
        while !done.load(std::sync::atomic::Ordering::Relaxed) {
            // Exact: the coherent cut always counts the true size.
            assert_eq!(
                m.snapshot_all().len(),
                N as usize,
                "snapshot len must be exact"
            );
            // Weak: the live sum may tear, but its drift is provably
            // bounded by the shard count. Between a swap-out and its
            // swap-back the state differs from the initial one only in
            // that single key pair, and those windows are disjoint in
            // time (one writer). Each of the 16 per-shard reads happens
            // at one instant, which lands in at most one window and
            // contributes at most ±1 to the sum — so however the reader
            // is preempted, |live − N| ≤ shard_count.
            let live = m.len() as i64;
            let slack = m.shard_count() as i64;
            assert!(
                (N - slack..=N + slack).contains(&live),
                "live len {live} drifted beyond the provable ±{slack} bound around {N}"
            );
            cuts += 1;
        }
        assert!(cuts > 0, "reader never observed a cut");
    });

    // At quiescence the weak sum is exact again.
    assert_eq!(m.len(), N as usize);
    assert_eq!(m.snapshot_all().len(), m.len());
}
