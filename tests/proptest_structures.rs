//! Property-based tests: the two persistent trees — the treap and the
//! external BST — must behave exactly like their std reference models
//! under arbitrary operation sequences, keep old versions intact
//! (persistence), and respect their structural invariants and the
//! path-copying sharing bound; the sharded map must behave like one big
//! map.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use path_copying::pathcopy_trees::{sharing, ExternalBstSet, TreapMap};
use path_copying::prelude::ShardedTreapMap;

/// An operation on a keyed map/set.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(i16, i16),
    Remove(i16),
    Query(i16),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    // Half the inserted values come from a 3-value range, so a key is
    // often rewritten with the value it already holds (the no-op insert).
    let value = prop_oneof![any::<i16>(), 0i16..3];
    prop::collection::vec(
        prop_oneof![
            (any::<i16>(), value).prop_map(|(k, v)| MapOp::Insert(k % 64, v)),
            any::<i16>().prop_map(|k| MapOp::Remove(k % 64)),
            any::<i16>().prop_map(|k| MapOp::Query(k % 64)),
        ],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn treap_matches_btreemap(ops in map_ops()) {
        let mut reference = BTreeMap::new();
        let mut m: TreapMap<i16, i16> = TreapMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let (nm, old) = m.insert(k, v);
                    prop_assert_eq!(old, reference.insert(k, v));
                    m = nm;
                }
                MapOp::Remove(k) => match (m.remove(&k), reference.remove(&k)) {
                    (None, None) => {}
                    (Some((nm, got)), Some(want)) => {
                        prop_assert_eq!(got, want);
                        m = nm;
                    }
                    other => prop_assert!(false, "remove mismatch: {:?}", other.1),
                },
                MapOp::Query(k) => {
                    prop_assert_eq!(m.get(&k), reference.get(&k));
                }
            }
        }
        m.check_invariants();
        prop_assert!(m.iter().map(|(k, v)| (*k, *v)).eq(reference.into_iter()));
    }

    #[test]
    fn external_bst_matches_btreeset(ops in map_ops()) {
        let mut reference = BTreeSet::new();
        let mut s: ExternalBstSet<i16> = ExternalBstSet::new();
        for op in ops {
            match op {
                MapOp::Insert(k, _) => match s.insert(k) {
                    Some(next) => {
                        prop_assert!(reference.insert(k));
                        s = next;
                    }
                    None => prop_assert!(!reference.insert(k)),
                },
                MapOp::Remove(k) => match s.remove(&k) {
                    Some(next) => {
                        prop_assert!(reference.remove(&k));
                        s = next;
                    }
                    None => prop_assert!(!reference.remove(&k)),
                },
                MapOp::Query(k) => prop_assert_eq!(s.contains(&k), reference.contains(&k)),
            }
        }
        s.check_invariants();
        prop_assert!(s.iter().copied().eq(reference.into_iter()));
    }

    #[test]
    fn persistence_snapshot_is_immutable(ops in map_ops(), cut in 0usize..120) {
        // Apply `ops`, snapshotting after `cut` operations; the snapshot
        // must be bit-for-bit identical afterwards.
        let mut m: TreapMap<i16, i16> = TreapMap::new();
        let mut snapshot = None;
        let mut snapshot_contents = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if i == cut {
                snapshot_contents = m.iter().map(|(k, v)| (*k, *v)).collect();
                snapshot = Some(m.clone());
            }
            match op {
                MapOp::Insert(k, v) => m = m.insert(*k, *v).0,
                MapOp::Remove(k) => {
                    if let Some((nm, _)) = m.remove(k) {
                        m = nm;
                    }
                }
                MapOp::Query(_) => {}
            }
        }
        if let Some(snap) = snapshot {
            prop_assert!(snap.iter().map(|(k, v)| (*k, *v)).eq(snapshot_contents.into_iter()));
        }
    }

    #[test]
    fn sharing_bound_holds_per_update(keys in prop::collection::btree_set(any::<i16>(), 16..200), new_key in any::<i16>()) {
        // One insert must allocate O(path), never O(n).
        let m: TreapMap<i32, ()> = keys.iter().map(|&k| (k as i32, ())).collect();
        let height = m.height();
        let (m2, _) = m.insert(i32::from(new_key), ());
        let stats = sharing::sharing_stats(&m, &m2);
        prop_assert!(
            stats.fresh <= 2 * height + 2,
            "fresh {} > bound {} (n = {})",
            stats.fresh,
            2 * height + 2,
            m.len()
        );
    }

    #[test]
    fn treap_rank_select_consistent(keys in prop::collection::btree_set(any::<i16>(), 0..100)) {
        let m: TreapMap<i16, ()> = keys.iter().map(|&k| (k, ())).collect();
        for (rank, &k) in keys.iter().enumerate() {
            prop_assert_eq!(m.select(rank).map(|(key, _)| *key), Some(k));
            prop_assert_eq!(m.rank(&k), rank);
        }
        prop_assert_eq!(m.select(keys.len()), None);
    }

    #[test]
    fn sharded_treap_map_matches_btreemap(ops in map_ops(), shards_log2 in 0u32..6) {
        // The sharded front-end must behave exactly like one big map, for
        // every shard count (1 shard = the paper's single-root UC).
        let mut reference = BTreeMap::new();
        let m: ShardedTreapMap<i16, i16> = ShardedTreapMap::with_shards(1 << shards_log2);
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(m.insert(k, v), reference.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(m.remove(&k), reference.remove(&k));
                }
                MapOp::Query(k) => {
                    prop_assert_eq!(m.get(&k), reference.get(&k).copied());
                    prop_assert_eq!(m.contains_key(&k), reference.contains_key(&k));
                }
            }
            prop_assert_eq!(m.len(), reference.len());
        }
        let snap = m.snapshot_all();
        prop_assert_eq!(snap.len(), reference.len());
        prop_assert!(snap.to_sorted_vec().into_iter().eq(reference.into_iter()));
    }

    #[test]
    fn sharded_snapshot_is_immutable(ops in map_ops(), cut in 0usize..120) {
        // snapshot_all() taken mid-stream must be bit-for-bit identical
        // after arbitrary further updates (persistence across shards).
        let m: ShardedTreapMap<i16, i16> = ShardedTreapMap::with_shards(8);
        let mut snapshot = None;
        let mut snapshot_contents = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if i == cut {
                let snap = m.snapshot_all();
                snapshot_contents = snap.to_sorted_vec();
                snapshot = Some(snap);
            }
            match op {
                MapOp::Insert(k, v) => {
                    m.insert(*k, *v);
                }
                MapOp::Remove(k) => {
                    m.remove(k);
                }
                MapOp::Query(_) => {}
            }
        }
        if let Some(snap) = snapshot {
            prop_assert_eq!(snap.to_sorted_vec(), snapshot_contents);
        }
    }

    #[test]
    fn treap_split_join_roundtrip(keys in prop::collection::btree_set(any::<i16>(), 0..100), pivot in any::<i16>()) {
        let m: TreapMap<i16, i16> = keys.iter().map(|&k| (k, k)).collect();
        let (l, mid, r) = m.split(&pivot);
        l.check_invariants();
        r.check_invariants();
        prop_assert_eq!(mid.is_some(), keys.contains(&pivot));
        prop_assert!(l.keys().all(|k| *k < pivot));
        prop_assert!(r.keys().all(|k| *k > pivot));
        let joined = l.join(&r);
        joined.check_invariants();
        let mut expect = keys.clone();
        expect.remove(&pivot);
        prop_assert!(joined.keys().copied().eq(expect.into_iter()));
    }
}
