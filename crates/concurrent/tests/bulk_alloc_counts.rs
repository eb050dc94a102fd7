//! Count gates for the bulk writes: a batch allocates exactly the nodes
//! its new version does not share with the old one, a sorted build
//! allocates one node per key, and a batch that changes nothing
//! allocates nothing and installs nothing. The set, `TreapMap<K, ()>`
//! through `ConcurrentSet`, is held to the same counts one key at a time.
//!
//! Counts, not timings: `pool::stats().blocks_handed_out` is exact for
//! the calling thread, and the tests take turns so no other test's
//! allocations land between two readings.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pathcopy_concurrent::{BatchOp, TreapMap};
use pathcopy_core::{pool, ConcurrentSet};
use pathcopy_trees::hash::splitmix64;
use pathcopy_trees::{sharing_stats, TreapMap as PTreapMap};

fn take_turns() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pool blocks `f` hands out on this thread.
fn blocks_handed_out<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = pool::stats().blocks_handed_out;
    let out = f();
    (out, pool::stats().blocks_handed_out - before)
}

/// A map of the even keys `0, 2, .., 2^16 - 2`.
fn prefilled() -> TreapMap<u64, u64> {
    (0..1u64 << 15).map(|k| (2 * k, k)).collect()
}

#[test]
fn a_batch_hands_out_exactly_its_fresh_nodes() {
    let _turn = take_turns();
    let map = prefilled();
    let mut x = 42u64;
    let mut next = || {
        x = splitmix64(x);
        x
    };
    for len in [16usize, 100, 979] {
        // Inserts of absent and present keys, removes of present and
        // absent keys, and updates next to removed keys, so removals
        // merge subtrees the same batch changed.
        let batch: Vec<BatchOp<u64, u64>> = (0..len)
            .map(|_| {
                let key = next() % (1 << 16);
                match next() % 4 {
                    0 => BatchOp::Remove(key),
                    1 => BatchOp::Remove(key & !1),
                    2 => BatchOp::Insert(key ^ 2, next() % 3),
                    _ => BatchOp::Insert(key, next()),
                }
            })
            .collect();
        let old = map.snapshot();
        let (_, handed_out) = blocks_handed_out(|| map.transact(&batch));
        let new = map.snapshot();
        new.check_invariants();
        let fresh = sharing_stats::<PTreapMap<u64, u64>>(&old, &new).fresh;
        assert!(fresh > 0, "a {len}-op batch changed nothing");
        assert_eq!(
            handed_out, fresh as u64,
            "a {len}-op batch handed out {handed_out} blocks for {fresh} fresh nodes"
        );
    }
}

#[test]
fn a_sorted_build_hands_out_one_block_per_key() {
    let _turn = take_turns();
    for n in [0u64, 1, 1000, 1 << 17] {
        let (map, handed_out) =
            blocks_handed_out(|| (0..n).map(|k| (k, k)).collect::<PTreapMap<u64, u64>>());
        assert_eq!(map.check_invariants() as u64, n);
        assert_eq!(handed_out, n, "from_iter of {n} sorted keys");
    }
}

#[test]
fn a_batch_of_equal_value_inserts_hands_out_nothing_and_installs_nothing() {
    let _turn = take_turns();
    let map = prefilled();
    let batch: Vec<BatchOp<u64, u64>> = (0..100u64)
        .map(|i| BatchOp::Insert(2 * (i * 331 % (1 << 15)), i * 331 % (1 << 15)))
        .collect();
    let old = map.snapshot();
    let noops = map.stats().snapshot().noop_updates;
    let (_, handed_out) = blocks_handed_out(|| map.transact(&batch));
    assert_eq!(handed_out, 0);
    assert!(
        std::ptr::eq::<PTreapMap<u64, u64>>(&*old, &*map.snapshot()),
        "the root was replaced"
    );
    assert_eq!(map.stats().snapshot().noop_updates, noops + 1);
}

/// A set of the odd keys `1, 3, .., 2^16 - 1`.
fn prefilled_set() -> TreapMap<i64, ()> {
    (0..1i64 << 15).map(|k| (2 * k + 1, ())).collect()
}

#[test]
fn a_set_noop_hands_out_nothing_and_keeps_the_root() {
    let _turn = take_turns();
    let set = prefilled_set();
    for (what, insert, key) in [
        ("a present-key insert", true, 4097),
        ("an absent-key remove", false, 4096),
    ] {
        let old = set.snapshot();
        let noops = set.stats().snapshot().noop_updates;
        let (changed, handed_out) = blocks_handed_out(|| {
            if insert {
                ConcurrentSet::insert(&set, key)
            } else {
                ConcurrentSet::remove(&set, &key)
            }
        });
        assert!(!changed, "{what} changed the set");
        assert_eq!(handed_out, 0, "{what} handed out blocks");
        assert!(
            Arc::ptr_eq(old.as_inner(), set.snapshot().as_inner()),
            "{what} replaced the root"
        );
        assert_eq!(set.stats().snapshot().noop_updates, noops + 1, "{what}");
    }
}

#[test]
fn a_set_insert_hands_out_exactly_its_fresh_nodes() {
    let _turn = take_turns();
    let set = prefilled_set();
    // Absent keys: inside the range, past both ends, and next to the
    // keys the earlier inserts added.
    for key in [4096, 0, -7, 1 << 16, 4098, 30_000] {
        let old = set.snapshot();
        let (inserted, handed_out) = blocks_handed_out(|| ConcurrentSet::insert(&set, key));
        assert!(inserted, "{key} was present");
        let fresh = sharing_stats::<PTreapMap<i64, ()>>(&old, &set.snapshot()).fresh;
        assert!(fresh > 0);
        assert_eq!(
            handed_out, fresh as u64,
            "inserting {key} handed out {handed_out} blocks for {fresh} fresh nodes"
        );
    }
}
