//! Linearizability of cross-shard batch transactions.
//!
//! The contract under test: a `transact` batch is ONE atomic operation,
//! however many shards it spans. No concurrent reader, per-key writer,
//! or `snapshot_all()` may ever observe a partially applied batch; and
//! single-shard batches must commit through the plain lock-free CAS
//! loop (observable via the UC stats counters), never the freeze hook.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;

use proptest::prelude::*;

use path_copying::prelude::{BatchOp, BatchResult, ShardedTreapMap};

/// The acceptance invariant, full strength: a writer commits "transfer"
/// batches that keep an invariant (all keys equal) while readers take
/// `snapshot_all()` cuts, per-key reads and multi-key `transact` reads.
/// A torn batch shows up as two keys with different values in one cut.
#[test]
fn snapshot_all_never_observes_a_torn_batch() {
    // 12 keys over 16 shards: the batch spans many shards with
    // overwhelming probability.
    const KEYS: u64 = 12;
    const ROUNDS: u64 = 3_000;

    let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(16);
    m.transact(&(0..KEYS).map(|k| BatchOp::Insert(k, 0)).collect::<Vec<_>>());

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let m_ref = &m;
        let done_ref = &done;
        s.spawn(move || {
            for r in 1..=ROUNDS {
                let batch: Vec<_> = (0..KEYS).map(|k| BatchOp::Insert(k, r)).collect();
                m_ref.transact(&batch);
            }
            done_ref.store(true, Relaxed);
        });

        // Reader 1: coherent cuts must always see all keys at the same
        // round.
        s.spawn(move || {
            let mut cuts = 0u64;
            while !done_ref.load(Relaxed) {
                let snap = m_ref.snapshot_all();
                let values: Vec<u64> = (0..KEYS).map(|k| *snap.get(&k).unwrap()).collect();
                assert!(
                    values.windows(2).all(|w| w[0] == w[1]),
                    "torn batch in snapshot_all: {values:?}"
                );
                cuts += 1;
            }
            assert!(cuts > 0, "reader never completed a cut");
        });

        // Reader 2: per-key reads in key order. Batches write all keys to
        // the same round, so a later-read key may only be *ahead* of an
        // earlier-read one (time moved forward), never behind it.
        s.spawn(move || {
            while !done_ref.load(Relaxed) {
                let mut last = 0u64;
                for k in 0..KEYS {
                    let v = m_ref.get(&k).unwrap();
                    assert!(
                        v >= last,
                        "torn batch seen by per-key reads: key {k} at round {v} \
                         after an earlier key at round {last}"
                    );
                    last = v;
                }
            }
        });

        // Reader 3: a read-only batch of the whole block is one
        // linearizable read, so it sees every key at the same round.
        s.spawn(move || {
            let gets: Vec<_> = (0..KEYS).map(BatchOp::Get).collect();
            while !done_ref.load(Relaxed) {
                let values = m_ref.transact(&gets);
                assert!(
                    values.windows(2).all(|w| w[0] == w[1]),
                    "torn batch seen by a multi-key transact read: {values:?}"
                );
            }
        });
    });

    let snap = m.snapshot_all();
    for k in 0..KEYS {
        assert_eq!(*snap.get(&k).unwrap(), ROUNDS);
    }
}

/// Single-shard batches must take the lock-free CAS-on-root path: no
/// frozen installs, exactly one CAS-loop op per batch. Multi-shard
/// batches must go through the freeze hook.
#[test]
fn single_shard_batches_stay_on_the_cas_path() {
    // A 1-shard map makes every batch single-shard by construction.
    let single: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(1);
    for b in 0..10u64 {
        single.transact(&[
            BatchOp::Insert(b, b),
            BatchOp::Get(b),
            BatchOp::Remove(b + 100),
        ]);
    }
    let stats = single.stats_snapshot();
    assert_eq!(
        stats.frozen_installs, 0,
        "single-shard batch used the freeze hook"
    );
    assert_eq!(stats.ops, 10, "each single-shard batch is one CAS-loop op");

    // The same batches on a 16-shard map span shards and must freeze.
    let sharded: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(16);
    let batch: Vec<_> = (0..32).map(|k| BatchOp::Insert(k, k)).collect();
    sharded.transact(&batch);
    assert!(
        sharded.stats_snapshot().frozen_installs >= 2,
        "multi-shard batch must install through the freeze hook"
    );
}

/// An operation against the sequential oracle.
#[derive(Debug, Clone)]
enum TxOp {
    Insert(u8, u16),
    Remove(u8),
    Get(u8),
    Cas(u8, Option<u16>, Option<u16>),
}

fn tx_batches() -> impl Strategy<Value = Vec<Vec<TxOp>>> {
    // Half the written values come from a 3-value range, so `Insert` and
    // `Cas` often store the value a key already holds (a no-op write).
    let value = || prop_oneof![any::<u16>(), 0u16..3];
    let op = prop_oneof![
        (any::<u8>(), value()).prop_map(|(k, v)| TxOp::Insert(k % 48, v)),
        any::<u8>().prop_map(|k| TxOp::Remove(k % 48)),
        any::<u8>().prop_map(|k| TxOp::Get(k % 48)),
        (any::<u8>(), any::<(bool, u16)>(), (any::<bool>(), value())).prop_map(|(k, e, n)| {
            TxOp::Cas(k % 48, e.0.then_some(e.1 % 4), n.0.then_some(n.1))
        }),
    ];
    prop::collection::vec(prop::collection::vec(op, 1..12), 1..24)
}

fn to_batch(ops: &[TxOp]) -> Vec<BatchOp<u8, u16>> {
    ops.iter()
        .map(|op| match *op {
            TxOp::Insert(k, v) => BatchOp::Insert(k, v),
            TxOp::Remove(k) => BatchOp::Remove(k),
            TxOp::Get(k) => BatchOp::Get(k),
            TxOp::Cas(k, expected, new) => BatchOp::Cas {
                key: k,
                expected,
                new,
            },
        })
        .collect()
}

/// Applies one batch to the locked `BTreeMap` oracle, returning expected
/// results.
fn oracle_apply(model: &mut BTreeMap<u8, u16>, ops: &[TxOp]) -> Vec<BatchResult<u16>> {
    ops.iter()
        .map(|op| match *op {
            TxOp::Insert(k, v) => BatchResult::Inserted(model.insert(k, v)),
            TxOp::Remove(k) => BatchResult::Removed(model.remove(&k)),
            TxOp::Get(k) => BatchResult::Got(model.get(&k).copied()),
            TxOp::Cas(k, ref expected, ref new) => {
                if model.get(&k) == expected.as_ref() {
                    match new {
                        Some(v) => {
                            model.insert(k, *v);
                        }
                        None => {
                            model.remove(&k);
                        }
                    }
                    BatchResult::Cas(true)
                } else {
                    BatchResult::Cas(false)
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequentially, `transact` must agree op-for-op with a `BTreeMap`
    /// oracle, including in-batch ordering and Cas semantics, across
    /// shard counts (1 shard = pure CAS path, 16 = mostly freeze path).
    #[test]
    fn transact_matches_btreemap_oracle(batches in tx_batches(), shards in prop_oneof![Just(1usize), Just(4), Just(16)]) {
        let m: ShardedTreapMap<u8, u16> = ShardedTreapMap::with_shards(shards);
        let mut model = BTreeMap::new();
        for ops in &batches {
            let got = m.transact(&to_batch(ops));
            let want = oracle_apply(&mut model, ops);
            prop_assert_eq!(got, want);
        }
        // Final contents agree exactly.
        let snap = m.snapshot_all();
        prop_assert_eq!(snap.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(snap.get(k), Some(v));
        }
    }

    /// Concurrently, batches interleaved with per-key ops and
    /// `snapshot_all` must produce a history where (a) every batch is
    /// atomic against every snapshot and (b) the committed final state
    /// replays against the locked oracle in commit order.
    #[test]
    fn concurrent_batches_linearize_against_locked_oracle(seed in any::<u64>()) {
        // Disjoint key ranges per thread so the sequential outcome is
        // deterministic and directly checkable; atomicity is checked by
        // the snapshot thread via a per-thread "all keys equal" invariant.
        const THREADS: u64 = 3;
        const KEYS_PER_THREAD: u64 = 8;
        const ROUNDS: u64 = 150;

        let m: ShardedTreapMap<u64, u64> = ShardedTreapMap::with_shards(8);
        let oracle: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
        let done = AtomicBool::new(false);

        std::thread::scope(|s| {
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let m = &m;
                    let oracle = &oracle;
                    s.spawn(move || {
                        let base = t * 1000;
                        let mut x = seed ^ (t + 1).wrapping_mul(0x9e3779b97f4a7c15);
                        for r in 1..=ROUNDS {
                            x = path_copying::pathcopy_trees::hash::splitmix64(x);
                            if x % 4 == 0 {
                                // Per-key op on the thread's scratch key
                                // (outside the batch block, so the
                                // all-keys-equal invariant is untouched).
                                m.insert(base + 999, r);
                                oracle.lock().unwrap().insert(base + 999, r);
                            } else {
                                let batch: Vec<_> = (0..KEYS_PER_THREAD)
                                    .map(|k| BatchOp::Insert(base + k, r))
                                    .collect();
                                m.transact(&batch);
                                let mut o = oracle.lock().unwrap();
                                for k in 0..KEYS_PER_THREAD {
                                    o.insert(base + k, r);
                                }
                            }
                        }
                    })
                })
                .collect();
            let m = &m;
            let done_ref = &done;
            let checker = s.spawn(move || {
                let mut cuts = 0u64;
                // Check-then-test ordering guarantees at least one cut
                // even when the writers outrun the checker's first
                // schedule slot on a loaded single-core machine — the
                // final iteration runs against the quiesced map.
                loop {
                    let finished = done_ref.load(Relaxed);
                    let snap = m.snapshot_all();
                    for t in 0..THREADS {
                        let base = t * 1000;
                        let vals: Vec<Option<u64>> = (0..KEYS_PER_THREAD)
                            .map(|k| snap.get(&(base + k)).copied())
                            .collect();
                        assert!(
                            vals.windows(2).all(|w| w[0] == w[1]),
                            "torn batch for thread {t}: {vals:?}"
                        );
                    }
                    cuts += 1;
                    if finished {
                        break;
                    }
                }
                cuts
            });
            for w in writers {
                w.join().expect("writer panicked");
            }
            done.store(true, Relaxed);
            let cuts = checker.join().expect("checker panicked");
            assert!(cuts > 0, "checker never completed a cut");
        });

        // Quiescent: the map must equal the oracle (writers' key ranges
        // are disjoint, so last-writer-per-range is deterministic).
        let snap = m.snapshot_all();
        let model = oracle.into_inner().unwrap();
        prop_assert_eq!(snap.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(snap.get(k), Some(v), "key {}", k);
        }
    }
}
