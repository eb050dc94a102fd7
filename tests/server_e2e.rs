//! End-to-end serving-layer tests over real loopback sockets: a client
//! sees its own writes, named snapshots are immutable under concurrent
//! writers, diffs match a sequential oracle, and cross-shard batches —
//! including ones with failing `Cas` guards — are observed atomically
//! over the wire.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use path_copying::prelude::{BatchOp, BatchResult, DiffEntry};
use pathcopy_metrics::Stage;
use pathcopy_server::{backend, value_of, ServerConfig, ServerHandle, Session};

fn sharded_server() -> ServerHandle {
    pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("registered backend"),
        ServerConfig::with_workers(4),
    )
    .expect("bind ephemeral loopback port")
}

#[test]
fn client_sees_its_own_writes() {
    let server = sharded_server();
    let c = Session::connect(server.addr()).unwrap();
    for k in 0..100 {
        assert_eq!(c.insert(k, k * 2).unwrap(), None);
    }
    for k in 0..100 {
        assert_eq!(c.get(k).unwrap(), Some(k * 2));
    }
    assert_eq!(c.insert(7, 700).unwrap(), Some(14));
    assert_eq!(c.remove(7).unwrap(), Some(700));
    assert_eq!(c.get(7).unwrap(), None);
    assert!(c.cas(8, Some(16), Some(160)).unwrap());
    assert_eq!(c.get(8).unwrap(), Some(160));
    let (entries, complete) = c.range(None, 0..10, 0).unwrap();
    assert!(complete);
    assert_eq!(entries.iter().filter(|(k, _)| *k == 7).count(), 0);
    server.shutdown();
}

#[test]
fn named_snapshot_is_immutable_under_concurrent_writers() {
    let server = sharded_server();
    let addr = server.addr();
    let auditor = Session::connect(addr).unwrap();
    for k in 0..512 {
        auditor.insert(k, k).unwrap();
    }
    let snap = auditor.snapshot().unwrap();
    let (baseline, complete) = auditor.range(Some(snap), .., 0).unwrap();
    assert!(complete);
    assert_eq!(baseline.len(), 512);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let done_ref = &done;
        s.spawn(move || {
            // A rival connection mutating every key the snapshot covers.
            let writer = Session::connect(addr).unwrap();
            for round in 1..=4i64 {
                for k in 0..512 {
                    writer.insert(k, k + round * 1000).unwrap();
                }
            }
            for k in (0..512).step_by(2) {
                writer.remove(k).unwrap();
            }
            done_ref.store(true, Ordering::Release);
        });

        // While the writer churns, the pinned version must never move.
        let mut reads = 0u32;
        while !done.load(Ordering::Acquire) || reads < 3 {
            let (now, complete) = auditor.range(Some(snap), .., 0).unwrap();
            assert!(complete);
            assert_eq!(now, baseline, "pinned snapshot changed under writers");
            reads += 1;
        }
    });

    // After the writer finishes, a snapshot-to-now diff must match the
    // sequential oracle exactly.
    let old_state: BTreeMap<i64, i64> = baseline.iter().copied().collect();
    let new_state: BTreeMap<i64, i64> = {
        let (entries, complete) = auditor.range(None, .., 0).unwrap();
        assert!(complete);
        entries.into_iter().collect()
    };
    let mut expected = Vec::new();
    for (&k, &v) in &old_state {
        match new_state.get(&k) {
            None => expected.push(DiffEntry::Removed(k, v)),
            Some(&nv) if nv != v => expected.push(DiffEntry::Changed(k, v, nv)),
            Some(_) => {}
        }
    }
    for (&k, &v) in &new_state {
        if !old_state.contains_key(&k) {
            expected.push(DiffEntry::Added(k, v));
        }
    }
    expected.sort_by_key(|e| *e.key());
    let diff = auditor.diff(snap, None).unwrap();
    assert_eq!(diff, expected, "wire diff must match the oracle");

    assert!(auditor.release(snap).unwrap());
    server.shutdown();
}

#[test]
fn cross_shard_batches_are_all_or_nothing_over_the_wire() {
    let server = sharded_server();
    let addr = server.addr();

    // 64 account pairs: (2k, 2k+1) always sum to zero. Pairs certainly
    // span shards (128 keys over 8 shards), so the writer's batches take
    // the cross-shard freeze/install path.
    const PAIRS: i64 = 64;
    let setup = Session::connect(addr).unwrap();
    let init: Vec<BatchOp<i64, i64>> = (0..PAIRS * 2).map(|k| BatchOp::Insert(k, 0)).collect();
    setup.batch(&init).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let done_ref = &done;
        s.spawn(move || {
            let writer = Session::connect(addr).unwrap();
            for round in 1..=300i64 {
                let pair = (round % PAIRS) * 2;
                let r = writer
                    .batch(&[
                        BatchOp::Insert(pair, round),
                        BatchOp::Insert(pair + 1, -round),
                    ])
                    .unwrap();
                assert!(matches!(r[0], BatchResult::Inserted(_)));
            }
            done_ref.store(true, Ordering::Release);
        });

        let auditor = Session::connect(addr).unwrap();
        let mut audits = 0u32;
        while !done.load(Ordering::Acquire) || audits < 3 {
            // A fresh coherent snapshot scanned over the wire: every
            // pair must sum to zero — a torn batch would break this.
            let (entries, complete) = auditor.range(None, .., 0).unwrap();
            assert!(complete);
            assert_eq!(entries.len(), (PAIRS * 2) as usize);
            for pair in entries.chunks(2) {
                let [(ka, va), (kb, vb)] = pair else {
                    panic!("odd chunk")
                };
                assert_eq!(*kb, ka + 1, "pair keys adjacent");
                assert_eq!(
                    va + vb,
                    0,
                    "torn batch observed over the wire: {ka}->{va}, {kb}->{vb}"
                );
            }
            // The read-only multi-key path must agree, too.
            let probe = (audits as i64 % PAIRS) * 2;
            let r = auditor
                .batch(&[BatchOp::Get(probe), BatchOp::Get(probe + 1)])
                .unwrap();
            let (BatchResult::Got(Some(a)), BatchResult::Got(Some(b))) = (&r[0], &r[1]) else {
                panic!("both accounts must exist: {r:?}")
            };
            assert_eq!(a + b, 0, "read-only batch saw a torn pair");
            audits += 1;
        }
    });
    server.shutdown();
}

#[test]
fn failing_cas_guard_in_a_batch_is_observed_atomically() {
    let server = sharded_server();
    let addr = server.addr();
    let c = Session::connect(addr).unwrap();
    c.insert(1, 10).unwrap();

    // A cross-shard batch whose Cas guard fails: the Cas reports false
    // and writes nothing, while the rest of the batch still commits as
    // one atomic flip (transact semantics: a failed Cas does not abort).
    let keys: Vec<i64> = (100..132).collect();
    let mut batch = vec![BatchOp::Cas {
        key: 1,
        expected: Some(999), // wrong guard
        new: Some(11),
    }];
    batch.extend(keys.iter().map(|&k| BatchOp::Insert(k, k)));
    let r = c.batch(&batch).unwrap();
    assert_eq!(r[0], BatchResult::Cas(false));
    assert_eq!(c.get(1).unwrap(), Some(10), "failed guard wrote nothing");

    // Concurrent auditors must see the insert side all-or-nothing: after
    // the batch response, every key is visible in one coherent cut.
    let (entries, complete) = c.range(None, 100..132, 0).unwrap();
    assert!(complete);
    assert_eq!(entries.len(), keys.len(), "batch landed in full");

    // And under concurrency: guarded toggles whose guard alternates
    // between matching and failing, audited for atomicity.
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let done_ref = &done;
        s.spawn(move || {
            let writer = Session::connect(addr).unwrap();
            let mut guard_val = 10;
            for round in 0..200i64 {
                let wrong_guard = round % 2 == 1;
                let expected = if wrong_guard {
                    Some(-1)
                } else {
                    Some(guard_val)
                };
                let next = guard_val + 1;
                let r = writer
                    .batch(&[
                        BatchOp::Cas {
                            key: 1,
                            expected,
                            new: Some(next),
                        },
                        BatchOp::Insert(200, next),
                        BatchOp::Insert(201, -next),
                    ])
                    .unwrap();
                match r[0] {
                    BatchResult::Cas(true) => {
                        assert!(!wrong_guard, "wrong guard must not apply");
                        guard_val = next;
                    }
                    BatchResult::Cas(false) => assert!(wrong_guard, "right guard must apply"),
                    ref other => panic!("not a Cas result: {other:?}"),
                }
            }
            done_ref.store(true, Ordering::Release);
        });

        let auditor = Session::connect(addr).unwrap();
        let mut audits = 0u32;
        while !done.load(Ordering::Acquire) || audits < 3 {
            let r = auditor
                .batch(&[BatchOp::Get(200), BatchOp::Get(201)])
                .unwrap();
            if let (BatchResult::Got(Some(a)), BatchResult::Got(Some(b))) = (&r[0], &r[1]) {
                assert_eq!(a + b, 0, "torn guarded batch: {a} vs {b}");
            }
            audits += 1;
        }
    });
    server.shutdown();
}

#[test]
fn guarded_wire_batch_failed_guard_leaves_zero_partial_writes() {
    let server = sharded_server();
    let addr = server.addr();
    let c = Session::connect(addr).unwrap();
    c.insert(0, 0).unwrap(); // the guarded counter

    // Deterministic: a cross-shard guarded batch with a stale guard in
    // the middle aborts with no trace of the 32 rider inserts.
    let mut batch: Vec<BatchOp<i64, i64>> = (500..532).map(|k| BatchOp::Insert(k, k)).collect();
    batch.insert(
        16,
        BatchOp::Cas {
            key: 0,
            expected: Some(42), // stale
            new: Some(43),
        },
    );
    let failed = c.batch_guarded(&batch).unwrap().unwrap_err();
    assert_eq!(failed, vec![16]);
    let (leaked, complete) = c.range(None, 500..532, 0).unwrap();
    assert!(complete);
    assert!(leaked.is_empty(), "aborted batch leaked: {leaked:?}");
    assert_eq!(c.get(0).unwrap(), Some(0));

    // Concurrent: two writers race guarded increments, each commit
    // depositing a unique "rider" key; the guard makes exactly one
    // winner per counter value, so on ANY coherent cut the riders
    // present must be exactly {1001..=1000+counter} — a single leaked
    // write from an aborted batch, or a torn commit, breaks it.
    let writers_done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        let writers_done = &writers_done;
        for _ in 0..2 {
            s.spawn(move || {
                let writer = Session::connect(addr).unwrap();
                for _ in 0..150 {
                    let seen = writer.get(0).unwrap().unwrap();
                    let next = seen + 1;
                    match writer
                        .batch_guarded(&[
                            BatchOp::Cas {
                                key: 0,
                                expected: Some(seen),
                                new: Some(next),
                            },
                            BatchOp::Insert(1000 + next, next),
                        ])
                        .unwrap()
                    {
                        Ok(results) => assert_eq!(results[0], BatchResult::Cas(true)),
                        Err(failed) => assert_eq!(failed, vec![0]),
                    }
                }
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        s.spawn(move || {
            let auditor = Session::connect(addr).unwrap();
            let mut audits = 0u32;
            while writers_done.load(Ordering::Acquire) < 2 || audits < 3 {
                let (entries, complete) = auditor.range(None, .., 0).unwrap();
                assert!(complete);
                let counter = entries
                    .iter()
                    .find(|(k, _)| *k == 0)
                    .map(|(_, v)| *v)
                    .expect("counter exists");
                let riders: Vec<i64> = entries
                    .iter()
                    .filter(|(k, _)| (1000..2000).contains(k))
                    .map(|(k, _)| *k - 1000)
                    .collect();
                assert_eq!(
                    riders,
                    (1..=counter).collect::<Vec<i64>>(),
                    "riders must be exactly one per committed guard (counter={counter})"
                );
                audits += 1;
            }
        });
    });
    server.shutdown();
}

#[test]
fn every_registered_backend_serves_the_same_contract() {
    let engine = backend::by_name("sharded_map_8").expect("the served engine");
    let server = pathcopy_server::spawn(engine, ServerConfig::with_workers(2))
        .expect("bind ephemeral loopback port");
    let c = Session::connect(server.addr()).unwrap();
    for k in 0..64 {
        c.insert(k, -k).unwrap();
    }
    let snap = c.snapshot().unwrap();
    c.remove(0).unwrap();
    let (entries, _) = c.range(Some(snap), .., 0).unwrap();
    assert_eq!(entries.len(), 64, "snapshot immutable");
    let diff = c.diff(snap, None).unwrap();
    assert_eq!(
        diff,
        vec![DiffEntry::Removed(0, 0)],
        "pruned diff is exactly the change"
    );
    let rows = c.metrics().unwrap();
    assert_eq!(value_of(&rows, Stage::Len), Some(63));
    assert_eq!(value_of(&rows, Stage::Snapshots), Some(1));
    server.shutdown();
}
