//! Linearizability checking for the universal construction.
//!
//! The UC's linearization order is the order of successful root CASes.
//! We make that order observable by embedding a sequence number in the
//! versioned state; every thread logs `(seq, op, result)` for its
//! committed updates, and the checker replays the merged log in `seq`
//! order against `BTreeSet`, requiring every logged result to match.
//! This is a *complete* check for update operations: any lost update,
//! duplicated apply, or out-of-order commit fails the replay.

use std::sync::Mutex;

use path_copying::pathcopy_concurrent::registry::{self, SetBackendDriver};
use path_copying::prelude::{
    ConcurrentSet, PathCopyUc, PersistentTreapMap, SetSnapshot, Snapshottable, TreapMap, Update,
};

/// Versioned state: the set plus a commit sequence number.
struct Versioned {
    set: PersistentTreapMap<i64, ()>,
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
enum LoggedOp {
    Insert(i64),
    Remove(i64),
}

fn run_logged_workload(
    threads: i64,
    ops_per_thread: i64,
) -> (Vec<(u64, LoggedOp, bool)>, Vec<i64>) {
    let uc = PathCopyUc::new(Versioned {
        set: PersistentTreapMap::new(),
        seq: 0,
    });
    let log: Mutex<Vec<(u64, LoggedOp, bool)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..threads {
            let uc = &uc;
            let log = &log;
            scope.spawn(move || {
                let mut local = Vec::with_capacity(ops_per_thread as usize);
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1);
                for _ in 0..ops_per_thread {
                    x = path_copying::pathcopy_trees::hash::splitmix64(x);
                    let key = (x % 128) as i64;
                    let op = if x & (1 << 40) == 0 {
                        LoggedOp::Insert(key)
                    } else {
                        LoggedOp::Remove(key)
                    };
                    let (seq, changed) = uc.update(|state| {
                        let outcome = match op {
                            LoggedOp::Insert(k) => state.set.insert_if_absent(k, ()),
                            LoggedOp::Remove(k) => state.set.remove(&k).map(|(next, ())| next),
                        };
                        match outcome {
                            Some(next) => {
                                let seq = state.seq + 1;
                                Update::Replace(Versioned { set: next, seq }, (seq, true))
                            }
                            // No-ops don't commit a version; they
                            // linearize at their (atomic) read. We log
                            // them with the seq they observed.
                            None => Update::Keep((state.seq, false)),
                        }
                    });
                    local.push((seq, op, changed));
                }
                log.lock().unwrap().extend(local);
            });
        }
    });

    let final_contents: Vec<i64> = uc.read(|s| s.set.keys().copied().collect());
    (log.into_inner().unwrap(), final_contents)
}

#[test]
fn committed_updates_replay_in_cas_order() {
    let (log, final_contents) = run_logged_workload(4, 3_000);

    // Replay committed updates in seq order against the reference model.
    let mut committed: Vec<(u64, LoggedOp)> = log
        .iter()
        .filter(|(_, _, changed)| *changed)
        .map(|(seq, op, _)| (*seq, *op))
        .collect();
    committed.sort_by_key(|(seq, _)| *seq);

    // Sequence numbers must be exactly 1..=n: every CAS commit is unique
    // and none is lost.
    for (i, (seq, _)) in committed.iter().enumerate() {
        assert_eq!(*seq, i as u64 + 1, "commit sequence has gaps or duplicates");
    }

    let mut reference = std::collections::BTreeSet::new();
    for (seq, op) in &committed {
        let changed = match op {
            LoggedOp::Insert(k) => reference.insert(*k),
            LoggedOp::Remove(k) => reference.remove(k),
        };
        assert!(
            changed,
            "op {op:?} at seq {seq} was logged as changing the set but the replay disagrees"
        );
    }

    // The final structure must equal the replayed model exactly.
    let expect: Vec<i64> = reference.into_iter().collect();
    assert_eq!(final_contents, expect, "final state diverges from replay");
}

#[test]
fn noop_results_are_consistent_with_observed_versions() {
    let (log, _) = run_logged_workload(4, 2_000);

    // Rebuild the set contents at every committed seq, then check each
    // no-op against the version it reported observing.
    let mut committed: Vec<(u64, LoggedOp)> = log
        .iter()
        .filter(|(_, _, changed)| *changed)
        .map(|(seq, op, _)| (*seq, *op))
        .collect();
    committed.sort_by_key(|(seq, _)| *seq);

    let mut at_version: Vec<std::collections::BTreeSet<i64>> =
        Vec::with_capacity(committed.len() + 1);
    at_version.push(std::collections::BTreeSet::new());
    for (_, op) in &committed {
        let mut next = at_version.last().unwrap().clone();
        match op {
            LoggedOp::Insert(k) => {
                next.insert(*k);
            }
            LoggedOp::Remove(k) => {
                next.remove(k);
            }
        }
        at_version.push(next);
    }

    for (seq, op, changed) in &log {
        if *changed {
            continue;
        }
        let state = &at_version[*seq as usize];
        match op {
            LoggedOp::Insert(k) => assert!(
                state.contains(k),
                "no-op insert({k}) at version {seq}, but the key was absent there"
            ),
            LoggedOp::Remove(k) => assert!(
                !state.contains(k),
                "no-op remove({k}) at version {seq}, but the key was present there"
            ),
        }
    }
}

#[test]
fn disjoint_batch_runs_have_exact_counts() {
    // The Batch workload invariant end-to-end: disjoint keys, every op
    // must succeed, final set must be exactly the inserted-but-not-removed
    // keys.
    let uc = PathCopyUc::new(Versioned {
        set: PersistentTreapMap::new(),
        seq: 0,
    });
    const THREADS: i64 = 4;
    const PER: i64 = 800;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let uc = &uc;
            scope.spawn(move || {
                let base = t * PER;
                for i in 0..PER {
                    let k = base + i;
                    let (_, changed) = uc.update(|state| match state.set.insert_if_absent(k, ()) {
                        Some(next) => {
                            let seq = state.seq + 1;
                            Update::Replace(Versioned { set: next, seq }, (seq, true))
                        }
                        None => Update::Keep((state.seq, false)),
                    });
                    assert!(changed, "disjoint insert({k}) must always succeed");
                }
                // Remove the odd half.
                for i in (1..PER).step_by(2) {
                    let k = base + i;
                    let (_, changed) = uc.update(|state| match state.set.remove(&k) {
                        Some((next, ())) => {
                            let seq = state.seq + 1;
                            Update::Replace(Versioned { set: next, seq }, (seq, true))
                        }
                        None => Update::Keep((state.seq, false)),
                    });
                    assert!(changed, "disjoint remove({k}) must always succeed");
                }
            });
        }
    });
    let snapshot = uc.snapshot();
    assert_eq!(snapshot.set.len() as i64, THREADS * PER / 2);
    assert_eq!(snapshot.seq, (THREADS * PER + THREADS * PER / 2) as u64);
    snapshot.set.check_invariants();
    assert!(snapshot.set.keys().all(|k| k % 2 == 0));
}

#[test]
fn snapshot_is_a_consistent_cut() {
    // Coherence check for the one-root snapshot. One writer increments a chain
    // of counter keys in a fixed order. At any single instant the counts
    // along the chain are non-increasing, and head and tail differ by at
    // most one (the writer is mid-sweep). A snapshot assembled from reads
    // at *different* times violates this quickly; `snapshot` must never.
    const CHAIN: [u32; 6] = [0, 1, 2, 3, 4, 5];
    const SWEEPS: i64 = 30_000;

    let m: TreapMap<u32, i64> = TreapMap::new();
    for k in CHAIN {
        m.insert(k, 0);
    }

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let m_ref = &m;
        let done_ref = &done;
        scope.spawn(move || {
            for _ in 0..SWEEPS {
                for k in CHAIN {
                    m_ref.compute(&k, |v| Some(v.copied().unwrap_or(0) + 1));
                }
            }
            done_ref.store(true, std::sync::atomic::Ordering::Relaxed);
        });

        let mut cuts = 0u64;
        while !done.load(std::sync::atomic::Ordering::Relaxed) {
            let snap = m.snapshot();
            let counts: Vec<i64> = CHAIN.iter().map(|k| *snap.get(k).unwrap()).collect();
            for w in counts.windows(2) {
                assert!(
                    w[0] >= w[1],
                    "incoherent cut: later chain key ahead of earlier one: {counts:?}"
                );
            }
            assert!(
                counts[0] - counts[CHAIN.len() - 1] <= 1,
                "incoherent cut: chain spread exceeds one sweep: {counts:?}"
            );
            cuts += 1;
        }
        assert!(cuts > 0, "reader never completed a snapshot");
    });

    // After the writer finishes, every counter saw every sweep.
    let final_snap = m.snapshot();
    for k in CHAIN {
        assert_eq!(*final_snap.get(&k).unwrap(), SWEEPS);
    }
}

/// Backend-generic linearizability smoke test, one body for every
/// registry backend: disjoint-key inserts from many threads must each
/// succeed exactly once, and the final snapshot must hold exactly the
/// inserted keys in order. Lost updates, duplicated applies, or torn
/// snapshots all fail this on any backend.
#[test]
fn every_backend_linearizes_disjoint_inserts() {
    struct DisjointInserts;

    impl SetBackendDriver for DisjointInserts {
        fn drive<S>(&mut self, name: &str, make: fn() -> S)
        where
            S: ConcurrentSet<i64> + Snapshottable,
            S::Snapshot: SetSnapshot<i64>,
        {
            const THREADS: i64 = 4;
            const PER: i64 = 250;
            let set = make();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let set = &set;
                    scope.spawn(move || {
                        for i in 0..PER {
                            let k = t * PER + i;
                            assert!(set.insert(k), "[{name}] disjoint insert({k}) must succeed");
                        }
                        // Remove then re-insert the first half: still
                        // disjoint per thread, must always change the set.
                        for i in 0..PER / 2 {
                            let k = t * PER + i;
                            assert!(set.remove(&k), "[{name}] remove({k}) must succeed");
                            assert!(set.insert(k), "[{name}] re-insert({k}) must succeed");
                        }
                    });
                }
            });
            let snap = Snapshottable::snapshot(&set);
            assert_eq!(
                SetSnapshot::len(&snap),
                (THREADS * PER) as usize,
                "[{name}]"
            );
            assert!(
                snap.iter().copied().eq(0..THREADS * PER),
                "[{name}] snapshot must hold exactly the inserted keys, in order"
            );
        }
    }

    registry::for_each_set_backend(&mut DisjointInserts);
}

#[test]
fn per_key_updates_linearize() {
    // Per-key linearizability smoke test: disjoint keys from many threads
    // must all land exactly once, and the snapshot must hold exactly
    // them, in order.
    let m: TreapMap<i64, i64> = TreapMap::new();
    const THREADS: i64 = 8;
    const PER: i64 = 1_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let m = &m;
            scope.spawn(move || {
                for i in 0..PER {
                    let k = t * PER + i;
                    assert_eq!(m.insert(k, -k), None, "duplicate insert of disjoint key");
                }
            });
        }
    });

    let snap = m.snapshot();
    assert_eq!(snap.len(), (THREADS * PER) as usize);
    assert_eq!(m.len(), snap.len());
    assert!(snap.iter().map(|(k, _)| *k).eq(0..THREADS * PER));
    assert!(snap.iter().all(|(k, v)| *v == -*k));
}
