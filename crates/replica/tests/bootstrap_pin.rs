//! The bootstrap's pin: a replica reads the feed head (publishing only
//! on an empty feed) and pages that epoch with `Range`. Two properties
//! ride on that choice, and one recovery path:
//!
//! * a pin retired from the ring mid-transfer restarts the transfer at
//!   the new head, and the replica still converges — forced here
//!   deterministically by a backend whose snapshot parks inside its
//!   first `range` until the test has published the pin out of a
//!   capacity-2 ring;
//! * bootstraps against a non-empty feed publish nothing, so any
//!   number of them share one pin;
//! * against an empty feed, a bootstrap publishes exactly once.

use std::any::Any;
use std::ops::Bound;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use pathcopy_concurrent::{BatchOp, BatchResult, TreapMap};
use pathcopy_core::{DiffEntry, StatsSnapshot};
use pathcopy_replica::PushReplica;
use pathcopy_server::backend::TreapServe;
use pathcopy_server::proto::SYNC_PAGE_MAX_ENTRIES;
use pathcopy_server::{
    backend, ClientError, Epoch, ServeBackend, ServeSnapshot, ServerConfig, Session, WireError,
};

/// Parks the first snapshot `range` after [`arm`](Gate::arm) until
/// [`release`](Gate::release).
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    armed: bool,
    parked: bool,
    released: bool,
}

impl Gate {
    fn arm(&self) {
        self.state.lock().unwrap().armed = true;
    }

    /// Called inside `range`: parks there once, if armed.
    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        if !std::mem::take(&mut s.armed) {
            return;
        }
        s.parked = true;
        self.cv.notify_all();
        while !s.released {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn wait_parked(&self) {
        let mut s = self.state.lock().unwrap();
        while !s.parked {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.cv.notify_all();
    }
}

/// The served treap, its snapshots passing through the [`Gate`] in `range`.
struct ParkingServe {
    inner: TreapServe,
    gate: Arc<Gate>,
}

impl ServeBackend for ParkingServe {
    fn get(&self, key: i64) -> Option<i64> {
        self.inner.get(key)
    }
    fn insert(&self, key: i64, value: i64) -> Option<i64> {
        self.inner.insert(key, value)
    }
    fn remove(&self, key: i64) -> Option<i64> {
        self.inner.remove(key)
    }
    fn cas(&self, key: i64, expected: Option<i64>, new: Option<i64>) -> bool {
        self.inner.cas(key, expected, new)
    }
    fn transact(&self, ops: &[BatchOp<i64, i64>]) -> Vec<BatchResult<i64>> {
        self.inner.transact(ops)
    }
    fn transact_guarded(
        &self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Vec<BatchResult<i64>>, Vec<u32>> {
        self.inner.transact_guarded(ops)
    }
    fn snapshot(&self) -> Arc<dyn ServeSnapshot> {
        Arc::new(ParkingSnap {
            inner: self.inner.snapshot(),
            gate: Arc::clone(&self.gate),
        })
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
}

struct ParkingSnap {
    inner: Arc<dyn ServeSnapshot>,
    gate: Arc<Gate>,
}

impl ServeSnapshot for ParkingSnap {
    fn get(&self, key: i64) -> Option<i64> {
        self.inner.get(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn range(&self, lo: Bound<i64>, hi: Bound<i64>, limit: usize) -> (Vec<(i64, i64)>, bool) {
        self.gate.pass();
        self.inner.range(lo, hi, limit)
    }
    // Both forward to the wrapped snapshot, so a diff between two
    // parking snapshots downcasts to the backend's own type.
    fn diff(&self, newer: &dyn ServeSnapshot) -> Vec<DiffEntry<i64, i64>> {
        self.inner.diff(newer)
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Every entry of retained epoch `epoch`, paged with `Range`.
fn scan_epoch(c: &Session, epoch: Epoch) -> Vec<(i64, i64)> {
    let mut all: Vec<(i64, i64)> = Vec::new();
    loop {
        let lo = all
            .last()
            .map_or(Bound::Unbounded, |&(k, _)| Bound::Excluded(k));
        let (page, complete) = c.range(Some(epoch), (lo, Bound::Unbounded), 0).unwrap();
        all.extend(page);
        if complete {
            return all;
        }
    }
}

fn store_entries(replica: &PushReplica) -> Vec<(i64, i64)> {
    let snap = replica.store().snapshot();
    let (entries, complete) = snap.range(Bound::Unbounded, Bound::Unbounded, 0);
    assert!(complete, "an in-process unlimited scan is complete");
    entries
}

#[test]
fn a_pin_retired_mid_bootstrap_restarts_and_converges() {
    // More than one page, so the transfer needs a second `Range` at
    // the pin after the first one parks.
    let keys = SYNC_PAGE_MAX_ENTRIES as i64 + 1_000;
    let map: TreapMap<i64, i64> = (0..keys).map(|k| (k, k)).collect();
    let gate = Arc::new(Gate::default());
    let server = pathcopy_server::spawn(
        Box::new(ParkingServe {
            inner: TreapServe::new(map),
            gate: Arc::clone(&gate),
        }),
        // Two workers: one parks in the bootstrap's first page while
        // the other serves the publishes that retire its pin.
        ServerConfig::builder().workers(2).feed_capacity(2).build(),
    )
    .expect("bind ephemeral loopback port");
    let c = Session::connect(server.addr()).unwrap();
    let pin = c.publish().unwrap();
    gate.arm();

    let head = thread::scope(|s| {
        let publisher = s.spawn(|| {
            gate.wait_parked();
            c.insert(-1, -1).unwrap();
            c.publish().unwrap();
            c.remove(0).unwrap();
            let head = c.publish().unwrap();
            gate.release();
            head
        });
        // The first page comes back from the pinned epoch; the second
        // finds it retired, and the transfer restarts at the new head.
        let replica =
            PushReplica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap())
                .unwrap();
        let head = publisher.join().unwrap();
        assert_eq!(replica.applied_epoch(), head, "landed on the newer head");
        let stats = replica.push_stats();
        assert_eq!(stats.full_syncs, 1, "one completed transfer");
        let expect = scan_epoch(&c, head);
        assert_eq!(expect.len() as i64, keys, "one key added, one removed");
        assert_eq!(
            store_entries(&replica),
            expect,
            "the store is the head's state"
        );
        assert_eq!(stats.full_entries, expect.len() as u64);
        head
    });
    assert_eq!(head, pin + 2);
    assert!(
        matches!(
            c.range(Some(pin), .., 1),
            Err(ClientError::Server(WireError::EpochRetired(_)))
        ),
        "the first pin really left the ring"
    );
    assert_eq!(
        c.feed_info().unwrap().head,
        head,
        "the bootstrap published nothing"
    );
    server.shutdown();
}

#[test]
fn concurrent_bootstraps_on_a_non_empty_feed_publish_nothing() {
    let server = pathcopy_server::spawn(
        Box::new(TreapServe::default()),
        ServerConfig::with_workers(2),
    )
    .expect("bind ephemeral loopback port");
    let c = Session::connect(server.addr()).unwrap();
    for k in 0..500 {
        c.insert(k, k * 3).unwrap();
    }
    let head = c.publish().unwrap();
    let expect = scan_epoch(&c, head);

    let applied: Vec<Epoch> = thread::scope(|s| {
        let joins: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let store = backend::by_name("sharded_map_8").unwrap();
                    let replica = PushReplica::connect(server.addr(), store).unwrap();
                    assert_eq!(store_entries(&replica), expect);
                    replica.applied_epoch()
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    assert_eq!(c.feed_info().unwrap().head, head, "no bootstrap published");
    assert_eq!(applied, vec![head; 4], "all four share the one pin");
    server.shutdown();

    // On an empty feed there is nothing to pin: one bootstrap publishes
    // exactly once.
    let server = pathcopy_server::spawn(
        Box::new(TreapServe::default()),
        ServerConfig::with_workers(2),
    )
    .expect("bind ephemeral loopback port");
    let c = Session::connect(server.addr()).unwrap();
    c.insert(7, 70).unwrap();
    assert_eq!(c.feed_info().unwrap().head, 0);
    let replica =
        PushReplica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();
    assert_eq!(
        c.feed_info().unwrap().head,
        1,
        "the bootstrap published epoch 1"
    );
    assert_eq!(replica.applied_epoch(), 1);
    assert_eq!(store_entries(&replica), vec![(7, 70)]);
    drop(replica);
    server.shutdown();
}
