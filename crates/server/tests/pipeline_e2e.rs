//! End-to-end tests of the pipelined serving path: correlation ids pair
//! responses with tickets regardless of completion order, a saturated
//! per-connection queue sheds `Busy` without corrupting in-flight
//! replies, and idle connections are multiplexed — not pinned to
//! workers.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::ops::Bound;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::StatsSnapshot;
use pathcopy_metrics::Stage;
use pathcopy_server::proto::{read_request_enveloped, response_frame, Request, Response};
use pathcopy_server::{
    backend, value_of, ClientError, ServeBackend, ServeSnapshot, ServerConfig, Session,
};

/// A mock v3 server: accepts one connection, reads `n` request frames,
/// then answers them in the order `reply_order` prescribes (indices
/// into arrival order) — each `Get { key }` becomes `Got(Some(key))`
/// under the id it arrived with. This decouples the "responses pair by
/// id" property from the real event loop's scheduling.
fn mock_shuffled_server(listener: TcpListener, n: usize, reply_order: Vec<usize>) {
    let (stream, _) = listener.accept().expect("accept");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut arrived = Vec::with_capacity(n);
    for _ in 0..n {
        let framed = read_request_enveloped(&mut reader)
            .expect("read request")
            .expect("stream open");
        let key = match framed.msg {
            Request::Get { key } => key,
            other => panic!("mock expects Get, saw {other:?}"),
        };
        arrived.push((framed.request_id, key));
    }
    let mut stream = stream;
    for &idx in &reply_order {
        let (id, key) = arrived[idx];
        stream
            .write_all(&response_frame(&Response::Got(Some(key)), id, None))
            .expect("write");
    }
}

/// Seeded Fisher–Yates: a deterministic permutation of `0..n`.
fn shuffled_indices(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn responses_match_tickets_under_shuffled_completion(
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
        let addr = listener.local_addr().expect("addr");
        let order = shuffled_indices(n, seed);
        let server = thread::spawn(move || mock_shuffled_server(listener, n, order));

        let session = Session::connect(addr).expect("connect");
        // Distinct keys per ticket: if demux ever paired a response
        // with the wrong ticket, the value would not match the key.
        let tickets: Vec<_> = (0..n as i64)
            .map(|key| {
                let t = session.submit(&Request::Get { key: key * 31 + 7 }).expect("submit");
                (key * 31 + 7, t)
            })
            .collect();
        for (key, ticket) in tickets {
            match ticket.wait().expect("response") {
                Response::Got(v) => prop_assert_eq!(v, Some(key)),
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(session);
        server.join().expect("mock server");
    }
}

/// Delegates every operation to the wrapped backend, stalling
/// snapshots so a pipelined client can pile scans up faster than the
/// workers drain them. (Point reads run on the event loop and never
/// queue, so they cannot be shed; a scan is worker-bound.)
struct SlowBackend {
    inner: Box<dyn ServeBackend>,
    snapshot_delay: Duration,
}

impl ServeBackend for SlowBackend {
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
        thread::sleep(self.snapshot_delay);
        self.inner.snapshot()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
}

/// A one-key scan of a fresh snapshot: `Get`'s worker-bound cousin.
fn scan_one(key: i64) -> Request {
    Request::Range {
        epoch: None,
        lo: Bound::Included(key),
        hi: Bound::Included(key),
        limit: 0,
    }
}

#[test]
fn saturated_queue_sheds_busy_without_corrupting_in_flight_replies() {
    const DEPTH: usize = 2;
    const FLOOD: i64 = 24;
    let slow = SlowBackend {
        inner: backend::by_name("sharded_map_8").expect("backend"),
        snapshot_delay: Duration::from_millis(5),
    };
    let server = pathcopy_server::spawn(
        Box::new(slow),
        ServerConfig::builder()
            .workers(2)
            .queue_depth(DEPTH)
            .build(),
    )
    .expect("bind");

    let session = Session::connect(server.addr()).expect("connect");
    for k in 0..FLOOD {
        // Writes are fast in SlowBackend; serial so none can shed.
        match session
            .submit(&Request::Insert {
                key: k,
                value: k * 3,
            })
            .expect("submit insert")
            .wait()
            .expect("insert")
        {
            Response::Inserted(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // Flood the connection with slow scans far past the queue depth.
    let tickets: Vec<_> = (0..FLOOD)
        .map(|k| (k, session.submit(&scan_one(k)).expect("submit")))
        .collect();
    let mut served = 0usize;
    let mut shed = 0usize;
    for (k, ticket) in tickets {
        match ticket.wait() {
            // Every reply that wasn't shed must carry the value for
            // ITS key — shedding must not shift the pairing.
            Ok(Response::Entries { entries, .. }) => {
                assert_eq!(
                    entries,
                    vec![(k, k * 3)],
                    "in-flight reply corrupted for key {k}"
                );
                served += 1;
            }
            Err(ClientError::Busy(depth)) => {
                assert_eq!(depth, DEPTH as u64);
                shed += 1;
            }
            other => panic!("unexpected outcome for key {k}: {other:?}"),
        }
    }
    assert_eq!(served + shed, FLOOD as usize);
    assert!(
        shed >= 1,
        "flooding {FLOOD} slow scans past depth {DEPTH} must shed at least once"
    );
    assert!(
        served >= DEPTH,
        "the in-flight window itself must still be served"
    );
    assert_eq!(server.requests_shed(), shed as u64);

    // The connection survives shedding: a fresh round trip still works.
    match session
        .submit(&Request::Get { key: 0 })
        .expect("submit after shed")
        .wait()
        .expect("serve after shed")
    {
        Response::Got(v) => assert_eq!(v, Some(0)),
        other => panic!("unexpected {other:?}"),
    }
    drop(session);
    server.shutdown();
}

#[test]
fn idle_connections_are_not_bounded_by_the_worker_count() {
    const WORKERS: usize = 2;
    const CONNS: usize = WORKERS * 4;
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::builder().workers(WORKERS).build(),
    )
    .expect("bind");

    // Hold 4x workers connections open simultaneously — under the old
    // thread-per-connection pool, connection N > workers would block
    // at accept and this test would deadlock.
    let mut clients: Vec<Session> = (0..CONNS)
        .map(|_| Session::connect(server.addr()).expect("connect"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(
            client.insert(i as i64, i as i64 * 10).expect("insert"),
            None
        );
    }
    let open = value_of(&server.metrics_report(), Stage::OpenConns).unwrap();
    assert!(
        open >= CONNS as u64,
        "expected >= {CONNS} multiplexed connections, gauge says {open}"
    );
    // Every connection is still live and served while all others stay
    // open and idle.
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(client.get(i as i64).expect("get"), Some(i as i64 * 10));
        let (entries, _) = client.range(None, .., 0).expect("range");
        assert_eq!(entries.len(), CONNS);
    }
    drop(clients);
    server.shutdown();
}
