//! Push fan-out end-to-end: a relay tree (1 primary, 2 relays, 4
//! leaves) converges with **zero** `PullDiff` traffic in the steady
//! state, the primary's exact egress is independent of the leaf count,
//! a session token carries read-your-writes through a leaf while
//! concurrent writers churn the primary, a leaf's readers never see a
//! torn epoch, and a replica that stops pumping is demoted by the
//! primary rather than buffered anywhere.

use std::net::SocketAddr;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use pathcopy_concurrent::BatchOp;
use pathcopy_metrics::Stage;
use pathcopy_replica::{PushOutcome, PushReplica};
use pathcopy_server::backend::TreapServe;
use pathcopy_server::{
    backend, value_of, ClientError, ServerConfig, ServerHandle, Session, SessionToken,
};

/// Runs `body` on its own thread and fails the test if it has not
/// finished within `limit`.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = done_tx.send(body());
    });
    match done_rx.recv_timeout(limit) {
        Ok(out) => {
            runner.join().expect("test body");
            out
        }
        // The body panicked: surface its message, not a timeout.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped without a value"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("not finished after {limit:?}: the chain stopped making progress")
        }
    }
}

fn primary_server(metrics: bool) -> ServerHandle {
    pathcopy_server::spawn(
        Box::new(TreapServe::default()),
        ServerConfig {
            feed_capacity: 32,
            workers: 2,
            metrics,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral loopback port")
}

fn push_node(addr: SocketAddr) -> PushReplica {
    PushReplica::connect(addr, backend::by_name("sharded_map_8").unwrap())
        .expect("connect push replica")
}

fn relay_node(addr: SocketAddr) -> PushReplica {
    let mut node = push_node(addr);
    node.serve_relay(ServerConfig::with_workers(2))
        .expect("bind relay listener");
    node
}

/// Pumps every node (relays first, then leaves — upstream before
/// downstream) until all have applied `target`, panicking if the tree
/// stops making progress.
fn pump_until(nodes: &mut [&mut PushReplica], target: u64) {
    for _ in 0..2000 {
        if nodes.iter().all(|n| n.applied_epoch() >= target) {
            return;
        }
        for node in nodes.iter_mut() {
            if node.applied_epoch() < target {
                node.pump(Duration::from_millis(20)).expect("pump");
            }
        }
    }
    let at: Vec<u64> = nodes.iter().map(|n| n.applied_epoch()).collect();
    panic!("fan-out stalled below epoch {target}: applied = {at:?}");
}

/// One step of a production pump loop: under the churn thread's
/// unthrottled publishes a subscriber can be demoted for a full outbox,
/// after which no later frame arrives to reveal the gap, so a quiet
/// pump falls back to the anti-entropy pull (`sync_now`).
fn pump_or_resync(node: &mut PushReplica) {
    if node.pump(Duration::from_millis(5)).expect("pump") == PushOutcome::Idle {
        node.sync_now().expect("resync");
    }
}

fn state_of(node: &PushReplica) -> Vec<(i64, i64)> {
    let (entries, complete) = node
        .store()
        .snapshot()
        .range(Bound::Unbounded, Bound::Unbounded, 0);
    assert!(complete);
    entries
}

#[test]
fn relay_tree_converges_with_pushes_only() {
    let primary = primary_server(true);
    let writer = Session::connect(primary.addr()).unwrap();
    for k in 0..32i64 {
        writer.insert(k, k).unwrap();
    }
    writer.publish().unwrap();

    // Depth-2 tree: primary -> 2 relays -> 2 leaves each.
    let mut r1 = relay_node(primary.addr());
    let mut r2 = relay_node(primary.addr());
    let (r1_addr, r2_addr) = (r1.relay_addr().unwrap(), r2.relay_addr().unwrap());
    let mut leaves: Vec<PushReplica> = vec![
        push_node(r1_addr),
        push_node(r1_addr),
        push_node(r2_addr),
        push_node(r2_addr),
    ];

    // Churn: inserts, overwrites, removals across several epochs.
    for round in 1..=8i64 {
        writer.insert(round, round * 100).unwrap();
        writer.insert(100 + round, -round).unwrap();
        writer.remove(round - 1).unwrap();
        let epoch = writer.publish().unwrap();
        let mut nodes: Vec<&mut PushReplica> = Vec::new();
        nodes.push(&mut r1);
        nodes.push(&mut r2);
        nodes.extend(leaves.iter_mut());
        pump_until(&mut nodes, epoch);
    }

    // Every node equals the primary's head state.
    let primary_reader = Session::connect(primary.addr()).unwrap();
    let (expect, complete) = primary_reader.range(None, .., 0).unwrap();
    assert!(complete);
    for node in [&r1, &r2].into_iter().chain(leaves.iter()) {
        assert_eq!(state_of(node), expect, "node diverged from primary");
    }

    // The whole convergence was push-driven: after the bootstrap full
    // sync, no node ever issued a PullDiff and no gap was repaired.
    for node in [&r1, &r2].into_iter().chain(leaves.iter()) {
        let stats = node.push_stats();
        assert_eq!(stats.diff_pulls, 0, "steady state must not pull diffs");
        assert_eq!(stats.full_syncs, 1, "exactly the bootstrap transfer");
        assert_eq!(stats.push_gaps, 0, "no gaps in a pumped tree");
        assert_eq!(stats.pushes_applied, 8, "one push per published epoch");
    }
    primary.shutdown();
}

#[test]
fn primary_egress_is_independent_of_leaf_count() {
    // Histograms off: the primary's scrape reply is then the same 17
    // counter and gauge rows every time, one fixed size.
    let primary = primary_server(false);
    let writer = Session::connect(primary.addr()).unwrap();
    // Seed the measured keys so every later overwrite produces replies
    // and diffs of identical encoded size (Some(prev) both phases).
    for k in 0..8i64 {
        writer.insert(k, 0).unwrap();
    }
    writer.publish().unwrap();

    let mut r1 = relay_node(primary.addr());
    let mut r2 = relay_node(primary.addr());
    let (r1_addr, r2_addr) = (r1.relay_addr().unwrap(), r2.relay_addr().unwrap());

    // Identically-shaped write rounds so the egress comparison is exact:
    // same keys, fixed-width values, same diff shape every round.
    let measure = |writer: &Session,
                   r1: &mut PushReplica,
                   r2: &mut PushReplica,
                   leaves: &mut [PushReplica],
                   base: i64| {
        // Read the counter through the primary's own event loop, not
        // from this thread: the loop adds a frame's bytes after the
        // `write` that delivered it, and a relay can have applied that
        // frame (ending `pump_until`) before the loop gets there. A
        // request is read by the loop only after it has finished
        // accounting for everything it wrote earlier, and the scrape's
        // own fixed-size reply lands in the same place in both phases.
        let wire_sent = || value_of(&writer.metrics().unwrap(), Stage::WireSent).unwrap();
        let before = wire_sent();
        for round in 0..4i64 {
            for k in 0..8i64 {
                writer.insert(k, base + round * 8 + k).unwrap();
            }
            let epoch = writer.publish().unwrap();
            let mut nodes: Vec<&mut PushReplica> = Vec::new();
            nodes.push(r1);
            nodes.push(r2);
            nodes.extend(leaves.iter_mut());
            pump_until(&mut nodes, epoch);
        }
        wire_sent() - before
    };

    // Phase A: two leaves.
    let mut leaves: Vec<PushReplica> = vec![push_node(r1_addr), push_node(r2_addr)];
    let egress_two_leaves = measure(&writer, &mut r1, &mut r2, &mut leaves, 1000);

    // Phase B: six leaves — three times the subscribers, all fed by the
    // relays. Their bootstrap full syncs hit the relays, not the
    // primary.
    leaves.extend([
        push_node(r1_addr),
        push_node(r1_addr),
        push_node(r2_addr),
        push_node(r2_addr),
    ]);
    let egress_six_leaves = measure(&writer, &mut r1, &mut r2, &mut leaves, 2000);

    // Exact equality, not a tolerance: the primary sent the same reply
    // bytes to the writer and the same two push frames per epoch in
    // both phases. The leaves' frames all came out of the relays.
    assert_eq!(
        egress_two_leaves, egress_six_leaves,
        "primary egress must not scale with the leaf count"
    );
    for leaf in &leaves {
        assert_eq!(leaf.push_stats().diff_pulls, 0);
        assert!(leaf.relay_addr().is_none());
    }
    primary.shutdown();
}

#[test]
fn session_token_reads_your_writes_through_a_leaf() {
    let primary = primary_server(true);
    let seed = Session::connect(primary.addr()).unwrap();
    seed.insert(0, 0).unwrap();
    seed.publish().unwrap();

    // Depth 2: primary -> relay -> leaf; the leaf serves reads.
    let primary_addr = primary.addr();
    let mut relay = relay_node(primary_addr);
    let mut leaf = relay_node(relay.relay_addr().unwrap());
    let leaf_addr = leaf.relay_addr().unwrap();

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let done_ref = &done;
        // Concurrent writers churning other keys and publishing.
        s.spawn(move || {
            let churn = Session::connect(primary_addr).unwrap();
            let mut round = 0i64;
            while !done_ref.load(std::sync::atomic::Ordering::Acquire) {
                round += 1;
                churn.insert(-round, round).unwrap();
                churn.publish().unwrap();
            }
        });
        // The pump threads keeping the chain flowing. They borrow their
        // nodes: a relay moved into its thread would be dropped (its
        // endpoint shut down) the moment that thread saw `done`, and a
        // leaf still mid-pump would fail with `Disconnected`.
        let (relay, leaf) = (&mut relay, &mut leaf);
        s.spawn(move || {
            while !done_ref.load(std::sync::atomic::Ordering::Acquire) {
                pump_or_resync(relay);
            }
        });
        s.spawn(move || {
            while !done_ref.load(std::sync::atomic::Ordering::Acquire) {
                pump_or_resync(leaf);
            }
        });

        // The session under test: write to the primary, read through
        // the leaf, threading one token.
        let writer = Session::connect(primary_addr).unwrap();
        let reader = Session::connect(leaf_addr).unwrap();
        let mut token = SessionToken::default();
        let mut last_served = 0u64;
        for round in 1..=20i64 {
            writer.insert_tracked(7, round, &mut token).unwrap();
            // The watermark names the next (unpublished) epoch; publish
            // so it exists and can propagate down the chain.
            writer.publish().unwrap();
            let floor = token.epoch();
            let mut value = None;
            for attempt in 0.. {
                match reader.get_at(7, &mut token, 2000) {
                    Ok(v) => {
                        value = Some(v);
                        break;
                    }
                    // The leaf can answer Stale while the push is in
                    // flight; keep waiting — the pump threads will get
                    // it there.
                    Err(ClientError::Server(pathcopy_server::WireError::Stale(_))) => {
                        assert!(attempt < 50, "leaf never reached epoch {floor}");
                    }
                    Err(e) => panic!("leaf read failed: {e}"),
                }
            }
            assert_eq!(
                value,
                Some(Some(round)),
                "read-your-writes violated at round {round}"
            );
            assert!(token.epoch() >= floor, "served below the watermark");
            assert!(token.epoch() >= last_served, "token went backwards");
            last_served = token.epoch();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
    });
    primary.shutdown();
}

#[test]
fn a_push_leaf_never_exposes_a_torn_epoch() {
    // Accounts (2i, 2i+1) always sum to 0 on the primary: each round
    // moves one pair and bumps the version key in one `Batch`. A leaf
    // applies every pushed epoch diff as one atomic batch, so a reader
    // scanning its endpoint must see only published epochs: every pair
    // balanced, the version key never going back.
    const PAIRS: i64 = 64;
    const VERSION_KEY: i64 = -1;
    const ROUNDS: i64 = 1000;

    within(Duration::from_secs(120), || {
        let primary = primary_server(true);
        let primary_addr = primary.addr();
        let setup = Session::connect(primary_addr).unwrap();
        let init: Vec<_> = (VERSION_KEY..PAIRS * 2)
            .map(|k| BatchOp::Insert(k, 0))
            .collect();
        setup.batch(&init).unwrap();
        setup.publish().unwrap();

        // primary -> relay -> leaf; the leaf serves the reads.
        let mut relay = relay_node(primary_addr);
        let mut leaf = relay_node(relay.relay_addr().unwrap());
        let leaf_addr = leaf.relay_addr().unwrap();

        // The last epoch the writer published; 0 while it is running.
        let last_epoch = AtomicU64::new(0);
        let leaf_done = AtomicBool::new(false);
        let mut last_version = -1i64;
        thread::scope(|s| {
            let (last_epoch, leaf_done) = (&last_epoch, &leaf_done);
            s.spawn(move || {
                let writer = Session::connect(primary_addr).unwrap();
                let mut epoch = 0;
                for round in 1..=ROUNDS {
                    let pair = (round % PAIRS) * 2;
                    writer
                        .batch(&[
                            BatchOp::Insert(pair, round),
                            BatchOp::Insert(pair + 1, -round),
                            BatchOp::Insert(VERSION_KEY, round),
                        ])
                        .unwrap();
                    epoch = writer.publish().unwrap();
                }
                last_epoch.store(epoch, Ordering::Release);
            });
            // Each node pumps on its own thread until it holds the
            // writer's last epoch. Borrowed, not moved: the relay's
            // endpoint must outlive the leaf's pumping.
            let caught_up = |node: &PushReplica| {
                let target = last_epoch.load(Ordering::Acquire);
                target > 0 && node.applied_epoch() >= target
            };
            let relay = &mut relay;
            s.spawn(move || {
                while !caught_up(relay) {
                    pump_or_resync(relay);
                }
            });
            let leaf = &mut leaf;
            s.spawn(move || {
                while !caught_up(leaf) {
                    pump_or_resync(leaf);
                }
                leaf_done.store(true, Ordering::Release);
            });

            // Scan until a scan has started after the leaf caught up.
            let reader = Session::connect(leaf_addr).unwrap();
            loop {
                let final_scan = leaf_done.load(Ordering::Acquire);
                let (entries, complete) = reader.range(None, .., 0).unwrap();
                assert!(complete);
                let (version, accounts) = entries.split_first().expect("seeded");
                assert_eq!(version.0, VERSION_KEY);
                assert!(
                    version.1 >= last_version,
                    "leaf went back in time: {} < {last_version}",
                    version.1
                );
                last_version = version.1;
                assert_eq!(accounts.len() as i64, PAIRS * 2);
                for pair in accounts.chunks(2) {
                    let [(ka, va), (kb, vb)] = pair else {
                        unreachable!("even account count")
                    };
                    assert_eq!((*kb, va + vb), (ka + 1, 0), "torn epoch at pair {ka}");
                }
                if final_scan {
                    break;
                }
            }
        });
        assert_eq!(last_version, ROUNDS, "the leaf reached the last epoch");
        primary.shutdown();
    });
}

#[test]
fn a_replica_that_stops_pumping_is_demoted_then_repairs() {
    let primary = primary_server(true);
    let writer = Session::connect(primary.addr()).unwrap();
    writer.insert(-1, -1).unwrap();
    writer.publish().unwrap();
    let mut stalled = push_node(primary.addr());

    // ~34 KiB of diff per epoch and nobody pumping: the replica's
    // session reads nothing, its kernel buffers fill, the primary's
    // bounded push queue behind them overflows, and the primary
    // unregisters the subscriber instead of queueing without bound.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut round = 0i64;
    let primary_value = |stage| value_of(&primary.metrics_report(), stage);
    while primary_value(Stage::PushDemotions) == Some(0) {
        assert!(Instant::now() < deadline, "never demoted");
        round += 1;
        let ops: Vec<_> = (0..2000).map(|k| BatchOp::Insert(k, round)).collect();
        writer.batch(&ops).unwrap();
        writer.publish().unwrap();
    }
    assert_eq!(primary_value(Stage::Subscribers), Some(0));
    assert_eq!(stalled.push_stats().pushes_applied, 0);

    // Pumping again: the frames that made it into the socket apply in
    // order, then the feed goes quiet short of the head (a demoted
    // subscriber is sent nothing more) and the anti-entropy pull closes
    // the rest and resubscribes.
    while stalled.pump(Duration::from_millis(50)).expect("pump") != PushOutcome::Idle {}
    let head = writer.feed_info().unwrap().head;
    assert!(stalled.applied_epoch() < head, "demotion dropped frames");
    assert_eq!(stalled.sync_now().expect("resync"), head);
    assert_eq!(stalled.push_stats().resubscribes, 1);
    let (expect, complete) = writer.range(None, .., 0).unwrap();
    assert!(complete);
    assert_eq!(state_of(&stalled), expect);

    // And it is a subscriber again: the next epoch arrives by push.
    writer.insert(-2, -2).unwrap();
    let next = writer.publish().unwrap();
    pump_until(&mut [&mut stalled], next);
    assert_eq!(primary_value(Stage::Subscribers), Some(1));
    primary.shutdown();
}
