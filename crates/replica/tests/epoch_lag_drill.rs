//! The `epoch_lag` alerting drill from docs/OPERATIONS.md, end to end:
//! on a primary → relay → leaf chain, the leaf's `epoch_lag` histogram
//! reads a steady `1` while pushes flow, breaches the documented alert
//! threshold (`max > 1`) when a push is lost, and a post-recovery
//! windowed scrape (`HistogramSnapshot::delta`) drops back under it.

use std::net::SocketAddr;
use std::time::Duration;

use pathcopy_replica::PushReplica;
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{backend, ServerConfig, ServerHandle, Session};

/// The alert threshold OPERATIONS.md tells operators to page on:
/// steady-state lag is exactly 1 (every epoch arrives as its own
/// frame), so any sample above it is backlog.
const LAG_ALERT: u64 = 1;

fn primary_server() -> ServerHandle {
    pathcopy_server::spawn(
        Box::new(ShardedServe::with_shards(8)),
        ServerConfig {
            feed_capacity: 32,
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral loopback port")
}

fn push_node(addr: SocketAddr) -> PushReplica {
    PushReplica::connect(addr, backend::by_name("sharded_map_8").unwrap())
        .expect("connect push replica")
}

/// Pumps `relay` then `leaf` (upstream before downstream) until both
/// have applied `target`.
fn pump_chain(relay: &mut PushReplica, leaf: &mut PushReplica, target: u64) {
    for _ in 0..2000 {
        if relay.applied_epoch() >= target && leaf.applied_epoch() >= target {
            return;
        }
        if relay.applied_epoch() < target {
            relay.pump(Duration::from_millis(20)).expect("relay pump");
        }
        if leaf.applied_epoch() < target {
            leaf.pump(Duration::from_millis(20)).expect("leaf pump");
        }
    }
    panic!(
        "chain stalled below epoch {target}: relay={} leaf={}",
        relay.applied_epoch(),
        leaf.applied_epoch()
    );
}

#[test]
fn epoch_lag_breaches_on_push_loss_and_recovers() {
    let primary = primary_server();
    let writer = Session::connect(primary.addr()).unwrap();
    writer.insert(0, 0).unwrap();
    writer.publish().unwrap();

    let mut relay = push_node(primary.addr());
    relay
        .serve_relay(ServerConfig::with_workers(2))
        .expect("bind relay listener");
    let mut leaf = push_node(relay.relay_addr().unwrap());
    let leaf_metrics = leaf.metrics();

    // Healthy baseline: pushes arrive one epoch at a time, so every
    // lag sample is exactly 1 — at the alert threshold, never above.
    for round in 1..=5i64 {
        writer.insert(round, round).unwrap();
        let epoch = writer.publish().unwrap();
        pump_chain(&mut relay, &mut leaf, epoch);
    }
    let baseline = leaf_metrics.epoch_lag_snapshot();
    assert!(baseline.count() >= 5, "baseline must have lag samples");
    assert_eq!(
        baseline.max(),
        LAG_ALERT,
        "a healthy chain reads a steady lag of 1"
    );

    // Inject the fault: the relay forwards the next epoch, but the leaf
    // discards the push unapplied — the state a lossy subscriber is in.
    writer.insert(100, 100).unwrap();
    let lost = writer.publish().unwrap();
    while relay.applied_epoch() < lost {
        relay.pump(Duration::from_millis(20)).expect("relay pump");
    }
    let dropped = leaf
        .drop_one_push(Duration::from_secs(2))
        .expect("receive the doomed push");
    assert_eq!(dropped, Some(lost), "the injected loss must be observed");

    // The next push names epoch `lost + 1` while the leaf still sits at
    // `lost - 1`: the on-wire watermark makes the backlog measurable,
    // the histogram breaches, and the gap repair catches the leaf up.
    writer.insert(101, 101).unwrap();
    let next = writer.publish().unwrap();
    pump_chain(&mut relay, &mut leaf, next);
    let breached = leaf_metrics.epoch_lag_snapshot();
    assert!(
        breached.max() > LAG_ALERT,
        "push loss must breach the alert threshold: max={}",
        breached.max()
    );
    assert_eq!(leaf.push_stats().push_gaps, 1, "exactly the injected gap");

    // Recovery: with the chain flowing again, a *windowed* scrape —
    // the same bucket-wise delta `loadgen --metrics-interval` prints —
    // shows the last window back at the healthy ceiling, even though
    // the since-boot max stays pinned at the breach.
    for round in 200..=204i64 {
        writer.insert(round, round).unwrap();
        let epoch = writer.publish().unwrap();
        pump_chain(&mut relay, &mut leaf, epoch);
    }
    let after = leaf_metrics.epoch_lag_snapshot();
    let window = after.delta(&breached);
    assert!(window.count() >= 5, "recovery window must have samples");
    assert!(
        window.max() <= LAG_ALERT,
        "recovered chain must read healthy in the window: max={}",
        window.max()
    );
    assert!(
        after.max() > LAG_ALERT,
        "since-boot max keeps the breach on record"
    );
    primary.shutdown();
}

/// The drill is only actionable if the runbook tells operators what to
/// watch and what to page on — pin the documentation the same way
/// `doc_contract` pins the wire format.
#[test]
fn operations_runbook_documents_the_drill() {
    let doc = include_str!("../../../docs/OPERATIONS.md");
    assert!(
        doc.contains("epoch_lag"),
        "OPERATIONS.md must describe the epoch_lag histogram"
    );
    assert!(
        doc.contains("max > 1"),
        "OPERATIONS.md must state the alert threshold (max > 1)"
    );
    assert!(
        doc.contains("epoch_lag_drill"),
        "OPERATIONS.md must point at this drill by name"
    );
}
