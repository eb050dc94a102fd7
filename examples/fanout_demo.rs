//! Push fan-out as a relay tree: one primary, two relays, four leaves.
//!
//! Every published epoch leaves the primary exactly twice — once per
//! relay — no matter how many leaves hang off the tree; the relays
//! re-serve the same O(changes) diff downstream with the primary's
//! epoch numbers intact. The demo drives a writer through a few dozen
//! epochs, pumps the tree, and then prints the receipts:
//!
//! * the primary's wire egress next to the relays' combined egress —
//!   the fan-out happened downstream;
//! * the primary's push counters and gauges, from its metrics scrape —
//!   two subscribers, one push per epoch each, zero demotions;
//! * per-leaf replication stats — every epoch arrived as a push
//!   (`repair diff_pulls = 0`);
//! * a session-consistent read: the writer's `SessionToken` watermark
//!   carried to a **leaf**, where `GetAt` waits for the epoch and
//!   returns the write — read-your-writes across two hops with no
//!   sticky routing.
//!
//! ```text
//! cargo run --release --example fanout_demo
//! ```

use std::time::Duration;

use pathcopy_metrics::Stage;
use pathcopy_replica::PushReplica;
use pathcopy_server::{backend, value_of, ServerConfig, Session, SessionToken};

const KEYS: i64 = 64;
const ROUNDS: u64 = 32;
const RELAYS: usize = 2;
const LEAVES: usize = 4;

/// Pumps one node until it has applied `target` (bounded — a stalled
/// push chain is a bug, not a slow run).
fn pump_to(node: &mut PushReplica, target: u64) {
    for _ in 0..1_000 {
        if node.applied_epoch() >= target {
            return;
        }
        node.pump(Duration::from_millis(20)).expect("pump");
    }
    panic!("node stalled below epoch {target}");
}

fn main() {
    let primary = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("registered backend"),
        ServerConfig::with_workers(4),
    )
    .expect("bind ephemeral loopback port");
    println!("primary: sharded_map_8 on {}", primary.addr());

    let writer = Session::connect(primary.addr()).expect("writer");
    for k in 0..KEYS {
        writer.insert(k, 0).expect("seed");
    }
    writer.publish().expect("epoch 1");

    // The tree: relays subscribe to the primary and re-serve the feed;
    // leaves subscribe round-robin to the relays and serve reads.
    let mut relays: Vec<PushReplica> = Vec::new();
    let mut relay_addrs = Vec::new();
    for _ in 0..RELAYS {
        let mut relay =
            PushReplica::connect(primary.addr(), backend::by_name("sharded_map_8").unwrap())
                .expect("relay");
        relay_addrs.push(
            relay
                .serve_relay(ServerConfig::with_workers(2))
                .expect("serve relay"),
        );
        relays.push(relay);
    }
    let mut leaves: Vec<PushReplica> = (0..LEAVES)
        .map(|i| {
            let mut leaf = PushReplica::connect(
                relay_addrs[i % RELAYS],
                backend::by_name("sharded_map_8").unwrap(),
            )
            .expect("leaf");
            leaf.serve_relay(ServerConfig::with_workers(2))
                .expect("leaf serves reads");
            leaf
        })
        .collect();
    let reader = Session::connect(leaves[0].relay_addr().unwrap()).expect("leaf reader");
    println!("tree:    primary -> {RELAYS} relays -> {LEAVES} leaves");

    // Drive epochs through the tree, carrying the writer's session
    // token to a leaf read each round.
    let egress_start = primary.wire_bytes().sent;
    let mut token = SessionToken::default();
    let mut head = 1;
    for round in 1..=ROUNDS {
        let key = round as i64 % KEYS;
        writer
            .insert_tracked(key, round as i64, &mut token)
            .expect("tracked write");
        writer.publish().expect("publish");
        head += 1;
        for relay in &mut relays {
            pump_to(relay, head);
        }
        for leaf in &mut leaves {
            pump_to(leaf, head);
        }
        // Read-your-writes through the leaf: GetAt floored at the
        // token's watermark must return this round's write.
        let got = reader.get_at(key, &mut token, 1_000).expect("leaf read");
        assert_eq!(got, Some(round as i64), "leaf served a stale epoch");
    }
    let primary_egress = primary.wire_bytes().sent - egress_start;
    let relay_egress: u64 = relays
        .iter()
        .map(|r| r.relay_wire_bytes().unwrap().sent)
        .sum();

    println!("\nafter {ROUNDS} epochs:");
    println!(
        "  primary egress: {primary_egress} bytes ({RELAYS} subscribers — \
         independent of the {LEAVES} leaves)"
    );
    println!("  relay egress:   {relay_egress} bytes (the fan-out, downstream)");

    let rows = writer.metrics().expect("primary scrape");
    let value = |stage| value_of(&rows, stage).expect("counter row");
    println!(
        "  primary scrape: subscribers={} pushes={} push_demotions={} (feed head {head})",
        value(Stage::Subscribers),
        value(Stage::Pushes),
        value(Stage::PushDemotions)
    );
    assert_eq!(value(Stage::Subscribers) as usize, RELAYS);
    assert_eq!(value(Stage::PushDemotions), 0);

    for (i, node) in relays.iter().chain(leaves.iter()).enumerate() {
        let role = if i < RELAYS { "relay" } else { "leaf " };
        let stats = node.push_stats();
        println!(
            "  {role}[{i}]: applied={} pushes_applied={} repair_diff_pulls={} full_syncs={}",
            node.applied_epoch(),
            stats.pushes_applied,
            stats.diff_pulls,
            stats.full_syncs
        );
        assert_eq!(stats.diff_pulls, 0, "every epoch must arrive as a push");
    }
    println!(
        "\nsession token ended at epoch {} — every round's write was read \
         back through a leaf, two hops from the primary",
        token.epoch()
    );

    drop(reader);
    drop(leaves);
    drop(relays);
    primary.shutdown();
}
