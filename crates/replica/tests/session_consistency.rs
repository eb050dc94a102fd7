//! Oracle property test for session consistency over push fan-out:
//! a relay chain of randomized depth (1–3), a per-epoch `BTreeMap`
//! oracle on the side, and a randomized interleaving of writes,
//! publishes, pump steps, and injected push loss (which forces the
//! pull catch-up path). Invariants checked at every read through the
//! chain's last node:
//!
//! * **read-your-writes** — a `GetAt` floored at the session token
//!   never serves below the token, and the value equals the oracle's
//!   state at the served epoch;
//! * **monotonic reads** — the served epoch never goes backwards
//!   within a session;
//! * **epoch integrity** — whatever mix of pushes and catch-up pulls
//!   got a node to epoch `E`, its store equals the oracle at `E`.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::Duration;

use proptest::prelude::*;

use pathcopy_replica::PushReplica;
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{backend, ClientError, ServerConfig, Session, SessionToken, WireError};

#[derive(Debug, Clone)]
enum Step {
    /// Write `key -> value` on the primary, tracking the watermark.
    Write(i64, i64),
    /// Publish the primary's state as the next epoch.
    Publish,
    /// Drop one in-flight push at chain level `i % depth` — the next
    /// pump there must repair via pull.
    LosePush(usize),
    /// Read `key` through the end of the chain with the session token.
    Read(i64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    // A small key space so overwrites actually collide. Write appears
    // twice to skew the mix toward mutation (the shim's `prop_oneof!`
    // has no weighted arms).
    prop_oneof![
        (0i64..12, any::<i64>()).prop_map(|(k, v)| Step::Write(k, v)),
        (12i64..24, any::<i64>()).prop_map(|(k, v)| Step::Write(k % 12, v)),
        Just(Step::Publish),
        (0usize..3).prop_map(Step::LosePush),
        (0i64..12).prop_map(Step::Read),
    ]
}

/// Pumps the chain upstream-to-downstream until every node reaches
/// `target` (bounded; panics on a stall).
fn pump_chain(chain: &mut [PushReplica], target: u64) {
    for attempt in 0..2000 {
        if chain.iter().all(|n| n.applied_epoch() >= target) {
            return;
        }
        for node in chain.iter_mut() {
            if node.applied_epoch() < target {
                match node.pump(Duration::from_millis(20)).expect("pump") {
                    // A lost push followed by silence never repairs by
                    // itself; after a few idle beats fall back to the
                    // anti-entropy pull.
                    pathcopy_replica::PushOutcome::Idle if attempt >= 3 => {
                        node.sync_now().expect("anti-entropy sync");
                    }
                    _ => {}
                }
            }
        }
    }
    let at: Vec<u64> = chain.iter().map(|n| n.applied_epoch()).collect();
    panic!("chain stalled below epoch {target}: applied = {at:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tokens_are_honored_through_randomized_relay_chains(
        depth in 1usize..=3,
        steps in prop::collection::vec(arb_step(), 8..40),
    ) {
        let primary = pathcopy_server::spawn(
            Box::new(ShardedServe::with_shards(8)),
            ServerConfig { feed_capacity: 4, workers: 2, ..ServerConfig::default() },
        ).expect("bind primary");
        // The tiny feed ring makes injected loss regularly outrun
        // retention, so catch-up exercises the full-resync path too.
        let writer = Session::connect(primary.addr()).unwrap();

        // Epoch-indexed oracle: oracle[e] is the primary state at e.
        let mut live: BTreeMap<i64, i64> = BTreeMap::new();
        live.insert(0, 0);
        writer.insert(0, 0).unwrap();
        writer.publish().unwrap();
        let mut oracle: Vec<BTreeMap<i64, i64>> = vec![BTreeMap::new(), live.clone()];

        // The chain: each node subscribes to the previous one's relay
        // endpoint; every node serves a relay feed so it can both chain
        // and answer watermarked reads.
        let mut chain: Vec<PushReplica> = Vec::new();
        let mut upstream = primary.addr();
        for _ in 0..depth {
            let mut node = PushReplica::connect(
                upstream,
                backend::by_name("sharded_map_8").unwrap(),
            ).expect("connect chain node");
            upstream = node.serve_relay(ServerConfig::with_workers(2)).expect("serve relay");
            chain.push(node);
        }
        let reader = Session::connect(upstream).unwrap();
        let mut token = SessionToken::default();
        let mut last_served = 0u64;

        for step in &steps {
            match *step {
                Step::Write(k, v) => {
                    writer.insert_tracked(k, v, &mut token).unwrap();
                    live.insert(k, v);
                }
                Step::Publish => {
                    writer.publish().unwrap();
                    oracle.push(live.clone());
                }
                Step::LosePush(i) => {
                    let node = &mut chain[i % depth];
                    // Losing a push is only a fault if one was in
                    // flight; quiet feeds yield None and that is fine.
                    node.drop_one_push(Duration::from_millis(5)).unwrap();
                }
                Step::Read(k) => {
                    // The token may name an epoch not yet published
                    // (a tracked write since the last publish): publish
                    // first, as a session-consistent client must.
                    if token.epoch() >= oracle.len() as u64 {
                        writer.publish().unwrap();
                        oracle.push(live.clone());
                    }
                    let head = oracle.len() as u64 - 1;
                    pump_chain(&mut chain, head);
                    let floor = token.epoch();
                    let value = match reader.get_at(k, &mut token, 2000) {
                        Ok(v) => v,
                        Err(ClientError::Server(WireError::Stale(at))) => {
                            panic!("pumped chain still below {floor}: at {at}")
                        }
                        Err(e) => panic!("read failed: {e}"),
                    };
                    let served = token.epoch();
                    prop_assert!(served >= floor, "served {served} below floor {floor}");
                    prop_assert!(served >= last_served, "non-monotonic: {served} < {last_served}");
                    prop_assert!(served <= head, "served past the published head");
                    last_served = served;
                    prop_assert_eq!(
                        value,
                        oracle[served as usize].get(&k).copied(),
                        "value diverged from oracle at epoch {}", served
                    );
                }
            }
        }

        // Drain: converge everything and verify full-state equality at
        // the head, whatever mix of pushes and repairs each node took.
        writer.publish().unwrap();
        oracle.push(live.clone());
        let head = oracle.len() as u64 - 1;
        pump_chain(&mut chain, head);
        for (i, node) in chain.iter().enumerate() {
            let applied = node.applied_epoch();
            prop_assert!(applied >= head);
            let (entries, complete) = node
                .store()
                .snapshot()
                .range(Bound::Unbounded, Bound::Unbounded, 0);
            prop_assert!(complete);
            let expect: Vec<(i64, i64)> = oracle[head as usize]
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect();
            prop_assert_eq!(&entries, &expect, "chain node {} diverged", i);
        }
        primary.shutdown();
    }
}
