//! The serving layer end to end: an in-process TCP server over the
//! sharded UC map, a writer hammering point updates through one
//! connection, and an auditor on another connection pinning named
//! snapshots and pulling `Diff`s over the socket.
//!
//! The printed table is the paper's headline property measured through
//! the network stack: the auditor's diff work tracks the number of keys
//! *changed* between two pinned versions (plus boundary paths), not the
//! 50 000-entry map size — path copying's shared subtrees are pruned by
//! pointer equality on the server, and only the change crosses the wire.
//!
//! ```text
//! cargo run --release --example kv_server_demo
//! ```

use path_copying::prelude::BatchOp;
use pathcopy_metrics::Stage;
use pathcopy_server::{backend, value_of, ServerConfig, Session};

const MAP_SIZE: i64 = 50_000;

fn main() {
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("registered backend"),
        ServerConfig::with_workers(4),
    )
    .expect("bind ephemeral loopback port");
    println!("serving sharded_map_8 on {}", server.addr());

    // Prefill through the wire in batches.
    let auditor = Session::connect(server.addr()).expect("auditor connect");
    for chunk in (0..MAP_SIZE).collect::<Vec<_>>().chunks(1000) {
        let ops: Vec<BatchOp<i64, i64>> = chunk.iter().map(|&k| BatchOp::Insert(k, 0)).collect();
        auditor.batch(&ops).expect("prefill");
    }
    println!("prefilled {MAP_SIZE} keys over the socket\n");

    println!(
        "{:>14} {:>12} {:>12} {:>14}",
        "keys_changed", "diff_size", "map_size", "diff/size"
    );
    for round in 0..6u32 {
        let changed = 16i64 << (2 * round); // 16, 64, 256, 1024, 4096, 16384
        let before = auditor.snapshot().expect("pin before-version");

        // The writer mutates `changed` keys on its own connection while
        // the pinned version stays frozen in the server's table.
        let addr = server.addr();
        std::thread::scope(|s| {
            s.spawn(move || {
                let writer = Session::connect(addr).expect("writer connect");
                for k in 0..changed.min(MAP_SIZE) {
                    // Spread updates across the key space (and shards).
                    let key = (k * 7919) % MAP_SIZE;
                    writer.insert(key, round as i64 + 1).expect("write");
                }
            });
        });

        let diff = auditor.diff(before, None).expect("diff over the wire");
        let rows = auditor.metrics().expect("scrape");
        let map_size = value_of(&rows, Stage::Len).expect("len gauge");
        println!(
            "{:>14} {:>12} {:>12} {:>14.4}",
            changed.min(MAP_SIZE),
            diff.len(),
            map_size,
            diff.len() as f64 / map_size as f64
        );
        assert!(
            diff.len() <= changed.min(MAP_SIZE) as usize,
            "diff can never exceed the number of touched keys"
        );
        auditor.release(before).expect("release");
    }

    let rows = auditor.metrics().expect("final scrape");
    let value = |stage| value_of(&rows, stage).expect("counter row");
    println!(
        "\nengine after the run: ops={} attempts={} frozen_installs={} freeze_retries={}",
        value(Stage::Ops),
        value(Stage::Attempts),
        value(Stage::FrozenInstalls),
        value(Stage::FreezeRetries)
    );
    println!("server handled {} requests total", value(Stage::Requests));
    server.shutdown();
    println!("server shut down cleanly");
}
