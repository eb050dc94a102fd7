//! Per-stage latency tracing, scraped over the wire.
//!
//! Spawns a server with metrics on (the default), drives a small mixed
//! workload plus a push replica fed from a durable primary-less feed,
//! and then scrapes `Request::Metrics` like an external collector
//! would. The scrape decomposes every request's wall time into the
//! three stages the event loop can see:
//!
//! * **queue wait** — decode→dispatch: time spent parked behind the
//!   worker pool. Rises when workers saturate.
//! * **execute** — time inside the backend (the path-copying map).
//!   Rises when the data structure itself slows down.
//! * **write/flush** — reply encoded→last byte handed to the kernel.
//!   Rises when replies outpace the sockets.
//!
//! Each stage is split by request tag, so a `Batch` regression can't
//! hide inside the `Get` noise. The push replica contributes two more
//! histograms through the same scrape: push-apply nanoseconds and the
//! end-to-end epoch lag (in epochs) measured from the watermark already
//! on the wire. Every counter and gauge rides the same reply, one row each.
//!
//! ```text
//! cargo run --release --example metrics_demo
//! ```

use std::time::Duration;

use pathcopy_metrics::Stage;
use pathcopy_replica::PushReplica;
use pathcopy_server::{backend, render_text, value_of, ServerConfig, Session};

const OPS: i64 = 2_000;

fn main() {
    // Metrics are on by default; `.metrics(false)` makes every stage
    // lap a branch-only no-op for latency-critical deployments.
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::default(),
    )
    .expect("bind");
    let c = Session::connect(server.addr()).expect("connect");

    // A replica subscribed to the feed: its push-apply and epoch-lag
    // histograms join the primary's scrape via its relay endpoint.
    let mut replica = PushReplica::connect(
        server.addr(),
        backend::by_name("sharded_map_8").expect("backend"),
    )
    .expect("stand up replica");

    // A mixed workload: point ops, batches, and published epochs.
    for k in 0..OPS {
        c.insert(k, k * 7).expect("insert");
        if k % 3 == 0 {
            c.get(k / 2).expect("get");
        }
        if k % 128 == 0 {
            use pathcopy_concurrent::BatchOp;
            c.batch(&[BatchOp::Insert(-k, k), BatchOp::Get(k), BatchOp::Remove(-k)])
                .expect("batch");
            c.publish().expect("publish");
            while !matches!(
                replica.pump(Duration::from_millis(100)),
                Ok(pathcopy_replica::PushOutcome::Pushed { .. })
            ) {}
        }
    }

    // Scrape exactly like an external collector: one request, every
    // stage and tag the server has seen, in Prometheus text format.
    let rows = c.metrics().expect("metrics scrape");
    println!("{}", render_text(&rows));

    // The same rows are plain structs, so in-process consumers can
    // compute their own views; here, the queue-wait/execute split per
    // tag — the first thing to look at when round trips regress.
    println!("stage split (mean ns per request tag):");
    for row in &rows {
        let stage = Stage::from_u8(row.stage).map_or("?", |s| s.as_str());
        if row.count == 0 || !matches!(row.stage, 1 | 2) {
            continue;
        }
        println!(
            "  {:<22} {:<10} mean={:>8} p99={:>8}",
            stage,
            pathcopy_server::Request::tag_name(row.tag).unwrap_or("?"),
            row.sum / row.count,
            row.p99,
        );
    }

    // The retry counters the paper reads its scaling off, same rows.
    let value = |stage| value_of(&rows, stage).expect("counter row");
    println!(
        "engine: {} updates, {:.3} attempts per update, {} failed root CASes",
        value(Stage::Ops),
        value(Stage::Attempts) as f64 / value(Stage::Ops).max(1) as f64,
        value(Stage::CasFailures),
    );

    // Replica-side histograms, read straight off the shared handle.
    let push = replica.metrics();
    let apply = push.push_apply_snapshot();
    let lag = push.epoch_lag_snapshot();
    println!(
        "replica: {} pushes applied, apply p99 = {} ns, worst epoch lag = {} epoch(s)",
        apply.count(),
        apply.value_at_percentile(99.0),
        lag.max(),
    );

    server.shutdown();
}
