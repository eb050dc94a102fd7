//! Load generator: N client threads with reused connections drive a
//! spawned in-process server with the workspace's Zipf read/write mix,
//! then print the bench harness's table format (throughput + latency
//! percentiles).
//!
//! ```text
//! cargo run --release --bin loadgen -- \
//!     --threads 8 --ops 100000 \
//!     --read-frac 0.9 --theta 0.99 --keys 65536 \
//!     [--batch 8] [--workers 8] [--replicas 2] [--relays 2] \
//!     [--log-dir /var/tmp/pathcopy-log] \
//!     [--metrics] [--trace [--slow-ms t]] [--metrics-interval n]
//! ```
//!
//! Every node serves the 8-shard map (`ShardedServe`). `--batch n`
//! groups updates into n-op `Batch` frames, each of which the primary
//! commits atomically via `transact`.
//!
//! `--pipeline n` keeps up to `n` requests in flight per thread through
//! the proto-v3 session API (`submit` + windowed `wait`); the default,
//! 1, is strict request/response alternation. Per-op latency runs from
//! just before `submit` to the reply, so it includes, past 1, time
//! queued in the window — and time corked: `submit` only queues the
//! frame, which leaves with the rest of the window's burst at the next
//! wait that blocks. The primary's queue
//! depth is sized to fit the window; replicas keep the default depth
//! (64), so reads may shed `Busy` if `--pipeline` exceeds it.
//!
//! `--replicas n` stands up the replication subsystem: one primary plus
//! `n` push replicas (`PushReplica`), each serving on its own port with
//! a pump thread applying the epoch diffs the primary pushes while a
//! publisher thread advances the primary's version feed. **Reads go to
//! the replicas** (round-robin by worker thread), updates to the
//! primary — the read scale-out topology the paper's O(changes) diffs
//! make cheap. `--relays r` inserts `r` relay nodes between the primary
//! and the replicas: relays subscribe to the primary, re-serve the feed
//! under the primary's epoch numbers, and the replicas subscribe to the
//! relays round-robin — the primary's push egress then scales with `r`,
//! not with the replica count. The final report prints per-node
//! push/gap/resubscribe counters.
//!
//! `--log-dir <path>` makes the primary durable: every published epoch
//! is appended to a `pathcopy-durable` segmented log in that directory
//! (diff records between periodic checkpoints) before the publish
//! returns, and the final report prints the log's head, retained epoch
//! range, size, and fsync/IO counters. Reopening the same directory on
//! a later run recovers the head state and continues the epoch
//! sequence. Combine with `--replicas` to exercise the full
//! primary → log → replica pipeline under load.
//!
//! `--metrics` scrapes the primary's per-stage latency histograms
//! (`Request::Metrics`) after the run and prints them in Prometheus
//! text format: decode→dispatch queue wait, worker execute time, and
//! reply write/flush time per request tag, plus the durable log's
//! append+fsync distribution when `--log-dir` is active, then one line
//! per engine and server counter and gauge. Reading the
//! split tells you *where* a latency regression lives — queue wait
//! rises when the threads for requests that may block (`--workers`)
//! are all taken (point requests run on the event loop and have no
//! queue), execute time when the backend slows down, write time when
//! replies outpace the sockets.
//!
//! `--trace` turns on the cluster-wide flight recorders: every node
//! (primary, relays, push replicas) gets a `pathcopy-trace` ring, the
//! publisher mints a sampled trace context per epoch, and the context
//! rides the proto-v3 envelope through queue → execute → append+fsync
//! → push fan-out → relay re-serve → leaf apply. After the run,
//! loadgen pulls each node's `TraceDump` over the wire and renders the
//! worst stitched trace end to end, with epoch numbers. `--slow-ms t`
//! arms slow-request capture: any traced request whose total exceeds
//! `t` ms has its span chain pinned past ring eviction on every node.
//!
//! `--metrics-interval n` prints last-window client-side latency
//! percentiles every `n` seconds (successive snapshots differenced via
//! `HistogramSnapshot::delta`), so a long run shows drift over time
//! instead of one blended end-of-run summary.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathcopy_bench::cli::Args;
use pathcopy_bench::table::{group_thousands, Series};
use pathcopy_concurrent::BatchOp;
use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_metrics::{LatencyHistogram, Stage};
use pathcopy_replica::PushReplica;
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{
    render_text, render_trace, trace_ids, value_of, FeedSink, Flight, MetricsSource as _, Request,
    ServerConfig, Session, SpanRecord, Ticket, TraceContext,
};
use pathcopy_workloads::{KeyDist, MixedStream, Op, OpStream as _};

/// Shards of every node's map (`sharded_map_8`, the served engine).
const SHARDS: usize = 8;

fn main() {
    let args = Args::from_env();
    let threads: usize = args.get_or("threads", 4);
    let total_ops: u64 = args.get_or("ops", 100_000);
    let read_frac: f64 = args.get_or("read-frac", 0.9);
    let theta: f64 = args.get_or("theta", 0.99);
    let keys: u64 = args.get_or("keys", 65_536);
    let batch: usize = args.get_or("batch", 1);
    let pipeline: usize = args.get_or("pipeline", 1);
    let replicas: usize = args.get_or("replicas", 0);
    let relays: usize = args.get_or("relays", 0);
    // `--workers` is the server's threads for requests that may block
    // (`Publish`, scans, diffs, sync pages, a `GetAt` waiting for its
    // epoch, scrapes). Point reads and writes execute on the event
    // loop, which also multiplexes every connection, so neither the
    // driving threads' traffic nor standing connections (publisher,
    // replica upstream sessions, idle sessions) use one. The default leaves
    // room for every driving thread to have a batch or a waiting read
    // in progress at once.
    let workers: usize = args.get_or("workers", threads.max(4));
    let prefill: u64 = args.get_or("prefill", keys / 2);
    let seed: u64 = args.get_or("seed", 42);
    let publish_ms: u64 = args.get_or("publish-ms", 2);
    let log_dir: Option<String> = args.get("log-dir").map(String::from);
    let show_metrics = args.has_flag("metrics");
    let trace_on = args.has_flag("trace");
    let slow_ms: u64 = args.get_or("slow-ms", 0);
    let metrics_interval: u64 = args.get_or("metrics-interval", 0);

    assert!(threads >= 1, "--threads must be at least 1");
    assert!(batch >= 1, "--batch must be at least 1");
    assert!(pipeline >= 1, "--pipeline must be at least 1");

    // One flight recorder per node, all armed with the same slow-request
    // threshold so a slow epoch pins its span chain cluster-wide.
    let slow_threshold = (slow_ms > 0).then(|| Duration::from_millis(slow_ms));
    let new_flight = |name: &str| {
        let flight = Flight::new(name);
        flight.set_slow_threshold(slow_threshold);
        flight
    };

    // --log-dir: persist every published epoch through the feed sink,
    // continuing the epoch sequence a previous run left in the log.
    // The queue depth must fit the pipeline window or the primary would
    // shed the tail of every full window as Busy.
    let mut config = ServerConfig::builder()
        .workers(workers)
        .queue_depth(64.max(pipeline + 1))
        .build();
    let primary_flight = trace_on.then(|| new_flight("primary"));
    config.trace = primary_flight.clone();
    let mut durable: Option<(Arc<EpochLog>, Arc<FeedPersister>)> = None;
    if let Some(dir) = &log_dir {
        let (log, recovered) =
            EpochLog::open(dir, LogConfig::default()).expect("open --log-dir epoch log");
        if recovered.head > 0 {
            println!(
                "durable log: recovered head epoch {} ({} segment(s), {} byte(s) of torn tail truncated)",
                recovered.head, recovered.segments, recovered.truncated_bytes
            );
        }
        let log = Arc::new(log);
        let persister = FeedPersister::new(Arc::clone(&log));
        if let Some(flight) = &primary_flight {
            // Traced publishes then record their append+fsync span into
            // the primary's recorder, inside the publish's timeline.
            persister.attach_flight(Arc::clone(flight));
        }
        config.feed_start = log.head() + 1;
        config.feed_sink = Some(Arc::clone(&persister) as Arc<dyn FeedSink>);
        durable = Some((log, persister));
    }
    let server = pathcopy_server::spawn(Box::new(ShardedServe::with_shards(SHARDS)), config)
        .expect("bind ephemeral loopback port");
    if let Some((_, persister)) = &durable {
        // The log's append+fsync histogram joins `Request::Metrics`
        // scrapes alongside the event loop's own stages.
        server.register_metrics_source(Arc::clone(persister) as _);
    }
    let addr = server.addr();

    // Prefill through the wire in large batches, so measured traffic
    // starts from a realistically populated map. The engine counters
    // are scraped afterwards: the report's `engine:` line is the
    // measured traffic's delta, not prefill's batches.
    let prefill_rows = {
        let c = Session::connect(addr).expect("connect for prefill");
        let mut rng_key = seed | 1;
        for chunk_start in (0..prefill).step_by(512) {
            let ops: Vec<_> = (chunk_start..(chunk_start + 512).min(prefill))
                .map(|_| {
                    // splitmix-style scramble keeps prefill keys inside the
                    // workload's key space without an extra RNG dependency.
                    rng_key = rng_key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
                    key_in_space(rng_key, keys)
                })
                .map(|k| BatchOp::Insert(k, k))
                .collect();
            if !ops.is_empty() {
                c.batch(&ops).expect("prefill batch");
            }
        }
        c.metrics().expect("scrape after prefill")
    };
    // The server runs in this process, so its node pool is this one;
    // like the engine counters, the traffic's share is a delta.
    let prefill_pool = pathcopy_core::pool::stats();

    // The replication tier: optional relays subscribed to the primary,
    // then the read replicas subscribed round-robin to the relays (or
    // straight to the primary when there are none), each serving on its
    // own port and kept fresh by its pump thread while a publisher
    // advances the primary's feed.
    // Each replica serves its share of the reader threads. Their point
    // reads run on the replica's event loop; its workers are the
    // threads for reads that may block — a `GetAt` waiting for its
    // epoch — so size them to that share, one waiting read per reader.
    let readers_per_replica = threads.div_ceil(replicas.max(1)) + 1;
    let mut push_nodes: Vec<PushReplica> = Vec::new();
    let mut read_addrs: Vec<std::net::SocketAddr> = Vec::new();
    // Every push node's serve address, in `push_nodes` order, for the
    // post-run `TraceDump` sweep.
    let mut trace_addrs: Vec<std::net::SocketAddr> = Vec::new();
    let mut relay_addrs = Vec::new();
    for r in 0..relays {
        let store = Box::new(ShardedServe::with_shards(SHARDS));
        let mut relay = PushReplica::connect(addr, store).expect("stand up relay");
        if trace_on {
            relay.set_trace(new_flight(&format!("relay{r}")));
        }
        let relay_addr = relay
            .serve_relay(ServerConfig::with_workers(2))
            .expect("bind relay listener");
        relay_addrs.push(relay_addr);
        trace_addrs.push(relay_addr);
        push_nodes.push(relay);
    }
    for i in 0..replicas {
        let upstream = if relay_addrs.is_empty() {
            addr
        } else {
            relay_addrs[i % relay_addrs.len()]
        };
        let store = Box::new(ShardedServe::with_shards(SHARDS));
        let mut leaf = PushReplica::connect(upstream, store).expect("stand up push replica");
        if trace_on {
            leaf.set_trace(new_flight(&format!("leaf{i}")));
        }
        let leaf_addr = leaf
            .serve_relay(ServerConfig::with_workers(readers_per_replica))
            .expect("bind replica listener");
        read_addrs.push(leaf_addr);
        trace_addrs.push(leaf_addr);
        push_nodes.push(leaf);
    }
    if replicas > 0 || relays > 0 {
        println!(
            "replication: {relays} relay(s) + {replicas} push replica(s) \
             bootstrapped at epoch {}; reads target the replicas",
            push_nodes.first().map_or(0, |n| n.applied_epoch())
        );
    }
    let stop = AtomicBool::new(false);

    let per_thread = total_ops / threads as u64;
    let start = Instant::now();
    // One lock-free histogram replaces the old collect-and-sort vector:
    // workers record concurrently, the report reads one snapshot.
    let latency_hist = LatencyHistogram::new();
    let mut done_ops = 0u64;
    let mut pumped_nodes = Vec::new();

    std::thread::scope(|scope| {
        // Background replication machinery. The publisher also runs for
        // a durable-but-replica-less primary (--log-dir alone): the log
        // persists *published* epochs, so without publishes it would
        // record nothing.
        let mut pump_handles = Vec::new();
        if replicas > 0 || relays > 0 || log_dir.is_some() || trace_on {
            let stop_ref = &stop;
            scope.spawn(move || {
                let publisher = Session::connect(addr).expect("publisher connect");
                // When tracing, every epoch gets its own sampled context
                // (splitmix-scrambled id, never zero) so each publish's
                // journey across the tree is one stitchable trace.
                let mut trace_seq = seed | 1;
                while !stop_ref.load(Ordering::Relaxed) {
                    if trace_on {
                        trace_seq = trace_seq
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .rotate_left(31);
                        let ctx = TraceContext::sampled(trace_seq);
                        publisher
                            .submit_traced(&Request::Publish, Some(&ctx))
                            .and_then(Ticket::wait)
                            .expect("publish epoch");
                    } else {
                        publisher.publish().expect("publish epoch");
                    }
                    std::thread::sleep(Duration::from_millis(publish_ms));
                }
            });
        }
        for node in push_nodes {
            let stop_ref = &stop;
            pump_handles.push(scope.spawn(move || {
                // The push duty cycle: block on the subscription,
                // apply, mirror. Gaps repair themselves on the next
                // frame; the publisher keeps frames coming.
                let mut node = node;
                while !stop_ref.load(Ordering::Relaxed) {
                    node.pump(Duration::from_millis(5)).expect("push pump");
                }
                node
            }));
        }

        if metrics_interval > 0 {
            // Windowed percentiles: successive snapshots differenced
            // with `HistogramSnapshot::delta`, so each line reflects
            // only the last window rather than the since-start blend.
            let stop_ref = &stop;
            let hist = &latency_hist;
            scope.spawn(move || {
                let window = Duration::from_secs(metrics_interval);
                let mut prev = hist.snapshot();
                let mut due = Instant::now() + window;
                while !stop_ref.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    if Instant::now() < due {
                        continue;
                    }
                    due += window;
                    let cur = hist.snapshot();
                    let win = cur.delta(&prev);
                    prev = cur;
                    if win.count() == 0 {
                        continue;
                    }
                    println!(
                        "window[{metrics_interval}s]: ops={} p50={:.1}us p95={:.1}us \
                         p99={:.1}us max={:.1}us",
                        win.count(),
                        win.value_at_percentile(50.0) as f64 / 1e3,
                        win.value_at_percentile(95.0) as f64 / 1e3,
                        win.value_at_percentile(99.0) as f64 / 1e3,
                        win.max() as f64 / 1e3,
                    );
                }
            });
        }

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let read_addr = if read_addrs.is_empty() {
                addr
            } else {
                read_addrs[t % read_addrs.len()]
            };
            let hist = &latency_hist;
            handles.push(scope.spawn(move || {
                let primary = Session::connect(addr).expect("worker connect");
                // With replicas, reads go to this thread's replica over a
                // second connection; without, they go to the primary.
                let reader = (read_addr != addr)
                    .then(|| Session::connect(read_addr).expect("replica connect"));
                let mut stream = MixedStream::new(
                    KeyDist::Zipf { n: keys, theta },
                    read_frac,
                    seed ^ (0xc2b2_ae35 + t as u64),
                );
                let mut ops_run = 0u64;
                let mut pending: Vec<BatchOp<i64, i64>> = Vec::with_capacity(batch);
                // Keep up to `pipeline` tickets open per session; wait
                // only when the window is full. A window of one is strict
                // request/response alternation. Per-op latency spans
                // submit→response, so it includes time corked until the
                // window's next blocking wait and time queued behind the
                // window.
                let mut window: VecDeque<(Instant, Ticket, usize, bool)> =
                    VecDeque::with_capacity(pipeline);
                let drain_one = |window: &mut VecDeque<(Instant, Ticket, usize, bool)>| {
                    let (t0, ticket, n, to_reader) = window.pop_front().expect("non-empty window");
                    // A wait sends only its own session's cork: send the
                    // other session's first, so its requests are in
                    // flight while this thread blocks.
                    if let Some(reader) = &reader {
                        let other = if to_reader { &primary } else { reader };
                        other.flush().expect("flush");
                    }
                    ticket.wait().expect("pipelined response");
                    let ns = t0.elapsed().as_nanos() as u64;
                    // One round trip carried `n` ops.
                    hist.record_n(ns / n as u64, n as u64);
                };
                while ops_run < per_thread {
                    let op = stream.next_op();
                    let (to_reader, req, n_ops) = if batch > 1 && op.is_update() {
                        pending.push(match op {
                            Op::Insert(k) => BatchOp::Insert(k, k),
                            Op::Remove(k) => BatchOp::Remove(k),
                            Op::Contains(_) => unreachable!("updates only"),
                        });
                        ops_run += 1;
                        if pending.len() < batch {
                            continue;
                        }
                        let n = pending.len();
                        let req = Request::Batch {
                            ops: std::mem::take(&mut pending),
                            guarded: false,
                        };
                        pending.reserve(batch);
                        (false, req, n)
                    } else {
                        ops_run += 1;
                        match op {
                            Op::Contains(k) => (reader.is_some(), Request::Get { key: k }, 1),
                            Op::Insert(k) => (false, Request::Insert { key: k, value: k }, 1),
                            Op::Remove(k) => (false, Request::Remove { key: k }, 1),
                        }
                    };
                    if window.len() == pipeline {
                        drain_one(&mut window);
                    }
                    let session = if to_reader {
                        reader.as_ref().expect("reader session")
                    } else {
                        &primary
                    };
                    let t0 = Instant::now();
                    let ticket = session.submit(&req).expect("pipelined submit");
                    window.push_back((t0, ticket, n_ops, to_reader));
                }
                if !pending.is_empty() {
                    let n = pending.len();
                    let req = Request::Batch {
                        ops: std::mem::take(&mut pending),
                        guarded: false,
                    };
                    let t0 = Instant::now();
                    let ticket = primary.submit(&req).expect("final batch submit");
                    window.push_back((t0, ticket, n, false));
                }
                while !window.is_empty() {
                    drain_one(&mut window);
                }
                ops_run
            }));
        }
        for h in handles {
            done_ops += h.join().expect("worker panicked");
        }
        stop.store(true, Ordering::Relaxed);
        for h in pump_handles {
            pumped_nodes.push(h.join().expect("pump thread panicked"));
        }
    });

    let elapsed = start.elapsed();
    let latencies = latency_hist.snapshot();
    let (p50, p95, p99, max) = (
        latencies.value_at_percentile(50.0),
        latencies.value_at_percentile(95.0),
        latencies.value_at_percentile(99.0),
        latencies.max(),
    );
    let ops_per_sec = done_ops as f64 / elapsed.as_secs_f64();

    let final_rows = {
        let c = Session::connect(addr).expect("scrape connect");
        c.metrics().expect("scrape")
    };
    let value = |rows: &[_], stage| value_of(rows, stage).expect("a counter row");
    let delta = |stage| value(&final_rows, stage) - value(&prefill_rows, stage);

    println!(
        "loadgen: threads={threads} workers={workers} ops={done_ops} \
         read_frac={read_frac:.2} zipf(n={keys}, theta={theta}) batch={batch} \
         pipeline={pipeline} replicas={replicas}"
    );
    let table = Series {
        title: format!(
            "Server round-trip throughput/latency ({} ops/sec)",
            group_thousands(ops_per_sec as u64)
        ),
        columns: vec![
            "threads".into(),
            "ops".into(),
            "secs".into(),
            "kops_per_sec".into(),
            "p50_us".into(),
            "p95_us".into(),
            "p99_us".into(),
            "max_us".into(),
        ],
        rows: vec![vec![
            threads as f64,
            done_ops as f64,
            elapsed.as_secs_f64(),
            ops_per_sec / 1e3,
            p50 as f64 / 1e3,
            p95 as f64 / 1e3,
            p99 as f64 / 1e3,
            max as f64 / 1e3,
        ]],
    };
    print!("{}", table.render());
    let final_pool = pathcopy_core::pool::stats();
    println!(
        "engine: ops={} attempts={} cas_failures={} noop_updates={} frozen_installs={} \
         freeze_retries={} len={} pool_nodes={} pool_exchanges={} pool_slabs={} \
         pool_depot_blocks={}",
        delta(Stage::Ops),
        delta(Stage::Attempts),
        delta(Stage::CasFailures),
        delta(Stage::NoopUpdates),
        delta(Stage::FrozenInstalls),
        delta(Stage::FreezeRetries),
        value(&final_rows, Stage::Len),
        final_pool.blocks_handed_out - prefill_pool.blocks_handed_out,
        final_pool.depot_exchanges - prefill_pool.depot_exchanges,
        final_pool.slabs_carved,
        final_pool.depot_blocks,
    );
    for (i, node) in pumped_nodes.iter().enumerate() {
        let role = if i < relays { "relay" } else { "push-replica" };
        let s = node.push_stats();
        println!(
            "{role}[{i}]: applied_epoch={} pushes={} push_entries={} stale={} gaps={} \
             resubscribes={} repair_diff_pulls={} full_syncs={}",
            node.applied_epoch(),
            s.pushes_applied,
            s.push_entries,
            s.stale_pushes,
            s.push_gaps,
            s.resubscribes,
            s.diff_pulls,
            s.full_syncs,
        );
    }

    if let Some((log, persister)) = &durable {
        let io = log.io_stats();
        let (oldest, head) = log.retained().unwrap_or((0, 0));
        println!(
            "durable log: head={head} retained={oldest}..={head} segments={} bytes={} \
             appends={} fsyncs={} bytes_written={} append_errors={}",
            log.segment_count(),
            log.total_bytes(),
            io.appends,
            io.fsyncs,
            io.bytes_written,
            persister.error_count(),
        );
        if let Some(e) = persister.take_error() {
            eprintln!("durable log: last append error: {e}");
        }
    }

    if show_metrics {
        // Scrape the primary the way an external collector would — over
        // the wire — and print the text exposition.
        let c = Session::connect(addr).expect("metrics connect");
        let rows = c.metrics().expect("metrics scrape");
        println!("--- metrics (primary) ---");
        print!("{}", render_text(&rows));
        for (i, node) in pumped_nodes.iter().enumerate() {
            let role = if i < relays { "relay" } else { "push-replica" };
            let rows = node.metrics().collect();
            println!("--- metrics ({role}[{i}] push path) ---");
            print!("{}", render_text(&rows));
        }
    }

    if trace_on {
        // Pull every node's flight recorder over the wire — the same
        // `TraceDump` frame an operator's tooling would use — stitch
        // the dumps, and render the worst fully-propagated trace.
        let mut dumps: Vec<(String, Vec<SpanRecord>)> = Vec::new();
        {
            let c = Session::connect(addr).expect("trace connect");
            dumps.push(c.trace_dump().expect("primary trace dump"));
        }
        for node_addr in &trace_addrs {
            let c = Session::connect(*node_addr).expect("trace connect");
            dumps.push(c.trace_dump().expect("node trace dump"));
        }
        for (node, spans) in &dumps {
            println!("trace: node {node} captured {} span(s)", spans.len());
        }
        // "Worst" = among the best-stitched traces (most nodes), the
        // one with the largest total recorded time.
        let best = trace_ids(&dumps)
            .into_iter()
            .map(|id| {
                let nodes = dumps
                    .iter()
                    .filter(|(_, s)| s.iter().any(|r| r.trace_id == id))
                    .count();
                let total: u64 = dumps
                    .iter()
                    .flat_map(|(_, s)| s)
                    .filter(|r| r.trace_id == id)
                    .map(|r| r.dur_ns)
                    .sum();
                (nodes, total, id)
            })
            .max_by_key(|&(nodes, total, _)| (nodes, total));
        match best {
            Some((nodes, _, id)) => {
                println!("--- worst trace (stitched across {nodes} node(s)) ---");
                print!("{}", render_trace(id, &dumps));
            }
            None => println!("trace: no sampled spans captured"),
        }
    }

    // Push nodes (relay endpoints included) shut down when dropped.
    server.shutdown();
}

/// Maps a scrambled word into the workload key space `[0, keys)`.
fn key_in_space(word: u64, keys: u64) -> i64 {
    (word % keys.max(1)) as i64
}
