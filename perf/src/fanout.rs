//! `wire_durable_fanout`: the full write path. A primary persists every
//! published epoch to a fresh log (fsync before the `Publish` ack), a
//! relay subscribes to the primary and a leaf to the relay, each pumped
//! by its own thread. A writer session sends 100 % `Insert`/`Remove`
//! with every 128th frame a `Publish`; a probe connection waits on the
//! leaf for each next epoch. `durable` and `replica` do most of the work
//! here and none in the other three workloads.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pathcopy_core::{DiffEntry, IoCountersSnapshot};
use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_metrics::HistogramSnapshot;
use pathcopy_replica::{PushMetrics, PushOutcome, PushReplica};
use pathcopy_server::backend::{ServeBackend, ServeSnapshot};
use pathcopy_server::{
    Client, ClientError, Epoch, FeedSink, Flight, Request, Response, ServerHandle, Session,
    SessionToken, TraceContext, WireError,
};
use pathcopy_workloads::Op;

use crate::meter::{Meter, H_VISIBLE};
use crate::ops::{self, WireInputs, PUBLISH_EVERY, WIRE_KEYS};
use crate::phase::{ratio, Check, PhaseCfg, PhaseOut};
use crate::spans;
use crate::stats;
use crate::wire::{
    length_check, prefill, reset_shipped_metrics, server_config, server_counters, spawn_backend,
    Frame, Pipeline, PublishClock, ServerMark, Tally,
};

/// One `on_publish` call as the feed-sink wrapper saw it.
struct SinkCall {
    epoch: Epoch,
    ns: u64,
    bytes: u64,
    checkpoint: bool,
}

/// The traced phase's feed sink: forwards to the persister inside a
/// bench-side `durable.on_publish` span and notes what each call wrote,
/// so checkpoints (the periodic stall a median hides) get their own
/// numbers without touching the persister.
struct SpanSink {
    inner: Arc<FeedPersister>,
    calls: Mutex<Vec<SinkCall>>,
}

impl FeedSink for SpanSink {
    fn on_publish(
        &self,
        epoch: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        snap: &Arc<dyn ServeSnapshot>,
    ) {
        self.on_publish_traced(epoch, prev, snap, None);
    }

    fn on_publish_traced(
        &self,
        epoch: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) {
        let log = self.inner.log();
        let bytes_before = log.io_stats().bytes_written;
        let t0 = Instant::now();
        spans::timed(0, epoch, "durable.on_publish", |_| {
            self.inner.on_publish_traced(epoch, prev, snap, trace);
        });
        let call = SinkCall {
            epoch,
            ns: t0.elapsed().as_nanos() as u64,
            bytes: log.io_stats().bytes_written - bytes_before,
            checkpoint: log.last_checkpoint() == epoch,
        };
        self.calls
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(call);
    }
}

/// Counters a pump thread publishes after every pump, so the main
/// thread can read a node's progress while the thread owns the node.
#[derive(Default)]
struct NodeGauges {
    push_entries: AtomicU64,
    gaps: AtomicU64,
    resubscribes: AtomicU64,
    upstream_bytes: AtomicU64,
}

impl NodeGauges {
    fn publish(&self, node: &PushReplica) {
        let push = node.push_stats();
        self.push_entries
            .store(push.push_entries, Ordering::Relaxed);
        self.gaps.store(push.push_gaps, Ordering::Relaxed);
        self.resubscribes
            .store(push.resubscribes, Ordering::Relaxed);
        self.upstream_bytes.store(
            node.replica().primary_wire_bytes().received,
            Ordering::Relaxed,
        );
    }
}

/// A node's counters and histograms at one end of the measured interval.
struct NodeMark {
    push_entries: u64,
    gaps: u64,
    resubscribes: u64,
    upstream_bytes: u64,
    push_apply: HistogramSnapshot,
    epoch_lag: HistogramSnapshot,
}

/// What the main thread can read of a node while a pump thread owns it.
#[derive(Clone)]
struct NodeView {
    gauges: Arc<NodeGauges>,
    metrics: Arc<PushMetrics>,
}

impl NodeView {
    fn mark(&self) -> NodeMark {
        NodeMark {
            push_entries: self.gauges.push_entries.load(Ordering::Relaxed),
            gaps: self.gauges.gaps.load(Ordering::Relaxed),
            resubscribes: self.gauges.resubscribes.load(Ordering::Relaxed),
            upstream_bytes: self.gauges.upstream_bytes.load(Ordering::Relaxed),
            push_apply: self.metrics.push_apply_snapshot(),
            epoch_lag: self.metrics.epoch_lag_snapshot(),
        }
    }
}

struct Node {
    replica: PushReplica,
    view: NodeView,
}

/// Connects a push replica to `upstream`, bootstraps it, and turns it
/// into a serving endpoint. Returns the node and its bootstrap time.
fn stand_up(upstream: std::net::SocketAddr, name: &str, traced: bool) -> (Node, f64) {
    let t0 = Instant::now();
    let mut replica = spans::maybe_timed(0, 0, "replica.connect", |_| {
        PushReplica::connect(upstream, spawn_backend())
    })
    .expect("bootstrap a push replica");
    let bootstrap_s = t0.elapsed().as_secs_f64();
    let flight = traced.then(|| Flight::new(name));
    if let Some(flight) = &flight {
        replica.set_trace(Arc::clone(flight));
    }
    replica
        .serve_relay(server_config(traced, flight.as_ref()))
        .expect("bind the relay endpoint");
    let node = Node {
        view: NodeView {
            gauges: Arc::new(NodeGauges::default()),
            metrics: replica.metrics(),
        },
        replica,
    };
    node.view.gauges.publish(&node.replica);
    (node, bootstrap_s)
}

/// A directory under `perf/out` that is removed when the workload is
/// dropped, whether or not it ran.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The workload's counters at one end of the measured interval.
struct Mark {
    server: ServerMark,
    io: IoCountersSnapshot,
    head: Epoch,
    fsync: HistogramSnapshot,
    errors: u64,
    relay: NodeMark,
    leaf: NodeMark,
}

/// What the load, probe and pump threads of one run share.
struct Shared<'a> {
    meter: &'a Meter,
    clock: &'a PublishClock,
    /// Set by the writer once its final `Publish` is acknowledged;
    /// probe and pumps run until they have seen that epoch.
    final_epoch: &'a AtomicU64,
    /// The epoch set-up published the prefilled state as.
    first_epoch: Epoch,
    traced: bool,
}

/// `wire_durable_fanout`, set up.
pub struct WireDurableFanout {
    primary: ServerHandle,
    log: Arc<EpochLog>,
    persister: Arc<FeedPersister>,
    sink: Option<Arc<SpanSink>>,
    relay: Node,
    leaf: Node,
    writer: Session,
    probe: Client,
    inputs: WireInputs,
    bootstrap_ms: f64,
    first_epoch: Epoch,
    /// Declared last: removed after the log above it is closed.
    log_dir: ScratchDir,
}

impl WireDurableFanout {
    /// Generates the inputs, opens a fresh log, spawns and prefills the
    /// primary, publishes the prefilled state, bootstraps relay and
    /// leaf from it, connects writer and probe.
    pub fn set_up(cfg: &PhaseCfg) -> Self {
        static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
        let inputs = ops::wire_inputs(cfg.seed, 1, 0.0);
        let log_dir = ScratchDir(cfg.out_dir.join(format!(
            "log_{}_{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        )));
        let _ = fs::remove_dir_all(&log_dir.0);
        // The flush policy is fixed: `LogConfig::default()` fsyncs every
        // appended epoch before the publish is acknowledged.
        let (log, _) = EpochLog::open(&log_dir.0, LogConfig::default()).expect("open a fresh log");
        let log = Arc::new(log);
        let persister = FeedPersister::new(Arc::clone(&log));
        let flight = cfg.traced.then(|| Flight::new("primary"));
        if let Some(flight) = &flight {
            persister.attach_flight(Arc::clone(flight));
        }
        let sink = cfg.traced.then(|| {
            Arc::new(SpanSink {
                inner: Arc::clone(&persister),
                calls: Mutex::new(Vec::new()),
            })
        });
        let mut config = server_config(cfg.traced, flight.as_ref());
        config.feed_start = log.head() + 1;
        config.feed_sink = Some(match &sink {
            Some(sink) => Arc::clone(sink) as Arc<dyn FeedSink>,
            None => Arc::clone(&persister) as Arc<dyn FeedSink>,
        });
        let primary =
            pathcopy_server::spawn(spawn_backend(), config).expect("bind an ephemeral port");
        if cfg.traced {
            primary.register_metrics_source(Arc::clone(&persister) as _);
        }
        prefill(primary.backend(), &inputs.prefill);
        let writer = Session::connect(primary.addr()).expect("connect the writer");
        // Epoch 1 is the prefilled state: the log's first checkpoint and
        // what relay and leaf bootstrap from.
        let first_epoch = match writer.call(&Request::Publish) {
            Ok(Response::Published(epoch)) => epoch,
            other => panic!("publishing the prefilled state failed: {other:?}"),
        };
        let (relay, relay_s) = stand_up(primary.addr(), "relay", cfg.traced);
        let relay_addr = relay.replica.relay_addr().expect("relay is serving");
        let (leaf, leaf_s) = stand_up(relay_addr, "leaf", cfg.traced);
        let leaf_addr = leaf.replica.relay_addr().expect("leaf is serving");
        let probe = Client::connect(leaf_addr).expect("connect the probe");
        WireDurableFanout {
            primary,
            log,
            persister,
            sink,
            relay,
            leaf,
            writer,
            probe,
            inputs,
            log_dir,
            bootstrap_ms: (relay_s + leaf_s) * 1e3,
            first_epoch,
        }
    }

    /// Warm-up, measured windows, then the final epoch, the response
    /// gates and the durability check.
    pub fn run(self, cfg: &PhaseCfg) -> PhaseOut {
        let meter = Meter::new(2);
        let clock = PublishClock::new();
        let final_epoch = AtomicU64::new(0);
        let shared = Shared {
            meter: &meter,
            clock: &clock,
            final_epoch: &final_epoch,
            first_epoch: self.first_epoch,
            traced: cfg.traced,
        };
        let (relay_view, leaf_view) = (self.relay.view.clone(), self.leaf.view.clone());
        // The nodes and the probe move to their threads for the run and
        // come back for the checks.
        let (mut relay, mut leaf, mut probe) = (self.relay, self.leaf, self.probe);
        let mark = || Mark {
            server: ServerMark::take(&self.primary),
            io: self.log.io_stats(),
            head: self.log.head(),
            fsync: self.persister.append_fsync_snapshot(),
            errors: self.persister.error_count(),
            relay: relay_view.mark(),
            leaf: leaf_view.mark(),
        };

        let (windows, before, after, report, tally, flushed, probe_reads, pump_ns) =
            std::thread::scope(|scope| {
                let shared = &shared;
                let relay_pump = scope.spawn(|| pump_loop(shared, &mut relay));
                let leaf_pump = scope.spawn(|| pump_loop(shared, &mut leaf));
                let writer = scope.spawn(|| {
                    writer_loop(shared, &self.writer, &self.inputs.ops[0], self.log.dir())
                });
                let prober = scope.spawn(|| probe_loop(shared, &mut probe));

                std::thread::sleep(cfg.warmup);
                reset_shipped_metrics(&self.primary, cfg.traced);
                let before = mark();
                let windows = meter.measure(cfg.windows, cfg.window);
                let after = mark();
                let report = self.primary.metrics_report();
                meter.stop();
                let (tally, flushed) = writer.join().expect("writer panicked");
                let probe_reads = prober.join().expect("probe panicked");
                let mut pump_ns = relay_pump.join().expect("relay pump panicked");
                pump_ns.extend(leaf_pump.join().expect("leaf pump panicked"));
                (
                    windows,
                    before,
                    after,
                    report,
                    tally,
                    flushed,
                    probe_reads,
                    pump_ns,
                )
            });

        let ops: u64 = windows.iter().map(|w| w.ops).sum();
        let mut counters = BTreeMap::new();
        let insert_tag = Request::Insert { key: 0, value: 0 }.tag_byte();
        server_counters(
            &before.server,
            &after.server,
            ops,
            &report,
            insert_tag,
            &mut counters,
        );
        layer_counters(
            &before,
            &after,
            self.sink.as_deref(),
            &pump_ns,
            &mut counters,
        );
        counters.insert("replica.bootstrap_ms", self.bootstrap_ms);

        let quiet = self.persister.error_count() == 0
            && counters["replica.gaps"] == 0.0
            && counters["replica.resubscribes"] == 0.0;
        let mut checks = vec![
            length_check(self.primary.backend().len(), &[tally]),
            Check::new(
                "no append errors, gaps or resubscribes",
                quiet,
                format!(
                    "append_errors {}, gaps {}, resubscribes {}",
                    self.persister.error_count(),
                    counters["replica.gaps"],
                    counters["replica.resubscribes"]
                ),
            ),
        ];
        let (durability, recover_ms, recovered) = durability_check(
            &self.log_dir.0,
            tally.last_epoch,
            &flushed,
            self.primary.backend(),
            &leaf.replica,
        );
        checks.push(durability);
        counters.insert("durable.recover_ms", recover_ms);
        counters.insert("durable.recover_entries", recovered);

        // Connections first, then the nodes downstream to upstream.
        drop(self.writer);
        drop(probe);
        drop(leaf);
        drop(relay);
        self.primary.shutdown();
        PhaseOut {
            windows,
            attempted: tally.attempted + probe_reads,
            failed: meter.failed(),
            checks,
            counters,
            gen: self.inputs.cost,
        }
    }
}

/// A node's duty cycle: block on the subscription, apply, mirror
/// downstream — until it has applied the writer's final epoch. Returns
/// the bench-side time of every pump that applied a push (traced only).
fn pump_loop(shared: &Shared<'_>, node: &mut Node) -> Vec<u64> {
    let mut pump_ns = Vec::new();
    loop {
        let done = shared.final_epoch.load(Ordering::Acquire);
        if done != 0 && node.replica.applied_epoch() >= done {
            return pump_ns;
        }
        let t0 = Instant::now();
        let outcome = spans::maybe_timed(0, 0, "replica.pump", |_| {
            node.replica.pump(Duration::from_millis(5))
        });
        match outcome {
            Ok(PushOutcome::Pushed { .. }) if shared.traced => {
                pump_ns.push(t0.elapsed().as_nanos() as u64);
            }
            Ok(_) => {}
            Err(e) => panic!("push pump failed: {e}"),
        }
        node.view.gauges.publish(&node.replica);
    }
}

/// Thread A: 100 % `Insert`/`Remove`, every 128th frame a `Publish`.
/// After the stop it publishes the final epoch `E` — everything the
/// writer was ever acknowledged for is in it — and returns the segment
/// sizes at that ack: every byte below them is known flushed.
fn writer_loop(
    shared: &Shared<'_>,
    session: &Session,
    ops: &[Op],
    log_dir: &Path,
) -> (Tally, Vec<(String, u64)>) {
    let mut pipe = Pipeline::new(session, shared.meter.slot(0), shared.traced, 0)
        .publishing(shared.clock, shared.first_epoch);
    let mut next_epoch = shared.first_epoch + 1;
    for (i, &op) in ops.iter().cycle().enumerate() {
        if shared.meter.stopped() {
            break;
        }
        pipe.submit(Frame::Op(op));
        if (i + 1) % PUBLISH_EVERY == 0 {
            pipe.submit(Frame::Publish { expect: next_epoch });
            next_epoch += 1;
        }
    }
    pipe.drain();
    pipe.submit(Frame::Publish { expect: next_epoch });
    let tally = pipe.finish();
    let flushed = segment_sizes(log_dir);
    shared
        .final_epoch
        .store(tally.last_epoch, Ordering::Release);
    (tally, flushed)
}

/// Thread B: waits on the leaf for each next epoch, so visibility is
/// event-driven, and joins the epoch a `GotAt` was served at to the
/// writer's submit instant. Returns the reads it issued.
fn probe_loop(shared: &Shared<'_>, probe: &mut Client) -> u64 {
    let slot = shared.meter.slot(1);
    let mut seen = shared.first_epoch;
    let mut reads = 0;
    loop {
        let done = shared.final_epoch.load(Ordering::Acquire);
        if done != 0 && seen >= done {
            return reads;
        }
        let winding_down = shared.meter.stopped();
        let mut token = SessionToken::default();
        token.observe(seen + 1);
        let key = (seen % WIRE_KEYS) as i64;
        let wait_ms = if winding_down { 20 } else { 1000 };
        reads += 1;
        match probe.get_at(key, &mut token, wait_ms) {
            Ok(value) => {
                let now = shared.clock.now_ns();
                let epoch = token.epoch();
                let submitted = shared.clock.slot(epoch).load(Ordering::Acquire);
                if submitted != 0 && now > submitted {
                    slot.record(H_VISIBLE, now - submitted);
                }
                if value.is_some_and(|v| v != key) || epoch <= seen {
                    slot.fail();
                }
                seen = epoch;
            }
            // No publish reached the leaf within the wait: expected
            // only while the writer winds down.
            Err(ClientError::Server(WireError::Stale(_))) => {
                if !winding_down {
                    slot.fail();
                }
            }
            // The connection is gone; nothing more to probe.
            Err(_) => {
                slot.fail();
                return reads;
            }
        }
    }
}

/// `durable.*`, `replica.*` and `log_bytes_per_change`: counter and
/// histogram deltas over the measured interval.
fn layer_counters(
    before: &Mark,
    after: &Mark,
    sink: Option<&SpanSink>,
    pump_ns: &[u64],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let io = after.io.since(&before.io);
    let epochs = after.head - before.head;
    let changes = after.leaf.push_entries - before.leaf.push_entries;
    let fsync = after.fsync.delta(&before.fsync);
    out.insert("log_bytes_per_change", ratio(io.bytes_written, changes));
    out.insert(
        "durable.append_fsync_us",
        stats::percentile(&fsync, 50.0) / 1e3,
    );
    out.insert(
        "durable.append_fsync_p99_us",
        stats::percentile(&fsync, 99.0) / 1e3,
    );
    out.insert("durable.fsyncs_per_epoch", ratio(io.fsyncs, epochs));
    out.insert("durable.bytes_per_epoch", ratio(io.bytes_written, epochs));
    out.insert(
        "durable.append_errors",
        (after.errors - before.errors) as f64,
    );
    if let Some(sink) = sink {
        let calls = sink.calls.lock().unwrap_or_else(|e| e.into_inner());
        let measured = || {
            calls
                .iter()
                .filter(|c| c.epoch > before.head && c.epoch <= after.head)
        };
        let total: u64 = measured().map(|c| c.bytes).sum();
        let checkpoint_bytes: u64 = measured().filter(|c| c.checkpoint).map(|c| c.bytes).sum();
        out.insert(
            "durable.checkpoint_bytes_frac",
            ratio(checkpoint_bytes, total),
        );
        let ms: Vec<f64> = measured()
            .filter(|c| c.checkpoint)
            .map(|c| c.ns as f64 / 1e6)
            .collect();
        out.insert("durable.checkpoint_ms", stats::median(&ms));
    }

    let apply = after.leaf.push_apply.delta(&before.leaf.push_apply);
    let lag = after.leaf.epoch_lag.delta(&before.leaf.epoch_lag);
    out.insert(
        "replica.push_apply_us",
        stats::percentile(&apply, 50.0) / 1e3,
    );
    out.insert(
        "replica.epoch_lag_p50",
        lag.value_at_percentile(50.0) as f64,
    );
    out.insert("replica.epoch_lag_max", lag.max() as f64);
    out.insert(
        "replica.push_bytes_per_change",
        ratio(
            after.leaf.upstream_bytes - before.leaf.upstream_bytes,
            changes,
        ),
    );
    let both = |f: fn(&NodeMark) -> u64| {
        (f(&after.relay) - f(&before.relay) + f(&after.leaf) - f(&before.leaf)) as f64
    };
    out.insert("replica.gaps", both(|m| m.gaps));
    out.insert("replica.resubscribes", both(|m| m.resubscribes));
    if !pump_ns.is_empty() {
        let us: Vec<f64> = pump_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        out.insert("replica.pump_us", stats::median(&us));
    }
}

/// The replayed entries, the recovered head, and the recovery time in
/// milliseconds.
type Recovered = (Vec<(i64, i64)>, Epoch, f64);

/// Crashes a copy of the log at the final ack and recovers it: copies
/// the log directory, truncates every segment of the copy to the size
/// it had when epoch `e` was acknowledged (discarding anything not
/// known flushed), appends a torn half-record, then requires
/// `EpochLog::open` + `replay` on the copy, the primary's scan and the
/// leaf's scan to be equal at `e`. Returns the verdict, the recovery
/// time in milliseconds and the number of entries recovered.
fn durability_check(
    log_dir: &Path,
    e: Epoch,
    flushed: &[(String, u64)],
    primary: &dyn ServeBackend,
    leaf: &PushReplica,
) -> (Check, f64, f64) {
    let name = "log replay == primary scan == leaf scan at the final epoch";
    let copy = log_dir.with_extension("crash");
    let _ = fs::remove_dir_all(&copy);
    let recover = || -> Result<Recovered, String> {
        let io = |e: std::io::Error| e.to_string();
        fs::create_dir_all(&copy).map_err(io)?;
        for (file, size) in flushed {
            let to = copy.join(file);
            fs::copy(log_dir.join(file), &to).map_err(io)?;
            let f = fs::OpenOptions::new().write(true).open(&to).map_err(io)?;
            f.set_len(*size).map_err(io)?;
        }
        let (newest, _) = flushed.last().ok_or("the log has no segment")?;
        append_torn_record(&copy.join(newest), e + 1).map_err(io)?;
        let t0 = Instant::now();
        let (replayed, head) = spans::maybe_timed(0, e, "durable.recover", |_| {
            let (log, _) =
                EpochLog::open(&copy, LogConfig::default()).map_err(|e| e.to_string())?;
            log.replay().map_err(|e| e.to_string())
        })?;
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok((replayed.snapshot_all().to_sorted_vec(), head, recover_ms))
    };
    let scan = |store: &dyn ServeBackend| {
        use std::ops::Bound::Unbounded;
        store.snapshot().range(Unbounded, Unbounded, usize::MAX).0
    };
    let verdict = match recover() {
        Ok((replayed, head, recover_ms)) => {
            let primary = scan(primary);
            let leaf_scan = scan(leaf.replica().store().as_ref());
            let ok = head == e
                && leaf.applied_epoch() == e
                && replayed == primary
                && primary == leaf_scan;
            let detail = format!(
                "epoch {e}: log head {head} with {} entries, primary {}, leaf {} at epoch {}",
                replayed.len(),
                primary.len(),
                leaf_scan.len(),
                leaf.applied_epoch()
            );
            (
                Check::new(name, ok, detail),
                recover_ms,
                replayed.len() as f64,
            )
        }
        Err(why) => (Check::new(name, false, why), 0.0, 0.0),
    };
    let _ = fs::remove_dir_all(&copy);
    verdict
}

/// `(file name, size)` of every segment in `dir`, oldest first.
fn segment_sizes(dir: &Path) -> Vec<(String, u64)> {
    let mut sizes: Vec<(String, u64)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let size = entry.metadata().ok()?.len();
            name.ends_with(".seg").then_some((name, size))
        })
        .collect();
    sizes.sort();
    sizes
}

/// Appends the first half of a well-formed diff record for `epoch` —
/// what a crash in the middle of the next append leaves behind.
fn append_torn_record(segment: &Path, epoch: Epoch) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut body = Vec::new();
    Response::EpochDiff {
        to: epoch,
        entries: (0..64).map(|k| DiffEntry::Added(k, k)).collect(),
    }
    .encode(&mut body);
    let mut record = Vec::with_capacity(8 + body.len());
    record.extend_from_slice(&(body.len() as u32).to_le_bytes());
    record.extend_from_slice(&pathcopy_durable::record::crc32(&body).to_le_bytes());
    record.extend_from_slice(&body);
    let mut f = fs::OpenOptions::new().append(true).open(segment)?;
    f.write_all(&record[..record.len() / 2])?;
    f.sync_all()
}
