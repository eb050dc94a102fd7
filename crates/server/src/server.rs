//! The TCP server: an event-driven core, a few worker threads for
//! requests that may block, and the named-snapshot version table.
//!
//! [`spawn`] binds a listener (an ephemeral loopback port by default)
//! and starts one event-loop thread (the private `event` module) that
//! owns every connection nonblockingly. Requests that touch only the
//! backend — point reads and writes, small batches — execute on the
//! loop thread, on the readiness wake that decoded them; requests that
//! may block or run long (a publish and its fsync, scans, diffs,
//! scrapes) run on `workers` threads, so connection count and blocking
//! capacity are independent knobs — thousands of mostly-idle
//! connections cost fds and buffers, not threads. The server reaches
//! its engine through `Box<dyn ServeBackend>`
//! ([`crate::backend::ShardedServe`], or a shared handle to one).
//!
//! The **version table** is what makes the serving layer more than a
//! remote hash map: a [`Request::Snapshot`] pins a coherent snapshot
//! under a fresh [`SnapshotId`], and later [`Request::Range`] /
//! [`Request::Diff`] calls — from *any* connection — read that frozen
//! version while writers race ahead. This is the paper's O(1)-snapshot
//! property exposed over the network: pinning a version costs an `Arc`
//! clone per shard root, never a copy of the data, and holding one never
//! blocks a writer.
//!
//! Shutdown ([`ServerHandle::shutdown`], also run on drop) is
//! deterministic: the stop flag is raised, a byte on the self-wake pipe
//! returns the event loop from its poll, and the loop's teardown closes
//! every connection socket and joins the workers.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::{ByteCounters, ByteCountersSnapshot};
use pathcopy_trace::{Flight, TraceContext};

use crate::backend::{ServeBackend, ServeSnapshot};
use crate::event::{Completions, EventLoop, PushHub, Tunables};
use crate::feed::{FeedSink, VersionFeed};
use crate::metrics::{MetricsSource, ServerMetrics};
use crate::proto::{
    Epoch, Request, Response, ServerGauges, SnapshotId, StageSummary, WireError, WireStats,
    MAX_FRAME_LEN, SYNC_PAGE_MAX_ENTRIES,
};

/// Tunables for [`spawn`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Address to bind; the default is an ephemeral loopback port
    /// (`127.0.0.1:0`), read back via [`ServerHandle::addr`].
    pub addr: SocketAddr,
    /// Threads for requests that may block: [`Request::Publish`] (holds
    /// the feed lock across the sink's fsync), an unsatisfied
    /// [`Request::GetAt`] (waits for its epoch), and everything that
    /// scans, diffs or scrapes. Point reads and writes and small batches
    /// never queue for one — they execute on the event-loop thread — so
    /// this is **not** the server's read/write parallelism, and
    /// connections are not bounded by it either (see
    /// [`ServerConfig::max_conns`]).
    pub workers: usize,
    /// Maximum accepts drained per listener readiness wake. Bounds how
    /// long an accept storm can monopolize one loop iteration before
    /// established connections get service again.
    pub backlog: usize,
    /// Maximum simultaneous connections; accepts beyond the cap are
    /// refused (the socket is closed immediately after the handshake).
    pub max_conns: usize,
    /// Per-connection bound on requests queued for or running on the
    /// workers (requests executed on the loop thread never queue, so
    /// they neither count nor shed). A pipelined client pushing past it
    /// gets an immediate [`WireError::Busy`] for the excess request —
    /// admission control instead of unbounded server-side queueing.
    /// Lock-step clients (at most one request in flight) never trip it.
    pub queue_depth: usize,
    /// Capacity of the version table. Every pinned snapshot keeps an
    /// entire map version alive under write churn, and nothing but an
    /// explicit [`Request::Release`] unpins one (snapshots deliberately
    /// outlive their connection), so the table is capped: a
    /// [`Request::Snapshot`] beyond the cap is refused with
    /// [`WireError::SnapshotLimit`].
    pub max_snapshots: usize,
    /// How many published epochs the replication feed retains
    /// ([`Request::Publish`]; min 1). A replica whose applied epoch is
    /// retired from the ring must bootstrap again via
    /// [`Request::FullSync`], so this bounds how far a replica may lag
    /// while still catching up with cheap diffs.
    pub feed_capacity: usize,
    /// First epoch the feed will assign (min 1; the default). A primary
    /// recovered from a durable log passes `log head + 1` so epoch
    /// numbers are never reused for different states.
    pub feed_start: Epoch,
    /// Optional observer of every published epoch, called under the
    /// feed lock ([`FeedSink`]) — the attachment point for
    /// `pathcopy-durable`'s `FeedPersister`. `None` (the default) keeps
    /// the feed purely in memory.
    pub feed_sink: Option<Arc<dyn FeedSink>>,
    /// Whether the event loop records per-stage latency histograms
    /// (queue wait, execute, write/flush — per request tag), scrapeable
    /// via [`Request::Metrics`]. On by default; with `false` the event
    /// loop's probe holds no histograms and the hot path pays a branch,
    /// not a clock read or an atomic (see `pathcopy_trace::Probe`).
    pub metrics: bool,
    /// Optional flight recorder for distributed request tracing
    /// ([`Request::TraceDump`]). When set, requests arriving with a
    /// wire trace context get per-stage spans (queue wait, execute,
    /// write/flush — plus fsync and push fan-out through the feed
    /// hooks) recorded into this ring; `None` (the default) disables
    /// tracing entirely and every trace call is branch-only.
    pub trace: Option<Arc<Flight>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("backlog", &self.backlog)
            .field("max_conns", &self.max_conns)
            .field("queue_depth", &self.queue_depth)
            .field("max_snapshots", &self.max_snapshots)
            .field("feed_capacity", &self.feed_capacity)
            .field("feed_start", &self.feed_start)
            .field(
                "feed_sink",
                &self.feed_sink.as_ref().map(|_| "dyn FeedSink"),
            )
            .field("metrics", &self.metrics)
            .field("trace", &self.trace.as_ref().map(|f| f.node()))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            backlog: 64,
            max_conns: 4096,
            queue_depth: 64,
            max_snapshots: 1024,
            feed_capacity: 64,
            feed_start: 1,
            feed_sink: None,
            metrics: true,
            trace: None,
        }
    }
}

impl ServerConfig {
    /// A builder starting from [`Default::default`] — the idiomatic way
    /// to set several knobs:
    ///
    /// ```
    /// use pathcopy_server::ServerConfig;
    ///
    /// let config = ServerConfig::builder()
    ///     .workers(8)
    ///     .max_conns(10_000)
    ///     .queue_depth(32)
    ///     .build();
    /// assert_eq!(config.workers, 8);
    /// ```
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: Self::default(),
        }
    }

    /// [`Default::default`] with a different worker count — shorthand
    /// for `ServerConfig::builder().workers(n).build()`, kept because
    /// it is what almost every test and tool wants.
    pub fn with_workers(workers: usize) -> Self {
        Self::builder().workers(workers).build()
    }
}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the bind address ([`ServerConfig::addr`]).
    pub fn addr(mut self, addr: SocketAddr) -> Self {
        self.config.addr = addr;
        self
    }

    /// Sets the number of threads for requests that may block
    /// ([`ServerConfig::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the per-wake accept burst ([`ServerConfig::backlog`]).
    pub fn backlog(mut self, backlog: usize) -> Self {
        self.config.backlog = backlog;
        self
    }

    /// Sets the simultaneous-connection cap
    /// ([`ServerConfig::max_conns`]).
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.config.max_conns = max_conns;
        self
    }

    /// Sets the per-connection in-flight bound
    /// ([`ServerConfig::queue_depth`]).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Sets the version-table cap ([`ServerConfig::max_snapshots`]).
    pub fn max_snapshots(mut self, max_snapshots: usize) -> Self {
        self.config.max_snapshots = max_snapshots;
        self
    }

    /// Sets the feed ring capacity ([`ServerConfig::feed_capacity`]).
    pub fn feed_capacity(mut self, feed_capacity: usize) -> Self {
        self.config.feed_capacity = feed_capacity;
        self
    }

    /// Sets the first epoch the feed assigns
    /// ([`ServerConfig::feed_start`]).
    pub fn feed_start(mut self, feed_start: Epoch) -> Self {
        self.config.feed_start = feed_start;
        self
    }

    /// Attaches a publish observer ([`ServerConfig::feed_sink`]).
    pub fn feed_sink(mut self, sink: Arc<dyn FeedSink>) -> Self {
        self.config.feed_sink = Some(sink);
        self
    }

    /// Enables or disables per-stage latency tracing
    /// ([`ServerConfig::metrics`]).
    pub fn metrics(mut self, metrics: bool) -> Self {
        self.config.metrics = metrics;
        self
    }

    /// Attaches a trace flight recorder ([`ServerConfig::trace`]).
    pub fn trace(mut self, flight: Arc<Flight>) -> Self {
        self.config.trace = Some(flight);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

/// State shared by the event loop and every worker.
pub(crate) struct Shared {
    backend: Box<dyn ServeBackend>,
    /// The version table: named snapshot handles pinned by
    /// [`Request::Snapshot`], readable from any connection until
    /// released.
    snapshots: Mutex<HashMap<SnapshotId, Arc<dyn ServeSnapshot>>>,
    next_snapshot: AtomicU64,
    max_snapshots: usize,
    /// The replication feed: epoch-keyed recent versions replicas sync
    /// from ([`Request::Publish`]/[`Request::PullDiff`]/
    /// [`Request::FullSync`]).
    pub(crate) feed: VersionFeed,
    pub(crate) requests: AtomicU64,
    /// Requests refused at admission control with [`WireError::Busy`].
    pub(crate) shed: AtomicU64,
    /// Gauge of currently open connections, maintained by the loop.
    pub(crate) open_conns: AtomicU64,
    /// Server-side wire byte counters, maintained by the loop on every
    /// socket read and write.
    pub(crate) wire: ByteCounters,
    /// The push fan-out registry; also the feed's [`EpochFanout`](
    /// crate::feed) hook.
    pub(crate) push: Arc<PushHub>,
    /// The event loop's probe and the registered metrics sources
    /// ([`Request::Metrics`], [`Request::TraceDump`]): histograms are
    /// off when [`ServerConfig::metrics`] is `false`, spans unless
    /// [`ServerConfig::trace`] supplied a flight recorder.
    pub(crate) metrics: ServerMetrics,
    pub(crate) stop: AtomicBool,
}

impl Shared {
    /// Assembles the scrapeable process gauges ([`Request::Gauges`]).
    fn gauges(&self) -> ServerGauges {
        let wire = self.wire.snapshot();
        ServerGauges {
            requests: self.requests.load(Ordering::Relaxed),
            requests_shed: self.shed.load(Ordering::Relaxed),
            open_conns: self.open_conns.load(Ordering::Relaxed),
            wire_sent: wire.sent,
            wire_received: wire.received,
            subscribers: self.push.subscriber_count(),
            pushes: self.push.pushes.load(Ordering::Relaxed),
            push_demotions: self.push.demotions.load(Ordering::Relaxed),
            feed_head: self.feed.head_epoch(),
        }
    }
}

/// A running server; dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the event loop and joins every
/// worker.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Write end of the loop's self-wake pipe, poked on shutdown.
    wake: UnixStream,
    thread: Option<JoinHandle<()>>,
}

/// Binds `config.addr` and serves `backend` until the handle is dropped.
///
/// # Errors
///
/// Any [`io::Error`] from binding the listener or spawning the accept
/// thread (e.g. the address is in use or privileged).
///
/// # Examples
///
/// ```
/// use pathcopy_server::{backend, Client, ServerConfig};
///
/// let server = pathcopy_server::spawn(
///     backend::by_name("sharded_map_8").unwrap(),
///     ServerConfig::default(),
/// )
/// .unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
/// assert_eq!(client.insert(1, 10).unwrap(), None);
/// assert_eq!(client.get(1).unwrap(), Some(10));
/// server.shutdown();
/// ```
pub fn spawn(backend: Box<dyn ServeBackend>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    // The self-wake pipe: workers (and shutdown) poke the write end, the
    // event loop polls the read end.
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    let handle_wake = wake_tx.try_clone()?;
    let completions = Arc::new(Completions::new(wake_tx));
    let push = Arc::new(PushHub::new(Arc::clone(&completions)));
    let metrics = ServerMetrics::new(config.metrics);
    if let Some(flight) = config.trace {
        metrics.probe.attach_flight(flight);
    }
    let shared = Arc::new(Shared {
        backend,
        snapshots: Mutex::new(HashMap::new()),
        next_snapshot: AtomicU64::new(0),
        max_snapshots: config.max_snapshots,
        feed: VersionFeed::configured(config.feed_capacity, config.feed_start, config.feed_sink),
        requests: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        open_conns: AtomicU64::new(0),
        wire: ByteCounters::new(),
        push: Arc::clone(&push),
        metrics,
        stop: AtomicBool::new(false),
    });
    shared.feed.set_fanout(push);
    let event_loop = EventLoop::new(
        listener,
        wake_rx,
        Arc::clone(&shared),
        completions,
        config.workers,
        Tunables {
            backlog: config.backlog,
            max_conns: config.max_conns,
            queue_depth: config.queue_depth,
        },
    )?;
    let thread = std::thread::Builder::new()
        .name("pathcopy-server-loop".to_string())
        .spawn(move || event_loop.run())?;
    Ok(ServerHandle {
        addr,
        shared,
        wake: handle_wake,
        thread: Some(thread),
    })
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests served so far, across all connections. Shed
    /// requests ([`requests_shed`](Self::requests_shed)) are not
    /// served and not counted here.
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Requests refused at admission control with [`WireError::Busy`]
    /// because their connection was already at
    /// [`ServerConfig::queue_depth`] in-flight requests.
    pub fn requests_shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Currently open connections (a gauge, momentarily stale by one
    /// event-loop iteration).
    pub fn open_connections(&self) -> u64 {
        self.shared.open_conns.load(Ordering::Relaxed)
    }

    /// The served engine, for in-process inspection (demos, tests).
    pub fn backend(&self) -> &dyn ServeBackend {
        self.shared.backend.as_ref()
    }

    /// Server-side wire byte counters: everything written to and read
    /// from all connections. The exact-accounting counterpart of
    /// [`Client::wire_bytes`](crate::client::Client::wire_bytes) — the
    /// fan-out tests prove primary egress independent of leaf count by
    /// comparing these across topologies.
    pub fn wire_bytes(&self) -> ByteCountersSnapshot {
        self.shared.wire.snapshot()
    }

    /// The scrapeable process gauges, identical to what
    /// [`Request::Gauges`] answers over the wire.
    pub fn gauges(&self) -> ServerGauges {
        self.shared.gauges()
    }

    /// The per-stage latency rows, identical to what
    /// [`Request::Metrics`] answers over the wire. Empty when the
    /// server was spawned with [`ServerConfig::metrics`] off and no
    /// source has been registered.
    pub fn metrics_report(&self) -> Vec<StageSummary> {
        self.shared.metrics.report()
    }

    /// Adds an external histogram source (a durable persister, a push
    /// replica relaying through this server) to this server's
    /// [`Request::Metrics`] scrapes.
    pub fn register_metrics_source(&self, source: Arc<dyn MetricsSource>) {
        self.shared.metrics.register_source(source);
    }

    /// Mirrors the served backend's **current** state into the feed
    /// under `epoch` — an upstream's epoch number, not this feed's next
    /// in sequence. This is how a relay republishes each applied epoch
    /// so its own subscribers and watermarked reads see the primary's
    /// epoch sequence; see [`VersionFeed::publish_at`], which also says
    /// what `trace` carries. Returns `false` if `epoch` is already
    /// behind this feed.
    pub fn publish_at(&self, epoch: Epoch, trace: Option<&TraceContext>) -> bool {
        self.shared
            .feed
            .publish_at(epoch, self.shared.backend.snapshot(), trace)
    }

    /// This node's trace flight recorder, when one was configured
    /// ([`ServerConfig::trace`]).
    pub fn flight(&self) -> Option<&Arc<Flight>> {
        self.shared.metrics.probe.flight()
    }

    /// Stops the event loop, closes every connection, joins the
    /// workers, and returns once the server is fully down. Also
    /// performed on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // A byte on the self-wake pipe returns the loop from its poll;
        // it checks the stop flag and tears down.
        let _ = (&self.wake).write(&[1u8]);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Resolves an optional snapshot id: `None` takes a fresh coherent
/// snapshot, `Some` looks up the version table.
fn resolve_snapshot(
    shared: &Shared,
    id: Option<SnapshotId>,
) -> Result<Arc<dyn ServeSnapshot>, WireError> {
    match id {
        None => Ok(shared.backend.snapshot()),
        Some(id) => shared
            .snapshots
            .lock()
            .get(&id)
            .cloned()
            .ok_or(WireError::UnknownSnapshot(id)),
    }
}

/// Executes one request against the shared state, on whichever thread
/// the event loop chose for it. Pure request→response; framing,
/// ordering, and admission control all live in the event loop. Which
/// arms may run on the loop thread is decided by `event.rs::dispatch`:
/// an arm that starts taking a lock or doing more than O(log n) work
/// must leave that list. `trace` is the
/// context to propagate into downstream stages (the durable sink and
/// the push fan-out) — for a traced request the event loop passes the
/// child of its own execute span, so downstream spans parent
/// correctly; `None` for untraced requests.
pub(crate) fn handle_request(
    shared: &Shared,
    req: Request,
    trace: Option<&TraceContext>,
) -> Response {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    match req {
        Request::Get { key } => Response::Got(shared.backend.get(key)),
        Request::Insert { key, value } => Response::Inserted(shared.backend.insert(key, value)),
        Request::Remove { key } => Response::Removed(shared.backend.remove(key)),
        Request::Cas { key, expected, new } => {
            Response::CasApplied(shared.backend.cas(key, expected, new))
        }
        Request::Batch { ops, guarded } => {
            if guarded {
                match shared.backend.transact_guarded(&ops) {
                    Ok(results) => Response::Batch(results),
                    Err(failed) => Response::BatchAborted(failed),
                }
            } else {
                Response::Batch(shared.backend.transact(&ops))
            }
        }
        Request::Snapshot => {
            let mut table = shared.snapshots.lock();
            if table.len() >= shared.max_snapshots {
                return Response::Error(WireError::SnapshotLimit(shared.max_snapshots as u64));
            }
            let snap = shared.backend.snapshot();
            let id = shared.next_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
            table.insert(id, snap);
            Response::SnapshotTaken(id)
        }
        Request::Range {
            snapshot,
            lo,
            hi,
            limit,
        } => match resolve_snapshot(shared, snapshot) {
            Err(e) => Response::Error(e),
            Ok(snap) => {
                let (entries, complete) = snap.range(lo, hi, limit as usize);
                Response::Entries { entries, complete }
            }
        },
        Request::Diff { from, to } => {
            let old = match resolve_snapshot(shared, Some(from)) {
                Ok(s) => s,
                Err(e) => return Response::Error(e),
            };
            let new = match resolve_snapshot(shared, to) {
                Ok(s) => s,
                Err(e) => return Response::Error(e),
            };
            match old.diff(new.as_ref()) {
                Some(diff) => Response::Diff(diff),
                None => Response::Error(WireError::SnapshotMismatch),
            }
        }
        Request::Release { snapshot } => {
            Response::Released(shared.snapshots.lock().remove(&snapshot).is_some())
        }
        // The snapshot is taken under the feed lock (`publish_with`),
        // not before it: an epoch number observed after a write
        // completes must name a snapshot containing that write, or
        // WriteAt watermarks would lie.
        Request::Publish => Response::Published(
            shared
                .feed
                .publish_with(|| shared.backend.snapshot(), trace),
        ),
        Request::Subscribe => Response::FeedInfo(shared.feed.info()),
        Request::PullDiff { from } => {
            let Some(from_snap) = shared.feed.get(from) else {
                return Response::Error(WireError::EpochRetired(shared.feed.info().oldest));
            };
            // `from` is retained, so the feed is non-empty and has a head.
            let (to, head) = shared.feed.head().expect("non-empty feed");
            if to == from {
                return Response::EpochDiff {
                    to,
                    entries: Vec::new(),
                };
            }
            match from_snap.diff(head.as_ref()) {
                // A diff entry encodes to at least 17 bytes, so a reply
                // that cannot possibly fit the frame cap is refused here,
                // before encoding a multi-megabyte body just to discard
                // it (the client falls back to a chunked FullSync).
                Some(entries) if entries.len() as u64 * 17 > MAX_FRAME_LEN as u64 => {
                    Response::Error(WireError::TooLarge)
                }
                Some(entries) => Response::EpochDiff { to, entries },
                None => Response::Error(WireError::SnapshotMismatch),
            }
        }
        Request::FullSync {
            epoch,
            after,
            limit,
        } => {
            let (epoch, snap) = match epoch {
                // A fresh sync serves the current head, publishing a new
                // epoch only when the feed is empty. Reusing the head
                // keeps concurrent bootstraps on one shared pin —
                // publishing per bootstrap would retire rival pins and
                // could livelock restarts on a tiny ring — and the
                // replica lands exactly on a feed version either way,
                // catching up to later writes with diffs.
                None => match shared.feed.head() {
                    Some((e, snap)) => (e, snap),
                    None => {
                        let snap = shared.backend.snapshot();
                        (shared.feed.publish(Arc::clone(&snap)), snap)
                    }
                },
                Some(e) => match shared.feed.get(e) {
                    Some(snap) => (e, snap),
                    None => {
                        return Response::Error(WireError::EpochRetired(shared.feed.info().oldest))
                    }
                },
            };
            let page = if limit == 0 {
                SYNC_PAGE_MAX_ENTRIES
            } else {
                limit.min(SYNC_PAGE_MAX_ENTRIES)
            };
            let lo = match after {
                None => std::ops::Bound::Unbounded,
                Some(k) => std::ops::Bound::Excluded(k),
            };
            let (entries, complete) = snap.range(lo, std::ops::Bound::Unbounded, page as usize);
            Response::SyncPage {
                epoch,
                entries,
                done: complete,
            }
        }
        // Registration is connection state, so SubscribePush is handled
        // inline by the event loop and never reaches a worker; seeing it
        // here means a caller bypassed the loop.
        Request::SubscribePush { .. } => Response::Error(WireError::Malformed),
        Request::GetAt {
            key,
            min_epoch,
            wait_ms,
        } => {
            // Bounded wait for the feed to reach the caller's session
            // watermark. The wait parks a worker (the event loop sends
            // a `GetAt` here only when the head is still behind it), so
            // it is clamped hard; a load-bearing deployment sizes
            // `workers` for it.
            let deadline = std::time::Instant::now()
                + std::time::Duration::from_millis(wait_ms.min(1000) as u64);
            loop {
                let head = shared.feed.head_epoch();
                if head >= min_epoch {
                    return Response::GotAt {
                        value: shared.backend.get(key),
                        epoch: head,
                    };
                }
                if std::time::Instant::now() >= deadline {
                    return Response::Error(WireError::Stale(head));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        Request::WriteAt { op } => {
            let result = match op {
                BatchOp::Get(k) => BatchResult::Got(shared.backend.get(k)),
                BatchOp::Insert(k, v) => BatchResult::Inserted(shared.backend.insert(k, v)),
                BatchOp::Remove(k) => BatchResult::Removed(shared.backend.remove(k)),
                BatchOp::Cas { key, expected, new } => {
                    BatchResult::Cas(shared.backend.cas(key, expected, new))
                }
            };
            // Read *after* the write: `publish_with` bumps the number
            // before it snapshots, so every epoch from this number on
            // contains the write — the session watermark.
            Response::WroteAt {
                result,
                watermark: shared.feed.next_epoch(),
            }
        }
        Request::Gauges => Response::Gauges(shared.gauges()),
        Request::Metrics => Response::Metrics(shared.metrics.report()),
        Request::ResetMetrics => {
            shared.metrics.reset_all();
            Response::MetricsReset
        }
        Request::TraceDump => match shared.metrics.probe.flight() {
            Some(flight) => Response::TraceDump {
                node: flight.node().to_string(),
                spans: flight.dump(),
            },
            // Tracing disabled: an empty dump, not an error, so a
            // cluster-wide collection pass needn't special-case
            // untraced nodes.
            None => Response::TraceDump {
                node: String::new(),
                spans: Vec::new(),
            },
        },
        Request::Stats => {
            let s = shared.backend.stats();
            Response::Stats(WireStats {
                ops: s.ops,
                attempts: s.attempts,
                cas_failures: s.cas_failures,
                noop_updates: s.noop_updates,
                reads: s.reads,
                frozen_installs: s.frozen_installs,
                freeze_retries: s.freeze_retries,
                len: shared.backend.len() as u64,
                snapshots: shared.snapshots.lock().len() as u64,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardedServe;
    use crate::client::Client;
    use pathcopy_concurrent::BatchOp;
    use std::net::TcpStream;

    fn sharded_server() -> ServerHandle {
        spawn(
            Box::new(ShardedServe::with_shards(8)),
            ServerConfig::default(),
        )
        .expect("bind ephemeral port")
    }

    #[test]
    fn point_ops_roundtrip_over_loopback() {
        let server = sharded_server();
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.insert(1, 10).unwrap(), None);
        assert_eq!(c.insert(1, 11).unwrap(), Some(10));
        assert_eq!(c.get(1).unwrap(), Some(11));
        assert!(c.cas(1, Some(11), Some(12)).unwrap());
        assert!(!c.cas(1, Some(11), Some(13)).unwrap());
        assert_eq!(c.remove(1).unwrap(), Some(12));
        assert_eq!(c.get(1).unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn snapshot_table_serves_all_connections() {
        let server = sharded_server();
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        for k in 0..32 {
            a.insert(k, k * 10).unwrap();
        }
        let snap = a.snapshot().unwrap();
        // The other connection can read the pinned version by id.
        let (entries, complete) = b.range(Some(snap), .., 0).unwrap();
        assert_eq!(entries.len(), 32);
        assert!(complete);
        // Release from the second connection, too.
        assert!(b.release(snap).unwrap());
        assert!(!a.release(snap).unwrap(), "double release reports absence");
        let err = a.range(Some(snap), .., 0).unwrap_err();
        assert!(matches!(
            err,
            crate::client::ClientError::Server(WireError::UnknownSnapshot(_))
        ));
        server.shutdown();
    }

    #[test]
    fn range_limit_reports_truncation() {
        let server = sharded_server();
        let mut c = Client::connect(server.addr()).unwrap();
        for k in 0..100 {
            c.insert(k, k).unwrap();
        }
        let (page, complete) = c.range(None, .., 10).unwrap();
        assert_eq!(page.len(), 10);
        assert!(!complete);
        assert!(page.windows(2).all(|w| w[0].0 < w[1].0), "ordered");
        let (rest, complete) = c.range(None, 90.., 0).unwrap();
        assert_eq!(rest.len(), 10);
        assert!(complete);
        server.shutdown();
    }

    #[test]
    fn stats_count_ops_and_snapshots() {
        let server = sharded_server();
        let mut c = Client::connect(server.addr()).unwrap();
        for k in 0..10 {
            c.insert(k, k).unwrap();
        }
        let _snap = c.snapshot().unwrap();
        let stats = c.stats().unwrap();
        assert!(stats.ops >= 10);
        assert_eq!(stats.len, 10);
        assert_eq!(stats.snapshots, 1);
        assert!(server.requests_served() >= 12);
        server.shutdown();
    }

    #[test]
    fn snapshot_table_is_capped() {
        let server = spawn(
            Box::new(ShardedServe::with_shards(2)),
            ServerConfig {
                max_snapshots: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let ids: Vec<_> = (0..3).map(|_| c.snapshot().unwrap()).collect();
        let err = c.snapshot().unwrap_err();
        assert!(matches!(
            err,
            crate::client::ClientError::Server(WireError::SnapshotLimit(3))
        ));
        assert!(c.release(ids[0]).unwrap(), "release frees a slot");
        c.snapshot().unwrap();
        server.shutdown();
    }

    #[test]
    fn feed_publish_pull_diff_and_retirement_over_the_wire() {
        let server = spawn(
            Box::new(ShardedServe::with_shards(8)),
            ServerConfig {
                feed_capacity: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();

        let info = c.feed_info().unwrap();
        assert_eq!((info.head, info.oldest, info.capacity), (0, 0, 2));

        c.insert(1, 10).unwrap();
        let e1 = c.publish().unwrap();
        assert_eq!(e1, 1);

        // At the head: the diff is empty.
        let (to, diff) = c.pull_diff(e1).unwrap();
        assert_eq!(to, e1);
        assert!(diff.is_empty());

        c.insert(1, 11).unwrap();
        c.insert(2, 20).unwrap();
        let e2 = c.publish().unwrap();
        let (to, diff) = c.pull_diff(e1).unwrap();
        assert_eq!(to, e2);
        assert_eq!(diff.len(), 2, "changed + added");

        // Capacity 2: a third publish retires e1.
        c.insert(3, 30).unwrap();
        let _e3 = c.publish().unwrap();
        let err = c.pull_diff(e1).unwrap_err();
        assert!(matches!(
            err,
            crate::client::ClientError::Server(WireError::EpochRetired(oldest)) if oldest == e2
        ));
        server.shutdown();
    }

    #[test]
    fn full_sync_pages_are_bounded_and_pinned() {
        let server = sharded_server();
        let mut c = Client::connect(server.addr()).unwrap();
        for k in 0..100 {
            c.insert(k, k * 2).unwrap();
        }
        // First page pins a fresh epoch.
        let (epoch, page1, done) = c.full_sync_page(None, None, 32).unwrap();
        assert_eq!(page1.len(), 32);
        assert!(!done);
        // Writes after the pin must not leak into later pages.
        c.insert(1000, 1).unwrap();
        c.remove(page1.last().unwrap().0 + 1).unwrap();
        let mut all = page1.clone();
        let mut after = Some(page1.last().unwrap().0);
        loop {
            let (e, page, done) = c.full_sync_page(Some(epoch), after, 32).unwrap();
            assert_eq!(e, epoch);
            all.extend_from_slice(&page);
            if done {
                break;
            }
            after = Some(page.last().unwrap().0);
        }
        assert_eq!(all.len(), 100, "exactly the pinned version's entries");
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ordered pages");
        assert_eq!(all, (0..100).map(|k| (k, k * 2)).collect::<Vec<_>>());
        server.shutdown();
    }

    #[test]
    fn guarded_batch_over_the_wire_aborts_cleanly() {
        let server = sharded_server();
        let mut c = Client::connect(server.addr()).unwrap();
        c.insert(1, 10).unwrap();
        let aborted = c
            .batch_guarded(&[
                BatchOp::Insert(2, 20),
                BatchOp::Cas {
                    key: 1,
                    expected: Some(99),
                    new: Some(100),
                },
            ])
            .unwrap()
            .unwrap_err();
        assert_eq!(aborted, vec![1]);
        assert_eq!(c.get(2).unwrap(), None, "abort left no partial writes");

        let committed = c
            .batch_guarded(&[
                BatchOp::Insert(2, 20),
                BatchOp::Cas {
                    key: 1,
                    expected: Some(10),
                    new: Some(11),
                },
            ])
            .unwrap()
            .expect("guards match");
        assert_eq!(committed.len(), 2);
        assert_eq!(c.get(1).unwrap(), Some(11));
        server.shutdown();
    }

    #[test]
    fn client_wire_bytes_count_both_directions() {
        let server = sharded_server();
        let mut c = Client::connect(server.addr()).unwrap();
        let before = c.wire_bytes();
        assert_eq!(before.total(), 0);
        c.insert(1, 10).unwrap();
        let after = c.wire_bytes();
        assert!(after.sent > 0 && after.received > 0);
        // A 100-entry range moves visibly more than a point op.
        for k in 0..100 {
            c.insert(k, k).unwrap();
        }
        let before_scan = c.wire_bytes();
        c.range(None, .., 0).unwrap();
        let scan = c.wire_bytes().since(&before_scan);
        assert!(
            scan.received > 100 * 16,
            "scan reply bytes ({}) must cover the entries",
            scan.received
        );
        server.shutdown();
    }

    #[test]
    fn malformed_frame_gets_error_then_close() {
        use std::io::{Read as _, Write as _};
        let server = sharded_server();
        // A body with a bogus request tag, and a well-formed body in the
        // retired id-less v2 envelope (`[2][tag = Get][key]`): both are
        // refused the same way.
        let bogus_tag = vec![crate::proto::PROTO_VERSION, 0xEE];
        let mut retired_v2 = vec![2u8, 1];
        retired_v2.extend_from_slice(&7i64.to_le_bytes());
        for body in [bogus_tag, retired_v2] {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(&body).unwrap();
            // The refusal is a v3 frame carrying id 0.
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply).unwrap();
            assert_eq!(reply[4], crate::proto::PROTO_VERSION, "{body:?}");
            let framed = crate::proto::read_response_enveloped(&mut &reply[..])
                .unwrap()
                .expect("one whole frame");
            assert_eq!(framed.request_id, 0);
            assert_eq!(framed.msg, Response::Error(WireError::Malformed));
            // ...and the server closed the stream right after it.
            let frame_len = 4 + u32::from_le_bytes(reply[..4].try_into().unwrap()) as usize;
            assert_eq!(reply.len(), frame_len, "nothing follows the refusal");
        }
        // Other connections are unaffected.
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.insert(1, 10).unwrap(), None);
        assert_eq!(c.get(1).unwrap(), Some(10));
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_parked_connections() {
        let server = sharded_server();
        let mut c = Client::connect(server.addr()).unwrap();
        c.insert(1, 1).unwrap();
        // `c` stays connected with its worker parked in a read; shutdown
        // must not hang on it.
        server.shutdown();
        assert!(c.get(1).is_err(), "connection is dead after shutdown");
    }

    #[test]
    fn more_connections_than_workers_are_served_in_turn() {
        let server = spawn(
            Box::new(ShardedServe::with_shards(4)),
            ServerConfig::with_workers(2),
        )
        .unwrap();
        // Sequential connect/use/drop cycles: each frees its worker for
        // the next, so 6 connections pass through 2 workers.
        for round in 0..6 {
            let mut c = Client::connect(server.addr()).unwrap();
            assert_eq!(c.insert(round, round).unwrap(), None);
        }
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.stats().unwrap().len, 6);
        server.shutdown();
    }
}
