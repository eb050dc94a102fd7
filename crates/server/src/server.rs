//! The TCP server: an event-driven core and a few worker threads for
//! requests that may block.
//!
//! [`spawn`] binds a listener (an ephemeral loopback port by default)
//! and starts one event-loop thread (the private `event` module) that
//! owns every connection nonblockingly. Requests that touch only the
//! backend — point reads and every write, batches of any size — execute
//! on the loop thread, on the readiness wake that decoded them, so the
//! loop is the served root's only writer; requests that may block or
//! scan (a publish and its fsync, ranges, diffs, scrapes) run on
//! `workers` threads and only read, so connection count and blocking
//! capacity are independent knobs — thousands of mostly-idle
//! connections cost fds and buffers, not threads. The server reaches
//! its engine through `Box<dyn ServeBackend>`
//! ([`crate::backend::TreapServe`], or a shared handle to one).
//!
//! The **version feed** is what makes the serving layer more than a
//! remote hash map: a [`Request::Publish`] pins a coherent snapshot
//! under the next [`Epoch`], and later [`Request::Range`] /
//! [`Request::PullDiff`] calls — from *any* connection — read that
//! frozen version while writers race ahead, until the ring retires it.
//! This is the paper's O(1)-snapshot property exposed over the network:
//! pinning a version costs one `Arc` clone of the root, never a copy
//! of the data, and holding one never blocks a writer.
//!
//! Shutdown ([`ServerHandle::shutdown`], also run on drop) is
//! deterministic: the stop flag is raised, a byte on the self-wake pipe
//! returns the event loop from its poll, and the loop's teardown closes
//! every connection socket and joins the workers.

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::{ByteCounters, ByteCountersSnapshot};
use pathcopy_metrics::Stage;
use pathcopy_trace::{Flight, TraceContext};

use crate::backend::{ServeBackend, ServeSnapshot};
use crate::event::{Completions, EventLoop, PushHub};
use crate::feed::{FeedSink, VersionFeed};
use crate::metrics::{value_row, MetricsSource, ServerMetrics};
use crate::proto::{
    diff_fits_frame, Epoch, Request, Response, StageSummary, WireError, SYNC_PAGE_MAX_ENTRIES,
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
    /// scans, diffs or scrapes. Point reads and every write, batches of
    /// any size included, never queue for one — they execute on the
    /// event-loop thread — so this is **not** the server's read/write
    /// parallelism, and connections are not bounded by it either (the
    /// event loop caps them at a fixed 4096).
    pub workers: usize,
    /// Per-connection bound on requests queued for or running on the
    /// workers (requests executed on the loop thread never queue, so
    /// they neither count nor shed). A pipelined client pushing past it
    /// gets an immediate [`WireError::Busy`] for the excess request —
    /// admission control instead of unbounded server-side queueing.
    /// Lock-step clients (at most one request in flight) never trip it.
    pub queue_depth: usize,
    /// How many published epochs the replication feed retains
    /// ([`Request::Publish`]; min 1). A replica whose applied epoch is
    /// retired from the ring must bootstrap again with [`Request::Range`]
    /// pages of the feed head, so this bounds how far a replica may lag
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
    /// not a clock read or an atomic (see `pathcopy_trace::Probe`). The
    /// scrape's counter and gauge rows are reported either way.
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
            .field("queue_depth", &self.queue_depth)
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
            queue_depth: 64,
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

    /// Sets the per-connection in-flight bound
    /// ([`ServerConfig::queue_depth`]).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
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
    /// The version feed: the only way a version is named on the wire.
    /// Epoch-keyed recent versions that replicas sync from and
    /// [`Request::Range`] scans by epoch ([`Request::Publish`]/
    /// [`Request::PullDiff`]).
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
    /// Every number this node exports ([`Request::Metrics`]): the
    /// histogram rows, then one row per engine and server counter and
    /// gauge. Those come from atomics the server keeps anyway, so they
    /// are reported whatever [`ServerConfig::metrics`] says, `0`
    /// included, and [`Request::ResetMetrics`] leaves them alone. The
    /// two node-pool gauges are process-wide: every server, relay and
    /// replica in one process reads the same pool.
    fn report(&self) -> Vec<StageSummary> {
        let engine = self.backend.stats();
        let pool = pathcopy_core::pool::stats();
        let wire = self.wire.snapshot();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut rows = self.metrics.report();
        // Counter and gauge bytes sort after every histogram stage's, so
        // appending them in byte order keeps the reply ascending.
        rows.extend([
            value_row(Stage::Ops, engine.ops),
            value_row(Stage::Attempts, engine.attempts),
            value_row(Stage::CasFailures, engine.cas_failures),
            value_row(Stage::NoopUpdates, engine.noop_updates),
            value_row(Stage::Reads, engine.reads),
            value_row(Stage::Requests, load(&self.requests)),
            value_row(Stage::RequestsShed, load(&self.shed)),
            value_row(Stage::WireSent, wire.sent),
            value_row(Stage::WireReceived, wire.received),
            value_row(Stage::Pushes, load(&self.push.pushes)),
            value_row(Stage::PushDemotions, load(&self.push.demotions)),
            value_row(Stage::Len, self.backend.len() as u64),
            value_row(Stage::OpenConns, load(&self.open_conns)),
            value_row(Stage::Subscribers, self.push.subscriber_count()),
            value_row(Stage::PoolSlab, pool.slab_bytes),
            value_row(Stage::PoolDepotBlocks, pool.depot_blocks),
        ]);
        rows
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
/// use pathcopy_server::{backend, ServerConfig, Session};
///
/// let server = pathcopy_server::spawn(
///     backend::by_name("sharded_map_8").unwrap(),
///     ServerConfig::default(),
/// )
/// .unwrap();
/// let client = Session::connect(server.addr()).unwrap();
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
        config.queue_depth,
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

    /// The served engine, for in-process inspection (demos, tests).
    pub fn backend(&self) -> &dyn ServeBackend {
        self.shared.backend.as_ref()
    }

    /// Server-side wire byte counters: everything written to and read
    /// from all connections. The exact-accounting counterpart of
    /// [`Session::wire_bytes`](crate::client::Session::wire_bytes) — the
    /// fan-out tests prove primary egress independent of leaf count by
    /// comparing these across topologies.
    pub fn wire_bytes(&self) -> ByteCountersSnapshot {
        self.shared.wire.snapshot()
    }

    /// Every number this node exports, identical to what
    /// [`Request::Metrics`] answers over the wire: the per-stage latency
    /// rows, then one row per counter and gauge. With
    /// [`ServerConfig::metrics`] off and no source registered, only the
    /// counter and gauge rows.
    pub fn metrics_report(&self) -> Vec<StageSummary> {
        self.shared.report()
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

/// The snapshot the feed retains for `epoch`, or
/// [`WireError::EpochRetired`] naming the oldest epoch it still has.
fn retained(shared: &Shared, epoch: Epoch) -> Result<Arc<dyn ServeSnapshot>, WireError> {
    shared
        .feed
        .get(epoch)
        .ok_or_else(|| WireError::EpochRetired(shared.feed.info().oldest))
}

/// Executes one request against the shared state, on whichever thread
/// the event loop chose for it. Pure request→response; framing,
/// ordering, and admission control all live in the event loop. Which
/// arms run on the loop thread is decided by `event.rs::dispatch`:
/// every arm that writes the backend does, so the loop is the served
/// root's one writer, and the arms a worker runs only read. A writing
/// arm must not take a lock or wait; a read arm that starts to must
/// leave the loop's list. `trace` is the
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
        Request::Range {
            epoch,
            lo,
            hi,
            limit,
        } => match epoch.map_or_else(|| Ok(shared.backend.snapshot()), |e| retained(shared, e)) {
            Err(e) => Response::Error(e),
            Ok(snap) => {
                // Every page is clamped, so no reply can trip the frame
                // cap; `0` asks for the server's page size.
                let page = match limit {
                    0 => SYNC_PAGE_MAX_ENTRIES,
                    n => n.min(SYNC_PAGE_MAX_ENTRIES),
                };
                let (entries, complete) = snap.range(lo, hi, page as usize);
                Response::Entries { entries, complete }
            }
        },
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
            let from_snap = match retained(shared, from) {
                Ok(snap) => snap,
                Err(e) => return Response::Error(e),
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
                // A reply that cannot possibly fit the frame cap is
                // refused here (the client bootstraps again with `Range`
                // pages).
                Some(entries) if !diff_fits_frame(entries.len()) => {
                    Response::Error(WireError::TooLarge)
                }
                Some(entries) => Response::EpochDiff { to, entries },
                None => Response::Error(WireError::SnapshotMismatch),
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
        Request::Metrics => Response::Metrics(shared.report()),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TreapServe;
    use crate::client::Session;
    use crate::metrics::value_of;
    use pathcopy_concurrent::BatchOp;
    use std::net::TcpStream;
    use std::ops::Bound;

    fn treap_server() -> ServerHandle {
        spawn(Box::new(TreapServe::default()), ServerConfig::default())
            .expect("bind ephemeral port")
    }

    #[test]
    fn point_ops_roundtrip_over_loopback() {
        let server = treap_server();
        let c = Session::connect(server.addr()).unwrap();
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
    fn published_epoch_is_scannable_from_any_connection() {
        let server = treap_server();
        let a = Session::connect(server.addr()).unwrap();
        let b = Session::connect(server.addr()).unwrap();
        for k in 0..32 {
            a.insert(k, k * 10).unwrap();
        }
        let epoch = a.publish().unwrap();
        a.insert(99, 0).unwrap();
        // The other connection reads the pinned version by its epoch.
        let (entries, complete) = b.range(Some(epoch), .., 0).unwrap();
        assert_eq!(entries, (0..32).map(|k| (k, k * 10)).collect::<Vec<_>>());
        assert!(complete);
        server.shutdown();
    }

    #[test]
    fn range_at_a_retired_epoch_gets_epoch_retired() {
        let server = spawn(
            Box::new(TreapServe::default()),
            ServerConfig::builder().feed_capacity(2).build(),
        )
        .unwrap();
        let c = Session::connect(server.addr()).unwrap();
        let retired = |epoch| match c.range(Some(epoch), .., 0).unwrap_err() {
            crate::client::ClientError::Server(WireError::EpochRetired(oldest)) => oldest,
            other => panic!("epoch {epoch}: {other:?}"),
        };
        assert_eq!(retired(1), 0, "nothing published yet");
        c.insert(1, 10).unwrap();
        let e1 = c.publish().unwrap();
        c.publish().unwrap();
        let e3 = c.publish().unwrap();
        // Capacity 2: the third publish retired the first.
        assert_eq!(retired(e1), e1 + 1);
        assert_eq!(c.range(Some(e3), .., 0).unwrap(), (vec![(1, 10)], true));
        server.shutdown();
    }

    #[test]
    fn range_limit_reports_truncation() {
        let server = treap_server();
        let c = Session::connect(server.addr()).unwrap();
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
        let server = treap_server();
        let c = Session::connect(server.addr()).unwrap();
        for k in 0..10 {
            c.insert(k, k).unwrap();
        }
        let epoch = c.publish().unwrap();
        assert_eq!(c.range(Some(epoch), .., 0).unwrap().0.len(), 10);
        let rows = c.metrics().unwrap();
        let value = |stage| value_of(&rows, stage).unwrap();
        assert!(value(Stage::Ops) >= 10);
        assert_eq!(value(Stage::Len), 10);
        assert!(server.requests_served() >= 13);
        server.shutdown();
    }

    #[test]
    fn feed_publish_pull_diff_and_retirement_over_the_wire() {
        let server = spawn(
            Box::new(TreapServe::default()),
            ServerConfig {
                feed_capacity: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let c = Session::connect(server.addr()).unwrap();

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
        let server = treap_server();
        let c = Session::connect(server.addr()).unwrap();
        for k in 0..100 {
            c.insert(k, k * 2).unwrap();
        }
        // A published epoch is the pin; `Range` pages it.
        let epoch = c.publish().unwrap();
        let (page1, complete) = c.range(Some(epoch), .., 32).unwrap();
        assert_eq!(page1.len(), 32);
        assert!(!complete);
        // Writes after the pin must not leak into later pages.
        c.insert(1000, 1).unwrap();
        c.remove(page1.last().unwrap().0 + 1).unwrap();
        let mut all = page1;
        loop {
            let after = Bound::Excluded(all.last().unwrap().0);
            let (page, complete) = c.range(Some(epoch), (after, Bound::Unbounded), 32).unwrap();
            assert!(page.len() <= 32, "a page never exceeds its limit");
            all.extend_from_slice(&page);
            if complete {
                break;
            }
        }
        assert_eq!(all.len(), 100, "exactly the pinned version's entries");
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ordered pages");
        assert_eq!(all, (0..100).map(|k| (k, k * 2)).collect::<Vec<_>>());
        // `limit: 0` asks for the server's page size, which holds it all.
        assert_eq!(c.range(Some(epoch), .., 0).unwrap(), (all, true));
        server.shutdown();
    }

    /// A `WriteAt` racing the publish a bootstrap makes on an empty feed
    /// (`feed_info`, then `publish` since the head is 0, then `Range`
    /// pages of that epoch): every write whose watermark is at or before the
    /// served epoch must be in that epoch's pages. The window is the
    /// time between snapshot and epoch number; a publish that took its
    /// snapshot before the feed lock lost a write in about 1 round in
    /// 100, hence 400 fresh servers.
    #[test]
    fn bootstrap_epoch_holds_every_write_watermarked_at_or_before_it() {
        use std::collections::BTreeSet;
        for round in 0..400 {
            let server = treap_server();
            let stop = AtomicBool::new(false);
            let (epoch, synced, acked) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let w = Session::connect(server.addr()).unwrap();
                    let mut acked = Vec::new();
                    let mut key = 0;
                    while !stop.load(Ordering::Acquire) {
                        let window: Vec<_> = (0..16)
                            .map(|_| {
                                key += 1;
                                let op = BatchOp::Insert(key, key);
                                (key, w.submit(&Request::WriteAt { op }).unwrap())
                            })
                            .collect();
                        for (key, ticket) in window {
                            match ticket.wait().unwrap() {
                                Response::WroteAt { watermark, .. } => acked.push((key, watermark)),
                                other => panic!("WriteAt answered {other:?}"),
                            }
                        }
                    }
                    acked
                });
                while server.requests_served() < 64 {
                    std::thread::yield_now();
                }
                let c = Session::connect(server.addr()).unwrap();
                let epoch = match c.feed_info().unwrap().head {
                    0 => c.publish().unwrap(),
                    head => head,
                };
                let mut synced: Vec<(i64, i64)> = Vec::new();
                loop {
                    let lo = synced
                        .last()
                        .map_or(Bound::Unbounded, |&(k, _)| Bound::Excluded(k));
                    let (page, complete) = c.range(Some(epoch), (lo, Bound::Unbounded), 0).unwrap();
                    synced.extend(page);
                    if complete {
                        break;
                    }
                }
                stop.store(true, Ordering::Release);
                (epoch, synced, writer.join().unwrap())
            });
            let synced: BTreeSet<i64> = synced.into_iter().map(|(k, _)| k).collect();
            for (key, watermark) in acked {
                assert!(
                    watermark > epoch || synced.contains(&key),
                    "round {round}: key {key} watermarked {watermark} is missing from epoch {epoch}"
                );
            }
            server.shutdown();
        }
    }

    #[test]
    fn guarded_batch_over_the_wire_aborts_cleanly() {
        let server = treap_server();
        let c = Session::connect(server.addr()).unwrap();
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
        let server = treap_server();
        let c = Session::connect(server.addr()).unwrap();
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
        let server = treap_server();
        // A body with a bogus request tag, ones with the retired `Stats`
        // (10), `Snapshot` (6) and `FullSync` (14) tags, and a well-formed
        // body in the
        // retired id-less v2 envelope (`[2][tag = Get][key]`): all are
        // refused the same way.
        let bogus_tag = vec![crate::proto::PROTO_VERSION, 0xEE];
        let retired = |tag: u8| [&[crate::proto::PROTO_VERSION][..], &[0; 8], &[tag]].concat();
        let mut retired_v2 = vec![2u8, 1];
        retired_v2.extend_from_slice(&7i64.to_le_bytes());
        for body in [bogus_tag, retired(10), retired(6), retired(14), retired_v2] {
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
        let c = Session::connect(server.addr()).unwrap();
        assert_eq!(c.insert(1, 10).unwrap(), None);
        assert_eq!(c.get(1).unwrap(), Some(10));
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_parked_connections() {
        let server = treap_server();
        let c = Session::connect(server.addr()).unwrap();
        c.insert(1, 1).unwrap();
        // `c` stays connected with its worker parked in a read; shutdown
        // must not hang on it.
        server.shutdown();
        assert!(c.get(1).is_err(), "connection is dead after shutdown");
    }

    #[test]
    fn more_connections_than_workers_are_served_in_turn() {
        let server = spawn(
            Box::new(TreapServe::default()),
            ServerConfig::with_workers(2),
        )
        .unwrap();
        // Sequential connect/use/drop cycles: each frees its worker for
        // the next, so 6 connections pass through 2 workers.
        for round in 0..6 {
            let c = Session::connect(server.addr()).unwrap();
            assert_eq!(c.insert(round, round).unwrap(), None);
        }
        let c = Session::connect(server.addr()).unwrap();
        assert_eq!(value_of(&c.metrics().unwrap(), Stage::Len), Some(6));
        server.shutdown();
    }
}
