//! The readiness-driven server core: one event-loop thread multiplexing
//! every connection and running each one **to completion** per
//! readiness wake — read, decode, execute, reply — with a few worker
//! threads on the side for the requests that may block or scan.
//!
//! The loop owns every socket nonblockingly:
//!
//! * **accepts** are drained in bursts (at most [`ACCEPT_BURST`] per
//!   readiness wake) and refused above [`MAX_CONNS`];
//! * **reads** take one chunk per wake (the poller is level-triggered,
//!   so a busier socket is simply reported again, after the other
//!   connections had their turn) and parse it into whole frames;
//! * **every write** — `Insert`, `Remove`, `Cas`, `WriteAt` and a
//!   `Batch` of any size, guarded or not — and the reads that cannot
//!   block (`Get`, a `GetAt` whose epoch the feed already reached)
//!   execute right there on the loop thread, and their replies join the
//!   connection's write queue in request order. The loop is the served
//!   root's only writer, so a served root CAS cannot fail and a batch
//!   cannot starve;
//! * **requests that may block or scan** — `Publish` (holds the feed
//!   lock across the sink's fsync), anything else that takes the feed
//!   lock, scans, diffs, scrapes, a `GetAt` that must wait — go to the
//!   workers, which mutate nothing; their **completions** return
//!   through a queue + self-wake pipe (a `UnixStream` pair — `std` has
//!   no portable pipe) and are appended to the connection's write
//!   queue;
//! * **writes** drain the queue with vectored writes before the loop
//!   returns to `poll`, so a pipelined burst decoded in one wake is
//!   answered in one syscall;
//! * **admission control** sheds any request that would put a
//!   connection past `ServerConfig::queue_depth` requests on the workers
//!   with an immediate [`WireError::Busy`] carrying the bound, and a
//!   connection whose peer does not read its replies stops being read
//!   ([`OUTQ_MAX_BYTES`]) — the client sees backpressure instead of
//!   unbounded server-side queueing.
//!
//! Replies to one connection's loop-executed requests leave in request
//! order, but a worker-bound request may be overtaken by anything sent
//! after it, so pipelined requests complete **out of order** in
//! general; each reply's envelope echoes its request id (see
//! [`crate::proto`]), which is the whole point of the envelope's id
//! field. An idle connection costs one fd and a couple of buffers — no
//! thread — which is what lets the server hold thousands of mostly-idle
//! subscribers.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use pathcopy_core::DiffEntry;
use pathcopy_metrics::Stage;
use pathcopy_trace::TraceContext;

use crate::backend::ServeSnapshot;
use crate::poll::{Interest, PollEvent, Poller};
use crate::proto::{
    diff_fits_frame, peek_request_id, response_frame, Epoch, Request, RequestId, Response,
    WireError, MAX_FRAME_LEN, PUSH_ID_BASE,
};
use crate::server::{handle_request, Shared};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Read chunk size; the loop owns one such buffer. Also the bound on
/// what one connection may have executed per readiness wake: one
/// chunk's worth of frames (a longer frame runs on the wake that
/// completes it), then the others get their turn.
const READ_CHUNK: usize = 16 * 1024;

/// Reply backlog past which a connection stops being read: a peer that
/// pipelines requests without reading the answers gets TCP backpressure
/// instead of server memory. One read chunk of the smallest requests
/// can still land on top of it, so the queue is bounded by this plus a
/// chunk's worth of replies (plus whatever the workers still owe).
const OUTQ_MAX_BYTES: usize = 256 * 1024;

/// Max accepts drained per listener readiness wake: bounds how long an
/// accept storm can monopolize one loop iteration before established
/// connections get service again.
const ACCEPT_BURST: usize = 64;

/// Max simultaneous connections; accepts beyond it are refused (the
/// socket is closed right after the handshake).
const MAX_CONNS: usize = 4096;

/// Cap on the number of frames batched into one vectored write.
const MAX_IOVECS: usize = 64;

/// Push-delivery backpressure bound: a subscriber whose write queue
/// already holds this many frames when another push arrives is demoted
/// — unregistered, the frame dropped — rather than buffered without
/// bound. A demoted subscriber discovers the gap on its next delivery
/// (or timeout), catches up via `PullDiff`, and resubscribes.
const PUSH_OUTQ_MAX: usize = 32;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The threads for requests that may block: each drains one shared
/// channel of boxed jobs. Dropping it closes the channel and joins
/// every thread, queued jobs first, so server shutdown
/// deterministically waits for in-flight requests to finish.
struct Workers {
    jobs: Option<mpsc::Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
}

impl Workers {
    /// Spawns `size` threads (minimum 1).
    fn new(size: usize) -> Self {
        let (jobs, queue) = mpsc::channel::<Job>();
        let queue = Arc::new(std::sync::Mutex::new(queue));
        let threads = (0..size.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("pathcopy-server-worker-{i}"))
                    .spawn(move || loop {
                        // The lock is held for the recv only: pickup is
                        // serialized, execution parallel. Poisoned means
                        // a sibling panicked inside `recv`, which does
                        // not happen; stop rather than guess.
                        let job = match queue.lock() {
                            Ok(queue) => queue.recv(),
                            Err(_) => return,
                        };
                        match job {
                            // A panicking job must not take its thread
                            // with it — capacity would shrink silently
                            // until blocking requests stop being served.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            // Channel closed: shutting down.
                            Err(_) => return,
                        }
                    })
                    .expect("spawn server worker")
            })
            .collect();
        Workers {
            jobs: Some(jobs),
            threads,
        }
    }

    /// Queues `job` for some worker.
    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs
            .as_ref()
            .expect("sender lives until drop")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        drop(self.jobs.take());
        for thread in self.threads.drain(..) {
            // A worker cannot have panicked (jobs are unwound inside
            // it), and `Drop` must not.
            let _ = thread.join();
        }
    }
}

/// A frame on its way from a worker (or the push fan-out) to the loop:
/// the connection it belongs to and the encoded frame.
struct Completion {
    conn: u64,
    /// Server-initiated push frame: answers no request, so it neither
    /// decrements the connection's in-flight count nor bypasses the
    /// subscriber backpressure bound ([`PUSH_OUTQ_MAX`]).
    push: bool,
    frame: OutFrame,
}

/// The one breadcrumb a reply frame carries from execution to the flush
/// stage: enough for the probe to close the write/flush stage —
/// histogram sample and, for a traced request, span — and to judge
/// whether the whole request breached `slow_ms`.
#[derive(Clone, Copy)]
struct Crumb {
    /// Request tag byte: the histogram slot and the span's `tag`.
    tag: u8,
    /// Names the request in the write/flush exemplar.
    request_id: RequestId,
    /// The request's incoming context, if it was traced (write/flush is
    /// a sibling of queue-wait and execute under the same upstream
    /// parent).
    ctx: Option<TraceContext>,
    /// Epoch the reply names (publish/write-at), `0` otherwise.
    epoch: u64,
    /// When the decoded request was accepted off the wire — the
    /// request's end-to-end anchor on this node.
    accepted: Instant,
    /// When the reply was encoded: the write stage's start.
    write_start: Instant,
}

/// The worker→loop return path: a queue plus the write end of the
/// self-wake pipe, poked once per empty→non-empty transition.
pub(crate) struct Completions {
    queue: Mutex<VecDeque<Completion>>,
    wake_tx: UnixStream,
}

impl Completions {
    pub(crate) fn new(wake_tx: UnixStream) -> Self {
        Completions {
            queue: Mutex::new(VecDeque::new()),
            wake_tx,
        }
    }

    fn push(&self, completion: Completion) {
        let was_empty = {
            let mut queue = self.queue.lock();
            let was_empty = queue.is_empty();
            queue.push_back(completion);
            was_empty
        };
        // One wake byte per transition keeps the pipe from filling
        // under load; a WouldBlock here means wakes are already
        // pending, which serves the same purpose. Invariant: a
        // non-empty queue always has an unconsumed wake byte (or a
        // drain already in progress), so no completion is stranded.
        if was_empty {
            let _ = (&self.wake_tx).write(&[1u8]);
        }
    }

    fn drain(&self) -> VecDeque<Completion> {
        std::mem::take(&mut *self.queue.lock())
    }
}

/// The push fan-out: the set of connections registered with
/// `SubscribePush`, fed by the feed on every epoch it lands. Each
/// published epoch's diff is encoded **once** and a clone of the frame
/// is enqueued per subscriber through the normal completion path, so
/// pushes ride the same queue + self-wake machinery replies do and the
/// loop thread stays the only writer of any socket.
pub(crate) struct PushHub {
    subs: Mutex<HashSet<u64>>,
    completions: Arc<Completions>,
    /// Push frames enqueued to subscribers, ever.
    pub(crate) pushes: AtomicU64,
    /// Subscribers demoted for a full outbox, ever.
    pub(crate) demotions: AtomicU64,
}

impl PushHub {
    pub(crate) fn new(completions: Arc<Completions>) -> Self {
        PushHub {
            subs: Mutex::new(HashSet::new()),
            completions,
            pushes: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    fn register(&self, conn: u64) {
        self.subs.lock().insert(conn);
    }

    fn unregister(&self, conn: u64) -> bool {
        self.subs.lock().remove(&conn)
    }

    pub(crate) fn subscriber_count(&self) -> u64 {
        self.subs.lock().len() as u64
    }

    /// Demotes a slow subscriber: unregisters it and counts the event.
    fn demote(&self, conn: u64) {
        if self.unregister(conn) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Called by the feed once per epoch that lands in it, under the
    /// feed lock. `from` is the epoch `prev` belongs to (`0` when `prev`
    /// is `None`); `trace` is the context of the publish that produced
    /// the epoch, when that publish was traced.
    pub(crate) fn on_epoch(
        &self,
        from: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        epoch: Epoch,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) {
        let subs: Vec<u64> = self.subs.lock().iter().copied().collect();
        if subs.is_empty() {
            return;
        }
        let entries: Vec<DiffEntry<i64, i64>> = match prev {
            Some(prev) => prev.diff(snap.as_ref()),
            // First epoch this feed ever held: the whole state is the
            // diff from the empty map.
            None => snap
                .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded, 0)
                .0
                .into_iter()
                .map(|(k, v)| DiffEntry::Added(k, v))
                .collect(),
        };
        // Same precheck PullDiff applies: an epoch too fat for one frame
        // is not pushed at all — subscribers catch up by pulling, which
        // can fall back to a `Range`-paged bootstrap.
        if !diff_fits_frame(entries.len()) {
            return;
        }
        let resp = Response::Push {
            from,
            epoch,
            entries,
        };
        // A traced publish stamps its context into every push frame's
        // envelope, so a subscriber's apply span joins the publisher's
        // trace (parented under the publisher's execute span).
        let frame = response_frame(&resp, PUSH_ID_BASE | epoch, trace);
        for conn in subs {
            self.pushes.fetch_add(1, Ordering::Relaxed);
            self.completions.push(Completion {
                conn,
                push: true,
                frame: OutFrame::untimed(frame.clone()),
            });
        }
    }
}

/// One encoded frame on a connection's write queue.
struct OutFrame {
    bytes: Vec<u8>,
    /// Closes out the write/flush stage when the frame's last byte
    /// reaches the kernel. `None` when the probe records nothing for
    /// this request, or the frame is not a request's reply.
    crumb: Option<Crumb>,
}

impl OutFrame {
    /// A frame outside the timed request path (errors, acks, pushes).
    fn untimed(bytes: Vec<u8>) -> Self {
        OutFrame { bytes, crumb: None }
    }

    /// An untimed reply to request `request_id`.
    fn reply(resp: &Response, request_id: RequestId) -> Self {
        Self::untimed(response_frame(resp, request_id, None))
    }
}

/// Per-connection state: the nonblocking socket and its buffers.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into whole frames.
    rbuf: Vec<u8>,
    /// Encoded reply frames awaiting the socket; the front one may be
    /// partially written (`out_off` bytes already gone).
    outq: VecDeque<OutFrame>,
    out_off: usize,
    /// Bytes in `outq`, written or not: what [`OUTQ_MAX_BYTES`] bounds.
    out_bytes: usize,
    /// Requests handed to the workers and not yet answered — the
    /// admission-control counter.
    in_flight: usize,
    /// No more reads (peer half-closed, or inbound framing is broken);
    /// the connection closes once everything pending has been written.
    closing: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            outq: VecDeque::new(),
            out_off: 0,
            out_bytes: 0,
            in_flight: 0,
            closing: false,
            interest: Interest::READ,
        }
    }

    fn queue(&mut self, frame: OutFrame) {
        self.out_bytes += frame.bytes.len();
        self.outq.push_back(frame);
    }

    /// Whether the peer has fallen so far behind on reading replies
    /// that its requests should wait in the kernel, not here.
    fn backlogged(&self) -> bool {
        self.out_bytes >= OUTQ_MAX_BYTES
    }
}

/// The loop itself; constructed by `spawn`, consumed by [`run`](Self::run)
/// on its own thread.
pub(crate) struct EventLoop {
    // Declared first so its drop joins the workers while the wake pipe
    // and completion queue are still alive for their final pushes.
    pool: Workers,
    listener: TcpListener,
    wake_rx: UnixStream,
    poller: Poller,
    shared: Arc<Shared>,
    completions: Arc<Completions>,
    /// Max requests per connection queued for or running on the
    /// workers before shedding with [`WireError::Busy`].
    queue_depth: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Where every socket read lands before it joins a connection's
    /// `rbuf`; [`READ_CHUNK`] bytes, zeroed once.
    chunk: Vec<u8>,
}

impl EventLoop {
    pub(crate) fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        shared: Arc<Shared>,
        completions: Arc<Completions>,
        workers: usize,
        queue_depth: usize,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(EventLoop {
            pool: Workers::new(workers),
            listener,
            wake_rx,
            poller,
            shared,
            completions,
            queue_depth,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            chunk: vec![0; READ_CHUNK],
        })
    }

    /// Serves until the shared stop flag is raised (and a wake byte
    /// lands). Teardown is deterministic: dropping `self` closes every
    /// connection socket and joins the workers, whose queued jobs push
    /// their final completions into a queue nobody reads again.
    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(256);
        // The stop flag is checked on both sides of the wait. After it,
        // because shutdown's wake byte is what returned us; before it,
        // because an iteration already past that check can drain
        // shutdown's byte together with a completion's
        // (`drain_wake_bytes`) and would otherwise park forever.
        while !self.shared.stop.load(Ordering::SeqCst) {
            events.clear();
            if self.poller.wait(&mut events).is_err() {
                return;
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => self.drain_wake_bytes(),
                    token => self.conn_event(token, ev.readable, ev.writable),
                }
            }
            self.apply_completions();
        }
    }

    fn accept_burst(&mut self) {
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= MAX_CONNS {
                        // Over the cap: refuse by dropping the socket.
                        // The kernel already completed the handshake,
                        // so the peer sees an immediate close rather
                        // than an unanswered SYN.
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    self.publish_conn_gauge();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_wake_bytes(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return, // write end gone: shutting down
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Moves finished replies from the completion queue onto their
    /// connections' write queues, then tries to flush those
    /// connections immediately — under light load a reply leaves in
    /// the same loop iteration its work finished.
    fn apply_completions(&mut self) {
        let batch = self.completions.drain();
        if batch.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for completion in batch {
            // A completion may outlive its connection (peer vanished
            // while the request ran); it is dropped here.
            if let Some(conn) = self.conns.get_mut(&completion.conn) {
                if completion.push {
                    // Backpressure: a subscriber that cannot drain its
                    // queue is demoted instead of buffered forever.
                    if conn.outq.len() >= PUSH_OUTQ_MAX || conn.closing {
                        self.shared.push.demote(completion.conn);
                        continue;
                    }
                } else {
                    conn.in_flight = conn.in_flight.saturating_sub(1);
                }
                conn.queue(completion.frame);
                touched.push(completion.conn);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            if let Some(conn) = self.conns.remove(&token) {
                self.settle(token, conn, true);
            }
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut alive = true;
        if writable {
            alive = self.flush(&mut conn);
        }
        if alive && readable {
            alive = self.read_and_dispatch(token, &mut conn);
        }
        self.settle(token, conn, alive);
    }

    /// Final per-event bookkeeping: flush whatever queued, close the
    /// connection if it is finished (or dead), and keep the poller's
    /// interest in sync with what the connection actually needs.
    fn settle(&mut self, token: u64, mut conn: Conn, mut alive: bool) {
        if alive {
            alive = self.flush(&mut conn);
        }
        if alive && conn.closing && conn.in_flight == 0 && conn.outq.is_empty() {
            alive = false; // everything owed has been written
        }
        if !alive {
            self.shared.push.unregister(token);
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            drop(conn); // closes the socket
            self.publish_conn_gauge();
            return;
        }
        // A closing connection stops reading (or a level-triggered
        // poller would spin on its unread bytes), and so does one whose
        // peer is not reading its replies, until a writable wake has
        // drained the backlog; write interest follows the queue.
        let want = Interest {
            read: !conn.closing && !conn.backlogged(),
            write: !conn.outq.is_empty(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
        self.conns.insert(token, conn);
    }

    /// Reads one chunk off the socket and parses/dispatches every
    /// complete frame in it. One chunk, not "until `WouldBlock`": that
    /// bounds what one connection executes per wake, so a firehose
    /// cannot starve the others or the push path, and it spares the
    /// common case the read that only confirms the socket is empty. The
    /// poller is level-triggered, so unread bytes are reported again.
    /// Returns `false` if the connection died.
    fn read_and_dispatch(&mut self, token: u64, conn: &mut Conn) -> bool {
        if conn.closing || conn.backlogged() {
            return true;
        }
        loop {
            match (&conn.stream).read(&mut self.chunk) {
                Ok(0) => {
                    // Peer closed its write side. Anything still
                    // in flight or queued is written before the
                    // connection goes; nothing pending means it goes
                    // now.
                    if conn.in_flight == 0 && conn.outq.is_empty() {
                        return false;
                    }
                    conn.closing = true;
                    return true;
                }
                Ok(n) => {
                    self.shared.wire.add_received(n as u64);
                    conn.rbuf.extend_from_slice(&self.chunk[..n]);
                    self.parse_frames(token, conn);
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Splits `conn.rbuf` into complete frames and dispatches each.
    /// An unparseable frame is answered with `Malformed` and marks the
    /// connection closing — the stream position can no longer be
    /// trusted past it.
    fn parse_frames(&mut self, token: u64, conn: &mut Conn) {
        let mut pos = 0usize;
        while conn.rbuf.len() - pos >= 4 {
            let len =
                u32::from_le_bytes(conn.rbuf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_LEN as usize || len < 2 {
                // The length prefix itself is broken: no envelope to
                // echo, answer with id 0 and stop trusting the stream.
                conn.queue(OutFrame::reply(&Response::Error(WireError::Malformed), 0));
                conn.closing = true;
                break;
            }
            if conn.rbuf.len() - pos - 4 < len {
                break; // incomplete frame: wait for more bytes
            }
            let body = &conn.rbuf[pos + 4..pos + 4 + len];
            pos += 4 + len;
            match Request::decode_enveloped(body) {
                Ok(framed) => {
                    self.dispatch(token, conn, framed.request_id, framed.msg, framed.trace);
                }
                Err(_) => {
                    let id = peek_request_id(body);
                    conn.queue(OutFrame::reply(&Response::Error(WireError::Malformed), id));
                    conn.closing = true;
                    break;
                }
            }
        }
        if conn.closing {
            conn.rbuf.clear();
        } else {
            conn.rbuf.drain(..pos);
        }
    }

    /// Decides where a decoded request runs. Every write and every read
    /// that cannot block runs here, on the wake that decoded it, so the
    /// loop is the served root's one writer and the reply is on the
    /// write queue before the next frame is parsed. Everything that may
    /// block or scan is admitted (or shed) and handed to a worker, which
    /// only reads and returns the encoded reply through the completion
    /// queue. The match names every kind, so a new one must pick a side.
    fn dispatch(
        &mut self,
        token: u64,
        conn: &mut Conn,
        request_id: RequestId,
        req: Request,
        trace: Option<TraceContext>,
    ) {
        let inline = match &req {
            Request::SubscribePush { from } => {
                return self.subscribe_push(token, conn, request_id, *from)
            }
            Request::Get { .. }
            | Request::Insert { .. }
            | Request::Remove { .. }
            | Request::Cas { .. }
            | Request::WriteAt { .. }
            | Request::Batch { .. } => true,
            // The head only moves forward, so a read that is satisfied
            // now is still satisfied when `handle_request` looks; one
            // that is not would sleep, and sleeping is a worker's job.
            Request::GetAt { min_epoch, .. } => *min_epoch <= self.shared.feed.head_epoch(),
            Request::Range { .. }
            | Request::Publish
            | Request::Subscribe
            | Request::PullDiff { .. }
            | Request::Metrics
            | Request::ResetMetrics
            | Request::TraceDump => false,
        };
        if !inline {
            let depth = self.queue_depth.max(1);
            if conn.in_flight >= depth {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                conn.queue(OutFrame::reply(
                    &Response::Error(WireError::Busy(depth as u64)),
                    request_id,
                ));
                return;
            }
            conn.in_flight += 1;
        }
        // One probe, one clock reading per stage boundary on both
        // paths: `begin` here (only if a histogram or a span will
        // record), `execute` laps queue-wait when it starts — about
        // zero for an inline request, and that is the point — and
        // execute when the reply is encoded, and `flush` laps the write
        // stage when the frame's last byte reaches the kernel.
        let accepted = self.shared.metrics.probe.begin(trace.as_ref());
        if inline {
            conn.queue(execute(&self.shared, req, request_id, trace, accepted));
            return;
        }
        let shared = Arc::clone(&self.shared);
        let completions = Arc::clone(&self.completions);
        self.pool.execute(move || {
            let frame = execute(&shared, req, request_id, trace, accepted);
            completions.push(Completion {
                conn: token,
                push: false,
                frame,
            });
        });
    }

    /// Registers a connection for push delivery. Runs inline on the
    /// loop thread — it must, because registration has to be ordered
    /// against the fan-out: the ack and any catch-up frame are queued
    /// *before* the first live push for this connection can land (live
    /// pushes travel the completion queue, which is drained after
    /// dispatch).
    fn subscribe_push(&mut self, token: u64, conn: &mut Conn, request_id: RequestId, from: Epoch) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.push.register(token);
        // Lock-free: a publish holds the feed lock across its fsync, and
        // the loop must not wait that out. Only a subscriber that is
        // actually behind pays for the lock, below.
        let info = self.shared.feed.info();
        conn.queue(OutFrame::reply(&Response::SubscribeAck(info), request_id));
        // Catch-up: a subscriber registering behind the head gets one
        // synthetic push covering `from → head`, provided `from` is
        // still retained and the diff fits a frame. Otherwise it will
        // notice the gap on its first live push and pull.
        if from == 0 || from >= info.head {
            return;
        }
        let (Some(from_snap), Some((head, head_snap))) =
            (self.shared.feed.get(from), self.shared.feed.head())
        else {
            return;
        };
        let entries = from_snap.diff(head_snap.as_ref());
        if diff_fits_frame(entries.len()) {
            self.shared.push.pushes.fetch_add(1, Ordering::Relaxed);
            conn.queue(OutFrame::reply(
                &Response::Push {
                    from,
                    epoch: head,
                    entries,
                },
                PUSH_ID_BASE | head,
            ));
        }
    }

    /// Writes as much of the connection's queue as the socket takes,
    /// coalescing queued frames into vectored writes. Returns `false`
    /// if the connection died.
    fn flush(&self, conn: &mut Conn) -> bool {
        while !conn.outq.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_IOVECS];
            let mut filled = 0;
            let mut skip = conn.out_off; // of the front frame only
            for (slice, frame) in slices.iter_mut().zip(&conn.outq) {
                *slice = IoSlice::new(&frame.bytes[skip..]);
                skip = 0;
                filled += 1;
            }
            match (&conn.stream).write_vectored(&slices[..filled]) {
                Ok(0) => return false,
                Ok(mut n) => {
                    self.shared.wire.add_sent(n as u64);
                    while n > 0 {
                        let front_left =
                            conn.outq.front().expect("bytes written").bytes.len() - conn.out_off;
                        if n >= front_left {
                            n -= front_left;
                            let done = conn.outq.pop_front().expect("front exists");
                            conn.out_off = 0;
                            conn.out_bytes -= done.bytes.len();
                            // Close out the write/flush stage: reply
                            // encoded → last byte handed to the kernel
                            // (queueing behind the socket included, by
                            // design). The request is then over on this
                            // node — accepted → last byte out — and a
                            // slow one gets its span chain pinned.
                            if let Some(c) = done.crumb {
                                let probe = &self.shared.metrics.probe;
                                let ctx = c.ctx.as_ref();
                                let now = probe.lap(
                                    Stage::WriteFlush,
                                    c.tag,
                                    c.request_id,
                                    ctx,
                                    c.epoch,
                                    Some(c.write_start),
                                );
                                probe.pin_slow(ctx, Some(c.accepted), now);
                            }
                        } else {
                            conn.out_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    fn publish_conn_gauge(&self) {
        self.shared
            .open_conns
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }
}

/// Runs one admitted request to its encoded reply, on whichever thread
/// `dispatch` chose, lapping the probe at each stage boundary.
fn execute(
    shared: &Shared,
    req: Request,
    request_id: RequestId,
    trace: Option<TraceContext>,
    accepted: Option<Instant>,
) -> OutFrame {
    let probe = &shared.metrics.probe;
    let ctx = trace.as_ref();
    let tag = req.tag_byte();
    let exec_start = probe.lap(Stage::QueueWait, tag, request_id, ctx, 0, accepted);
    // Reserve the execute span's id: `handle_request` gets a child
    // context carrying it, so downstream stages this request triggers
    // (durable append, push fan-out, relay apply) parent under the
    // execute span before it has closed.
    let child = probe.child(ctx);
    let resp = handle_request(shared, req, child.as_ref());
    let epoch = response_epoch(&resp);
    let bytes = response_frame(&resp, request_id, None);
    let write_start = probe.lap_as(
        child.as_ref(),
        Stage::Execute,
        tag,
        request_id,
        ctx,
        epoch,
        exec_start,
    );
    OutFrame {
        bytes,
        crumb: accepted
            .zip(write_start)
            .map(|(accepted, write_start)| Crumb {
                tag,
                request_id,
                ctx: trace,
                epoch,
                accepted,
                write_start,
            }),
    }
}

/// The epoch a reply names, when it names one: the anchor that lets a
/// span chain on one node line up with the same epoch's spans on
/// replicas downstream. `0` for replies outside the feed path.
fn response_epoch(resp: &Response) -> u64 {
    match resp {
        Response::Published(epoch) => *epoch,
        Response::WroteAt { watermark, .. } => *watermark,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_jobs_run_and_drop_joins() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let workers = Workers::new(4);
            assert_eq!(workers.threads.len(), 4);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                workers.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop waits for the queue to drain.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_size_rounds_up_to_one() {
        let workers = Workers::new(0);
        assert_eq!(workers.threads.len(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        workers.execute(move || {
            d.store(7, Ordering::Relaxed);
        });
        drop(workers);
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let workers = Workers::new(1);
        workers.execute(|| panic!("job blew up"));
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        // The single worker must survive to run this.
        workers.execute(move || {
            d.store(1, Ordering::Relaxed);
        });
        drop(workers);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jobs_run_concurrently_across_workers() {
        use std::sync::Barrier;
        let workers = Workers::new(2);
        let barrier = Arc::new(Barrier::new(2));
        // Both jobs block on the same barrier: they can only finish if
        // they run on two workers at once.
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            workers.execute(move || {
                barrier.wait();
            });
        }
        drop(workers); // joins — would deadlock if the workers were serial
    }
}
