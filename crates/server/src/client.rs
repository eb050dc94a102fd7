//! The pipelined client: one multiplexed TCP session, typed calls.
//!
//! [`Session`] owns a single connection and lets any number of requests
//! be **in flight at once**: [`Session::submit`] stamps the request
//! with a fresh correlation id, corks the proto-v3 frame, and returns
//! a [`Ticket`] immediately. Responses may come back in any order — the
//! id, not arrival order, pairs them.
//!
//! # Who writes the socket
//!
//! Whoever is about to block. `submit` makes no syscall: it appends the
//! encoded frame to the session's pending-write buffer, the *cork*. The
//! cork goes out whole, in one `write`, when a thread waiting on the
//! session finds its reply not yet in and is about to read or park — so
//! a window of tickets submitted back to back leaves together, and a
//! wait whose reply is already in writes nothing. It also goes out on
//! [`Session::flush`], when an unredeemed [`Ticket`] or the [`Session`]
//! is dropped, and from `submit` itself once 16 KiB are pending.
//!
//! Only a submitter, `flush` or the session's drop ever blocks in
//! `write`. A waiter never waits for the write lock — if another thread
//! holds it, that thread sends the cork before letting go — and sends
//! only what the socket takes without blocking: a waiter stuck in
//! `write` could leave nobody reading while the server, its replies
//! backed up, has stopped reading too. What the socket would not take
//! stays corked and *owed*: every thread blocked on the session comes
//! back for it each millisecond until it is out. So a ticket's request
//! is sent, or being sent by a thread that keeps reading, before any
//! thread blocks waiting for it — but a request whose effect something
//! *else* waits for (a `Publish` that another connection reads at, a
//! scripted peer) needs a `flush`.
//!
//! # Who reads the socket
//!
//! Nobody, until somebody waits. A session has no thread of its own:
//! the thread inside [`Ticket::wait`] (or
//! [`Subscription::recv_timeout`]) first looks in its own slot; if that
//! is empty and no one is reading, it becomes the **leader** — one
//! blocking `read` into the session's reassembly buffer, every complete
//! frame of that read decoded in place, all of them settled under one
//! lock (replies into their tickets' slots, [`Response::Push`] frames
//! onto the subscription queue), parked **followers** woken only if
//! there are any. The leader keeps reading until its own reply (or
//! push, or deadline) is in, then hands the lead on. A reply therefore
//! reaches the thread that wants it with one wake-up — the kernel's,
//! out of `read` — and a caller that does not share its session never
//! touches a futex.
//!
//! Two consequences: a [`Subscription`] is fed only while some thread
//! waits on the session, so an idle subscriber backpressures into the
//! socket and the server demotes it instead of the client buffering
//! without bound; and replies are read only while somebody waits, so
//! keep the window of unredeemed tickets bounded — a caller that
//! submits forever without waiting ends up blocked in `submit` once
//! the kernel's buffers are full.
//!
//! A session is also the blocking client: every typed call
//! ([`Session::get`], [`Session::insert`], [`Session::batch`], …) is
//! literally [`Session::call`] — `submit + wait`, one round trip — and
//! takes `&self` like `submit`, so serial code and a window of tickets
//! (see `loadgen --pipeline`) share one connection and one type. The
//! API mirrors the engine's: [`Session::batch`] takes the same
//! [`BatchOp`] values as
//! [`TreapMap::transact`](pathcopy_concurrent::TreapMap::transact)
//! and returns the same [`BatchResult`]s, and [`Session::pull_diff`]
//! returns [`DiffEntry`]s — code written against the in-process map
//! moves to the network client by swapping the receiver.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::{ByteCounters, ByteCountersSnapshot, DiffEntry};
use pathcopy_trace::{SpanRecord, TraceContext};

use crate::poll::send_nowait;
use crate::proto::{
    body_len, request_frame_into, Epoch, FeedInfo, Framed, ProtoError, Request, RequestId,
    Response, StageSummary, WireError, PUSH_ID_BASE,
};

/// Why a client call failed — the single error surface for everything
/// in this module ([`Session::submit`], [`Ticket::wait`], and every
/// typed call on [`Session`]).
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, write, or read).
    Io(io::Error),
    /// The server closed the connection cleanly (EOF at a frame
    /// boundary). Distinct from [`ClientError::Io`] so callers can tell
    /// an orderly shutdown or demotion from a torn transport: a
    /// disconnected replica reconnects and resubscribes; a transport
    /// error is worth logging.
    Disconnected,
    /// The response frame could not be decoded.
    Proto(ProtoError),
    /// The server answered with an error.
    Server(WireError),
    /// The server shed this request because the connection was at its
    /// queue-depth bound (the payload is that bound). The connection is
    /// still healthy; back off and resubmit.
    Busy(u64),
    /// The server answered with a response of the wrong kind for the
    /// request sent (a protocol bug, not an expected runtime condition).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Busy(depth) => {
                write!(
                    f,
                    "request shed: connection at its queue-depth bound ({depth})"
                )
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind to {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

/// Collapses a [`ClientError`] into an [`io::Error`] so call sites
/// whose signature is `io::Result` (the replica engine, mainly) keep
/// working with `?`. An [`ClientError::Io`] passes through unchanged;
/// everything else becomes [`io::ErrorKind::Other`] with the display
/// text preserved.
impl From<ClientError> for io::Error {
    fn from(e: ClientError) -> io::Error {
        match e {
            ClientError::Io(e) => e,
            ClientError::Disconnected => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                ClientError::Disconnected.to_string(),
            ),
            other => io::Error::other(other.to_string()),
        }
    }
}

/// Why the session can no longer carry requests. [`io::Error`] is not
/// `Clone`, so the terminal error is stored as `(kind, message)` and a
/// fresh `io::Error` is minted for every ticket and submit that hits
/// it.
#[derive(Clone, Debug)]
struct SessionDead {
    kind: io::ErrorKind,
    msg: String,
    /// Clean EOF at a frame boundary: surfaced as
    /// [`ClientError::Disconnected`], not a transport error.
    disconnected: bool,
}

impl SessionDead {
    fn closed() -> SessionDead {
        SessionDead {
            kind: io::ErrorKind::UnexpectedEof,
            msg: "server closed the connection".to_owned(),
            disconnected: true,
        }
    }

    fn from_io(e: &io::Error) -> SessionDead {
        SessionDead {
            kind: e.kind(),
            msg: e.to_string(),
            disconnected: false,
        }
    }

    fn from_proto(e: &ProtoError) -> SessionDead {
        match e {
            ProtoError::Io(e) => SessionDead::from_io(e),
            other => SessionDead {
                kind: io::ErrorKind::InvalidData,
                msg: format!("undecodable response frame: {other}"),
                disconnected: false,
            },
        }
    }

    fn to_client_error(&self) -> ClientError {
        if self.disconnected {
            ClientError::Disconnected
        } else {
            ClientError::Io(io::Error::new(self.kind, self.msg.clone()))
        }
    }
}

/// Size of a session's reassembly buffer while no frame needs more.
const READ_BUF: usize = 8 << 10;

/// A session buffer (reassembly, the cork) that a large frame grew past
/// this is given back once the frame is through.
const BUF_KEEP: usize = 64 << 10;

/// Pending bytes at which `submit` sends the cork itself: the server's
/// per-wake read chunk, so one cork is at most one wake's work.
const CORK_MAX: usize = 16 << 10;

/// While part of the cork is owed (the socket would not take it), a
/// thread blocked on the session blocks at most this long at a time
/// before trying to send it again.
const TAIL_RETRY: Duration = Duration::from_millis(1);

/// Slots a session's ticket ring starts with; it doubles whenever more
/// than half of it is reserved and never shrinks.
const SLOTS_MIN: usize = 32;

/// Most [`PushFrame`]s a session queues for a subscriber that is not
/// receiving them (a leader waiting on a *ticket* reads pushes it does
/// not want). On overflow the queue is dropped: the next frame the
/// subscriber sees no longer continues from what it applied, which is
/// the ordinary gap a pull repairs.
const PUSH_QUEUE_MAX: usize = 1024;

/// One in-flight request's place in the ticket ring.
struct Slot {
    /// The id reserved here; `0` (never issued) marks the slot free.
    id: RequestId,
    /// The reply, from the moment a leader settles it until its ticket
    /// takes it.
    reply: Option<Response>,
}

/// Everything waiters and submitters agree on, under the one lock
/// [`SessionShared::settled`] pairs with: a waiter checks its condition
/// and parks without releasing it in between, a leader publishes and
/// notifies while holding it, so no wake-up can fall between the two.
struct State {
    /// Ticket slots, a power-of-two ring indexed by `id & (len - 1)`.
    /// Ids are handed out in sequence, skipping any whose slot is still
    /// reserved, so lookup is one index and one compare.
    slots: Vec<Slot>,
    /// Reserved slots.
    live: usize,
    next_id: RequestId,
    /// Set once, by whoever first sees the connection fail. It lives
    /// here so that "check dead, then reserve" in [`Session::submit`]
    /// and "set dead" in a leader cannot interleave: a ticket either
    /// is refused at submit or finds `dead` when it waits.
    dead: Option<SessionDead>,
    /// Some thread is reading the socket.
    leading: bool,
    /// Threads parked on [`SessionShared::settled`].
    followers: usize,
    /// Server-initiated frames nobody has received yet, oldest first.
    pushes: VecDeque<PushFrame>,
    /// Which [`Subscription`] `pushes` belongs to; `0` before the first
    /// [`Session::subscribe`].
    generation: u64,
}

impl State {
    fn new() -> State {
        State {
            slots: free_slots(SLOTS_MIN),
            live: 0,
            next_id: 1,
            dead: None,
            leading: false,
            followers: 0,
            pushes: VecDeque::new(),
            generation: 0,
        }
    }

    fn slot(&mut self, id: RequestId) -> Option<&mut Slot> {
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[id as usize & mask];
        (id != 0 && slot.id == id).then_some(slot)
    }

    /// Reserves a slot and returns the id that indexes it.
    fn reserve(&mut self) -> RequestId {
        if (self.live + 1) * 2 > self.slots.len() {
            // Two ids that differ in the old ring's index bits still
            // differ in the new one's, so re-placing cannot collide.
            let mut slots = free_slots(self.slots.len() * 2);
            let mask = slots.len() - 1;
            for slot in self.slots.drain(..).filter(|slot| slot.id != 0) {
                let at = slot.id as usize & mask;
                slots[at] = slot;
            }
            self.slots = slots;
        }
        // At most half full, so a free slot is a few steps away; the
        // ids skipped over are simply never used.
        loop {
            let id = self.next_id;
            self.next_id += 1;
            let mask = self.slots.len() - 1;
            let slot = &mut self.slots[id as usize & mask];
            if slot.id == 0 {
                slot.id = id;
                self.live += 1;
                return id;
            }
        }
    }

    /// Frees `id`'s slot, returning the reply if one had arrived. A
    /// reply that arrives later finds no slot and is discarded.
    fn release(&mut self, id: RequestId) -> Option<Response> {
        let slot = self.slot(id)?;
        slot.id = 0;
        let reply = slot.reply.take();
        self.live -= 1;
        reply
    }

    /// The reply to `id`, if it is in; taking it frees the slot.
    fn take_reply(&mut self, id: RequestId) -> Option<Response> {
        self.slot(id)?.reply.as_ref()?;
        self.release(id)
    }

    /// Routes one decoded frame: a reply into its ticket's slot, a
    /// server-initiated frame (an id in the [`PUSH_ID_BASE`] namespace,
    /// which no ticket ever carried) onto the push queue.
    fn settle(&mut self, framed: Framed<Response>) {
        if framed.request_id & PUSH_ID_BASE == 0 {
            if let Some(slot) = self.slot(framed.request_id) {
                slot.reply = Some(framed.msg);
            }
        } else if let Response::Push {
            from,
            epoch,
            entries,
        } = framed.msg
        {
            if self.pushes.len() >= PUSH_QUEUE_MAX {
                self.pushes.clear();
            }
            self.pushes.push_back(PushFrame {
                from,
                epoch,
                entries,
                trace: framed.trace,
            });
        }
    }
}

fn free_slots(n: usize) -> Vec<Slot> {
    (0..n).map(|_| Slot { id: 0, reply: None }).collect()
}

/// The receiving direction: the reassembly buffer and what goes with
/// it. Only the leader holds this.
struct ReadHalf {
    /// `buf[..filled]` is what has been read and not yet decoded — after
    /// [`decode`](Self::decode), at most one incomplete frame. Owned
    /// here rather than by a `BufReader` so that a read deadline firing
    /// mid-frame loses nothing: the bytes wait for the next leader.
    buf: Vec<u8>,
    filled: usize,
    /// The `SO_RCVTIMEO` currently installed. The option is socket-wide
    /// and outlives the wait that set it, so it is set only when the
    /// next read needs a different one: a run of ticket waits (or of
    /// `recv_timeout`s with one timeout) issues no `setsockopt` at all.
    timeout: Option<Duration>,
    /// Frames decoded from one read, on their way to being settled
    /// under one acquisition of the state lock. Sized from the start for
    /// a reply per slot of the ticket ring's first size: a corked window
    /// comes back as one burst, and a burst bigger than any seen before
    /// would otherwise grow this in the middle of a warm session.
    decoded: Vec<Framed<Response>>,
}

impl ReadHalf {
    fn new() -> ReadHalf {
        ReadHalf {
            buf: vec![0; READ_BUF],
            filled: 0,
            timeout: None,
            decoded: Vec::with_capacity(SLOTS_MIN),
        }
    }

    /// One `read` of up to `timeout` (`None`: until bytes arrive).
    /// `Ok(0)` means the timeout passed with nothing read.
    fn fill(
        &mut self,
        mut stream: &TcpStream,
        timeout: Option<Duration>,
    ) -> Result<usize, SessionDead> {
        if self.timeout != timeout {
            stream
                .set_read_timeout(timeout)
                .map_err(|e| SessionDead::from_io(&e))?;
            self.timeout = timeout;
        }
        loop {
            match stream.read(&mut self.buf[self.filled..]) {
                Ok(0) if self.filled == 0 => return Err(SessionDead::closed()),
                Ok(0) => return Err(SessionDead::from_proto(&ProtoError::Truncated)),
                Ok(n) => {
                    self.filled += n;
                    return Ok(n);
                }
                Err(e) => match e.kind() {
                    io::ErrorKind::Interrupted => {}
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => return Ok(0),
                    _ => return Err(SessionDead::from_io(&e)),
                },
            }
        }
    }

    /// Decodes every complete frame in the buffer, in place, onto
    /// `decoded`; moves an incomplete last frame to the front and makes
    /// sure the rest of it fits. Frames ahead of an undecodable one are
    /// still delivered.
    fn decode(&mut self) -> Result<(), SessionDead> {
        let mut pos = 0;
        // `Ok`: the size of the frame at `pos` (4 until its prefix is
        // in), none of which is decodable yet.
        let stopped = loop {
            let unread = &self.buf[pos..self.filled];
            let Some(prefix) = unread.get(..4) else {
                break Ok(4);
            };
            let frame = match body_len(prefix.try_into().expect("4 bytes")) {
                Ok(len) => 4 + len,
                Err(e) => break Err(e),
            };
            let Some(body) = unread.get(4..frame) else {
                break Ok(frame);
            };
            match Response::decode_enveloped(body) {
                Ok(framed) => self.decoded.push(framed),
                Err(e) => break Err(e),
            }
            pos += frame;
        };
        self.buf.copy_within(pos..self.filled, 0);
        self.filled -= pos;
        let need = stopped.map_err(|e| SessionDead::from_proto(&e))?;
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        } else if self.filled == 0 && self.buf.len() > BUF_KEEP {
            self.buf.truncate(READ_BUF);
            self.buf.shrink_to_fit();
        }
        Ok(())
    }
}

/// A session's state; [`Session`], its [`Ticket`]s and its
/// [`Subscription`]s each hold a reference.
struct SessionShared {
    /// The connection. Both directions go through `&TcpStream`, so there
    /// is one descriptor; `writer` and `reader` say who may use which.
    stream: TcpStream,
    /// The cork: frames submitted and not yet written, in the order
    /// they were encoded. Only its holder writes, always from the front,
    /// so frames never interleave; it holds no other lock while it does.
    writer: Mutex<Vec<u8>>,
    /// The cork must go out: a waiter found `writer` held and left
    /// sending it to the holder, which checks this on the way out
    /// ([`unlock_writer`](Self::unlock_writer)), or a waiter's send left
    /// what the socket would not take, which blocked threads retry.
    flush_owed: AtomicBool,
    state: std::sync::Mutex<State>,
    /// Signalled by a leader that settled something while followers
    /// were parked, or that is giving up the lead.
    settled: Condvar,
    /// Taken only by the thread that set [`State::leading`], so never
    /// contended; no submitter or follower ever waits behind a `read`.
    reader: Mutex<ReadHalf>,
    wire: ByteCounters,
}

/// Clears [`State::leading`] if the leader unwinds, and marks the
/// session dead (the reassembly buffer may be mid-update), so a panic
/// in one waiter fails the others instead of parking them forever.
struct LeadGuard<'a>(&'a SessionShared);

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.state();
            st.leading = false;
            st.dead.get_or_insert_with(|| {
                SessionDead::from_io(&io::Error::other("a thread panicked reading the session"))
            });
            self.0.settled.notify_all();
        }
    }
}

impl SessionShared {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `ready` yields (`Ok(Some)`), `timeout` passes
    /// (`Ok(None)`; `None` waits forever) or the session is dead. This
    /// is the only way anything is read off the socket: the caller
    /// leads if nobody is, and follows otherwise. Before it first
    /// blocks it sends the cork ([`flush_corked`](Self::flush_corked)),
    /// and while any of it is owed it blocks for at most [`TAIL_RETRY`]
    /// at a time and sends again.
    ///
    /// `ready` runs under the state lock and takes what it finds — the
    /// caller's reply out of its slot, the oldest queued push — so a
    /// `Some` is delivered exactly once.
    fn wait_until<T>(
        &self,
        timeout: Option<Duration>,
        mut ready: impl FnMut(&mut State) -> Option<T>,
    ) -> Result<Option<T>, SessionDead> {
        let mut deadline = None;
        let mut flush_due = true;
        let mut st = self.state();
        loop {
            if let Some(out) = ready(&mut st) {
                return Ok(Some(out));
            }
            if let Some(dead) = &st.dead {
                return Err(dead.clone());
            }
            if flush_due {
                // Not under the state lock: submitters keep reserving
                // slots while the cork is written.
                flush_due = false;
                drop(st);
                self.flush_corked();
                st = self.state();
                continue;
            }
            // How long this pass may block. The first pass uses the
            // caller's timeout as given, so a pump loop's reads all ask
            // for the same `SO_RCVTIMEO`.
            let budget = match (timeout, deadline) {
                (None, _) => None,
                (Some(timeout), None) => {
                    deadline = Instant::now().checked_add(timeout);
                    deadline.map(|_| timeout)
                }
                (Some(_), Some(deadline)) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    Some(left)
                }
            };
            if st.leading {
                st.followers += 1;
                st = match self.owed_cap(budget) {
                    None => self
                        .settled
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(left) => {
                        self.settled
                            .wait_timeout(st, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
                st.followers -= 1;
            } else {
                st.leading = true;
                drop(st);
                let (unlocked, out) = self.lead(budget, deadline, &mut ready);
                if out.is_some() {
                    return Ok(out);
                }
                st = unlocked;
            }
            flush_due = self.flush_owed.load(Ordering::SeqCst);
        }
    }

    /// Reads, decodes and settles until `ready` yields, `deadline`
    /// passes or the session dies; then gives up the lead. Entered with
    /// [`State::leading`] set by the caller; returns holding the state
    /// lock, with `leading` clear and anyone parked notified.
    fn lead<T>(
        &self,
        mut budget: Option<Duration>,
        deadline: Option<Instant>,
        ready: &mut impl FnMut(&mut State) -> Option<T>,
    ) -> (MutexGuard<'_, State>, Option<T>) {
        let _unwind = LeadGuard(self);
        let mut rd = self.reader.lock();
        debug_assert!(
            self.state().leading,
            "the read half is only taken with `leading` set"
        );
        loop {
            // `SO_RCVTIMEO` cannot be zero (that means "none").
            let timeout = self
                .owed_cap(budget)
                .map(|left| left.max(Duration::from_micros(1)));
            let read = rd.fill(&self.stream, timeout).and_then(|n| {
                self.wire.add_received(n as u64);
                rd.decode()
            });
            // What was just read may have made room for an owed tail.
            // (After a failed read, sending would only replace the
            // session's cause of death with a write error.)
            if read.is_ok() && self.flush_owed.load(Ordering::SeqCst) {
                self.flush_corked();
            }
            let mut st = self.state();
            let settled = !rd.decoded.is_empty();
            for framed in rd.decoded.drain(..) {
                st.settle(framed);
            }
            if let Err(dead) = read {
                st.dead.get_or_insert(dead);
            }
            let out = ready(&mut st);
            let done = out.is_some()
                || st.dead.is_some()
                || deadline.is_some_and(|deadline| Instant::now() >= deadline);
            if done {
                st.leading = false;
            }
            // A follower's reply may be among those just settled, and
            // on the way out one of them has to take over.
            if st.followers > 0 && (done || settled) {
                self.settled.notify_all();
            }
            if done {
                return (st, out);
            }
            drop(st);
            budget = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
        }
    }

    /// Marks the session dead (first cause wins) and tells whoever is
    /// parked.
    fn kill(&self, dead: SessionDead) {
        let mut st = self.state();
        st.dead.get_or_insert(dead);
        if st.followers > 0 {
            self.settled.notify_all();
        }
    }

    /// Writes the cork: with `block`, in one `write_all`, blocking while
    /// the socket is full; without, only what the socket takes now,
    /// leaving the rest corked and owed — `Ok(false)`. A failed write
    /// may have sent part of a frame, so nothing more can be
    /// multiplexed onto the connection: it kills the session and shuts
    /// the socket, which also wakes a leader blocked in `read`.
    fn send(&self, pending: &mut Vec<u8>, block: bool) -> io::Result<bool> {
        if pending.is_empty() {
            return Ok(true);
        }
        let mut sent = 0;
        let written = if block {
            (&self.stream)
                .write_all(pending)
                .map(|()| sent = pending.len())
        } else {
            loop {
                match send_nowait(&self.stream, &pending[sent..]) {
                    Ok(n) => {
                        sent += n;
                        if n == 0 || sent == pending.len() {
                            break Ok(());
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                    Err(e) => break Err(e),
                }
            }
        };
        if let Err(e) = written {
            self.kill(SessionDead::from_io(&e));
            let _ = self.stream.shutdown(Shutdown::Both);
            pending.clear();
            return Err(e);
        }
        self.wire.add_sent(sent as u64);
        pending.drain(..sent);
        if pending.is_empty() {
            return Ok(true);
        }
        self.flush_owed.store(true, Ordering::SeqCst);
        Ok(false)
    }

    /// Lets go of the writer lock, first sending the cork if `send` is
    /// set or a waiter left that to this holder; `block` as in
    /// [`send`](Self::send). A waiter that finds the lock held after
    /// that check is caught by the one after the release: the lock is
    /// taken back and the cork sent again, so an owed send is never
    /// lost. A failed send has killed the session.
    fn unlock_writer<'a>(
        &'a self,
        mut pending: parking_lot::MutexGuard<'a, Vec<u8>>,
        mut send: bool,
        block: bool,
    ) -> io::Result<()> {
        loop {
            if (self.flush_owed.swap(false, Ordering::SeqCst) || send)
                && !self.send(&mut pending, block)?
            {
                // The socket is full; threads blocked on the session
                // retry the rest.
                return Ok(());
            }
            pending.shrink_to(BUF_KEEP);
            drop(pending);
            // Pairs with the fence in `flush_corked` (the lock word
            // itself is only acquire/release): either that waiter's
            // `try_lock` finds the lock free or this load finds its flag.
            fence(Ordering::SeqCst);
            if !self.flush_owed.load(Ordering::SeqCst) {
                return Ok(());
            }
            match self.writer.try_lock() {
                Some(again) => pending = again,
                // The new holder makes this same check on its way out.
                None => return Ok(()),
            }
            send = false;
        }
    }

    /// What a thread does before it blocks on the session: sends what
    /// the socket takes of the cork, or leaves that to whoever holds the
    /// writer lock. It never blocks — neither for the lock, whose holder
    /// may be a submitter stuck in `write` on a full socket, nor in
    /// `write` itself: either way only a reader can unstick the socket,
    /// and the caller may be the only thread that would read.
    fn flush_corked(&self) {
        self.flush_owed.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if let Some(pending) = self.writer.try_lock() {
            // A failed write has killed the session, which the caller
            // sees next.
            let _ = self.unlock_writer(pending, false, false);
        }
    }

    /// How long a thread with `budget` left may block on the session in
    /// one go: no longer than [`TAIL_RETRY`] while part of the cork is
    /// owed.
    fn owed_cap(&self, budget: Option<Duration>) -> Option<Duration> {
        if self.flush_owed.load(Ordering::SeqCst) {
            Some(budget.map_or(TAIL_RETRY, |left| left.min(TAIL_RETRY)))
        } else {
            budget
        }
    }
}

/// A pipelined connection to a `pathcopy-server`, and the one client
/// type: [`submit`](Self::submit) for a window of requests in flight,
/// typed blocking calls ([`get`](Self::get), [`batch`](Self::batch),
/// [`publish`](Self::publish), …) for one round trip each.
///
/// Any number of requests may be outstanding at once (the server sheds
/// with [`WireError::Busy`] beyond its configured queue depth —
/// surfaced here as [`ClientError::Busy`]). Every method takes `&self`,
/// so a session can be shared across threads behind an `Arc` if
/// desired; each submit is stamped with a unique id and responses are
/// paired by id, never by order. The session runs no thread: whoever
/// is about to wait writes what was submitted and reads the socket, for
/// itself and for everyone parked behind it (see the
/// [module docs](self)).
pub struct Session {
    shared: Arc<SessionShared>,
}

impl Session {
    /// Connects, with `TCP_NODELAY` since the protocol is small framed
    /// messages. Nothing is spawned.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] for any failure resolving `addr`,
    /// establishing the TCP connection, or configuring the socket.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Session, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Session {
            shared: Arc::new(SessionShared {
                stream,
                writer: Mutex::new(Vec::with_capacity(64)),
                flush_owed: AtomicBool::new(false),
                state: std::sync::Mutex::new(State::new()),
                settled: Condvar::new(),
                reader: Mutex::new(ReadHalf::new()),
                wire: ByteCounters::new(),
            }),
        })
    }

    /// Queues `req` without waiting for its reply and returns the
    /// [`Ticket`] that will resolve to it. The frame is encoded onto the
    /// session's cork and, below 16 KiB pending, no syscall is made:
    /// tickets submitted back to back leave together, in one `write`,
    /// when the first thread to wait on the session is about to block
    /// (or on [`flush`](Self::flush)) — the server then works on all of
    /// them while the client has blocked once.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the session is already dead (a previous
    /// transport or decode failure), if sending a full cork fails, or —
    /// with [`io::ErrorKind::InvalidData`], and the session still usable
    /// — if the request's frame would exceed
    /// [`MAX_FRAME_LEN`](crate::proto::MAX_FRAME_LEN). Errors the
    /// *server* reports for this request arrive through the ticket, not
    /// here.
    pub fn submit(&self, req: &Request) -> Result<Ticket, ClientError> {
        self.submit_traced(req, None)
    }

    /// [`submit`](Self::submit) with an optional trace context stamped
    /// into the request's envelope. With `Some`, a tracing server
    /// records this request's span chain under the context's trace id
    /// and propagates it through every downstream stage the request
    /// triggers — this is how a client roots a distributed trace. With
    /// `None` the frame (and cost) is identical to plain `submit`.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_traced(
        &self,
        req: &Request,
        trace: Option<&TraceContext>,
    ) -> Result<Ticket, ClientError> {
        let shared = &self.shared;
        let id = {
            let mut st = shared.state();
            if let Some(dead) = &st.dead {
                return Err(dead.to_client_error());
            }
            st.reserve()
        };
        let mut pending = shared.writer.lock();
        // A frame too large to send leaves the cork at the boundary
        // before it: nothing was sent, so the session carries on.
        let corked = request_frame_into(&mut pending, req, id, trace);
        let full = corked.is_ok() && pending.len() >= CORK_MAX;
        let sent = shared.unlock_writer(pending, full, true);
        if let Err(e) = corked.and(sent) {
            shared.state().release(id);
            return Err(ClientError::Io(e));
        }
        Ok(Ticket {
            id,
            shared: Arc::clone(shared),
        })
    }

    /// Sends every request submitted on this session and still corked,
    /// in one `write`, and returns once the kernel has it. A wait on the
    /// session does this before it blocks, so call it only when
    /// something else waits for a request to arrive — another
    /// connection reading a `Publish`'s epoch, a scripted peer. Like a
    /// submit, it blocks while the socket is full until some thread
    /// reads the session.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails; the session is dead from
    /// then on, and every ticket in flight fails with it.
    pub fn flush(&self) -> Result<(), ClientError> {
        let pending = self.shared.writer.lock();
        Ok(self.shared.unlock_writer(pending, true, true)?)
    }

    /// `submit` + [`Ticket::wait`] in one call: a blocking round trip,
    /// surfacing server-side errors.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the transport fails — a failed `write`
    /// included, which surfaces here rather than from `submit` since the
    /// request leaves when the wait begins — or the request is too
    /// large to frame, [`ClientError::Proto`] if the reply frame cannot
    /// be decoded,
    /// [`ClientError::Busy`] if the server shed the request at its
    /// queue-depth bound, and [`ClientError::Server`] if the server
    /// answers with any other error frame. Every typed call below goes
    /// through this method and inherits these failure modes; typed
    /// calls additionally return [`ClientError::Unexpected`] if the
    /// reply kind does not match the request (a protocol bug, not a
    /// runtime condition), and their docs note which [`WireError`]s the
    /// server sends on that request.
    pub fn call(&self, req: &Request) -> Result<Response, ClientError> {
        self.submit(req)?.wait()
    }

    /// Bytes this connection has moved so far, both directions. The
    /// counters are exact whenever no request is in flight (requests
    /// are counted when the cork is written, which happens at the
    /// latest when their tickets are waited on or dropped, and responses
    /// as they are read), which is what the replication layer uses to
    /// prove that diff catch-up transfers O(changes) bytes while a full
    /// sync transfers O(n).
    pub fn wire_bytes(&self) -> ByteCountersSnapshot {
        self.shared.wire.snapshot()
    }

    /// Registers this connection for push delivery: the server will
    /// send every published epoch's diff as an unsolicited
    /// [`Response::Push`] frame, which whoever is reading the socket
    /// queues for the returned [`Subscription`]. `from` is the epoch
    /// already applied locally (`0` = nothing); if it is behind the
    /// head and still retained, one catch-up push arrives first.
    /// Returns the feed's bounds at registration time.
    ///
    /// Calling this again replaces the previous subscription — what a
    /// demoted subscriber does after catching up by pull: frames still
    /// queued for the old one are dropped, and it reads
    /// [`ClientError::Disconnected`] from then on.
    ///
    /// # Errors
    ///
    /// The usual [`Session::submit`]/[`Ticket::wait`] failure modes,
    /// plus [`ClientError::Unexpected`] if the server answers with
    /// anything but an ack.
    pub fn subscribe(&self, from: Epoch) -> Result<(FeedInfo, Subscription), ClientError> {
        // Open the new generation before the request is on the wire so
        // the catch-up push (which follows the ack immediately) is
        // queued for it, whoever reads it.
        let generation = {
            let mut st = self.shared.state();
            st.generation += 1;
            st.pushes.clear();
            st.generation
        };
        match self.call(&Request::SubscribePush { from })? {
            Response::SubscribeAck(info) => Ok((
                info,
                Subscription {
                    shared: Arc::clone(&self.shared),
                    generation,
                },
            )),
            _ => Err(ClientError::Unexpected("SubscribePush")),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // What is still corked goes out, as `flush` sends it: a request
        // submitted is a request sent. No submitter can hold the writer
        // lock now, and a waiter holds it only for a send that does not
        // block. Then nothing to join. A leader parked in `read` wakes
        // with EOF and fails everyone behind it; a ticket or
        // subscription waited on later reads the EOF itself. Either way
        // nothing outlives its session hanging.
        let _ = self.flush();
        let _ = self.shared.stream.shutdown(Shutdown::Both);
    }
}

/// One server-initiated epoch diff, delivered through a
/// [`Subscription`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushFrame {
    /// The epoch this diff starts from (`0` = from the empty map).
    /// Apply the diff **only** when this equals the locally applied
    /// epoch; anything else is a gap — catch up by pulling.
    pub from: Epoch,
    /// The epoch the diff brings the subscriber up to.
    pub epoch: Epoch,
    /// The changes, in ascending key order.
    pub entries: Vec<DiffEntry<i64, i64>>,
    /// Trace context from the frame's envelope, when the publish that
    /// produced this push was traced: the subscriber records its apply
    /// span as a child of the publisher's execute span, stitching the
    /// two nodes into one trace.
    pub trace: Option<TraceContext>,
}

/// The receiving end of a push registration (see
/// [`Session::subscribe`]): epoch diffs arrive here as the primary
/// publishes, with no polling round trips.
///
/// Frames reach it only while some thread is waiting on the session —
/// in [`recv_timeout`](Self::recv_timeout) here, or on a [`Ticket`].
/// A subscriber that stops calling `recv_timeout` stops reading the
/// socket; the server sees the backlog and demotes it.
pub struct Subscription {
    shared: Arc<SessionShared>,
    generation: u64,
}

impl Subscription {
    /// Waits up to `timeout` for the next push, reading the socket
    /// itself unless another thread already is. `Ok(None)` means no
    /// push arrived in time (the feed is simply quiet — not an error).
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] once the connection is gone or a
    /// later [`Session::subscribe`] has replaced this subscription — no
    /// further push can ever arrive here; reconnect and resubscribe.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<PushFrame>, ClientError> {
        let received = self.shared.wait_until(Some(timeout), |st| {
            if st.generation == self.generation {
                st.pushes.pop_front().map(Some)
            } else {
                Some(None)
            }
        });
        match received {
            Ok(Some(Some(frame))) => Ok(Some(frame)),
            Ok(None) => Ok(None),
            Ok(Some(None)) | Err(_) => Err(ClientError::Disconnected),
        }
    }
}

/// A session-consistency watermark the client threads through its
/// calls: the highest epoch this session has written or observed.
/// [`Session::insert_tracked`] (and [`Session::write_at`]) raise it to
/// each write's watermark; [`Session::get_at`] sends it as the read's
/// floor and raises it to the epoch the read was served at. The result
/// is read-your-writes plus monotonic reads through **any** replica,
/// with no sticky routing — the token, not the route, carries the
/// session.
///
/// Tokens are plain values: `Copy`, comparable, and safe to hand
/// between threads or even processes (it is just an epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SessionToken {
    epoch: Epoch,
}

impl SessionToken {
    /// The watermark: the oldest epoch any read through this token is
    /// allowed to observe (`0` = unconstrained).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Raises the watermark to `epoch` (never lowers it — that is what
    /// makes reads monotonic).
    pub fn observe(&mut self, epoch: Epoch) {
        self.epoch = self.epoch.max(epoch);
    }
}

/// A claim on one in-flight request's eventual response. Obtained from
/// [`Session::submit`]; redeem it with [`wait`](Ticket::wait). Until
/// some wait on the session blocks, the request may still be corked on
/// the client; it is written before any thread blocks waiting for it.
/// Dropping a ticket abandons the request: its slot is freed at once
/// and the cork is sent — what a full socket would not take goes with
/// the session's next write, at the latest when it is dropped — so the
/// server still executes it; the reply is discarded on arrival.
#[must_use = "a Ticket does nothing until wait()ed on"]
pub struct Ticket {
    id: RequestId,
    shared: Arc<SessionShared>,
}

impl Ticket {
    /// The correlation id this ticket's request carries on the wire.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the response for this ticket's request arrives and
    /// returns it, surfacing server-side errors. If the reply is not in
    /// yet, this sends the session's cork, then reads the socket unless
    /// another thread already is (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] or [`ClientError::Disconnected`] if the
    /// session died — or its [`Session`] was dropped — before the
    /// response arrived, [`ClientError::Busy`] if the server shed the
    /// request at its queue-depth bound, and [`ClientError::Server`]
    /// for any other error the server reported.
    pub fn wait(mut self) -> Result<Response, ClientError> {
        let id = self.id;
        let reply = self
            .shared
            .wait_until(None, |st| st.take_reply(id))
            .map_err(|dead| dead.to_client_error())?
            .expect("a wait without a deadline does not time out");
        // `take_reply` freed the slot; leave nothing for `drop`.
        self.id = 0;
        match reply {
            Response::Error(WireError::Busy(depth)) => Err(ClientError::Busy(depth)),
            Response::Error(e) => Err(ClientError::Server(e)),
            resp => Ok(resp),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.id != 0 {
            self.shared.state().release(self.id);
            self.shared.flush_corked();
        }
    }
}

/// The name of the client type before the typed calls moved onto
/// [`Session`]. It exists only because the frozen perf ledger
/// (`perf/`) still imports it; nothing outside `perf/` may use it, and
/// ROADMAP item 3 (b) re-points `perf/` at `Session` and deletes it.
#[doc(hidden)]
pub type Client = Session;

/// The typed calls: each is one [`call`](Session::call) — `submit`,
/// then `wait` — plus a match on the reply kind.
impl Session {
    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn get(&self, key: i64) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::Get { key })? {
            Response::Got(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Get")),
        }
    }

    /// Inserts `key -> value`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn insert(&self, key: i64, value: i64) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::Insert { key, value })? {
            Response::Inserted(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Insert")),
        }
    }

    /// Removes `key`, returning its value if present.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn remove(&self, key: i64) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::Remove { key })? {
            Response::Removed(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Remove")),
        }
    }

    /// Atomic compare-and-set; `Ok(true)` if the guard matched and the
    /// write was applied.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes (a non-matching
    /// guard is `Ok(false)`, not an error).
    pub fn cas(
        &self,
        key: i64,
        expected: Option<i64>,
        new: Option<i64>,
    ) -> Result<bool, ClientError> {
        match self.call(&Request::Cas { key, expected, new })? {
            Response::CasApplied(ok) => Ok(ok),
            _ => Err(ClientError::Unexpected("Cas")),
        }
    }

    /// Applies a batch of operations in one round trip — the same
    /// [`BatchOp`]s `TreapMap::transact` takes, committed the same
    /// way: the served engine is
    /// [`TreapServe`](crate::backend::TreapServe), so every `Batch` is
    /// one root CAS, all-or-nothing, and no reader on any connection
    /// sees part of it.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes, including
    /// [`WireError::TooLarge`] if the reply would exceed the frame cap
    /// (split the batch).
    pub fn batch(&self, ops: &[BatchOp<i64, i64>]) -> Result<Vec<BatchResult<i64>>, ClientError> {
        match self.call(&Request::Batch {
            ops: ops.to_vec(),
            guarded: false,
        })? {
            Response::Batch(results) => Ok(results),
            _ => Err(ClientError::Unexpected("Batch")),
        }
    }

    /// Guarded (Sinfonia-style) batch: commits all-or-nothing like
    /// [`batch`](Self::batch), except a failing [`BatchOp::Cas`] guard
    /// aborts the **whole batch** with zero writes. The outer `Result`
    /// is transport/server failure; the inner one is the transaction
    /// outcome — `Err` carries the failed guard indices (into `ops`,
    /// ascending).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes; an aborted batch
    /// is the `Ok(Err(_))` value, not a [`ClientError`].
    #[allow(clippy::type_complexity)]
    pub fn batch_guarded(
        &self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Result<Vec<BatchResult<i64>>, Vec<u32>>, ClientError> {
        match self.call(&Request::Batch {
            ops: ops.to_vec(),
            guarded: true,
        })? {
            Response::Batch(results) => Ok(Ok(results)),
            Response::BatchAborted(failed) => Ok(Err(failed)),
            _ => Err(ClientError::Unexpected("Batch(guarded)")),
        }
    }

    /// Publishes the primary's current state as the next feed epoch
    /// (the version replicas will sync to) and returns that epoch. To
    /// trace the publish's fan-out across every node the epoch reaches,
    /// send [`Request::Publish`] through
    /// [`submit_traced`](Self::submit_traced) instead.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn publish(&self) -> Result<Epoch, ClientError> {
        match self.call(&Request::Publish)? {
            Response::Published(epoch) => Ok(epoch),
            _ => Err(ClientError::Unexpected("Publish")),
        }
    }

    /// Zeroes every since-boot latency histogram on the server — the
    /// per-tag stage recorders and every registered source (durable
    /// append/fsync, replica apply/lag). The scrape's counter and gauge
    /// rows are left alone. Idempotent; see `Request::ResetMetrics`.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn reset_metrics(&self) -> Result<(), ClientError> {
        match self.call(&Request::ResetMetrics)? {
            Response::MetricsReset => Ok(()),
            _ => Err(ClientError::Unexpected("ResetMetrics")),
        }
    }

    /// Dumps the server's trace flight recorder: its node name and
    /// every span currently readable (ring + pinned slow requests). An
    /// empty node name means tracing is disabled on that server.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn trace_dump(&self) -> Result<(String, Vec<SpanRecord>), ClientError> {
        match self.call(&Request::TraceDump)? {
            Response::TraceDump { node, spans } => Ok((node, spans)),
            _ => Err(ClientError::Unexpected("TraceDump")),
        }
    }

    /// One write plus its session watermark: applies `op` on the
    /// primary and returns the result together with the lowest epoch
    /// guaranteed to contain the write. Feed the watermark into
    /// [`SessionToken::observe`] and read-your-writes holds through
    /// **any** replica serving [`get_at`](Self::get_at).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn write_at(
        &self,
        op: BatchOp<i64, i64>,
    ) -> Result<(BatchResult<i64>, Epoch), ClientError> {
        match self.call(&Request::WriteAt { op })? {
            Response::WroteAt { result, watermark } => Ok((result, watermark)),
            _ => Err(ClientError::Unexpected("WriteAt")),
        }
    }

    /// [`insert`](Self::insert) that also raises `token` to the write's
    /// watermark — the session-consistent spelling of an insert.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn insert_tracked(
        &self,
        key: i64,
        value: i64,
        token: &mut SessionToken,
    ) -> Result<Option<i64>, ClientError> {
        let (result, watermark) = self.write_at(BatchOp::Insert(key, value))?;
        token.observe(watermark);
        match result {
            BatchResult::Inserted(prev) => Ok(prev),
            _ => Err(ClientError::Unexpected("WriteAt(Insert)")),
        }
    }

    /// Session-consistent read: asks the server for `key` at or after
    /// `token`'s watermark, waiting up to `wait_ms` for the server's
    /// feed to reach it. On success the token is raised to the epoch
    /// the read was served at, which is what makes successive reads
    /// monotonic even across different replicas.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`]`(`[`WireError::Stale`]`)` if the server
    /// did not reach the watermark in time — the payload is the epoch
    /// it *is* at, so the caller can fall back to the primary or retry;
    /// plus the shared [`call`](Self::call) failure modes.
    pub fn get_at(
        &self,
        key: i64,
        token: &mut SessionToken,
        wait_ms: u32,
    ) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::GetAt {
            key,
            min_epoch: token.epoch(),
            wait_ms,
        })? {
            Response::GotAt { value, epoch } => {
                token.observe(epoch);
                Ok(value)
            }
            _ => Err(ClientError::Unexpected("GetAt")),
        }
    }

    /// Scrapes every number the server exports in one round trip: one
    /// percentile row per (stage, request-tag) pair that has recorded
    /// samples, then one row per engine and server counter and gauge
    /// (read one with [`value_of`](crate::metrics::value_of)). Render
    /// with [`render_text`](crate::metrics::render_text) for the
    /// Prometheus-style text form.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn metrics(&self) -> Result<Vec<StageSummary>, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(rows) => Ok(rows),
            _ => Err(ClientError::Unexpected("Metrics")),
        }
    }

    /// Reads the feed's bounds: head epoch, oldest retained epoch, ring
    /// capacity.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn feed_info(&self) -> Result<FeedInfo, ClientError> {
        match self.call(&Request::Subscribe)? {
            Response::FeedInfo(info) => Ok(info),
            _ => Err(ClientError::Unexpected("Subscribe")),
        }
    }

    /// Pulls everything that changed between published epoch `from` and
    /// the feed head: `(head_epoch, changes)`. Fails with
    /// [`WireError::EpochRetired`] when `from` fell out of the feed ring
    /// (lagged too far — bootstrap again with [`range`](Self::range)
    /// pages of the feed head).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes;
    /// [`WireError::EpochRetired`] as above, and
    /// [`WireError::TooLarge`] if the accumulated diff cannot fit one
    /// frame (sync more often, or bootstrap again).
    pub fn pull_diff(&self, from: Epoch) -> Result<(Epoch, Vec<DiffEntry<i64, i64>>), ClientError> {
        match self.call(&Request::PullDiff { from })? {
            Response::EpochDiff { to, entries } => Ok((to, entries)),
            _ => Err(ClientError::Unexpected("PullDiff")),
        }
    }

    /// Ordered scan of `range` on a retained feed epoch (`Some(epoch)`,
    /// pinned by [`publish`](Self::publish)) or on a fresh coherent
    /// snapshot (`None`). At most `limit` entries come back, and never
    /// more than the server's page size,
    /// [`SYNC_PAGE_MAX_ENTRIES`](crate::proto::SYNC_PAGE_MAX_ENTRIES)
    /// (`0` = that page size); the second component is `false` when the
    /// scan was truncated. Paging one epoch to completion — each page's
    /// lower bound excluding the last key received — reads a whole
    /// pinned version, which is how a replica bootstraps.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes;
    /// [`WireError::EpochRetired`] for an epoch the feed no longer
    /// retains (restart the paging at a newer epoch).
    pub fn range<R: RangeBounds<i64>>(
        &self,
        epoch: Option<Epoch>,
        range: R,
        limit: u32,
    ) -> Result<(Vec<(i64, i64)>, bool), ClientError> {
        let req = Request::Range {
            epoch,
            lo: clone_bound(range.start_bound()),
            hi: clone_bound(range.end_bound()),
            limit,
        };
        match self.call(&req)? {
            Response::Entries { entries, complete } => Ok((entries, complete)),
            _ => Err(ClientError::Unexpected("Range")),
        }
    }
}

fn clone_bound(b: Bound<&i64>) -> Bound<i64> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(&k) => Bound::Included(k),
        Bound::Excluded(&k) => Bound::Excluded(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TreapServe;
    use crate::metrics::value_of;
    use crate::server::{spawn, ServerConfig};
    use pathcopy_metrics::Stage;

    fn treap_server(config: ServerConfig) -> crate::server::ServerHandle {
        spawn(Box::new(TreapServe::default()), config).expect("bind ephemeral port")
    }

    #[test]
    fn pipelined_tickets_resolve_by_id_not_order() {
        let server = treap_server(ServerConfig::default());
        let session = Session::connect(server.addr()).unwrap();

        // Submit a window of writes without waiting, then redeem the
        // tickets in reverse submission order.
        let tickets: Vec<Ticket> = (0..32)
            .map(|k| {
                session
                    .submit(&Request::Insert {
                        key: k,
                        value: k * 100,
                    })
                    .unwrap()
            })
            .collect();
        for ticket in tickets.into_iter().rev() {
            match ticket.wait().unwrap() {
                Response::Inserted(prev) => assert_eq!(prev, None),
                other => panic!("unexpected response: {other:?}"),
            }
        }

        // And reads pair with their keys even when interleaved.
        let reads: Vec<(i64, Ticket)> = (0..32)
            .map(|k| (k, session.submit(&Request::Get { key: k }).unwrap()))
            .collect();
        for (k, ticket) in reads {
            match ticket.wait().unwrap() {
                Response::Got(v) => assert_eq!(v, Some(k * 100)),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn blocking_client_is_submit_plus_wait() {
        let server = treap_server(ServerConfig::default());
        let client = Session::connect(server.addr()).unwrap();
        assert_eq!(client.insert(7, 70).unwrap(), None);
        assert_eq!(client.get(7).unwrap(), Some(70));
        assert_eq!(client.remove(7).unwrap(), Some(70));
        server.shutdown();
    }

    #[test]
    fn pending_tickets_fail_cleanly_when_the_server_goes_away() {
        let server = treap_server(ServerConfig::default());
        let session = Session::connect(server.addr()).unwrap();
        // Prove the session is live first.
        session
            .submit(&Request::Insert { key: 1, value: 1 })
            .unwrap()
            .wait()
            .unwrap();
        server.shutdown();
        // Every outcome must be an error, never a hang: either the
        // submit itself fails (connection reset already observed) or
        // the ticket resolves to Disconnected (clean EOF at a frame
        // boundary) or Io (reset raced the read).
        match session.submit(&Request::Get { key: 1 }) {
            Ok(ticket) => match ticket.wait() {
                Err(ClientError::Io(_) | ClientError::Disconnected) => {}
                other => panic!("expected Io/Disconnected error, got {other:?}"),
            },
            Err(ClientError::Io(_) | ClientError::Disconnected) => {}
            Err(other) => panic!("expected Io/Disconnected error, got {other:?}"),
        }
        // And the session stays failed-fast afterwards.
        match session.submit(&Request::Get { key: 1 }) {
            Err(ClientError::Io(_) | ClientError::Disconnected) => {}
            Ok(ticket) => match ticket.wait() {
                Err(ClientError::Io(_) | ClientError::Disconnected) => {}
                other => panic!("expected Io/Disconnected error, got {other:?}"),
            },
            Err(other) => panic!("expected Io/Disconnected error, got {other:?}"),
        }
    }

    #[test]
    fn orphaned_tickets_resolve_disconnected_on_clean_eof() {
        // A mock server that reads exactly one frame and then closes the
        // socket cleanly — a controlled EOF at a frame boundary, unlike
        // the real-shutdown test above where a reset can race the close.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Read the length prefix, then the body, then hang up
            // without answering.
            let mut len = [0u8; 4];
            conn.read_exact(&mut len).unwrap();
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            conn.read_exact(&mut body).unwrap();
            drop(conn);
        });
        let session = Session::connect(addr).unwrap();
        let ticket = session.submit(&Request::Get { key: 1 }).unwrap();
        match ticket.wait() {
            Err(ClientError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // Later submits fail the same way — the session remembers why
        // it died.
        match session.submit(&Request::Get { key: 2 }) {
            Err(ClientError::Disconnected) => {}
            Ok(ticket) => match ticket.wait() {
                Err(ClientError::Disconnected) => {}
                other => panic!("expected Disconnected, got {other:?}"),
            },
            Err(other) => panic!("expected Disconnected, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn subscribers_receive_live_pushes_and_catch_up() {
        let server = treap_server(ServerConfig::default());

        // Seed two epochs before anyone subscribes.
        let writer = Session::connect(server.addr()).unwrap();
        writer.insert(1, 10).unwrap();
        writer.publish().unwrap(); // epoch 1: {1:10}
        writer.insert(2, 20).unwrap();
        let head = writer.publish().unwrap(); // epoch 2: + {2:20}
        assert_eq!(head, 2);

        // Subscribe from epoch 1: the ack is followed by one catch-up
        // push covering exactly 1 -> 2.
        let sub_session = Session::connect(server.addr()).unwrap();
        let (info, sub) = sub_session.subscribe(1).unwrap();
        assert_eq!(info.head, 2);
        let catch_up = sub
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("catch-up push");
        assert_eq!((catch_up.from, catch_up.epoch), (1, 2));
        assert_eq!(catch_up.entries, vec![DiffEntry::Added(2, 20)]);

        // A live publish now arrives without any request from us.
        writer.insert(3, 30).unwrap();
        writer.publish().unwrap();
        let live = sub
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("live push");
        assert_eq!((live.from, live.epoch), (2, 3));
        assert_eq!(live.entries, vec![DiffEntry::Added(3, 30)]);

        // The scrape sees the subscriber and both pushes.
        let rows = writer.metrics().unwrap();
        let value = |stage| value_of(&rows, stage).unwrap();
        assert_eq!(value(Stage::Subscribers), 1);
        assert!(value(Stage::Pushes) >= 2, "{rows:?}");
        assert!(value(Stage::WireSent) > 0 && value(Stage::WireReceived) > 0);
        assert_eq!(writer.feed_info().unwrap().head, 3);
        server.shutdown();
    }

    #[test]
    fn write_at_watermarks_cover_the_write() {
        let server = treap_server(ServerConfig::default());
        let client = Session::connect(server.addr()).unwrap();
        let mut token = SessionToken::default();

        assert_eq!(client.insert_tracked(7, 70, &mut token).unwrap(), None);
        let watermark = token.epoch();
        assert!(watermark >= 1, "watermark must name a future epoch");

        // Nothing published yet: a bounded wait below the watermark
        // times out with the server's current epoch.
        match client.get_at(7, &mut token, 10) {
            Err(ClientError::Server(WireError::Stale(at))) => assert!(at < watermark),
            other => panic!("expected Stale, got {other:?}"),
        }

        // Publishing reaches the watermark; the read now serves and
        // raises the token to the served epoch.
        client.publish().unwrap();
        assert_eq!(client.get_at(7, &mut token, 1000).unwrap(), Some(70));
        assert!(token.epoch() >= watermark);
        server.shutdown();
    }

    #[test]
    fn client_error_converts_to_io_error_for_replica_call_sites() {
        let busy: io::Error = ClientError::Busy(64).into();
        assert_eq!(busy.kind(), io::ErrorKind::Other);
        let inner = io::Error::new(io::ErrorKind::ConnectionReset, "boom");
        let through: io::Error = ClientError::Io(inner).into();
        assert_eq!(through.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn ticket_ring_skips_a_long_held_slot_instead_of_growing() {
        let mut st = State::new();
        let held = st.reserve();
        st.settle(Framed {
            request_id: held,
            trace: None,
            msg: Response::Got(Some(1)),
        });
        let mut last = held;
        for _ in 0..10_000 {
            let id = st.reserve();
            assert!(id > last, "ids only move forward");
            assert_ne!(id as usize % SLOTS_MIN, held as usize % SLOTS_MIN);
            last = id;
            assert_eq!(st.release(id), None);
        }
        assert_eq!(st.slots.len(), SLOTS_MIN);
        assert_eq!(st.live, 1);
        assert_eq!(st.take_reply(held), Some(Response::Got(Some(1))));
        assert_eq!(st.live, 0);
    }

    #[test]
    fn ticket_ring_grows_with_the_window_and_keeps_every_reply() {
        let mut st = State::new();
        let ids: Vec<RequestId> = (0..1000).map(|_| st.reserve()).collect();
        for &id in &ids {
            st.settle(Framed {
                request_id: id,
                trace: None,
                msg: Response::Got(Some(id as i64)),
            });
        }
        // Replies for ids never issued, already released, or in the
        // free slot's own id space go nowhere.
        for stray in [0, ids[999] + 1, u64::MAX >> 1] {
            st.settle(Framed {
                request_id: stray,
                trace: None,
                msg: Response::Got(None),
            });
        }
        assert!(st.slots.len() >= 2000 && st.slots.len().is_power_of_two());
        for &id in ids.iter().rev() {
            assert_eq!(st.take_reply(id), Some(Response::Got(Some(id as i64))));
        }
        assert_eq!(st.live, 0);
        assert!(st
            .slots
            .iter()
            .all(|slot| slot.id == 0 && slot.reply.is_none()));
    }

    #[test]
    fn dropped_tickets_free_their_slots_and_late_replies_are_discarded() {
        let server = treap_server(ServerConfig::default());
        server.backend().insert(5, 50);
        let session = Session::connect(server.addr()).unwrap();
        for _ in 0..1000 {
            drop(session.submit(&Request::Get { key: 5 }).unwrap());
        }
        {
            let st = session.shared.state();
            assert_eq!(st.live, 0, "an abandoned ticket keeps no slot");
            assert_eq!(st.slots.len(), SLOTS_MIN);
        }
        // The thousand replies nobody wants arrive ahead of this one.
        let kept = session.submit(&Request::Get { key: 5 }).unwrap();
        match kept.wait().unwrap() {
            Response::Got(v) => assert_eq!(v, Some(50)),
            other => panic!("unexpected response: {other:?}"),
        }
        let st = session.shared.state();
        assert_eq!(st.live, 0);
        assert!(st.slots.iter().all(|slot| slot.reply.is_none()));
        drop(st);
        server.shutdown();
    }

    #[test]
    fn an_idle_subscriber_is_demoted_by_the_server_not_buffered_here() {
        let server = treap_server(ServerConfig::default());
        let idle = Session::connect(server.addr()).unwrap();
        let (_info, _sub) = idle.subscribe(0).unwrap();
        let received = idle.wire_bytes().received;

        // ~34 KiB of diff per epoch, until the idle connection's kernel
        // buffers are full and the server's bounded push queue behind
        // them overflows.
        let writer = Session::connect(server.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut round = 0i64;
        while value_of(&writer.metrics().unwrap(), Stage::PushDemotions) == Some(0) {
            assert!(Instant::now() < deadline, "never demoted");
            round += 1;
            let ops: Vec<_> = (0..2000).map(|k| BatchOp::Insert(k, round)).collect();
            writer.batch(&ops).unwrap();
            writer.publish().unwrap();
        }
        // Nobody waited on the idle session, so nothing was read.
        assert_eq!(idle.shared.state().pushes.len(), 0);
        assert_eq!(idle.wire_bytes().received, received);
        server.shutdown();
    }

    #[test]
    fn an_oversize_request_is_refused_and_the_session_carries_on() {
        let server = treap_server(ServerConfig::default());
        server.backend().insert(4, 40);
        let session = Session::connect(server.addr()).unwrap();
        let get = session.submit(&Request::Get { key: 4 }).unwrap();
        // ~1.9M ops at 9 bytes each overflow the 16 MiB frame cap.
        let huge = Request::Batch {
            guarded: false,
            ops: vec![BatchOp::Get(0); (crate::proto::MAX_FRAME_LEN as usize / 9) + 1],
        };
        match session.submit(&huge) {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            Err(other) => panic!("expected InvalidData, got {other:?}"),
            Ok(_) => panic!("an oversize request was accepted"),
        }
        assert_eq!(session.shared.state().live, 1, "the refusal keeps no slot");
        assert!(session.shared.writer.lock().capacity() <= BUF_KEEP);
        assert_eq!(get.wait().unwrap(), Response::Got(Some(40)));
        assert_eq!(session.get(4).unwrap(), Some(40));
        server.shutdown();
    }

    #[test]
    fn pushes_queued_by_a_ticket_leader_are_capped() {
        let mut st = State::new();
        let push = |epoch: Epoch| Framed {
            request_id: PUSH_ID_BASE | epoch,
            trace: None,
            msg: Response::Push {
                from: epoch - 1,
                epoch,
                entries: Vec::new(),
            },
        };
        for epoch in 1..=PUSH_QUEUE_MAX as Epoch {
            st.settle(push(epoch));
        }
        assert_eq!(st.pushes.len(), PUSH_QUEUE_MAX);
        // One more: the backlog goes, and what is left starts with a
        // frame that does not continue from anything the subscriber
        // applied — a gap, which it repairs by pulling.
        st.settle(push(PUSH_QUEUE_MAX as Epoch + 1));
        assert_eq!(st.pushes.len(), 1);
        assert_eq!(st.pushes[0].from, PUSH_QUEUE_MAX as Epoch);
    }
}
