//! `wire_pipelined` — a loopback server whose request cost is almost
//! all `proto` + event loop + syscalls — and the session loop it shares
//! with `wire_durable_fanout` (see [`crate::fanout`]).
//!
//! Both are closed loops: a session keeps [`PIPELINE`] requests in
//! flight and submits the next only when the oldest is answered.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pathcopy_core::StatsSnapshot;
use pathcopy_metrics::Stage;
use pathcopy_server::backend::{self, ServeBackend};
use pathcopy_server::{
    Client, Epoch, Flight, Request, Response, ServerConfig, ServerHandle, Session, StageSummary,
    Ticket, TraceContext,
};
use pathcopy_workloads::Op;

use crate::meter::{Meter, Slot, H_OP, H_PUBLISH};
use crate::ops::{self, WireInputs, WIRE_PREFILL};
use crate::phase::{self, ratio, Check, PhaseCfg, PhaseOut};
use crate::spans::{self, Span};

/// Requests each session keeps in flight.
pub const PIPELINE: usize = 8;
/// Backend worker threads of every server the workloads spawn.
pub const WORKERS: usize = 2;
/// Wire operations get spans (and a wire trace context) one in this
/// many, in the traced phase only.
const SPAN_EVERY: u64 = 16;
const BACKEND: &str = "sharded_map_8";

pub(crate) fn server_config(traced: bool, flight: Option<&Arc<Flight>>) -> ServerConfig {
    let mut builder = ServerConfig::builder()
        .workers(WORKERS)
        // The shipped metrics and flight recorder are on only in the
        // traced phase; the untraced phase pays a branch for each.
        .metrics(traced);
    if let Some(flight) = flight {
        builder = builder.trace(Arc::clone(flight));
    }
    builder.build()
}

pub(crate) fn spawn_backend() -> Box<dyn ServeBackend> {
    backend::by_name(BACKEND).expect("sharded_map_8 is in the serving registry")
}

/// Inserts `keys -> keys` in process, so prefill leaves no request,
/// byte or histogram sample behind on the server.
pub(crate) fn prefill(store: &dyn ServeBackend, keys: &[i64]) {
    for &k in keys {
        store.insert(k, k);
    }
}

/// One request in flight.
struct InFlight {
    t0: Instant,
    ticket: Ticket,
    frame: Frame,
    /// `(op span id, request id, start)` when this request is spanned.
    span: Option<(u64, u64, u64)>,
}

#[derive(Clone, Copy)]
pub(crate) enum Frame {
    Op(Op),
    Publish { expect: Epoch },
}

/// What one session's loop did, for the length check.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    inserted: u64,
    removed: u64,
    /// The last epoch a `Publish` frame of this session was acked with.
    pub(crate) last_epoch: Epoch,
}

/// Submit instants of the writer's `Publish` frames, by epoch, so the
/// probe can turn the epoch a `GotAt` was served at into a
/// submit → visible latency without the two threads exchanging
/// messages.
pub(crate) struct PublishClock {
    origin: Instant,
    submit_ns: Vec<AtomicU64>,
}

impl PublishClock {
    pub(crate) fn new() -> Self {
        PublishClock {
            origin: Instant::now(),
            submit_ns: (0..1024).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub(crate) fn slot(&self, epoch: Epoch) -> &AtomicU64 {
        &self.submit_ns[epoch as usize % self.submit_ns.len()]
    }
}

/// A session's closed loop: keeps [`PIPELINE`] requests in flight, checks
/// every response, records client-observed latency per operation.
pub(crate) struct Pipeline<'a> {
    session: &'a Session,
    slot: &'a Slot,
    traced: bool,
    thread: u64,
    window: VecDeque<InFlight>,
    tally: Tally,
    /// Set on the durable writer: `Publish` frames are timed against it.
    clock: Option<&'a PublishClock>,
}

impl<'a> Pipeline<'a> {
    /// A loop over `session` that records into `slot`.
    pub(crate) fn new(session: &'a Session, slot: &'a Slot, traced: bool, thread: u64) -> Self {
        Pipeline {
            session,
            slot,
            traced,
            thread,
            window: VecDeque::with_capacity(PIPELINE),
            tally: Tally::default(),
            clock: None,
        }
    }

    /// Makes this the fan-out writer: its `Publish` frames stamp `clock`,
    /// and `last_epoch` is the epoch already published during set-up.
    pub(crate) fn publishing(mut self, clock: &'a PublishClock, last_epoch: Epoch) -> Self {
        self.clock = Some(clock);
        self.tally.last_epoch = last_epoch;
        self
    }

    /// Submits `frame`, first settling the oldest request if
    /// [`PIPELINE`] are in flight, and publishes the running count of
    /// acknowledged operations.
    pub(crate) fn submit(&mut self, frame: Frame) {
        self.enqueue(frame);
        self.slot.set_ops(self.acked());
    }

    /// Settles everything in flight and returns what the loop did.
    pub(crate) fn finish(mut self) -> Tally {
        self.drain();
        self.slot.set_ops(self.acked());
        self.tally
    }

    fn enqueue(&mut self, frame: Frame) {
        if self.window.len() == PIPELINE {
            self.settle_one();
        }
        let req = match frame {
            Frame::Op(Op::Contains(key)) => Request::Get { key },
            Frame::Op(Op::Insert(key)) => Request::Insert { key, value: key },
            Frame::Op(Op::Remove(key)) => Request::Remove { key },
            Frame::Publish { .. } => Request::Publish,
        };
        let n = self.tally.attempted;
        let span = (self.traced && n % SPAN_EVERY == 0)
            .then(|| (spans::new_id(), (self.thread << 40) | n, spans::now_ns()));
        if let (Frame::Publish { expect }, Some(clock)) = (frame, self.clock) {
            clock.slot(expect).store(clock.now_ns(), Ordering::Release);
        }
        let t0 = Instant::now();
        let submitted = match span {
            // A spanned request also carries a wire trace context, so
            // the server's flight recorder keeps its stage spans.
            Some((id, rid, _)) => spans::timed(id, rid, "server.submit", |_| {
                self.session
                    .submit_traced(&req, Some(&TraceContext::sampled(rid | 1)))
            }),
            None => self.session.submit(&req),
        };
        if matches!(frame, Frame::Op(_)) {
            self.tally.attempted += 1;
        }
        match submitted {
            Ok(ticket) => self.window.push_back(InFlight {
                t0,
                ticket,
                frame,
                span,
            }),
            Err(_) => self.slot.fail(),
        }
    }

    fn settle_one(&mut self) {
        let Some(f) = self.window.pop_front() else {
            return;
        };
        let reply = match f.span {
            Some((id, rid, _)) => spans::timed(id, rid, "server.wait", |_| f.ticket.wait()),
            None => f.ticket.wait(),
        };
        let ns = f.t0.elapsed().as_nanos() as u64;
        if let Some((id, req, start_ns)) = f.span {
            spans::record(Span {
                id,
                parent: 0,
                req,
                name: "op",
                start_ns,
                end_ns: spans::now_ns(),
            });
        }
        // Values always equal their key, so a present value that differs
        // is a wrong result, not a race.
        let right = |v: Option<i64>, key: i64| v.map_or(true, |v| v == key);
        let ok = match (f.frame, &reply) {
            (Frame::Op(Op::Contains(k)), Ok(Response::Got(v))) => right(*v, k),
            (Frame::Op(Op::Insert(k)), Ok(Response::Inserted(prev))) => {
                self.tally.inserted += u64::from(prev.is_none());
                right(*prev, k)
            }
            (Frame::Op(Op::Remove(k)), Ok(Response::Removed(prev))) => {
                self.tally.removed += u64::from(prev.is_some());
                right(*prev, k)
            }
            (Frame::Publish { expect }, Ok(Response::Published(epoch))) => {
                self.tally.last_epoch = *epoch;
                *epoch == expect
            }
            // Refused (`Busy`), errored, or answered with another
            // request's variant.
            _ => false,
        };
        if !ok {
            self.slot.fail();
        }
        match f.frame {
            Frame::Op(_) => self.slot.record(H_OP, ns),
            Frame::Publish { .. } => self.slot.record(H_PUBLISH, ns),
        }
    }

    pub(crate) fn drain(&mut self) {
        while !self.window.is_empty() {
            self.settle_one();
        }
    }

    /// Acknowledged operations so far (`Publish` frames excluded).
    fn acked(&self) -> u64 {
        let in_flight = self
            .window
            .iter()
            .filter(|f| matches!(f.frame, Frame::Op(_)))
            .count();
        self.tally.attempted - in_flight as u64
    }
}

fn stage_p50_us(rows: &[StageSummary], stage: Stage, tag: u8) -> f64 {
    rows.iter()
        .find(|r| r.stage == stage as u8 && r.tag == tag)
        .map_or(0.0, |r| r.p50 as f64 / 1e3)
}

/// The primary's counters at one end of the measured interval.
pub(crate) struct ServerMark {
    wire: u64,
    served: u64,
    shed: u64,
    uc: StatsSnapshot,
}

impl ServerMark {
    pub(crate) fn take(server: &ServerHandle) -> Self {
        ServerMark {
            wire: server.wire_bytes().total(),
            served: server.requests_served(),
            shed: server.requests_shed(),
            uc: server.backend().stats(),
        }
    }
}

/// Layer metrics every wire workload reads off the primary: deltas of
/// its public counters over the measured interval, plus the shipped
/// per-stage histograms (reset at the interval's start) for `tag`.
pub(crate) fn server_counters(
    before: &ServerMark,
    after: &ServerMark,
    ops: u64,
    report: &[StageSummary],
    tag: u8,
    out: &mut BTreeMap<&'static str, f64>,
) {
    phase::uc_counters(&before.uc, &after.uc, out);
    out.insert(
        "server.wire_bytes_per_op",
        ratio(after.wire - before.wire, ops),
    );
    let shed = after.shed - before.shed;
    out.insert(
        "server.shed_frac",
        ratio(shed, after.served - before.served + shed),
    );
    out.insert(
        "server.queue_wait_us",
        stage_p50_us(report, Stage::QueueWait, tag),
    );
    out.insert(
        "server.execute_us",
        stage_p50_us(report, Stage::Execute, tag),
    );
    out.insert(
        "server.write_flush_us",
        stage_p50_us(report, Stage::WriteFlush, tag),
    );
}

pub(crate) fn length_check(len: usize, tallies: &[Tally]) -> Check {
    let inserted = tallies.iter().map(|t| t.inserted).sum();
    let removed = tallies.iter().map(|t| t.removed).sum();
    phase::length_check(len, WIRE_PREFILL, inserted, removed)
}

/// Zeroes the shipped histograms so the scrape at the end of the
/// measured interval holds that interval only. Uses its own short-lived
/// control connection; nothing is sent when metrics are off.
pub(crate) fn reset_shipped_metrics(server: &ServerHandle, traced: bool) {
    if traced {
        Client::connect(server.addr())
            .and_then(|mut c| c.reset_metrics())
            .expect("reset the primary's histograms");
    }
}

/// `wire_pipelined`, set up: a 2-worker loopback server over
/// `sharded_map_8` holding 32 768 of 65 536 keys, and one connected
/// session per load thread with its 90 % `Get` Zipf stream.
pub struct WirePipelined {
    server: ServerHandle,
    sessions: Vec<Session>,
    inputs: WireInputs,
}

impl WirePipelined {
    /// Generates the inputs, spawns and prefills the server, connects.
    pub fn set_up(cfg: &PhaseCfg) -> Self {
        let inputs = ops::wire_inputs(cfg.seed, cfg.threads, 0.9);
        let flight = cfg.traced.then(|| Flight::new("primary"));
        let server =
            pathcopy_server::spawn(spawn_backend(), server_config(cfg.traced, flight.as_ref()))
                .expect("bind an ephemeral loopback port");
        prefill(server.backend(), &inputs.prefill);
        let sessions = (0..cfg.threads)
            .map(|_| Session::connect(server.addr()).expect("connect a session"))
            .collect();
        WirePipelined {
            server,
            sessions,
            inputs,
        }
    }

    /// Warm-up, measured windows, then the response and length gates.
    pub fn run(self, cfg: &PhaseCfg) -> PhaseOut {
        let meter = Meter::new(cfg.threads);
        let server = &self.server;
        let (windows, before, after, report, tallies) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .iter()
                .zip(&self.inputs.ops)
                .enumerate()
                .map(|(t, (session, ops))| {
                    let meter = &meter;
                    scope.spawn(move || {
                        let mut pipe = Pipeline::new(session, meter.slot(t), cfg.traced, t as u64);
                        for &op in ops.iter().cycle() {
                            if meter.stopped() {
                                break;
                            }
                            pipe.submit(Frame::Op(op));
                        }
                        pipe.finish()
                    })
                })
                .collect();
            std::thread::sleep(cfg.warmup);
            reset_shipped_metrics(server, cfg.traced);
            let before = ServerMark::take(server);
            let windows = meter.measure(cfg.windows, cfg.window);
            let after = ServerMark::take(server);
            let report = server.metrics_report();
            meter.stop();
            let tallies: Vec<Tally> = handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect();
            (windows, before, after, report, tallies)
        });
        let ops: u64 = windows.iter().map(|w| w.ops).sum();
        let mut counters = BTreeMap::new();
        let get_tag = Request::Get { key: 0 }.tag_byte();
        server_counters(&before, &after, ops, &report, get_tag, &mut counters);
        let checks = vec![length_check(server.backend().len(), &tallies)];
        drop(self.sessions);
        self.server.shutdown();
        PhaseOut {
            windows,
            attempted: tallies.iter().map(|t| t.attempted).sum(),
            failed: meter.failed(),
            checks,
            counters,
            gen: self.inputs.cost,
        }
    }
}
