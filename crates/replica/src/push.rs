//! Push-based replication — the one way to deploy a replica: the
//! subscriber side, its pull bootstrap and gap repair, and relay
//! chaining.
//!
//! A [`PushReplica`] bootstraps with one chunked full sync (or from a
//! durable epoch log, [`PushReplica::connect_seeded`]), then registers
//! for the primary's feed
//! ([`Session::subscribe`](pathcopy_server::Session::subscribe)): every
//! published epoch arrives as an unsolicited diff frame, and
//! [`PushReplica::pump`] applies it as one atomic batch. In the steady
//! state a follower costs the primary **one diff-sized frame per
//! epoch** and issues **zero** requests — `PullDiff` survives only as
//! the gap-repair path.
//!
//! The pull steps underneath, each counted in [`PushStats`]:
//!
//! * **Diff repair** — `PullDiff(applied)` fetches everything that
//!   changed between the replica's epoch and the feed head; the entries
//!   are converted with [`diff_to_ops`] and applied through the store's
//!   [`transact`](ServeBackend::transact), so the whole diff flips in
//!   **one** linearizable operation and local readers only ever observe
//!   published primary versions — never a half-applied epoch.
//! * **Full sync** — the bootstrap, and the fallback when the replica's
//!   epoch has been retired from the feed ring (it lagged too far) or
//!   the diff overflows the frame cap: the replica reads the feed head
//!   (publishing first only if the feed is empty), pages that pinned
//!   version down with bounded
//!   [`Range`](pathcopy_server::Request::Range) scans, computes the
//!   *local* difference against its own store, and applies that
//!   reconciliation — again as one atomic batch.
//!
//! The session's [`wire_bytes`](Session::wire_bytes) accounting splits
//! the bytes each pull path moved ([`PushStats::diff_bytes`] vs
//! [`PushStats::full_bytes`]): the experimental proof that diff
//! catch-up transfers O(changes) bytes while a full sync transfers
//! O(n).
//!
//! **Relay chaining** is what makes fan-out scale: a push replica can
//! itself serve the feed. [`PushReplica::serve_relay`] spawns a full
//! `pathcopy-server` over the replica's shared store (an
//! `Arc<dyn ServeBackend>`: the pump thread is its only writer, the
//! served endpoint reads coherent snapshots of whatever epoch the pump
//! last applied) and mirrors every applied epoch into that server's own
//! feed under its **original number**
//! ([`VersionFeed::publish_at`](pathcopy_server::VersionFeed::publish_at)).
//! Downstream subscribers — more relays, or leaves — cannot tell the
//! relay from the primary: same frames, same epoch sequence, same
//! catch-up semantics. A tree of depth `d` with fan-out `f` serves
//! `f^d` leaves while the primary's egress stays `f` frames per epoch,
//! independent of the leaf count — path copying keeps each relay's
//! mirrored ring cheap (retained epochs share unchanged subtrees), so
//! the relay tax is O(changes), not O(n).
//!
//! Epoch numbers are **end-to-end**: a write's watermark issued by the
//! primary ([`Response::WroteAt`](pathcopy_server::Response::WroteAt))
//! is meaningful at any depth, which is what lets a session token
//! ([`SessionToken`](pathcopy_server::SessionToken)) carry
//! read-your-writes through an arbitrary relay tree.
//!
//! Delivery discipline (the invariants [`PushReplica::pump`] keeps):
//!
//! * apply a push only when its `from` epoch equals the locally applied
//!   epoch — anything newer is a **gap** (the primary demoted us, or
//!   frames were dropped), repaired by one pull plus a resubscribe;
//! * ignore pushes at or below the applied epoch — after a catch-up the
//!   subscription can replay an epoch the pull already covered
//!   ([`PushOutcome::Stale`]), and applying it twice would corrupt the
//!   store;
//! * mirror into the relay feed **after** the store mutation, so a
//!   downstream bootstrap pinning the mirrored epoch always sees a
//!   store at least that new.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

use pathcopy_concurrent::{diff_to_ops, BatchOp};
use pathcopy_core::ByteCountersSnapshot;
use pathcopy_durable::EpochLog;
use pathcopy_metrics::{HistogramSnapshot, Stage};
use pathcopy_server::metrics::MetricsSource;
use pathcopy_server::proto::StageSummary;
use pathcopy_server::{
    ClientError, Epoch, PushFrame, ServeBackend, ServerConfig, ServerHandle, Session, Subscription,
    WireError,
};
use pathcopy_trace::{Flight, Probe, TraceContext};

/// What one [`PushReplica::pump`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// No push arrived within the timeout; the feed is quiet.
    Idle,
    /// A push at or below the applied epoch was ignored (a replay the
    /// preceding catch-up already covered).
    Stale {
        /// The ignored push's epoch.
        epoch: Epoch,
    },
    /// A pushed diff was applied atomically.
    Pushed {
        /// The epoch the store now equals.
        epoch: Epoch,
        /// Diff entries applied.
        changes: usize,
    },
    /// The push did not adjoin the applied epoch (a gap): repaired by
    /// one pull (a diff, or a full sync if the applied epoch left the
    /// feed ring) plus a fresh subscription.
    CaughtUp {
        /// The epoch the store now equals.
        to: Epoch,
    },
}

/// A replica's monotone counters: the push path's, then the pull
/// steps' it bootstraps and repairs gaps with;
/// [`PushReplica::push_stats`] returns a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PushStats {
    /// Pushes applied directly ([`PushOutcome::Pushed`]).
    pub pushes_applied: u64,
    /// Diff entries applied across all pushes.
    pub push_entries: u64,
    /// Stale pushes ignored ([`PushOutcome::Stale`]).
    pub stale_pushes: u64,
    /// Gaps repaired by falling back to a pull
    /// ([`PushOutcome::CaughtUp`]).
    pub push_gaps: u64,
    /// Fresh subscriptions established after a gap repair.
    pub resubscribes: u64,
    /// Completed `PullDiff` catch-ups: gap repairs, and the join of a
    /// log-seeded replica. Frozen in the push steady state: the cheap
    /// proof that no request traffic reached upstream.
    pub diff_pulls: u64,
    /// Completed full syncs: the bootstrap, plus one per
    /// [`ring_fallbacks`](Self::ring_fallbacks).
    pub full_syncs: u64,
    /// Diff entries applied across all `PullDiff` catch-ups.
    pub diff_entries: u64,
    /// Entries transferred across all full syncs.
    pub full_entries: u64,
    /// Wire bytes (both directions) spent on `PullDiff` catch-ups.
    pub diff_bytes: u64,
    /// Wire bytes (both directions) spent on full syncs.
    pub full_bytes: u64,
    /// Times a `PullDiff` found the applied epoch retired from the feed ring
    /// (or its diff too large for one frame) and fell back to a full
    /// sync.
    pub ring_fallbacks: u64,
    /// Bootstraps from a durable epoch log instead of the wire
    /// ([`PushReplica::connect_seeded`]).
    pub log_seeds: u64,
    /// Entries materialized by log-seeded bootstraps.
    pub log_seed_entries: u64,
}

/// Latency histograms for the push path, shared so a relay's serving
/// endpoint can expose them over `Request::Metrics` while the pump
/// thread keeps recording.
///
/// * **push-apply** — nanoseconds from a push frame leaving the
///   subscription queue to the diff being applied and mirrored;
/// * **epoch lag** — `frame.epoch - applied` at each applied or
///   gap-revealing push, in epochs: steady-state delivery records `1`
///   per frame, anything larger is backlog the primary published while
///   this replica wasn't keeping up (the watermark already on the wire
///   makes this measurable end-to-end, at any relay depth).
#[derive(Debug)]
pub struct PushMetrics {
    /// Times both stages; also holds this node's flight recorder once
    /// [`PushReplica::set_trace`] attached one.
    probe: Probe,
}

impl Default for PushMetrics {
    fn default() -> Self {
        PushMetrics {
            probe: Probe::new(&[Stage::PushApply, Stage::EpochLag], 1, true),
        }
    }
}

impl PushMetrics {
    /// Snapshot of the push-apply latency histogram (nanoseconds).
    pub fn push_apply_snapshot(&self) -> HistogramSnapshot {
        self.probe.snapshot(Stage::PushApply, 0)
    }

    /// Snapshot of the epoch-lag histogram (epochs).
    pub fn epoch_lag_snapshot(&self) -> HistogramSnapshot {
        self.probe.snapshot(Stage::EpochLag, 0)
    }
}

impl MetricsSource for PushMetrics {
    fn collect(&self) -> Vec<StageSummary> {
        self.probe.collect()
    }

    fn reset(&self) {
        self.probe.reset();
    }
}

/// A push-fed replica, optionally re-serving the feed as a relay; see
/// the module docs.
pub struct PushReplica {
    /// The one upstream connection: pulls and the subscription share it.
    session: Session,
    store: Arc<dyn ServeBackend>,
    /// The feed epoch the store currently equals (`0` = never synced).
    applied: Epoch,
    /// `None` only while `open` bootstraps.
    sub: Option<Subscription>,
    relay: Option<ServerHandle>,
    stats: PushStats,
    metrics: Arc<PushMetrics>,
}

impl PushReplica {
    /// Connects to the feed source at `addr` (the primary, or any
    /// relay), bootstraps `store` with one chunked full sync, and
    /// subscribes for pushes from the bootstrapped epoch onward. After
    /// this returns, the steady state is pure push: drive it with
    /// [`pump`](Self::pump).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from connecting, or any [`ClientError`] from
    /// the bootstrap sync or the subscribe round trip (wrapped as IO).
    pub fn connect<A: ToSocketAddrs>(addr: A, store: Box<dyn ServeBackend>) -> io::Result<Self> {
        Self::open(addr, store, None)
    }

    /// [`connect`](Self::connect), but bootstraps `store` from a durable
    /// epoch log instead of a full sync over the wire: replays the
    /// log's newest checkpoint plus its diff tail (each epoch applied as
    /// one atomic batch) and adopts the log's head as the applied epoch.
    /// While the head is still retained in the primary's feed ring, the
    /// join costs one `PullDiff` and **zero** full-sync bytes; if it was
    /// retired, or the log is empty, the replica falls back to the wire
    /// bootstrap.
    ///
    /// Seeding replicas from a log file (shipped, or on shared storage)
    /// keeps a fleet bootstrap from hammering the primary with `O(n)`
    /// full transfers.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `store` is non-empty (seeding assumes a fresh
    /// store); the underlying [`LogError`](pathcopy_durable::LogError)
    /// wrapped as an IO error; otherwise as [`connect`](Self::connect).
    pub fn connect_seeded<A: ToSocketAddrs>(
        addr: A,
        store: Box<dyn ServeBackend>,
        log: &EpochLog,
    ) -> io::Result<Self> {
        Self::open(addr, store, Some(log))
    }

    /// The body both constructors share: seed, pull up to the head,
    /// subscribe.
    fn open<A: ToSocketAddrs>(
        addr: A,
        store: Box<dyn ServeBackend>,
        log: Option<&EpochLog>,
    ) -> io::Result<Self> {
        let mut replica = PushReplica {
            session: Session::connect(addr)?,
            store: Arc::from(store),
            applied: 0,
            sub: None,
            relay: None,
            stats: PushStats::default(),
            metrics: Arc::new(PushMetrics::default()),
        };
        if let Some(log) = log {
            replica.seed(log)?;
        }
        replica.sync_once().map_err(io::Error::from)?;
        replica.subscribe().map_err(io::Error::from)?;
        Ok(replica)
    }

    /// Installs this node's trace flight recorder: from here on a
    /// traced push frame's apply is recorded as a [`Stage::PushApply`]
    /// span under the upstream context, and the context (re-parented
    /// under that span) rides the relay's own push frames downstream —
    /// each hop of the tree adds its spans to the same trace. Set-once
    /// (a second call is ignored). Call **before**
    /// [`serve_relay`](Self::serve_relay) so the relay endpoint dumps
    /// the same recorder over `Request::TraceDump`.
    pub fn set_trace(&mut self, flight: Arc<Flight>) {
        self.metrics.probe.attach_flight(flight);
    }

    /// The push path's latency histograms; hold the `Arc` to scrape
    /// them from another thread, or let [`serve_relay`](Self::serve_relay)
    /// register them on the relay endpoint automatically.
    pub fn metrics(&self) -> Arc<PushMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Returns `self`: the accessor of the pull engine this type used
    /// to wrap, kept until the perf ledger (`perf/`) stops calling it.
    #[doc(hidden)]
    pub fn replica(&self) -> &Self {
        self
    }

    /// The local store, shared: reads served from this handle see the
    /// replica's latest applied epoch.
    pub fn store(&self) -> Arc<dyn ServeBackend> {
        Arc::clone(&self.store)
    }

    /// The feed epoch the local store currently equals.
    pub fn applied_epoch(&self) -> Epoch {
        self.applied
    }

    /// Plain-data copy of the push and pull counters.
    pub fn push_stats(&self) -> PushStats {
        self.stats
    }

    /// The upstream connection's exact wire counters, pushes and pulls
    /// alike.
    pub fn primary_wire_bytes(&self) -> ByteCountersSnapshot {
        self.session.wire_bytes()
    }

    /// Spawns a serving endpoint over this replica's store and starts
    /// mirroring applied epochs into its feed, turning this replica
    /// into a **relay**: downstream consumers subscribe to (or pull
    /// from) the returned address exactly as they would the primary,
    /// under the primary's epoch numbers. The feed is seeded at the
    /// currently applied epoch so a subscriber arriving before the
    /// next push still finds a head to sync against.
    ///
    /// Send writes to the primary, as `loadgen` does. The endpoint is a
    /// full server over this replica's store, so an `Insert`, `Remove`,
    /// `Cas`, `WriteAt` or `Batch` sent to it commits here, and no push
    /// undoes it: a push names only the keys the primary changed. Only
    /// a ring-fallback full resync removes such a write.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the relay's listener.
    pub fn serve_relay(&mut self, mut config: ServerConfig) -> io::Result<SocketAddr> {
        // The relay endpoint shares this replica's flight recorder so a
        // `TraceDump` against the relay address returns the apply spans
        // the pump thread records.
        if config.trace.is_none() {
            config.trace = self.metrics.probe.flight().cloned();
        }
        let handle = pathcopy_server::spawn(Box::new(self.store()), config)?;
        handle.register_metrics_source(self.metrics());
        if self.applied > 0 {
            handle.publish_at(self.applied, None);
        }
        let addr = handle.addr();
        self.relay = Some(handle);
        Ok(addr)
    }

    /// The relay endpoint's address, once [`serve_relay`](Self::serve_relay)
    /// has been called.
    pub fn relay_addr(&self) -> Option<SocketAddr> {
        self.relay.as_ref().map(|h| h.addr())
    }

    /// The relay endpoint's exact wire counters (egress/ingress), for
    /// fan-out accounting.
    pub fn relay_wire_bytes(&self) -> Option<ByteCountersSnapshot> {
        self.relay.as_ref().map(|h| h.wire_bytes())
    }

    /// Waits up to `timeout` for one push and processes it; the
    /// returned [`PushOutcome`] says which invariant path ran. Call in
    /// a loop — this is the replica's whole steady-state duty cycle.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] when the upstream connection is
    /// gone (reconnect with [`connect`](Self::connect)); any other
    /// [`ClientError`] from a gap repair's pull or resubscribe.
    pub fn pump(&mut self, timeout: Duration) -> Result<PushOutcome, ClientError> {
        let frame = match self.recv(timeout)? {
            None => return Ok(PushOutcome::Idle),
            Some(frame) => frame,
        };
        let applied = self.applied;
        if frame.epoch <= applied {
            // A replay: the catch-up that preceded this subscription
            // already covered the epoch. Applying it again would
            // re-execute removals/overwrites against a newer store.
            self.stats.stale_pushes += 1;
            return Ok(PushOutcome::Stale { epoch: frame.epoch });
        }
        // How far ahead the wire says the feed is: 1 per frame in the
        // steady state, more when this replica fell behind. A traced
        // frame's lag sample competes to become the exemplar, so an
        // `epoch_lag` breach in a scrape names the trace that saw it.
        let probe = &self.metrics.probe;
        let ctx = frame.trace.as_ref();
        probe.record(Stage::EpochLag, 0, frame.epoch - applied, 0, ctx);
        if frame.from == applied {
            let started = probe.begin(ctx);
            if !frame.entries.is_empty() {
                self.store.transact(&diff_to_ops(&frame.entries));
            }
            self.applied = frame.epoch;
            self.stats.pushes_applied += 1;
            self.stats.push_entries += frame.entries.len() as u64;
            // A traced frame gets its apply recorded as a span under
            // the upstream context, and the onward mirror re-parents
            // the context under that span — the next hop's spans nest
            // beneath this one.
            let onward = probe.child(ctx);
            self.mirror(frame.epoch, onward.as_ref());
            let finished = probe.lap_as(
                onward.as_ref(),
                Stage::PushApply,
                0,
                0,
                ctx,
                frame.epoch,
                started,
            );
            probe.pin_slow(ctx, started, finished);
            Ok(PushOutcome::Pushed {
                epoch: frame.epoch,
                changes: frame.entries.len(),
            })
        } else {
            // Gap: frames between `applied` and `frame.from` never
            // arrived (demotion, or subscription established after a
            // publish burst). Repair by pulling, then resubscribe so
            // the server knows our new position.
            self.stats.push_gaps += 1;
            self.catch_up()
        }
    }

    /// Anti-entropy fallback: one pull catch-up plus a fresh
    /// subscription, mirrored downstream. Push delivery repairs gaps
    /// only when a *later* frame arrives to reveal them — a lost push
    /// followed by silence lags forever. A production loop calls this
    /// when [`pump`](Self::pump) keeps returning [`PushOutcome::Idle`]
    /// while an external signal (watermarked read traffic, a lag
    /// probe) says the feed has moved. Returns the epoch the store now
    /// equals.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the pull or the resubscribe.
    pub fn sync_now(&mut self) -> Result<Epoch, ClientError> {
        self.catch_up()?;
        Ok(self.applied)
    }

    /// Fault injection: receives one push within `timeout` and
    /// **discards it unapplied**, returning its epoch. The next pump
    /// then sees a genuine delivery gap and exercises the
    /// [`PushOutcome::CaughtUp`] repair path — exactly the state a
    /// demoted or lossy subscriber is in. Test/chaos tooling only; a
    /// production loop has no reason to call this.
    pub fn drop_one_push(&mut self, timeout: Duration) -> Result<Option<Epoch>, ClientError> {
        Ok(self.recv(timeout)?.map(|frame| frame.epoch))
    }

    fn recv(&self, timeout: Duration) -> Result<Option<PushFrame>, ClientError> {
        let sub = self.sub.as_ref().expect("subscribed since open");
        sub.recv_timeout(timeout)
    }

    /// Pull-repairs a gap and re-arms the subscription at the new
    /// position, mirroring the result downstream.
    fn catch_up(&mut self) -> Result<PushOutcome, ClientError> {
        self.sync_once()?;
        self.subscribe()?;
        self.stats.resubscribes += 1;
        self.mirror(self.applied, None);
        Ok(PushOutcome::CaughtUp { to: self.applied })
    }

    /// Registers for pushes from the applied epoch on, replacing any
    /// earlier subscription.
    fn subscribe(&mut self) -> Result<(), ClientError> {
        let (_info, sub) = self.session.subscribe(self.applied)?;
        self.sub = Some(sub);
        Ok(())
    }

    /// Replays `log` into the (empty) store and adopts its head — zero
    /// wire bytes. An empty log leaves the replica unsynced.
    fn seed(&mut self, log: &EpochLog) -> io::Result<()> {
        if !self.store.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "log seeding requires an empty replica store",
            ));
        }
        let head = log
            .replay_into(self.store.as_ref())
            .map_err(io::Error::other)?;
        if head > 0 {
            self.applied = head;
            self.stats.log_seeds += 1;
            self.stats.log_seed_entries += self.store.len() as u64;
        }
        Ok(())
    }

    /// One pull up to the feed head: a `PullDiff` when possible, a full
    /// sync when bootstrapping or after lagging past the primary's feed
    /// ring. `EpochRetired`/`TooLarge` server errors trigger the
    /// full-sync fallback and are not returned.
    fn sync_once(&mut self) -> Result<(), ClientError> {
        if self.applied == 0 {
            return self.full_resync();
        }
        let before = self.session.wire_bytes();
        match self.session.pull_diff(self.applied) {
            Ok((to, entries)) => {
                if !entries.is_empty() {
                    self.store.transact(&diff_to_ops(&entries));
                }
                let moved = self.session.wire_bytes().since(&before).total();
                self.stats.diff_bytes += moved;
                self.stats.diff_pulls += 1;
                self.stats.diff_entries += entries.len() as u64;
                self.applied = to;
                Ok(())
            }
            // Lagged past the ring (or the diff no longer fits a frame):
            // bootstrap again from the head.
            Err(ClientError::Server(WireError::EpochRetired(_)))
            | Err(ClientError::Server(WireError::TooLarge)) => {
                self.stats.ring_fallbacks += 1;
                self.full_resync()
            }
            Err(e) => Err(e),
        }
    }

    /// Pages the primary's head version down in bounded segments and
    /// reconciles the local store against it **atomically** (one batch
    /// holding every insert/overwrite/removal the transfer implies).
    ///
    /// If the pinned epoch is retired mid-transfer (a tiny feed ring
    /// under publish churn), the transfer restarts from a fresh pin, up
    /// to a bounded number of attempts; the last retirement error is
    /// returned if every restart lost its pin.
    fn full_resync(&mut self) -> Result<(), ClientError> {
        const MAX_RESTARTS: usize = 8;
        let before = self.session.wire_bytes();
        let mut last_err: Option<ClientError> = None;
        for _ in 0..MAX_RESTARTS {
            match self.try_full_transfer() {
                Ok((epoch, target)) => {
                    self.reconcile(&target);
                    let moved = self.session.wire_bytes().since(&before).total();
                    self.stats.full_bytes += moved;
                    self.stats.full_syncs += 1;
                    self.stats.full_entries += target.len() as u64;
                    self.applied = epoch;
                    return Ok(());
                }
                Err(e @ ClientError::Server(WireError::EpochRetired(_))) => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("restarts only on EpochRetired"))
    }

    /// Pages one pinned epoch fully down, in ascending key order: the
    /// feed head, or a fresh publish if the feed is empty.
    /// `Err(EpochRetired)` means the pin died mid-transfer and the
    /// caller should restart.
    fn try_full_transfer(&self) -> Result<(Epoch, Vec<(i64, i64)>), ClientError> {
        // Reusing the head keeps concurrent bootstraps on one shared pin
        // — publishing per bootstrap would retire rival pins and could
        // livelock restarts on a tiny ring. An empty feed's `Publish`
        // snapshots under the feed lock, so no write watermarked at or
        // before the pinned epoch is missing from it.
        let epoch = match self.session.feed_info()?.head {
            0 => self.session.publish()?,
            head => head,
        };
        let mut target: Vec<(i64, i64)> = Vec::new();
        loop {
            let lo = target
                .last()
                .map_or(Bound::Unbounded, |&(k, _)| Bound::Excluded(k));
            let (page, complete) = self.session.range(Some(epoch), (lo, Bound::Unbounded), 0)?;
            target.extend(page);
            if complete {
                return Ok((epoch, target));
            }
        }
    }

    /// Applies `local → target` as one batch: inserts/overwrites for
    /// entries that differ, removals for local keys the target lacks.
    /// Both sides are sorted, so this is a single two-pointer merge.
    fn reconcile(&self, target: &[(i64, i64)]) {
        let snap = self.store.snapshot();
        let (local, complete) = snap.range(Bound::Unbounded, Bound::Unbounded, 0);
        debug_assert!(complete, "unlimited range scans to completion");
        let mut ops: Vec<BatchOp<i64, i64>> = Vec::new();
        let mut incoming = target.iter().peekable();
        for (k, v) in &local {
            while let Some(&&(tk, tv)) = incoming.peek() {
                if tk >= *k {
                    break;
                }
                ops.push(BatchOp::Insert(tk, tv)); // target-only, before k
                incoming.next();
            }
            match incoming.peek() {
                Some(&&(tk, tv)) if tk == *k => {
                    if tv != *v {
                        ops.push(BatchOp::Insert(tk, tv));
                    }
                    incoming.next();
                }
                _ => ops.push(BatchOp::Remove(*k)), // local-only
            }
        }
        for &(tk, tv) in incoming {
            ops.push(BatchOp::Insert(tk, tv)); // target-only tail
        }
        if !ops.is_empty() {
            self.store.transact(&ops);
        }
    }

    /// Mirrors `epoch` into the relay feed, if this replica serves one;
    /// the relay's own push fan-out stamps `trace`, if any, onto the
    /// frames it sends downstream. `publish_at` rejects anything at or
    /// below the relay feed's sequence on its own, so stale mirrors are
    /// naturally dropped.
    fn mirror(&self, epoch: Epoch, trace: Option<&TraceContext>) {
        if let Some(relay) = &self.relay {
            relay.publish_at(epoch, trace);
        }
    }
}
