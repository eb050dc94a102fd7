//! Push-based replication — the one way to deploy a replica: the
//! subscriber side and relay chaining.
//!
//! A [`PushReplica`] bootstraps with the pull engine ([`Replica`]: one
//! chunked full sync), then registers for the primary's feed
//! ([`Session::subscribe`](pathcopy_server::Session::subscribe)): every
//! published epoch arrives as an unsolicited diff frame, and
//! [`PushReplica::pump`] applies it as one atomic batch. In the steady
//! state a follower costs the primary **one diff-sized frame per
//! epoch** and issues **zero** requests — `PullDiff` survives only as
//! the gap-repair path.
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
//!   frames were dropped), repaired by one `sync_once` plus a
//!   resubscribe;
//! * ignore pushes at or below the applied epoch — after a catch-up the
//!   subscription can replay an epoch the pull already covered
//!   ([`PushOutcome::Stale`]), and applying it twice would corrupt the
//!   store;
//! * mirror into the relay feed **after** the store mutation, so a
//!   downstream `FullSync` pinning the mirrored epoch always sees a
//!   store at least that new.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use pathcopy_concurrent::diff_to_ops;
use pathcopy_metrics::{HistogramSnapshot, Stage};
use pathcopy_server::metrics::MetricsSource;
use pathcopy_server::proto::StageSummary;
use pathcopy_server::{ClientError, Epoch, ServeBackend, ServerConfig, ServerHandle, Subscription};
use pathcopy_trace::{Flight, Probe, TraceContext};

use crate::replica::{Replica, ReplicaStatsSnapshot};

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
    /// one pull catch-up plus a fresh subscription.
    CaughtUp {
        /// The epoch the store now equals.
        to: Epoch,
    },
}

/// Monotone counters for the push path, complementing
/// [`ReplicaStatsSnapshot`]'s pull counters.
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
    replica: Replica,
    sub: Subscription,
    relay: Option<ServerHandle>,
    stats: PushStats,
    metrics: Arc<PushMetrics>,
}

impl PushReplica {
    /// Connects to the feed source at `addr` (the primary, or any
    /// relay), bootstraps `store` with one pull sync, and subscribes
    /// for pushes from the bootstrapped epoch onward. After this
    /// returns, the steady state is pure push: drive it with
    /// [`pump`](Self::pump).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from connecting, or any [`ClientError`] from
    /// the bootstrap sync or the subscribe round trip (wrapped as IO).
    pub fn connect<A: ToSocketAddrs>(addr: A, store: Box<dyn ServeBackend>) -> io::Result<Self> {
        let mut replica = Replica::connect(addr, store)?;
        replica.sync_once().map_err(io::Error::from)?;
        let applied = replica.applied_epoch();
        let (_info, sub) = replica
            .client()
            .session()
            .subscribe(applied)
            .map_err(io::Error::from)?;
        Ok(PushReplica {
            replica,
            sub,
            relay: None,
            stats: PushStats::default(),
            metrics: Arc::new(PushMetrics::default()),
        })
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

    /// The wrapped pull engine (for its stats and store accessors).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// The feed epoch the local store currently equals.
    pub fn applied_epoch(&self) -> Epoch {
        self.replica.applied_epoch()
    }

    /// The pull engine's counters — in the push steady state
    /// `diff_pulls` stays frozen, which is the cheap way to prove no
    /// request traffic reached upstream.
    pub fn pull_stats(&self) -> ReplicaStatsSnapshot {
        self.replica.stats()
    }

    /// The push path's counters.
    pub fn push_stats(&self) -> PushStats {
        self.stats
    }

    /// Spawns a serving endpoint over this replica's store and starts
    /// mirroring applied epochs into its feed, turning this replica
    /// into a **relay**: downstream consumers subscribe to (or pull
    /// from) the returned address exactly as they would the primary,
    /// under the primary's epoch numbers. The feed is seeded at the
    /// currently applied epoch so a subscriber arriving before the
    /// next push still finds a head to sync against.
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
        let handle = pathcopy_server::spawn(Box::new(self.replica.store()), config)?;
        handle.register_metrics_source(self.metrics());
        let applied = self.applied_epoch();
        if applied > 0 {
            handle.publish_at(applied, None);
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
    pub fn relay_wire_bytes(&self) -> Option<pathcopy_core::ByteCountersSnapshot> {
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
        let frame = match self.sub.recv_timeout(timeout)? {
            None => return Ok(PushOutcome::Idle),
            Some(frame) => frame,
        };
        let applied = self.applied_epoch();
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
                self.replica.store().transact(&diff_to_ops(&frame.entries));
            }
            self.replica.record_applied(frame.epoch);
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
        Ok(self.applied_epoch())
    }

    /// Fault injection: receives one push within `timeout` and
    /// **discards it unapplied**, returning its epoch. The next pump
    /// then sees a genuine delivery gap and exercises the
    /// [`PushOutcome::CaughtUp`] repair path — exactly the state a
    /// demoted or lossy subscriber is in. Test/chaos tooling only; a
    /// production loop has no reason to call this.
    pub fn drop_one_push(&mut self, timeout: Duration) -> Result<Option<Epoch>, ClientError> {
        Ok(self.sub.recv_timeout(timeout)?.map(|frame| frame.epoch))
    }

    /// Pull-repairs a gap and re-arms the subscription at the new
    /// position, mirroring the result downstream.
    fn catch_up(&mut self) -> Result<PushOutcome, ClientError> {
        self.replica.sync_once()?;
        let to = self.applied_epoch();
        let (_info, sub) = self.replica.client().session().subscribe(to)?;
        self.sub = sub;
        self.stats.resubscribes += 1;
        self.mirror(to, None);
        Ok(PushOutcome::CaughtUp { to })
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
