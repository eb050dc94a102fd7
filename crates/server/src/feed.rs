//! The primary's version feed: a capped ring of recent snapshots keyed
//! by epoch, the source replicas sync from.
//!
//! Path copying makes this ring nearly free: each retained epoch is an
//! `Arc`-held [`ServeSnapshot`] sharing all unchanged subtrees with its
//! neighbours, so retaining `K` recent versions costs O(changes between
//! them), not `K` copies of the map. That is exactly what log-shipping
//! replication wants — the primary answers
//! [`PullDiff`](crate::proto::Request::PullDiff) with the *pruned*
//! snapshot-to-snapshot diff between the replica's epoch and the head,
//! sublinear in the map size for nearby versions.
//!
//! Epochs are monotone (`1, 2, 3, …`) and never reused. The ring is
//! capped: publishing beyond [`VersionFeed::capacity`] retires the
//! oldest epoch, and a replica that lagged past the ring is told
//! [`WireError::EpochRetired`](crate::proto::WireError::EpochRetired)
//! and bootstraps again via a chunked
//! [`FullSync`](crate::proto::Request::FullSync).

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use pathcopy_trace::TraceContext;

use crate::backend::ServeSnapshot;
use crate::proto::{Epoch, FeedInfo};

/// The push subsystem's internal publication hook. Unlike [`FeedSink`]
/// it also receives the **epoch number** the diff starts from, and it
/// tolerates gaps in the epoch sequence (a relay feed mirrored with
/// [`VersionFeed::publish_at`] skips epochs its upstream pushed past
/// it). Fired under the feed lock, after the sink.
pub(crate) trait EpochFanout: Send + Sync + 'static {
    /// Called once per epoch that lands in the feed. `from` is the
    /// epoch `prev` belongs to (`0` when `prev` is `None`); `trace` is
    /// the context of the publish that produced the epoch, when that
    /// publish was traced.
    fn on_epoch(
        &self,
        from: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        epoch: Epoch,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    );
}

/// An observer of epoch publication, called by [`VersionFeed::publish`]
/// for every new epoch — the primary's durability hook.
///
/// The sink runs **under the feed lock**, after the epoch is assigned
/// and inserted but before `publish` returns. That gives two guarantees
/// a write-ahead log needs and cannot reconstruct afterwards:
///
/// * **ordering** — sinks observe epochs in exactly the order they were
///   assigned, with no gaps and no interleaving;
/// * **adjacency** — `prev` is the snapshot of epoch `epoch - 1` even if
///   it has already been retired from the ring by the time the sink
///   looks (capacity-1 feeds retire the previous epoch immediately).
///
/// The price is that sink IO (an append + fsync, for
/// `pathcopy-durable`'s persister) serializes publishes. Publishes are
/// rare control-plane events next to reads/writes, so this is the right
/// trade; a sink must still never block indefinitely.
///
/// A sink has no way to reject an epoch: publication is already visible
/// to pullers. Persisters record failures on the side (see
/// `FeedPersister::take_error` in `pathcopy-durable`) rather than
/// panicking in a server worker.
pub trait FeedSink: Send + Sync + 'static {
    /// Called once per published epoch. `prev` is the previous epoch's
    /// snapshot (`None` for the first epoch this feed ever assigned), so
    /// a sink can compute `prev.diff(snap)` — the same pruned diff
    /// `PullDiff` would serve.
    fn on_publish(
        &self,
        epoch: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        snap: &Arc<dyn ServeSnapshot>,
    );

    /// [`on_publish`](Self::on_publish) with the trace context of the
    /// traced publish that produced the epoch. Default: drop the
    /// context and delegate, so sinks that predate tracing keep
    /// compiling; a tracing sink (the durable persister) overrides this
    /// to record its append+fsync as a span of the publish's trace.
    fn on_publish_traced(
        &self,
        epoch: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) {
        let _ = trace;
        self.on_publish(epoch, prev, snap);
    }
}

/// A capped, monotone ring of published snapshots; see the module docs.
pub struct VersionFeed {
    state: Mutex<FeedState>,
    /// The epoch the next publish will be assigned. Written only under
    /// `state`; read lock-free by [`next_epoch`](Self::next_epoch), so a
    /// watermarked write never waits behind a publish's fsync.
    next: AtomicU64,
    /// The ring's newest and oldest epochs (`0` = nothing published),
    /// mirrored under `state` for the lock-free [`info`](Self::info) and
    /// `head_epoch`. `head` is stored after the sink has run and before
    /// the fan-out, `oldest` after `head` (and read before it), so a
    /// reader never sees `oldest > head`.
    head: AtomicU64,
    oldest: AtomicU64,
    capacity: usize,
    sink: Option<Arc<dyn FeedSink>>,
    fanout: OnceLock<Arc<dyn EpochFanout>>,
}

struct FeedState {
    /// `(epoch, snapshot)` pairs in ascending epoch order.
    ring: VecDeque<(Epoch, Arc<dyn ServeSnapshot>)>,
    /// The most recently published snapshot, kept one beat past its
    /// ring retirement so the sink always sees a correct `prev`.
    prev: Option<Arc<dyn ServeSnapshot>>,
    /// The epoch `prev` belongs to (`0` = none yet). Equal to
    /// `next - 1` on a primary, but a relay feed mirrored with
    /// [`VersionFeed::publish_at`] can have gaps.
    prev_epoch: Epoch,
}

impl VersionFeed {
    /// An empty feed retaining at most `capacity` epochs (min 1).
    pub fn new(capacity: usize) -> Self {
        Self::configured(capacity, 1, None)
    }

    /// An empty feed whose first published epoch will be `start`
    /// (min 1) and whose publishes are mirrored to `sink`, if any.
    ///
    /// A primary recovered from a durable log must continue the epoch
    /// sequence where the log's head left off (`start = head + 1`), or
    /// replicas and the log itself would see epoch numbers reused for
    /// different states.
    pub fn configured(capacity: usize, start: Epoch, sink: Option<Arc<dyn FeedSink>>) -> Self {
        VersionFeed {
            state: Mutex::new(FeedState {
                ring: VecDeque::new(),
                prev: None,
                prev_epoch: 0,
            }),
            next: AtomicU64::new(start.max(1)),
            head: AtomicU64::new(0),
            oldest: AtomicU64::new(0),
            capacity: capacity.max(1),
            sink,
            fanout: OnceLock::new(),
        }
    }

    /// How many epochs the feed retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The epoch the next publish will be assigned. A server reads this
    /// right after applying a write to learn the write's visibility
    /// watermark: the first epoch whose snapshot must contain it.
    ///
    /// Lock-free. The fence pairs with the one in
    /// [`publish_with`](Self::publish_with): the caller stores its write
    /// and then loads `next`, the publisher stores `next` and then loads
    /// the backend's roots, and with a `SeqCst` fence between each pair
    /// at least one side sees the other — either this returns the
    /// bumped number, or the publish's snapshot contains the write.
    pub fn next_epoch(&self) -> Epoch {
        fence(Ordering::SeqCst);
        self.next.load(Ordering::SeqCst)
    }

    /// The newest published epoch (`0` = none yet), lock-free: what a
    /// watermarked read compares its session token against.
    pub(crate) fn head_epoch(&self) -> Epoch {
        self.head.load(Ordering::SeqCst)
    }

    /// Appends `(epoch, snap)` to the ring, retiring past the capacity,
    /// and returns the previous epoch's number and snapshot.
    fn advance(
        &self,
        state: &mut FeedState,
        epoch: Epoch,
        snap: &Arc<dyn ServeSnapshot>,
    ) -> (Epoch, Option<Arc<dyn ServeSnapshot>>) {
        state.ring.push_back((epoch, Arc::clone(snap)));
        while state.ring.len() > self.capacity {
            state.ring.pop_front();
        }
        let from = std::mem::replace(&mut state.prev_epoch, epoch);
        (from, state.prev.replace(Arc::clone(snap)))
    }

    /// Makes `epoch` the visible head. Before the fan-out, not after: a
    /// connection that registers for pushes too late for this epoch's
    /// fan-out must already read it as the head to be caught up to.
    fn show_head(&self, state: &FeedState, epoch: Epoch) {
        self.head.store(epoch, Ordering::SeqCst);
        let oldest = state.ring.front().map_or(0, |(e, _)| *e);
        self.oldest.store(oldest, Ordering::SeqCst);
    }

    /// Installs the push subsystem's fan-out hook. One shot: a second
    /// call is ignored. Set during server spawn, before any publish.
    pub(crate) fn set_fanout(&self, fanout: Arc<dyn EpochFanout>) {
        let _ = self.fanout.set(fanout);
    }

    /// Publishes `snap` as the next epoch, retiring the oldest retained
    /// epoch if the ring is full. Returns the new epoch.
    ///
    /// If the feed has a [`FeedSink`], it observes the epoch before
    /// `publish` returns (see the trait docs for the ordering contract).
    pub fn publish(&self, snap: Arc<dyn ServeSnapshot>) -> Epoch {
        self.publish_with(|| snap, None)
    }

    /// Publishes the snapshot `take` returns as the next epoch, taking
    /// the snapshot **under the feed lock**. This closes the
    /// snapshot-then-number race of `publish(backend.snapshot())`:
    /// there, a write can land between the snapshot and the lock, so an
    /// epoch number read *after* that write could name a snapshot from
    /// *before* it. Watermark-carrying writes ([`Request::WriteAt`](
    /// crate::proto::Request::WriteAt)) depend on the closed ordering:
    /// every epoch assigned after a write's watermark read contains the
    /// write.
    ///
    /// `trace` is the context of a traced publish request, if any: the
    /// sink (durable append+fsync) and the fan-out (push frames to
    /// subscribers) record their work as spans of — and propagate — the
    /// same distributed trace.
    pub fn publish_with(
        &self,
        take: impl FnOnce() -> Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) -> Epoch {
        let mut state = self.state.lock();
        // The number is bumped *before* the snapshot is taken; see
        // `next_epoch` for the pairing.
        let epoch = self.next.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let snap = take();
        let (from, prev) = self.advance(&mut state, epoch, &snap);
        if let Some(sink) = &self.sink {
            sink.on_publish_traced(epoch, prev.as_ref(), &snap, trace);
        }
        self.show_head(&state, epoch);
        if let Some(fanout) = self.fanout.get() {
            fanout.on_epoch(from, prev.as_ref(), epoch, &snap, trace);
        }
        epoch
    }

    /// Mirrors an epoch published elsewhere into this feed under its
    /// **original number** — what a relay does after applying an
    /// upstream push, so its own subscribers and watermarked reads see
    /// the primary's epoch sequence. Returns `false` (and changes
    /// nothing) if `epoch` is behind this feed's sequence — a late or
    /// duplicate delivery.
    ///
    /// The epoch sequence may skip numbers (the upstream pushed past
    /// this relay and it caught up by diff), so the [`FeedSink`] — whose
    /// contract promises gap-free adjacent epochs — is **not** fired;
    /// only the push fan-out, which carries the `from` epoch explicitly,
    /// observes mirrored publishes. `trace` is the context of the
    /// upstream push being mirrored, if it was traced, so a relay's own
    /// fan-out re-serves the epoch under the same distributed trace.
    pub fn publish_at(
        &self,
        epoch: Epoch,
        snap: Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) -> bool {
        let mut state = self.state.lock();
        if epoch < self.next.load(Ordering::SeqCst) {
            return false;
        }
        self.next.store(epoch + 1, Ordering::SeqCst);
        let (from, prev) = self.advance(&mut state, epoch, &snap);
        self.show_head(&state, epoch);
        if let Some(fanout) = self.fanout.get() {
            fanout.on_epoch(from, prev.as_ref(), epoch, &snap, trace);
        }
        true
    }

    /// The feed's bounds (`head`/`oldest` are `0` while nothing is
    /// published). Lock-free: never waits behind a publish in progress.
    pub fn info(&self) -> FeedInfo {
        let oldest = self.oldest.load(Ordering::SeqCst);
        FeedInfo {
            head: self.head.load(Ordering::SeqCst),
            oldest,
            capacity: self.capacity as u64,
        }
    }

    /// The snapshot retained for `epoch`, if it has not been retired.
    pub fn get(&self, epoch: Epoch) -> Option<Arc<dyn ServeSnapshot>> {
        let state = self.state.lock();
        state
            .ring
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, s)| Arc::clone(s))
    }

    /// The newest published epoch and its snapshot.
    pub fn head(&self) -> Option<(Epoch, Arc<dyn ServeSnapshot>)> {
        let state = self.state.lock();
        state.ring.back().map(|(e, s)| (*e, Arc::clone(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ServeBackend, ShardedServe};

    fn snap_of(b: &ShardedServe) -> Arc<dyn ServeSnapshot> {
        b.snapshot()
    }

    #[test]
    fn epochs_are_monotone_and_capped() {
        let b = ShardedServe::with_shards(2);
        let feed = VersionFeed::new(3);
        assert_eq!(
            feed.info(),
            FeedInfo {
                head: 0,
                oldest: 0,
                capacity: 3
            }
        );
        for expect in 1..=5u64 {
            b.insert(expect as i64, 0);
            assert_eq!(feed.publish(snap_of(&b)), expect);
        }
        let info = feed.info();
        assert_eq!(info.head, 5);
        assert_eq!(info.oldest, 3, "epochs 1 and 2 retired");
        assert!(feed.get(2).is_none());
        assert_eq!(feed.get(3).expect("retained").len(), 3);
        assert_eq!(feed.head().expect("head").0, 5);
    }

    #[test]
    fn sink_sees_every_epoch_in_order_with_adjacent_prev() {
        struct Recorder(Mutex<Vec<(Epoch, Option<usize>, usize)>>);
        impl FeedSink for Recorder {
            fn on_publish(
                &self,
                epoch: Epoch,
                prev: Option<&Arc<dyn ServeSnapshot>>,
                snap: &Arc<dyn ServeSnapshot>,
            ) {
                self.0
                    .lock()
                    .push((epoch, prev.map(|p| p.len()), snap.len()));
            }
        }
        let recorder = Arc::new(Recorder(Mutex::new(Vec::new())));
        let b = ShardedServe::with_shards(2);
        // Capacity 1: the ring retires `prev` immediately, yet the sink
        // must still see it. Start at epoch 7 (a recovered primary).
        let feed = VersionFeed::configured(1, 7, Some(Arc::clone(&recorder) as Arc<dyn FeedSink>));
        for k in 0..3i64 {
            b.insert(k, k);
            assert_eq!(feed.publish(snap_of(&b)), 7 + k as u64);
        }
        let seen = recorder.0.lock().clone();
        assert_eq!(seen, vec![(7, None, 1), (8, Some(1), 2), (9, Some(2), 3)]);
        assert_eq!(feed.info().oldest, 9, "capacity 1 keeps only the head");
    }

    #[test]
    fn publish_at_mirrors_foreign_epochs_and_rejects_stale_ones() {
        let b = ShardedServe::with_shards(2);
        let feed = VersionFeed::new(4);
        assert_eq!(feed.next_epoch(), 1);
        b.insert(1, 10);
        assert!(feed.publish_at(5, snap_of(&b), None), "fresh epoch lands");
        assert_eq!(feed.info().head, 5);
        assert_eq!(feed.next_epoch(), 6);
        assert!(!feed.publish_at(5, snap_of(&b), None), "duplicate rejected");
        assert!(!feed.publish_at(3, snap_of(&b), None), "stale rejected");
        b.insert(2, 20);
        assert!(feed.publish_at(9, snap_of(&b), None), "gaps are fine");
        assert_eq!((feed.info().oldest, feed.info().head), (5, 9));
        // Ordinary publish continues the mirrored sequence.
        assert_eq!(feed.publish(snap_of(&b)), 10);
    }

    #[test]
    fn publish_with_snapshots_under_the_lock() {
        let b = ShardedServe::with_shards(2);
        let feed = VersionFeed::new(4);
        b.insert(7, 70);
        let epoch = feed.publish_with(|| b.snapshot(), None);
        assert_eq!(epoch, 1);
        assert_eq!(feed.get(epoch).unwrap().get(7), Some(70));
    }

    #[test]
    fn retained_epochs_are_frozen_versions() {
        let b = ShardedServe::with_shards(2);
        b.insert(1, 10);
        let feed = VersionFeed::new(4);
        let e1 = feed.publish(snap_of(&b));
        b.insert(1, 99);
        b.insert(2, 20);
        let e2 = feed.publish(snap_of(&b));
        assert_eq!(feed.get(e1).unwrap().get(1), Some(10), "epoch 1 frozen");
        assert_eq!(feed.get(e2).unwrap().get(1), Some(99));
        let diff = feed.get(e1).unwrap().diff(feed.get(e2).unwrap().as_ref());
        assert_eq!(diff.expect("same backend").len(), 2);
    }
}
