//! The glue between the primary's feed and the log: a
//! [`FeedSink`] that appends every published epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pathcopy_metrics::{HistogramSnapshot, Stage};
use pathcopy_server::backend::ServeSnapshot;
use pathcopy_server::metrics::MetricsSource;
use pathcopy_server::proto::{Epoch, StageSummary};
use pathcopy_server::FeedSink;
use pathcopy_trace::{Flight, Probe, TraceContext};

use crate::log::{EpochLog, LogError};

/// Persists a `VersionFeed` into an [`EpochLog`].
///
/// Install it as
/// [`ServerConfig::feed_sink`](pathcopy_server::ServerConfig) (or pass
/// it to `VersionFeed::configured`) and every published epoch becomes
/// durable before `publish` returns:
///
/// * normally, the epoch's **pruned diff** against its predecessor —
///   the identical `prev.diff(snap)` the server pushes to subscribers,
///   sublinear in map size thanks to path copying, and computed once:
///   the served snapshot remembers it, so the push reuses this walk;
/// * a full **checkpoint** when the log says one is due
///   ([`EpochLog::checkpoint_due`]: the diff bytes since its newest
///   checkpoint have reached that checkpoint's size), when there is
///   no predecessor snapshot (the first publish after recovery), or
///   when a diff append fails —
///   checkpoints re-base the log, so any failure self-heals at the next
///   epoch at the cost of one full-state write.
///
/// Publication cannot be un-announced, so the sink cannot make
/// `publish` fail; log errors are parked for the operator instead
/// ([`take_error`](Self::take_error) / [`error_count`](Self::error_count)).
///
/// Epochs at or below the log's head are skipped, which makes the sink
/// idempotent when a recovered primary replays publishes it already
/// persisted.
pub struct FeedPersister {
    log: Arc<EpochLog>,
    last_error: Mutex<Option<LogError>>,
    errors: AtomicU64,
    /// Times [`Stage::AppendFsync`]: the histogram is always on, spans
    /// need [`attach_flight`](Self::attach_flight).
    probe: Probe,
}

impl FeedPersister {
    /// Wraps `log` as a feed sink.
    pub fn new(log: Arc<EpochLog>) -> Arc<Self> {
        Arc::new(FeedPersister {
            log,
            last_error: Mutex::new(None),
            errors: AtomicU64::new(0),
            probe: Probe::new(&[Stage::AppendFsync], 1, true),
        })
    }

    /// Attaches the node's trace flight recorder: from here on, a
    /// traced publish records its append+fsync as an
    /// [`Stage::AppendFsync`] span under the publish's execute span,
    /// so the durability cost shows up inside the request's timeline.
    /// Set-once — the publish path reads it without a lock — so a
    /// second call is ignored.
    pub fn attach_flight(&self, flight: Arc<Flight>) {
        self.probe.attach_flight(flight);
    }

    /// Latency distribution of whole-epoch persistence (diff or
    /// checkpoint append, including the fsync), in nanoseconds per
    /// published epoch. Register the persister as a
    /// [`MetricsSource`] on the server
    /// ([`ServerHandle::register_metrics_source`](pathcopy_server::ServerHandle::register_metrics_source))
    /// to expose it over `Request::Metrics`.
    pub fn append_fsync_snapshot(&self) -> HistogramSnapshot {
        self.probe.snapshot(Stage::AppendFsync, 0)
    }

    /// The log being written.
    pub fn log(&self) -> &Arc<EpochLog> {
        &self.log
    }

    /// Takes (and clears) the most recent append error, if any.
    pub fn take_error(&self) -> Option<LogError> {
        self.last_error.lock().take()
    }

    /// Total appends that failed (each also re-based via a checkpoint
    /// attempt at the next opportunity).
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn record_error(&self, e: LogError) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some(e);
    }
}

impl FeedSink for FeedPersister {
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
        if epoch <= self.log.head() {
            return; // already durable (recovered primary republishing)
        }
        let started = self.probe.begin(trace);
        let result = match prev {
            Some(prev) if !self.log.checkpoint_due() => self
                .log
                .append_diff(epoch, &prev.diff(snap.as_ref()))
                // Oversized diff, sequence gap after an earlier failure,
                // …: re-base with a checkpoint.
                .or_else(|_| self.log.append_checkpoint(epoch, snap.as_ref())),
            _ => self.log.append_checkpoint(epoch, snap.as_ref()),
        };
        // One clock reading closes both the histogram sample and, for a
        // traced publish, the span that pins the fsync cost inside its
        // timeline (a child of the execute span on this node); the trace
        // id makes the sample the histogram's exemplar candidate.
        self.probe
            .lap(Stage::AppendFsync, 0, 0, trace, epoch, started);
        if let Err(e) = result {
            self.record_error(e);
        }
    }
}

impl MetricsSource for FeedPersister {
    fn collect(&self) -> Vec<StageSummary> {
        self.probe.collect()
    }

    fn reset(&self) {
        self.probe.reset();
    }
}
