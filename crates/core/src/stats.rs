//! Operation statistics for the universal construction.
//!
//! The model in the paper predicts that with `P` processes nearly every
//! successful operation is preceded by `P − 1` failed attempts (Fig. 4).
//! These counters let the harness check that prediction on the real
//! implementation: `attempts / ops` should approach `P` under write-only
//! contention.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crossbeam_utils::CachePadded;

/// Upper bound on the attempt histogram; attempts beyond this land in the
/// last bucket.
pub const MAX_TRACKED_ATTEMPTS: usize = 64;

/// Shared, thread-safe counters describing UC behaviour.
///
/// All counters are monotonically increasing and updated with relaxed
/// atomics — they are diagnostics, not synchronization.
#[derive(Debug)]
pub struct UcStats {
    ops: CachePadded<AtomicU64>,
    attempts: CachePadded<AtomicU64>,
    cas_failures: CachePadded<AtomicU64>,
    noop_updates: CachePadded<AtomicU64>,
    reads: CachePadded<AtomicU64>,
    /// `attempt_hist[k]` counts operations that needed exactly `k + 1`
    /// attempts (last bucket: `>= MAX_TRACKED_ATTEMPTS`).
    attempt_hist: Box<[AtomicU64]>,
}

impl Default for UcStats {
    fn default() -> Self {
        Self::new()
    }
}

impl UcStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        let hist = (0..MAX_TRACKED_ATTEMPTS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        UcStats {
            ops: CachePadded::new(AtomicU64::new(0)),
            attempts: CachePadded::new(AtomicU64::new(0)),
            cas_failures: CachePadded::new(AtomicU64::new(0)),
            noop_updates: CachePadded::new(AtomicU64::new(0)),
            reads: CachePadded::new(AtomicU64::new(0)),
            attempt_hist: hist,
        }
    }

    /// Records one completed update that needed `attempts` attempts, of
    /// which `attempts - 1` ended in a failed CAS.
    pub fn record_update(&self, attempts: u64, was_noop: bool) {
        debug_assert!(attempts >= 1);
        self.ops.fetch_add(1, Relaxed);
        self.attempts.fetch_add(attempts, Relaxed);
        self.cas_failures.fetch_add(attempts - 1, Relaxed);
        if was_noop {
            self.noop_updates.fetch_add(1, Relaxed);
        }
        let bucket = ((attempts - 1) as usize).min(MAX_TRACKED_ATTEMPTS - 1);
        self.attempt_hist[bucket].fetch_add(1, Relaxed);
    }

    /// Records one read-only operation.
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            ops: self.ops.load(Relaxed),
            attempts: self.attempts.load(Relaxed),
            cas_failures: self.cas_failures.load(Relaxed),
            noop_updates: self.noop_updates.load(Relaxed),
            reads: self.reads.load(Relaxed),
            frozen_installs: 0,
            freeze_retries: 0,
            attempt_hist: self.attempt_hist.iter().map(|c| c.load(Relaxed)).collect(),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.ops.store(0, Relaxed);
        self.attempts.store(0, Relaxed);
        self.cas_failures.store(0, Relaxed);
        self.noop_updates.store(0, Relaxed);
        self.reads.store(0, Relaxed);
        for c in self.attempt_hist.iter() {
            c.store(0, Relaxed);
        }
    }
}

/// Plain-data copy of [`UcStats`] counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed update operations.
    pub ops: u64,
    /// Total attempts across all updates (>= `ops`).
    pub attempts: u64,
    /// Failed CASes (`attempts - ops` when every attempt ends in a CAS).
    pub cas_failures: u64,
    /// Updates that turned out to change nothing and skipped the CAS.
    pub noop_updates: u64,
    /// Read-only operations.
    pub reads: u64,
    /// Always 0: nothing installs a root outside the CAS loop. Kept
    /// for the perf ledger, which still reads it.
    #[doc(hidden)]
    pub frozen_installs: u64,
    /// Always 0, like `frozen_installs`.
    #[doc(hidden)]
    pub freeze_retries: u64,
    /// `attempt_hist[k]` = operations that took exactly `k + 1` attempts.
    pub attempt_hist: Vec<u64>,
}

impl Default for StatsSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl StatsSnapshot {
    /// An all-zero snapshot — what backends without counters (the
    /// lock-based baselines) report through
    /// [`crate::api::ConcurrentSet::stats_snapshot`].
    pub fn empty() -> Self {
        StatsSnapshot {
            ops: 0,
            attempts: 0,
            cas_failures: 0,
            noop_updates: 0,
            reads: 0,
            frozen_installs: 0,
            freeze_retries: 0,
            attempt_hist: vec![0; MAX_TRACKED_ATTEMPTS],
        }
    }

    /// Mean number of attempts per update (1.0 = no contention).
    pub fn mean_attempts(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.attempts as f64 / self.ops as f64
        }
    }

    /// Fraction of updates that committed on the first try.
    pub fn first_try_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.attempt_hist[0] as f64 / self.ops as f64
        }
    }
}

/// Shared, thread-safe transfer accounting: bytes sent and received over
/// some channel (a client connection, a replication stream).
///
/// Like [`UcStats`], the counters are monotonic relaxed atomics —
/// diagnostics, not synchronization. The replication layer uses a block
/// of these to prove that snapshot-diff catch-up moves O(changes) bytes
/// while a full resync moves O(n).
#[derive(Debug, Default)]
pub struct ByteCounters {
    sent: CachePadded<AtomicU64>,
    received: CachePadded<AtomicU64>,
}

impl ByteCounters {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` bytes written to the channel.
    pub fn add_sent(&self, n: u64) {
        self.sent.fetch_add(n, Relaxed);
    }

    /// Records `n` bytes read from the channel.
    pub fn add_received(&self, n: u64) {
        self.received.fetch_add(n, Relaxed);
    }

    /// Takes a consistent-enough copy of both counters.
    pub fn snapshot(&self) -> ByteCountersSnapshot {
        ByteCountersSnapshot {
            sent: self.sent.load(Relaxed),
            received: self.received.load(Relaxed),
        }
    }
}

/// Plain-data copy of [`ByteCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteCountersSnapshot {
    /// Bytes written to the channel so far.
    pub sent: u64,
    /// Bytes read from the channel so far.
    pub received: u64,
}

impl ByteCountersSnapshot {
    /// Bytes moved in either direction.
    pub fn total(&self) -> u64 {
        self.sent + self.received
    }

    /// Traffic accumulated since an earlier snapshot of the same block.
    pub fn since(&self, earlier: &ByteCountersSnapshot) -> ByteCountersSnapshot {
        ByteCountersSnapshot {
            sent: self.sent - earlier.sent,
            received: self.received - earlier.received,
        }
    }
}

/// Shared, thread-safe storage-IO accounting: appends, fsyncs, and bytes
/// moved to and from a durable medium (the epoch log's segment files).
///
/// Like [`ByteCounters`], the counters are monotonic relaxed atomics —
/// diagnostics, not synchronization. The durability layer uses a block
/// of these to make its fsync discipline observable: a healthy primary
/// shows `fsyncs` tracking `appends` (one sync per published epoch when
/// the log is configured durable) and `bytes_read` staying near zero
/// outside recovery and point-in-time restores.
#[derive(Debug, Default)]
pub struct IoCounters {
    appends: CachePadded<AtomicU64>,
    fsyncs: CachePadded<AtomicU64>,
    bytes_written: CachePadded<AtomicU64>,
    bytes_read: CachePadded<AtomicU64>,
}

impl IoCounters {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one appended record (a diff record or one checkpoint page).
    pub fn record_append(&self) {
        self.appends.fetch_add(1, Relaxed);
    }

    /// Records one `fsync`/`fdatasync` round trip to the medium.
    pub fn record_fsync(&self) {
        self.fsyncs.fetch_add(1, Relaxed);
    }

    /// Records `n` bytes written to the medium.
    pub fn add_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Relaxed);
    }

    /// Records `n` bytes read back from the medium (recovery, replay,
    /// point-in-time restore).
    pub fn add_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Relaxed);
    }

    /// Takes a consistent-enough copy of all four counters.
    pub fn snapshot(&self) -> IoCountersSnapshot {
        IoCountersSnapshot {
            appends: self.appends.load(Relaxed),
            fsyncs: self.fsyncs.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
            bytes_read: self.bytes_read.load(Relaxed),
        }
    }
}

/// Plain-data copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoCountersSnapshot {
    /// Records appended to the durable medium.
    pub appends: u64,
    /// Completed `fsync`/`fdatasync` calls.
    pub fsyncs: u64,
    /// Bytes written to the medium.
    pub bytes_written: u64,
    /// Bytes read back from the medium.
    pub bytes_read: u64,
}

impl IoCountersSnapshot {
    /// IO accumulated since an earlier snapshot of the same block.
    pub fn since(&self, earlier: &IoCountersSnapshot) -> IoCountersSnapshot {
        IoCountersSnapshot {
            appends: self.appends - earlier.appends,
            fsyncs: self.fsyncs - earlier.fsyncs,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_counters_accumulate_and_delta() {
        let c = IoCounters::new();
        c.record_append();
        c.record_fsync();
        c.add_written(128);
        let first = c.snapshot();
        assert_eq!(
            first,
            IoCountersSnapshot {
                appends: 1,
                fsyncs: 1,
                bytes_written: 128,
                bytes_read: 0
            }
        );
        c.record_append();
        c.add_written(64);
        c.add_read(1024);
        let delta = c.snapshot().since(&first);
        assert_eq!(delta.appends, 1);
        assert_eq!(delta.fsyncs, 0);
        assert_eq!(delta.bytes_written, 64);
        assert_eq!(delta.bytes_read, 1024);
    }

    #[test]
    fn byte_counters_accumulate_and_delta() {
        let c = ByteCounters::new();
        c.add_sent(10);
        c.add_received(100);
        let first = c.snapshot();
        assert_eq!(first.sent, 10);
        assert_eq!(first.received, 100);
        assert_eq!(first.total(), 110);
        c.add_sent(5);
        c.add_received(50);
        let delta = c.snapshot().since(&first);
        assert_eq!(
            delta,
            ByteCountersSnapshot {
                sent: 5,
                received: 50
            }
        );
    }

    #[test]
    fn record_update_populates_counters() {
        let s = UcStats::new();
        s.record_update(1, false);
        s.record_update(3, false);
        s.record_update(1, true);
        let snap = s.snapshot();
        assert_eq!(snap.ops, 3);
        assert_eq!(snap.attempts, 5);
        assert_eq!(snap.cas_failures, 2);
        assert_eq!(snap.noop_updates, 1);
        assert_eq!(snap.attempt_hist[0], 2);
        assert_eq!(snap.attempt_hist[2], 1);
        assert!((snap.mean_attempts() - 5.0 / 3.0).abs() < 1e-12);
        assert!((snap.first_try_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn huge_attempt_counts_clamp_to_last_bucket() {
        let s = UcStats::new();
        s.record_update(10_000, false);
        let snap = s.snapshot();
        assert_eq!(snap.attempt_hist[MAX_TRACKED_ATTEMPTS - 1], 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = UcStats::new();
        s.record_update(2, false);
        s.record_read();
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.ops, 0);
        assert_eq!(snap.attempts, 0);
        assert_eq!(snap.reads, 0);
        assert!(snap.attempt_hist.iter().all(|&c| c == 0));
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let s = UcStats::new();
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for _ in 0..1000 {
                        s.record_update(2, false);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.ops, 4000);
        assert_eq!(snap.attempts, 8000);
        assert_eq!(snap.cas_failures, 4000);
    }
}
