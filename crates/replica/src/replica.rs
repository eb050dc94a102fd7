//! The pull engine a [`PushReplica`](crate::PushReplica) bootstraps and
//! repairs gaps with: a chunked full sync, then pruned
//! snapshot-to-snapshot diffs pulled on demand.
//!
//! A [`Replica`] owns a connection to the primary and a local store.
//! [`Replica::sync_once`] drives one catch-up step:
//!
//! * **Diff path** — `PullDiff(applied_epoch)` fetches everything that
//!   changed between the replica's epoch and the feed head; the entries
//!   are converted with
//!   [`diff_to_ops`] and applied through the store's
//!   [`transact`](ServeBackend::transact), so the whole diff flips in
//!   **one** linearizable operation and local readers only ever observe
//!   published primary versions — never a half-applied epoch.
//! * **Full-sync fallback** — when the replica's epoch has been retired
//!   from the primary's feed ring (it lagged too far), or the diff reply
//!   overflows the frame cap, the replica bootstraps again: it pages the
//!   whole pinned head version down in bounded
//!   [`SyncPage`](pathcopy_server::Response::SyncPage) segments,
//!   computes the *local* difference against its own store, and applies
//!   that reconciliation — again as one atomic batch.
//!
//! The engine counts pulls, applied entries, and — via the client's
//! [`wire_bytes`](Client::wire_bytes) accounting — the exact bytes each
//! path moved ([`ReplicaStatsSnapshot`]). That counter is the
//! experimental proof of the design's point: diff catch-up transfers
//! O(changes) bytes while a full sync transfers O(n).

use std::collections::BTreeMap;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;

use pathcopy_concurrent::{diff_to_ops, BatchOp};
use pathcopy_server::{Client, ClientError, Epoch, ServeBackend, WireError};

/// What one [`Replica::sync_once`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Caught up via an incremental epoch diff (`changes` entries;
    /// `0` = the replica was already at the head).
    Diff {
        /// The epoch the replica is now at.
        to: Epoch,
        /// Number of diff entries applied.
        changes: usize,
    },
    /// Bootstrapped (or re-bootstrapped after lagging past the feed
    /// ring) via a chunked full sync.
    FullSync {
        /// The epoch the replica is now at.
        to: Epoch,
        /// Entries transferred (the pinned version's size).
        entries: usize,
    },
}

/// A replica's monotone sync counters; [`Replica::stats`] returns a
/// copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaStatsSnapshot {
    /// The feed epoch the local store currently equals.
    pub applied_epoch: Epoch,
    /// Completed incremental catch-ups ([`SyncOutcome::Diff`]).
    pub diff_pulls: u64,
    /// Completed full syncs ([`SyncOutcome::FullSync`]).
    pub full_syncs: u64,
    /// Diff entries applied across all incremental catch-ups.
    pub diff_entries: u64,
    /// Entries transferred across all full syncs.
    pub full_entries: u64,
    /// Wire bytes (both directions) spent on incremental catch-ups.
    pub diff_bytes: u64,
    /// Wire bytes (both directions) spent on full syncs.
    pub full_bytes: u64,
    /// Times the replica found its epoch retired from the feed ring and
    /// had to fall back to a full sync.
    pub ring_fallbacks: u64,
    /// Bootstraps performed from a durable epoch log instead of the
    /// wire ([`Replica::seed_from_log`] — zero `FullSync` bytes).
    pub log_seeds: u64,
    /// Entries materialized by log-seeded bootstraps.
    pub log_seed_entries: u64,
}

/// A read replica of a `pathcopy-server` primary; see the module docs.
pub struct Replica {
    client: Client,
    store: Arc<dyn ServeBackend>,
    stats: ReplicaStatsSnapshot,
}

impl Replica {
    /// Connects to the primary at `addr` and adopts `store` as the local
    /// backend the synced state is materialized into (a fresh
    /// [`ShardedServe`](pathcopy_server::backend::ShardedServe)).
    ///
    /// The store starts unsynced: call [`sync_once`](Self::sync_once)
    /// (the first call bootstraps with a full sync).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from establishing the TCP connection to the
    /// primary.
    pub fn connect<A: ToSocketAddrs>(addr: A, store: Box<dyn ServeBackend>) -> io::Result<Self> {
        Ok(Replica {
            client: Client::connect(addr)?,
            store: Arc::from(store),
            stats: ReplicaStatsSnapshot::default(),
        })
    }

    /// The local store, shared: reads served from this handle see the
    /// replica's latest applied epoch.
    pub fn store(&self) -> Arc<dyn ServeBackend> {
        Arc::clone(&self.store)
    }

    /// The feed epoch the local store currently equals (`0` = never
    /// synced).
    pub fn applied_epoch(&self) -> Epoch {
        self.stats.applied_epoch
    }

    /// Plain-data copy of the sync counters.
    pub fn stats(&self) -> ReplicaStatsSnapshot {
        self.stats
    }

    /// Bootstraps the local store from a durable epoch log instead of a
    /// `FullSync` over the wire: replays the log's newest checkpoint
    /// plus its diff tail into the store (each epoch applied as one
    /// atomic batch) and adopts the log's head as the applied epoch —
    /// **zero wire bytes moved**. If the head is still retained in the
    /// primary's feed ring, the next [`sync_once`](Self::sync_once)
    /// continues straight down the cheap diff path; if the log was
    /// empty (`Ok(0)`), the replica stays unsynced and the next sync
    /// bootstraps over the wire as usual.
    ///
    /// Seeding replicas from a log file (shipped, or on shared storage)
    /// keeps a fleet bootstrap from hammering the primary with `O(n)`
    /// full transfers.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the replica has already synced or its store is
    /// non-empty (seeding assumes a fresh store); otherwise the
    /// underlying [`LogError`](pathcopy_durable::LogError) wrapped as
    /// an IO error.
    pub fn seed_from_log(&mut self, log: &pathcopy_durable::EpochLog) -> io::Result<Epoch> {
        if self.applied_epoch() != 0 || !self.store.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "log seeding requires a fresh, never-synced replica store",
            ));
        }
        let head = log
            .replay_into(self.store.as_ref())
            .map_err(io::Error::other)?;
        if head == 0 {
            return Ok(0); // empty log: nothing to adopt
        }
        self.stats.applied_epoch = head;
        self.stats.log_seeds += 1;
        self.stats.log_seed_entries += self.store.len() as u64;
        Ok(head)
    }

    /// One catch-up step: incremental diff when possible, full sync when
    /// bootstrapping or after lagging past the primary's feed ring.
    /// Idempotent at the head (returns `Diff { changes: 0 }`).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the wire. `EpochRetired`/`TooLarge`
    /// server errors are handled internally (they trigger the full-sync
    /// fallback) and are not returned.
    pub fn sync_once(&mut self) -> Result<SyncOutcome, ClientError> {
        let applied = self.applied_epoch();
        if applied == 0 {
            return self.full_resync();
        }
        let before = self.client.wire_bytes();
        match self.client.pull_diff(applied) {
            Ok((to, entries)) => {
                if !entries.is_empty() {
                    self.store.transact(&diff_to_ops(&entries));
                }
                let moved = self.client.wire_bytes().since(&before).total();
                self.stats.diff_bytes += moved;
                self.stats.diff_pulls += 1;
                self.stats.diff_entries += entries.len() as u64;
                self.stats.applied_epoch = to;
                Ok(SyncOutcome::Diff {
                    to,
                    changes: entries.len(),
                })
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
    /// to a bounded number of attempts.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the wire, including the last retirement
    /// error if every restart attempt lost its pinned epoch.
    pub fn full_resync(&mut self) -> Result<SyncOutcome, ClientError> {
        const MAX_RESTARTS: usize = 8;
        let before = self.client.wire_bytes();
        let mut last_err: Option<ClientError> = None;
        for _ in 0..MAX_RESTARTS {
            match self.try_full_transfer() {
                Ok((epoch, target)) => {
                    let transferred = target.len();
                    self.reconcile(&target);
                    let moved = self.client.wire_bytes().since(&before).total();
                    self.stats.full_bytes += moved;
                    self.stats.full_syncs += 1;
                    self.stats.full_entries += transferred as u64;
                    self.stats.applied_epoch = epoch;
                    return Ok(SyncOutcome::FullSync {
                        to: epoch,
                        entries: transferred,
                    });
                }
                Err(e @ ClientError::Server(WireError::EpochRetired(_))) => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("restarts only on EpochRetired"))
    }

    /// Pages one pinned epoch fully down. `Err(EpochRetired)` means the
    /// pin died mid-transfer and the caller should restart.
    fn try_full_transfer(&mut self) -> Result<(Epoch, BTreeMap<i64, i64>), ClientError> {
        let mut target = BTreeMap::new();
        let (epoch, first, mut done) = self.client.full_sync_page(None, None, 0)?;
        let mut after = first.last().map(|(k, _)| *k);
        target.extend(first);
        while !done {
            let (e, page, page_done) = self.client.full_sync_page(Some(epoch), after, 0)?;
            debug_assert_eq!(e, epoch, "server pages the pinned epoch");
            after = page.last().map(|(k, _)| *k).or(after);
            target.extend(page);
            done = page_done;
        }
        Ok((epoch, target))
    }

    /// Applies `local → target` as one batch: inserts/overwrites for
    /// entries that differ, removals for local keys the target lacks.
    /// Both sides are sorted, so this is a single two-pointer merge.
    fn reconcile(&self, target: &BTreeMap<i64, i64>) {
        let snap = self.store.snapshot();
        let (local, complete) =
            snap.range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded, 0);
        debug_assert!(complete, "unlimited range scans to completion");
        let mut ops: Vec<BatchOp<i64, i64>> = Vec::new();
        let mut incoming = target.iter().peekable();
        for (k, v) in &local {
            while let Some(&(&tk, &tv)) = incoming.peek() {
                if tk >= *k {
                    break;
                }
                ops.push(BatchOp::Insert(tk, tv)); // target-only, before k
                incoming.next();
            }
            match incoming.peek() {
                Some(&(&tk, &tv)) if tk == *k => {
                    if tv != *v {
                        ops.push(BatchOp::Insert(tk, tv));
                    }
                    incoming.next();
                }
                _ => ops.push(BatchOp::Remove(*k)), // local-only
            }
        }
        for (&tk, &tv) in incoming {
            ops.push(BatchOp::Insert(tk, tv)); // target-only tail
        }
        if !ops.is_empty() {
            self.store.transact(&ops);
        }
    }

    /// The primary's address this replica syncs from is fixed at
    /// [`connect`](Self::connect) time; this is a convenience passthrough
    /// for reporting.
    pub fn primary_wire_bytes(&self) -> pathcopy_core::ByteCountersSnapshot {
        self.client.wire_bytes()
    }

    /// The upstream connection, for the push subsystem (`push.rs`) to
    /// subscribe on the same session the sync engine pulls over.
    pub(crate) fn client(&self) -> &Client {
        &self.client
    }

    /// Stamps the store as equal to `epoch` after the push subsystem
    /// applied a pushed diff outside [`sync_once`](Self::sync_once).
    pub(crate) fn record_applied(&mut self, epoch: Epoch) {
        self.stats.applied_epoch = epoch;
    }
}
