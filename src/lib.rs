//! # path-copying
//!
//! Reproduction of *Unexpected Scaling in Path Copying Trees* (Kokorin,
//! Fedorov, Brown, Aksenov — PPoPP 2023, arXiv:2212.00521): a lock-free
//! universal construction over persistent path-copying data structures,
//! the persistent structures themselves, the paper's private-cache
//! analytical model as an executable simulator, and a benchmark harness
//! regenerating every table and figure.
//!
//! This crate re-exports the workspace's public API; see the member
//! crates for details:
//!
//! * [`pathcopy_core`] — `VersionCell` (the `Root_Ptr` register),
//!   `PathCopyUc` (the retrying load/copy/CAS loop), `PoolArc` (node
//!   memory: [`pathcopy_core::pool`]), lock baselines, and the unified
//!   trait family ([`pathcopy_core::api`]).
//! * [`pathcopy_trees`] — the persistent treap and the Appendix-A
//!   external BST (their nodes are `PoolArc`s: one cache line each, from
//!   per-thread magazines), the mutable "Seq Treap" baseline; sharing
//!   measurements.
//! * [`pathcopy_concurrent`] — ready-made lock-free sets/maps and the
//!   backend registry.
//! * [`pathcopy_sim`] — the Appendix-A model: private LRU caches,
//!   synchronous processes, closed-form speedup.
//! * [`pathcopy_workloads`] — the §4 Batch/Random workload generators.
//! * [`pathcopy_server`] — the serving layer: a length-prefixed binary
//!   wire protocol (v3, correlation ids for pipelining), an
//!   event-driven nonblocking TCP server over one path-copying treap, a
//!   pipelined session client with a blocking facade, and
//!   the primary-side replication feed (`std::net` plus a hand-rolled
//!   epoll/poll shim — no async runtime).
//! * [`pathcopy_replica`] — push replication: replicas that bootstrap
//!   from a chunked full sync, then apply the pruned diff of every
//!   epoch the primary pushes, and can relay the feed onward; plus the
//!   `loadgen` traffic generator (`--replicas N` push replicas for the
//!   read scale-out topology).
//! * [`pathcopy_durable`] — durability for the feed: a segmented,
//!   checksummed epoch log (checkpoints + diff records in the wire
//!   encoding), crash recovery with torn-tail truncation,
//!   point-in-time restore, and log-seeded replica bootstrap.
//!
//! ## Choosing a backend
//!
//! Every set backend implements the same trait family
//! ([`ConcurrentSet`](prelude::ConcurrentSet) +
//! [`Snapshottable`](prelude::Snapshottable)), so the choice is a
//! one-line swap:
//!
//! | Backend | Progress guarantee | Snapshot cost | When to use |
//! |---|---|---|---|
//! | [`TreapMap`](prelude::TreapMap) | lock-free updates, wait-free reads | O(1) | The paper's construction, one root. A set is `TreapMap<K, ()>` (a [`ConcurrentSet`](prelude::ConcurrentSet), its snapshot a [`SetSnapshot`](prelude::SetSnapshot)). Atomic multi-key batches via `TreapMap::transact`. Nodes are pooled (`PoolArc`), so an update makes ~2 global allocations, not one per copied node. |
//! | [`ConcurrentExternalBstSet`](prelude::ConcurrentExternalBstSet) | lock-free | O(1) | The Appendix-A model tree (no rotations); reference subject for path-length measurements. |
//! | [`LockedTreapSet`](prelude::LockedTreapSet) | blocking (global mutex) | O(1) | The intro's "simplest UC" baseline; surprisingly fine at low thread counts. |
//!
//! Because every version is persistent, snapshots on *every* backend are
//! immutable, valid forever, and never block writers; they differ only
//! in what taking one costs. Snapshots support **lazy** `iter()` /
//! `range(..)` (real iterators over the persistent tree — no
//! intermediate `Vec`) and snapshot-to-snapshot
//! [`diff`](prelude::MapSnapshot::diff), which prunes shared subtrees by
//! pointer equality, so diffing nearby versions costs the size of the
//! change, not the size of the map.
//!
//! Write code against the traits once and it runs on every row of the
//! table (the backend registry in
//! [`pathcopy_concurrent::registry`] automates exactly this for the
//! benches and oracle tests):
//!
//! ```
//! use path_copying::prelude::*;
//!
//! /// Generic over any snapshottable set backend.
//! fn audit<S>(s: &S) -> Vec<SetDiffEntry<i64>>
//! where
//!     S: ConcurrentSet<i64> + Snapshottable,
//!     S::Snapshot: SetSnapshot<i64>,
//! {
//!     s.insert(1);
//!     let before = s.snapshot();
//!     s.insert(2);
//!     s.remove(&1);
//!     let after = s.snapshot();
//!     // Lazy range scan over the immutable view:
//!     assert_eq!(after.range(..10).next(), Some(&2));
//!     before.diff(&after) // what changed, in key order
//! }
//!
//! let want = [SetDiffEntry::Removed(1), SetDiffEntry::Added(2)];
//! assert_eq!(audit(&TreapMap::<i64, ()>::new()), want);
//! assert_eq!(audit(&ConcurrentExternalBstSet::new()), want);
//! assert_eq!(audit(&LockedTreapSet::new()), want);
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use path_copying::prelude::*;
//!
//! // A set is a map of units.
//! let set: TreapMap<i64, ()> = TreapMap::new();
//! std::thread::scope(|s| {
//!     for t in 0..4i64 {
//!         let set = &set;
//!         s.spawn(move || {
//!             for i in 0..1000 {
//!                 set.insert(t * 1000 + i, ()); // lock-free, linearizable
//!             }
//!         });
//!     }
//! });
//! assert_eq!(set.len(), 4000);
//!
//! // O(1) immutable snapshot: reads never block writers. It is a map
//! // snapshot and a set snapshot, so name the trait.
//! let snap = set.snapshot();
//! set.remove(&0);
//! assert!(SetSnapshot::contains(&snap, &0));
//! assert!(!set.contains(&0));
//! ```
//!
//! ## Atomic batch transactions
//!
//! Path copying makes a *batch* of updates just another sequential
//! function from one persistent version to the next:
//! [`TreapMap::transact`](prelude::TreapMap::transact) applies a whole
//! batch as one key-sorted descent and commits it with one root CAS, so
//! no reader or snapshot ever sees it half-applied. A set with batches
//! is a `TreapMap<K, ()>`:
//!
//! ```
//! use path_copying::prelude::{BatchOp, BatchResult, TreapMap};
//!
//! let m: TreapMap<&str, i64> = TreapMap::new();
//! m.insert("alice", 100);
//! m.insert("bob", 0);
//! // Atomic transfer; the Get sees the batch's own writes.
//! let r = m.transact(&[
//!     BatchOp::Insert("alice", 70),
//!     BatchOp::Insert("bob", 30),
//!     BatchOp::Get("bob"),
//! ]);
//! assert_eq!(r[2], BatchResult::Got(Some(30)));
//!
//! let s: TreapMap<u64, ()> = TreapMap::new();
//! let r = s.transact(&[1, 2, 3].map(|k| BatchOp::Insert(k, ())));
//! assert!(r.iter().all(|r| *r == BatchResult::Inserted(None))); // all new
//! ```
//!
//! See `cargo run --release --example batch_txn_demo`; the perf
//! ledger's `engine_read_scan` workload measures batch cost
//! (`concurrent.transact1_ns` / `transact4_ns`).
//!
//! ## Serving the map over the network
//!
//! The properties above are exactly what a read-heavy serving system
//! wants — lock-free point writes racing ahead while scans and diffs run
//! on frozen versions — so the workspace ships them as a TCP service.
//! [`pathcopy_server`] speaks a hand-rolled length-prefixed binary
//! protocol (no serde, no async runtime) and serves one
//! [`TreapMap`](prelude::TreapMap) — the paper's single root — behind
//! `Box<dyn ServeBackend>`. A `Publish` request pins a coherent version
//! in the server's feed, under the next epoch, for the cost of one
//! `Arc` clone of the root; `Range` and `PullDiff` requests — from any
//! connection — then read that immutable version while writers keep
//! committing, until the feed's ring retires it, and `Batch` frames
//! commit all-or-nothing through
//! [`TreapMap::transact`](prelude::TreapMap::transact), one root CAS
//! per batch:
//!
//! ```
//! use pathcopy_server::{backend, ServerConfig, Session};
//!
//! // In-process server over one treap, on an ephemeral port.
//! let server = pathcopy_server::spawn(
//!     backend::by_name("sharded_map_8").unwrap(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let client = Session::connect(server.addr()).unwrap();
//! client.insert(1, 10).unwrap();
//! let pinned = client.publish().unwrap(); // O(1), held in the version feed
//! client.insert(1, 99).unwrap();
//! client.insert(2, 20).unwrap();
//!
//! // The pinned version is immutable under the writes above...
//! let (entries, _) = client.range(Some(pinned), .., 0).unwrap();
//! assert_eq!(entries, vec![(1, 10)]);
//! // ...and the wire diff to the next epoch is the change, not the map.
//! client.publish().unwrap();
//! let (_, diff) = client.pull_diff(pinned).unwrap();
//! assert_eq!(diff.len(), 2);
//! server.shutdown();
//! ```
//!
//! Drive it: `cargo run --release --bin loadgen -- --threads 8
//! --ops 100000` (Zipf read/write mix, throughput + latency table).
//! `tests/server_e2e.rs` asserts the pinned-epoch `Range` and `PullDiff`
//! above against concurrent writers.
//!
//! ## Replication: read scale-out from snapshot diffs
//!
//! Path copying makes the delta between two nearby versions *sublinear*
//! to compute (the pruned `diff`), which is exactly the primitive
//! log-shipping replication wants: instead of streaming full state, a
//! primary publishes a monotone **version feed** — a capped ring of
//! recent snapshots keyed by epoch, nearly free to retain because the
//! versions share all unchanged subtrees — and pushes each epoch's
//! `diff(prev, epoch)` to its subscribers. A
//! [`PushReplica`](pathcopy_replica::PushReplica) bootstraps by paging
//! the feed head with `Range` (no page can trip the frame cap),
//! subscribes, and applies every pushed diff to its local store as
//! **one atomic batch**, so replica readers only ever observe
//! published versions; a lost push is repaired by pulling the diff it
//! missed. The replica
//! serves the same protocol as the primary, so read traffic points at
//! replicas unchanged (`loadgen --replicas N`), and a replica can relay
//! the feed on to more replicas:
//!
//! ```
//! use std::time::Duration;
//!
//! use path_copying::pathcopy_replica::{PushOutcome, PushReplica};
//! use pathcopy_server::{backend, ServerConfig, Session};
//!
//! let primary = pathcopy_server::spawn(
//!     backend::by_name("sharded_map_8").unwrap(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let writer = Session::connect(primary.addr()).unwrap();
//! writer.insert(1, 10).unwrap();
//!
//! // Bootstrap is a chunked full transfer...
//! let mut replica = PushReplica::connect(
//!     primary.addr(),
//!     backend::by_name("sharded_map_8").unwrap(),
//! )
//! .unwrap();
//! let store = replica.store();
//! assert_eq!(store.get(1), Some(10));
//!
//! // ...after which each published epoch arrives as a pushed diff:
//! // O(changes) bytes, not O(map).
//! writer.insert(2, 20).unwrap();
//! let epoch = writer.publish().unwrap();
//! assert_eq!(
//!     replica.pump(Duration::from_secs(10)).unwrap(),
//!     PushOutcome::Pushed { epoch, changes: 1 }
//! );
//! assert_eq!(store.get(2), Some(20));
//! assert_eq!(replica.push_stats().diff_pulls, 0); // no request went upstream
//! primary.shutdown();
//! ```
//!
//! (On a real map the byte asymmetry is stark —
//! `crates/replica/tests/transfer_cost.rs` asserts it on a 100k-key
//! map.)
//!
//! Guarded mini-transactions ride the same wire: a `Batch` frame with
//! the `guarded` flag aborts **whole-batch, zero writes** when any `Cas`
//! guard fails
//! ([`Session::batch_guarded`](pathcopy_server::Session::batch_guarded),
//! [`TreapMap::transact_guarded`](prelude::TreapMap::transact_guarded)).
//!
//! See it run: `cargo run --release --example fanout_demo` (1 primary,
//! 2 relays, 4 push replicas, the primary's egress per tier);
//! `crates/replica/tests/fanout.rs`'s
//! `a_push_leaf_never_exposes_a_torn_epoch` runs a concurrent writer
//! against a leaf whose reader verifies it only ever sees frozen
//! versions.
//!
//! ## Durability: the epoch log
//!
//! The feed's pruned diffs are also the natural unit of *persistence*:
//! [`pathcopy_durable`] appends each published epoch to a segmented,
//! CRC-checksummed log — a small diff record per epoch, and a full
//! checkpoint once the diff bytes since the last one reach that
//! checkpoint's size, both in the wire encoding, so disk and network
//! speak the same bytes (the record and the subscribers' push are one
//! diff, computed once). Hook a
//! [`FeedPersister`](pathcopy_durable::FeedPersister) into the server
//! via [`ServerConfig`](pathcopy_server::ServerConfig)'s `feed_sink`
//! and every `publish` is durable before its reply; reopen the log
//! after a crash and the torn tail (if any) is truncated, the head
//! state replays, and the epoch sequence continues where it stopped:
//!
//! ```
//! use pathcopy_durable::{EpochLog, LogConfig};
//! use pathcopy_server::backend::{ServeBackend, TreapServe};
//! use path_copying::prelude::DiffEntry;
//!
//! let dir = std::env::temp_dir().join(format!("pc-facade-log-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let (log, recovered) = EpochLog::open(&dir, LogConfig::default()).unwrap();
//! assert_eq!(recovered.head, 0);
//!
//! // Epoch 1 checkpoints the state; epoch 2 is just its diff.
//! let map = TreapServe::default();
//! map.insert(1, 10);
//! log.append_checkpoint(1, map.snapshot().as_ref()).unwrap();
//! log.append_diff(2, &[DiffEntry::Added(2, 20)]).unwrap();
//!
//! // Recovery: replay the head, or restore any retained epoch as it was.
//! let (state, head) = log.replay().unwrap();
//! assert_eq!((head, state.get(&2)), (2, Some(20)));
//! assert_eq!(log.restore_epoch(1).unwrap().get(&2), None);
//! # drop(log);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! Retention is checkpoint-anchored: old checkpoint+diff chains retire
//! whole once the log exceeds its byte cap, so
//! [`restore_epoch`](pathcopy_durable::EpochLog::restore_epoch) offers
//! point-in-time recovery over a bounded window. A cold replica can
//! [seed from the log](pathcopy_replica::PushReplica::connect_seeded)
//! with **zero** full-sync bytes and then converge via diffs.
//!
//! See it run: `cargo run --release --example durable_demo` (durable
//! primary, simulated crash with a torn tail, recovery, point-in-time
//! restore, log-seeded replica); `loadgen --log-dir DIR` for
//! durability under load; the perf ledger's `wire_durable_fanout`
//! workload reports `durable.recover_ms` and `durable.checkpoint_ms`.
//!
//! ## Further reading
//!
//! Three documents cover the system prose-first (links are
//! repo-relative):
//!
//! * [`docs/ARCHITECTURE.md`](../../../docs/ARCHITECTURE.md) — crate
//!   map, the write → publish → log/replica data flow, and the
//!   snapshot/epoch lifecycle.
//! * [`docs/WIRE_PROTOCOL.md`](../../../docs/WIRE_PROTOCOL.md) — every
//!   frame and tag byte-by-byte, error frames, the guarded-batch abort
//!   contract, and the durable log's record format (cross-checked
//!   against the encoder by `crates/server/tests/doc_contract.rs`).
//! * [`docs/OPERATIONS.md`](../../../docs/OPERATIONS.md) — running a
//!   durable cluster, failure drills, what healthy counters look like,
//!   and what CI checks.
//!
//! ## Building and testing
//!
//! The workspace is self-contained — external dependencies are vendored
//! as API-compatible shims under `shims/` (the build image has no
//! registry access), so the following work offline:
//!
//! ```text
//! cargo build --release      # whole workspace, examples and bins included
//! cargo test -q              # unit + integration + property + doc tests
//! cargo bench -- --test      # every bench once, smoke mode
//! ```

#![warn(missing_docs)]

pub use pathcopy_concurrent;
pub use pathcopy_core;
pub use pathcopy_durable;
pub use pathcopy_replica;
pub use pathcopy_server;
pub use pathcopy_sim;
pub use pathcopy_trees;
pub use pathcopy_workloads;

/// One-line import for the common API.
pub mod prelude {
    pub use pathcopy_concurrent::{
        diff_to_ops, BatchOp, BatchResult, EbstSnapshot,
        ExternalBstSet as ConcurrentExternalBstSet, GuardAbort, LockedTreapSet, TreapMap,
        TreapSnapshot,
    };
    pub use pathcopy_core::{
        BackoffPolicy, ConcurrentSet, DiffEntry, MapSnapshot, MutexUc, PathCopyUc, SeqUc,
        SetDiffEntry, SetSnapshot, Snapshottable, StatsSnapshot, Update, VersionCell,
    };
    pub use pathcopy_replica::{PushOutcome, PushReplica, PushStats};
    pub use pathcopy_trees::{ExternalBstSet, TreapMap as PersistentTreapMap};
}
