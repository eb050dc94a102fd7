//! # pathcopy-replica
//!
//! Snapshot-diff replication over the serving layer: a primary
//! `pathcopy-server` publishes a monotone **version feed** (a capped
//! ring of recent snapshots keyed by epoch —
//! [`pathcopy_server::VersionFeed`]) and **pushes** every published
//! epoch's pruned diff to its subscribers. A [`PushReplica`] — the one
//! way to deploy a replica — bootstraps with one chunked full sync,
//! subscribes, and applies each pushed diff; it can re-serve the feed as
//! a relay, so replicas form a tree whose primary egress is independent
//! of the leaf count.
//!
//! This is the paper's central artifact turned into horizontal read
//! scale-out. Path-copied versions share every unchanged subtree, so:
//!
//! * retaining a ring of recent epochs on the primary costs O(changes),
//!   not `K` map copies;
//! * each epoch's diff is computed by pointer-equality pruning —
//!   sublinear in the map size — and *only the change* crosses the wire
//!   (the pull engine's byte counters prove it for the bootstrap and
//!   repair paths: [`ReplicaStatsSnapshot::diff_bytes`] vs
//!   [`ReplicaStatsSnapshot::full_bytes`]);
//! * the replica applies each diff as **one atomic batch** through its
//!   local store's `transact`, so replica readers only ever observe
//!   published primary versions — frozen epochs, never a torn apply.
//!
//! [`Replica`] is the pull engine underneath: the bootstrap full sync,
//! the `PullDiff` gap repair, log-seeded bootstrap
//! ([`Replica::seed_from_log`]) and the sync counters.
//!
//! A replica's serving endpoint ([`PushReplica::serve_relay`]) speaks
//! the same protocol as the primary, so read traffic points at replicas
//! unchanged — `loadgen --replicas N` does exactly that.
//!
//! ```
//! use std::time::Duration;
//!
//! use pathcopy_replica::{PushOutcome, PushReplica};
//! use pathcopy_server::{backend, Client, ServerConfig};
//!
//! // A primary with some state.
//! let primary = pathcopy_server::spawn(
//!     backend::by_name("sharded_map_8").unwrap(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let mut writer = Client::connect(primary.addr()).unwrap();
//! writer.insert(1, 10).unwrap();
//!
//! // Bootstrap (a chunked full transfer), subscribe, and serve reads.
//! let mut replica = PushReplica::connect(
//!     primary.addr(),
//!     backend::by_name("sharded_map_8").unwrap(),
//! )
//! .unwrap();
//! let served = replica.serve_relay(ServerConfig::default()).unwrap();
//! let mut reader = Client::connect(served).unwrap();
//! assert_eq!(reader.get(1).unwrap(), Some(10));
//!
//! // Each published epoch arrives as a pushed diff: O(changes), not
//! // O(map), applied as one atomic batch.
//! writer.insert(2, 20).unwrap();
//! writer.remove(1).unwrap();
//! let epoch = writer.publish().unwrap();
//! assert_eq!(
//!     replica.pump(Duration::from_secs(10)).unwrap(),
//!     PushOutcome::Pushed { epoch, changes: 2 }
//! );
//! assert_eq!(reader.get(1).unwrap(), None);
//! assert_eq!(reader.get(2).unwrap(), Some(20));
//! primary.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod push;
mod replica;

pub use push::{PushMetrics, PushOutcome, PushReplica, PushStats};
pub use replica::{Replica, ReplicaStatsSnapshot, SyncOutcome};
