//! # pathcopy-server
//!
//! The network serving layer over the path-copying engine: a
//! length-prefixed binary [wire protocol](proto) whose v3 envelope
//! carries a correlation id so multiple requests can be in flight per
//! connection, an event-driven nonblocking TCP [server] (a single
//! readiness loop over a hand-rolled `epoll`/`poll(2)` shim multiplexes
//! every connection and executes point requests on the wake that
//! decoded them; a few worker threads take the requests that may
//! block),
//! one [client] type, [`Session`] ([`Session::submit`] →
//! [`Ticket::wait`] to pipeline, typed blocking calls such as
//! [`Session::get`] for one round trip each), and the primary side
//! of the replication subsystem (the [version feed](feed) replicas sync
//! from; the replica engine and the `loadgen` traffic generator live in
//! `pathcopy-replica`). Everything is `std::net` plus two raw syscalls
//! — the workspace builds offline, so there is no async runtime and no
//! `libc` crate, in the same spirit as the `shims/` crates.
//!
//! Because connections are multiplexed rather than pinned to threads,
//! idle connections are nearly free (a fixed cap of 4096 bounds them,
//! not the worker count), and overload is shed explicitly:
//! past [`ServerConfig::queue_depth`] worker-bound requests in flight
//! on one connection the server answers [`WireError::Busy`] instead of
//! stalling the socket — surfaced client-side as
//! [`ClientError::Busy`] — and a peer that does not read its replies is
//! not read from until it does.
//!
//! Why a server is the natural front-end for this engine: the paper's
//! construction gives lock-free point writes *plus* O(1) coherent
//! snapshots, which is exactly the split a read-heavy serving system
//! wants. A [`proto::Request::Publish`] pins a
//! frozen version in the feed under the next epoch for pennies; later
//! [`Range`](proto::Request::Range) scans of that epoch and
//! [`PullDiff`](proto::Request::PullDiff)s from it — from any
//! connection — read that version undisturbed while writers race ahead,
//! until the feed's ring retires it, and
//! [`Batch`](proto::Request::Batch)es commit all-or-nothing through
//! [`TreapMap::transact`](pathcopy_concurrent::TreapMap::transact).
//!
//! The server holds its engine as a
//! [`Box<dyn ServeBackend>`](backend::ServeBackend); the one
//! implementation shipped is [`backend::TreapServe`], one path-copying
//! treap behind one root, so every served batch is one root CAS.
//!
//! ```
//! use pathcopy_server::{backend, ServerConfig, Session};
//!
//! // An in-process server on an ephemeral loopback port.
//! let server = pathcopy_server::spawn(
//!     backend::by_name("sharded_map_8").unwrap(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let client = Session::connect(server.addr()).unwrap();
//! client.insert(1, 10).unwrap();
//! let epoch = client.publish().unwrap(); // pinned, O(1)
//! client.insert(1, 99).unwrap();
//! let (entries, _) = client.range(Some(epoch), .., 0).unwrap();
//! assert_eq!(entries, vec![(1, 10)]); // the pinned version is immutable
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod client;
mod event;
pub mod feed;
pub mod metrics;
mod poll;
pub mod proto;
pub mod server;

pub use backend::{ServeBackend, ServeSnapshot};
pub use client::{Client, ClientError, PushFrame, Session, SessionToken, Subscription, Ticket};
pub use feed::{FeedSink, VersionFeed};
pub use metrics::{render_text, value_of, MetricsSource};
// Tracing types clients and operators need, re-exported so depending on
// `pathcopy-trace` directly is optional.
pub use pathcopy_trace::{render_trace, trace_ids, Flight, SpanRecord, TraceContext};
pub use proto::{
    Epoch, FeedInfo, Framed, ProtoError, Request, RequestId, Response, StageSummary, WireError,
    MAX_FRAME_LEN, PROTO_TRACE_FLAG, PROTO_VERSION, PUSH_ID_BASE,
};
pub use server::{spawn, ServerConfig, ServerConfigBuilder, ServerHandle};
