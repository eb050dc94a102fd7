//! The wire protocol: length-prefixed, version-tagged binary frames.
//!
//! Every message travels as one frame, and there is one frame format:
//!
//! ```text
//! plain:   [len: u32 LE] [version: u8 = 3] [request_id: u64 LE] [tag: u8] [payload ...]
//! traced:  [len: u32 LE] [version: u8 = 3|0x80] [request_id: u64 LE] [trace: 17 bytes] [tag: u8] [payload ...]
//! ```
//!
//! where `len` counts everything after itself (version byte included).
//! The trace extension is optional per frame: setting
//! [`PROTO_TRACE_FLAG`] on the version byte inserts a 17-byte
//! [`TraceContext`] (trace id `u64`, parent span `u64`, flags `u8`)
//! between the request id and the tag. Untraced frames carry no trace
//! bytes at all, so tracing costs zero wire bytes when off and durable
//! logs written before tracing existed stay decodable.
//! The server echoes each request's `request_id` on its response and may
//! complete pipelined requests **in any order**; clients match replies
//! to requests by id, never by arrival order. Any other version byte —
//! the retired version 2 included — is [`ProtoError::BadVersion`].
//!
//! Integers are fixed-width little-endian; `Option`s and `Bound`s carry a
//! one-byte discriminant; vectors a `u32` length. There is no serde and
//! no reflection: each [`Request`], [`Response`] and [`WireError`]
//! variant is declared exactly once — tag, name, fields in wire order —
//! and its encoder, decoder, [`tag_byte`](Request::tag_byte) and row in
//! [`REQUEST_TAGS`]/[`RESPONSE_TAGS`]/[`ERROR_TAGS`] are all derived
//! from that one declaration. Decoding
//! ([`Request::decode_enveloped`], [`Response::decode_enveloped`])
//! rejects short frames ([`ProtoError::Truncated`]), unknown
//! discriminants ([`ProtoError::BadTag`]), version mismatches
//! ([`ProtoError::BadVersion`]) and frames with unconsumed trailing bytes
//! ([`ProtoError::TrailingBytes`]), so a corrupted or hostile peer can
//! never smuggle a half-parsed message through.
//!
//! Batch operations and results are the engine's own
//! [`BatchOp`]/[`BatchResult`] and map diffs are
//! [`DiffEntry`] — the protocol serializes the
//! same types [`ShardedTreapMap::transact`](pathcopy_concurrent::ShardedTreapMap::transact)
//! and [`MapSnapshot::diff`](pathcopy_core::MapSnapshot::diff) speak, so
//! the client API maps onto the engine API without translation layers.

use std::io::{self, Read, Write};
use std::ops::Bound;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::DiffEntry;
use pathcopy_trace::{SpanRecord, TraceContext};

/// Protocol version carried in every frame; peers reject anything else.
///
/// Version 3 added the `request_id` correlation field to the envelope
/// (pipelining) and the [`WireError::Busy`] admission-control error.
/// Version 2 added the replication feed frames
/// ([`Request::Publish`]/[`Request::Subscribe`]/[`Request::PullDiff`]/
/// [`Request::FullSync`]) and the guarded flag on [`Request::Batch`];
/// its id-less envelope is no longer accepted.
pub const PROTO_VERSION: u8 = 3;

/// Version-byte flag marking a frame that carries a 17-byte
/// [`TraceContext`] between its request id and its tag
/// (`3 | 0x80 = 0x83` on the wire). Decoders that predate tracing
/// reject the flagged byte as [`ProtoError::BadVersion`], which is the
/// correct failure: the sender only sets the flag when the operator
/// turned tracing on across the fleet.
pub const PROTO_TRACE_FLAG: u8 = 0x80;

/// Correlation id carried in every frame. Ids are chosen by the client
/// (monotonically, per connection) and echoed verbatim by the server;
/// `0` is what lock-step callers and records at rest use. Ids with
/// [`PUSH_ID_BASE`] set are reserved for server-initiated frames.
pub type RequestId = u64;

/// The server-initiated half of the id space. A [`Response::Push`]
/// answers no request, so it cannot echo a client-chosen id; instead it
/// carries `PUSH_ID_BASE | epoch`, which can never collide with a
/// ticket because clients allocate ids by incrementing from `1` (an
/// id with the top bit set would take ~292 years of back-to-back
/// requests to reach). A session's demux loop routes ids in this
/// namespace to its push channel instead of a waiter.
pub const PUSH_ID_BASE: RequestId = 1 << 63;

/// A decoded frame body together with its envelope fields — its
/// correlation id and optional trace context. Produced by
/// [`Request::decode_enveloped`]/[`Response::decode_enveloped`]; the
/// server echoes `request_id` on its reply, and clients use it to match
/// pipelined replies to tickets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<T> {
    /// The correlation id.
    pub request_id: RequestId,
    /// The trace context, when the frame's version byte carried
    /// [`PROTO_TRACE_FLAG`]; `None` for untraced frames.
    pub trace: Option<TraceContext>,
    /// The decoded message.
    pub msg: T,
}

/// Upper bound on the frame body length; larger length prefixes are
/// rejected before any allocation, so a corrupt peer cannot trigger a
/// multi-gigabyte read buffer.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Identifier of a named snapshot held in the server's version table.
pub type SnapshotId = u64;

/// Position in the primary's monotone version feed. Epoch `0` is never
/// issued — it means "nothing published yet" (or, replica-side, "nothing
/// applied yet").
pub type Epoch = u64;

/// Maximum number of entries the server packs into one
/// [`Response::SyncPage`]. At 16 bytes per entry a page stays around
/// 1 MiB — far below [`MAX_FRAME_LEN`] — so a [`Request::FullSync`]
/// bootstrap of an arbitrarily large map never trips the frame cap; the
/// replica just pulls more pages.
pub const SYNC_PAGE_MAX_ENTRIES: u32 = 65_536;

// ---------------------------------------------------------------------------
// The message table's machinery: one field trait, two declaration macros
// ---------------------------------------------------------------------------

/// One value on the wire: how it is written, how it is read back, and
/// the fewest bytes it can occupy (what bounds a vector's element count
/// by the bytes actually left in the frame).
trait Wire: Sized {
    /// Smallest possible encoding, in bytes.
    const MIN_BYTES: usize;
    /// Appends the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value off the cursor.
    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError>;
}

/// A bounds-checked read cursor over one frame body.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u32` element count, sanity-bounded by the bytes actually
    /// remaining so a corrupt count cannot pre-allocate gigabytes.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = u32::get(self)? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

/// Declares a tagged wire enum **once** — per variant its tag byte, its
/// name and its fields in wire order — and derives everything that has
/// to agree with that declaration: the type itself, its `(tag, name)`
/// table, `tag_byte`, and the [`Wire`] encoder and decoder (tag byte,
/// then each field in declared order; an unknown tag is
/// [`ProtoError::BadTag`] naming `$what`).
///
/// Tuple fields are written `Variant(binding: Type)` because the
/// encoder needs a name to bind. The `@codec` arm alone derives the
/// codec for an enum defined elsewhere (the engine's own `BatchOp`,
/// `BatchResult`, `DiffEntry`, and `Bound`); its extra literal is the
/// smallest variant's encoded size.
macro_rules! wire_enum {
    (
        $(#[$em:meta])*
        pub enum $E:ident, $what:literal, $TAGS:ident {
            $(
                $(#[$vm:meta])*
                $tag:literal => $V:ident
                    $(( $($tb:ident : $tt:ty),* ))?
                    $({ $($(#[$fm:meta])* $sf:ident : $st:ty),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$em])*
        pub enum $E {
            $( $(#[$vm])* $V $(( $($tt),* ))? $({ $($(#[$fm])* $sf: $st),* })? ),*
        }

        #[doc = concat!("Every [`", stringify!($E), "`] variant's wire tag and name, in declaration order.")]
        pub const $TAGS: &[(u8, &str)] = &[ $( ($tag, stringify!($V)) ),* ];

        impl $E {
            /// The variant's wire tag byte (for a [`Request`], the key
            /// the server's per-tag stage histograms are indexed by).
            #[must_use]
            pub fn tag_byte(&self) -> u8 {
                match self { $( Self::$V { .. } => $tag ),* }
            }
        }

        wire_enum!(@codec $E, $what, 1;
            $( $tag => $V $(( $($tb : $tt),* ))? $({ $($sf : $st),* })? ),*);
    };
    (@codec $E:ty, $what:literal, $min:literal;
        $(
            $tag:literal => $V:ident
                $(( $($tb:ident : $tt:ty),* ))?
                $({ $($sf:ident : $st:ty),* })?
        ),* $(,)?
    ) => {
        impl Wire for $E {
            const MIN_BYTES: usize = $min;

            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $( Self::$V $(( $($tb),* ))? $({ $($sf),* })? => {
                        out.push($tag);
                        $($( $tb.put(out); )*)?
                        $($( $sf.put(out); )*)?
                    } )*
                }
            }

            // A message decoder has one caller (`decode_body`); inlined
            // there, the decoded value is built in place instead of
            // being handed over through memory (~6 ns per request).
            #[inline]
            fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
                Ok(match u8::get(cur)? {
                    $( $tag => Self::$V
                        $(( $( <$tt as Wire>::get(cur)? ),* ))?
                        $({ $( $sf: <$st as Wire>::get(cur)? ),* })?, )*
                    tag => return Err(ProtoError::BadTag { what: $what, tag }),
                })
            }
        }
    };
}

/// Declares a fixed-layout wire struct once: the type plus a [`Wire`]
/// impl that writes and reads every field in declared order.
macro_rules! wire_struct {
    (
        $(#[$sm:meta])*
        pub struct $S:ident { $( $(#[$fm:meta])* pub $f:ident : $t:ty ),* $(,)? }
    ) => {
        $(#[$sm])*
        pub struct $S { $( $(#[$fm])* pub $f: $t ),* }

        impl Wire for $S {
            const MIN_BYTES: usize = 0 $( + <$t as Wire>::MIN_BYTES )*;

            fn put(&self, out: &mut Vec<u8>) {
                $( self.$f.put(out); )*
            }

            fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
                Ok($S { $( $f: <$t as Wire>::get(cur)? ),* })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// The message table
// ---------------------------------------------------------------------------

wire_enum! {
    /// A client-to-server message. Tags 10 (`Stats`) and 18 (`Gauges`)
    /// are retired — their numbers are rows of [`Request::Metrics`] now —
    /// and are never reused.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request, "request", REQUEST_TAGS {
        /// Look up one key.
        1 => Get {
            /// The key to read.
            key: i64,
        },
        /// Insert or overwrite one key.
        2 => Insert {
            /// The key to write.
            key: i64,
            /// The value to store.
            value: i64,
        },
        /// Remove one key.
        3 => Remove {
            /// The key to remove.
            key: i64,
        },
        /// Atomic compare-and-set on one key.
        4 => Cas {
            /// The key to compare and set.
            key: i64,
            /// Value the key must currently hold (`None` = absent).
            expected: Option<i64>,
            /// Value to store on match (`None` removes the key).
            new: Option<i64>,
        },
        /// An atomic multi-key batch, applied through the backend's
        /// transaction machinery (cross-shard two-phase commit on the
        /// sharded map).
        5 => Batch {
            /// Sinfonia-style guarded mini-transaction flag: when set, a
            /// failing [`BatchOp::Cas`] guard aborts the **whole batch**
            /// (zero writes, answered with [`Response::BatchAborted`])
            /// instead of just reporting `Cas(false)` while the rest
            /// commits.
            guarded: bool,
            /// The operations, applied in order.
            ops: Vec<BatchOp<i64, i64>>,
        },
        /// Take a coherent snapshot and pin it in the server's version table;
        /// the reply names it with a [`SnapshotId`] for later [`Request::Range`]
        /// and [`Request::Diff`] calls.
        6 => Snapshot,
        /// Ordered key-range scan.
        7 => Range {
            /// Named snapshot to scan, or `None` to scan a fresh coherent
            /// snapshot taken just for this request.
            snapshot: Option<SnapshotId>,
            /// Lower key bound.
            lo: Bound<i64>,
            /// Upper key bound.
            hi: Bound<i64>,
            /// Maximum number of entries to return (`0` = unlimited).
            limit: u32,
        },
        /// Difference between two snapshots, in ascending key order.
        8 => Diff {
            /// The older named snapshot.
            from: SnapshotId,
            /// The newer named snapshot, or `None` for a fresh snapshot taken
            /// now — "what changed since `from`".
            to: Option<SnapshotId>,
        },
        /// Drop a named snapshot from the version table.
        9 => Release {
            /// The snapshot to drop.
            snapshot: SnapshotId,
        },
        /// Publish the current state as the next epoch of the server's
        /// version feed (a capped ring of recent snapshots replicas sync
        /// from). Replied with [`Response::Published`].
        11 => Publish,
        /// Read the feed's bounds — head epoch, oldest retained epoch, ring
        /// capacity — without changing anything. Replied with
        /// [`Response::FeedInfo`]. This is how a replica sizes its lag.
        12 => Subscribe,
        /// Ask for everything that changed between published epoch `from`
        /// and the feed head, as one pruned snapshot-to-snapshot diff.
        /// Replied with [`Response::EpochDiff`], or
        /// [`WireError::EpochRetired`] if `from` has fallen out of the ring
        /// (the replica lags too far and must [`Request::FullSync`]).
        13 => PullDiff {
            /// The epoch the replica has applied.
            from: Epoch,
        },
        /// One page of a full-state bootstrap. The first call passes
        /// `epoch: None` — the server serves the current feed head
        /// (publishing a fresh epoch only when the feed is empty, so
        /// concurrent bootstraps share one pin) — and follow-up calls pass
        /// the returned epoch plus the last key received, so the whole map
        /// streams out of **one** frozen version in bounded segments (never
        /// more than [`SYNC_PAGE_MAX_ENTRIES`] entries each, so no page can
        /// trip [`MAX_FRAME_LEN`]).
        14 => FullSync {
            /// The epoch being paged, or `None` to start a fresh sync.
            epoch: Option<Epoch>,
            /// Resume strictly after this key (`None` = from the start).
            after: Option<i64>,
            /// Client's page-size preference (`0` = server default); the
            /// server clamps it to [`SYNC_PAGE_MAX_ENTRIES`].
            limit: u32,
        },
        /// Register this connection for push delivery: from now on the
        /// server sends every published epoch's diff as an unsolicited
        /// [`Response::Push`] frame (id `PUSH_ID_BASE | epoch`). Answered
        /// with [`Response::SubscribeAck`]; if `from` names a retained
        /// epoch behind the head, one catch-up `Push` covering
        /// `from → head` precedes any live pushes.
        15 => SubscribePush {
            /// The epoch the subscriber has applied (`0` = nothing yet).
            from: Epoch,
        },
        /// Session-consistent point read: serve `key` only from an epoch
        /// at or past `min_epoch`, waiting up to `wait_ms` for the feed to
        /// catch up. Replied with [`Response::GotAt`] once the feed head
        /// reaches the watermark, or [`WireError::Stale`] (carrying the
        /// current head) if it does not in time — the client can then
        /// retry here or fall back to the primary. This is how a client
        /// gets read-your-writes through any replica, no sticky routing.
        16 => GetAt {
            /// The key to read.
            key: i64,
            /// The caller's session watermark: the oldest epoch this read
            /// is allowed to observe (`0` = any).
            min_epoch: Epoch,
            /// How long the server may hold the read waiting for the feed
            /// to reach `min_epoch` (clamped server-side; `0` = don't
            /// wait, answer immediately).
            wait_ms: u32,
        },
        /// A single write that reports the epoch watermark it is visible
        /// at, so the writer can thread the watermark through subsequent
        /// [`Request::GetAt`] reads. Replied with [`Response::WroteAt`].
        17 => WriteAt {
            /// The write to apply ([`BatchOp::Get`] is permitted but
            /// pointless — use [`Request::GetAt`]).
            op: BatchOp<i64, i64>,
        },
        /// Read every number the node exports, in one reply
        /// ([`Response::Metrics`]): the latency histograms — per-stage,
        /// per-request-tag percentile summaries from the event loop's
        /// probe (only when `ServerConfig::metrics` is on) plus any
        /// registered sources (durable persister, push replicas) — and
        /// one row per engine and server counter and gauge, which is
        /// always there, `0` included.
        19 => Metrics,
        /// Zero every since-boot latency histogram — the event loop's
        /// per-tag stage recorders and every registered source (durable
        /// persister, push replicas) — so the next [`Request::Metrics`]
        /// scrape starts a fresh window. Idempotent: resetting an
        /// already-empty server is a no-op. Counter and gauge rows are
        /// **not** reset — counters count since startup. Replied with
        /// [`Response::MetricsReset`].
        20 => ResetMetrics,
        /// Dump this node's trace flight recorder: every span currently in
        /// the ring plus every pinned slow-request span. Replied with
        /// [`Response::TraceDump`] (empty when tracing is disabled).
        /// Read-only — dumping does not clear the ring.
        21 => TraceDump,
    }
}

wire_enum! {
    /// A server-to-client message; variants mirror [`Request`] one-to-one
    /// plus [`Response::Error`]. Tags 10 (`Stats`) and 21 (`Gauges`) are
    /// retired and never reused.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response, "response", RESPONSE_TAGS {
        /// Reply to [`Request::Get`]: the value, if present.
        1 => Got(value: Option<i64>),
        /// Reply to [`Request::Insert`]: the previous value, if any.
        2 => Inserted(previous: Option<i64>),
        /// Reply to [`Request::Remove`]: the removed value, if any.
        3 => Removed(removed: Option<i64>),
        /// Reply to [`Request::Cas`]: whether the comparison matched and the
        /// write was applied.
        4 => CasApplied(applied: bool),
        /// Reply to [`Request::Batch`]: one result per op, in batch order.
        5 => Batch(results: Vec<BatchResult<i64>>),
        /// Reply to [`Request::Snapshot`]: the new snapshot's id.
        6 => SnapshotTaken(id: SnapshotId),
        /// Reply to [`Request::Range`].
        7 => Entries {
            /// The entries, in ascending key order.
            entries: Vec<(i64, i64)>,
            /// `false` if the scan stopped at the requested limit with more
            /// entries remaining.
            complete: bool,
        },
        /// Reply to [`Request::Diff`].
        8 => Diff(entries: Vec<DiffEntry<i64, i64>>),
        /// Reply to [`Request::Release`]: whether the snapshot existed.
        9 => Released(existed: bool),
        /// Reply to a guarded [`Request::Batch`] whose guards failed: the
        /// whole batch aborted (zero writes). Carries the batch indices of
        /// the failed [`BatchOp::Cas`] guards, ascending.
        12 => BatchAborted(failed: Vec<u32>),
        /// Reply to [`Request::Publish`]: the epoch just published.
        13 => Published(epoch: Epoch),
        /// Reply to [`Request::Subscribe`].
        14 => FeedInfo(info: FeedInfo),
        /// Reply to [`Request::PullDiff`]: everything that changed between
        /// the requested epoch and `to` (the feed head), in ascending key
        /// order. Empty when the replica is already at the head.
        15 => EpochDiff {
            /// The epoch the diff brings the replica up to.
            to: Epoch,
            /// The changes, in ascending key order.
            entries: Vec<DiffEntry<i64, i64>>,
        },
        /// Reply to [`Request::FullSync`]: one bounded page of the pinned
        /// epoch's entries.
        16 => SyncPage {
            /// The epoch being paged (pass it back for the next page).
            epoch: Epoch,
            /// The page's entries, in ascending key order.
            entries: Vec<(i64, i64)>,
            /// `true` if this page ends the epoch's state.
            done: bool,
        },
        /// Reply to [`Request::SubscribePush`]: the feed's bounds at
        /// registration time. Any catch-up or live [`Response::Push`]
        /// frames follow on the same connection.
        17 => SubscribeAck(info: FeedInfo),
        /// A server-initiated frame (no request answers it; its id is
        /// `PUSH_ID_BASE | epoch`): the diff between two published epochs,
        /// pushed to every subscriber when `epoch` is published. Apply it
        /// only when `from` equals your applied epoch — a diff applied
        /// over any other base silently corrupts keys the diff reverts —
        /// otherwise treat the gap as lag and catch up via
        /// [`Request::PullDiff`].
        18 => Push {
            /// The epoch this diff starts from (`0` = from the empty map).
            from: Epoch,
            /// The epoch this diff brings a subscriber up to.
            epoch: Epoch,
            /// The changes, in ascending key order.
            entries: Vec<DiffEntry<i64, i64>>,
        },
        /// Reply to [`Request::GetAt`]: the value as of an epoch at or
        /// past the requested watermark.
        19 => GotAt {
            /// The value, if present.
            value: Option<i64>,
            /// The feed head the read was served at — the caller's new
            /// session watermark (monotonic reads: thread it into the next
            /// [`Request::GetAt`]).
            epoch: Epoch,
        },
        /// Reply to [`Request::WriteAt`]: the write's result plus the
        /// epoch watermark that makes it visible.
        20 => WroteAt {
            /// The result of the single op.
            result: BatchResult<i64>,
            /// The first epoch that will contain this write once
            /// published — read-your-writes holds on any replica whose
            /// feed has reached it.
            watermark: Epoch,
        },
        /// Reply to [`Request::Metrics`]: one percentile summary per
        /// (stage, request-tag) pair that has recorded at least one sample,
        /// then one row per counter and gauge, in ascending (stage, tag)
        /// order.
        22 => Metrics(rows: Vec<StageSummary>),
        /// Reply to [`Request::ResetMetrics`]: every histogram was zeroed.
        23 => MetricsReset,
        /// Reply to [`Request::TraceDump`]: the node's name plus every span
        /// its flight recorder currently holds (ring + pinned), each a
        /// fixed 56-byte record. Span timestamps are nanoseconds since the
        /// node's own recorder start — cross-node stitching aligns on span
        /// parentage and epoch numbers, never on clocks.
        24 => TraceDump {
            /// The reporting node's name (as configured in its recorder).
            node: String,
            /// The spans, in the recorder's dump order (sorted by trace id,
            /// then start time).
            spans: Vec<SpanRecord>,
        },
        /// The request could not be served.
        11 => Error(error: WireError),
    }
}

wire_struct! {
    /// Bounds of the server's version feed, carried by
    /// [`Response::FeedInfo`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct FeedInfo {
        /// Newest published epoch (`0` = nothing published yet).
        pub head: Epoch,
        /// Oldest epoch still retained in the ring (`0` = empty feed).
        pub oldest: Epoch,
        /// Ring capacity: how many epochs the primary retains.
        pub capacity: u64,
    }
}

wire_struct! {
    /// One row of a [`Response::Metrics`] scrape. For a histogram stage
    /// it is the fixed percentile set of that stage, optionally split by
    /// the request tag that went through it; for a counter or gauge only
    /// `count` is used (the value) and every other field is `0`.
    ///
    /// `stage` bytes are the `pathcopy_metrics::Stage` discriminants
    /// (1–6 histogram stages, 7–19 counters, 20–23 gauges — see
    /// `Stage::kind`); unknown values must be skipped, not rejected, so
    /// servers can add kinds without breaking old scrapers. Histogram
    /// values are nanoseconds for every stage except `epoch_lag`, which
    /// counts epochs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StageSummary {
        /// Which pipeline stage this summarises.
        pub stage: u8,
        /// Request tag the samples belong to (`0` = the stage is not split
        /// by tag).
        pub tag: u8,
        /// Number of recorded samples.
        pub count: u64,
        /// Wrapping sum of all samples (for mean reconstruction).
        pub sum: u64,
        /// 50th percentile.
        pub p50: u64,
        /// 90th percentile.
        pub p90: u64,
        /// 99th percentile.
        pub p99: u64,
        /// 99.9th percentile.
        pub p999: u64,
        /// Largest recorded sample.
        pub max: u64,
        /// Request id of the exemplar — the request that produced (a sample
        /// within the gating race of) `max`. `0` when no tagged sample has
        /// been recorded.
        pub exemplar_id: u64,
        /// Trace id of the exemplar's trace context (`0` = untraced).
        pub exemplar_trace: u64,
    }
}

wire_enum! {
    /// Error replies a server can send.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireError, "error", ERROR_TAGS {
        /// A [`Request::Range`]/[`Request::Diff`]/[`Request::Release`] named
        /// a snapshot id that is not in the version table (never issued, or
        /// already released).
        0 => UnknownSnapshot(id: SnapshotId),
        /// The two snapshots of a [`Request::Diff`] come from incompatible
        /// backends and cannot be diffed.
        1 => SnapshotMismatch,
        /// The server could not decode the request frame.
        2 => Malformed,
        /// The reply would exceed [`MAX_FRAME_LEN`] and was not sent; nothing
        /// was written, so the connection stays usable — page with
        /// [`Request::Range`]'s `limit`, or diff nearer snapshots.
        3 => TooLarge,
        /// The server's version table is full (the payload is the cap);
        /// [`Request::Release`] unused snapshots to free slots.
        4 => SnapshotLimit(cap: u64),
        /// A [`Request::PullDiff`]/[`Request::FullSync`] named an epoch no
        /// longer retained in the feed ring (the payload is the oldest epoch
        /// still available; `0` = the feed is empty). The replica lagged
        /// past the ring and must fall back to a fresh [`Request::FullSync`].
        5 => EpochRetired(oldest: Epoch),
        /// The connection already has `queue_depth` requests in flight (the
        /// payload is the bound) and this one was shed without being
        /// executed. Admission control, not failure: in-flight requests are
        /// unaffected and the connection stays usable — wait for some
        /// replies, then resubmit.
        6 => Busy(depth: u64),
        /// A [`Request::GetAt`] watermark was not reached within its wait
        /// budget; the payload is the feed head the server is actually at.
        /// The read was **not** served — retry here later, or read from a
        /// fresher replica or the primary.
        7 => Stale(head: Epoch),
    }
}
impl Request {
    /// The variant name for a request wire tag, for labelling metrics in
    /// human-readable output. `None` for tags this version doesn't know.
    #[must_use]
    pub fn tag_name(tag: u8) -> Option<&'static str> {
        REQUEST_TAGS
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, name)| *name)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownSnapshot(id) => write!(f, "unknown snapshot id {id}"),
            WireError::SnapshotMismatch => write!(f, "snapshots are not diffable"),
            WireError::Malformed => write!(f, "malformed request frame"),
            WireError::TooLarge => write!(
                f,
                "reply would exceed the {MAX_FRAME_LEN}-byte frame cap; page the request"
            ),
            WireError::SnapshotLimit(cap) => {
                write!(f, "version table full ({cap} snapshots); release some")
            }
            WireError::EpochRetired(oldest) => {
                write!(
                    f,
                    "epoch retired from the feed (oldest retained: {oldest}); full-sync"
                )
            }
            WireError::Busy(depth) => {
                write!(
                    f,
                    "connection at its queue-depth bound ({depth} in flight); request shed"
                )
            }
            WireError::Stale(head) => {
                write!(
                    f,
                    "feed still behind the requested watermark (head: {head}); read not served"
                )
            }
        }
    }
}

/// Why a frame failed to decode (or to be read off the wire).
#[derive(Debug)]
pub enum ProtoError {
    /// The frame ended before the message did.
    Truncated,
    /// The frame's version byte is not [`PROTO_VERSION`] (with or
    /// without [`PROTO_TRACE_FLAG`]).
    BadVersion(u8),
    /// An unknown discriminant byte.
    BadTag {
        /// Which discriminant was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// The message decoded but left unconsumed bytes in the frame.
    TrailingBytes {
        /// Number of leftover bytes.
        extra: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated mid-message"),
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTO_VERSION})")
            }
            ProtoError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after message")
            }
            ProtoError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Field encodings
// ---------------------------------------------------------------------------

/// Fixed-width little-endian integers.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
                let bytes = cur.take(Self::MIN_BYTES)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned the width")))
            }
        }
    )*};
}
wire_int!(u8, u32, u64, i64);

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        match u8::get(cur)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtoError::BadTag { what: "bool", tag }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.put(out);
            }
        }
    }

    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        match u8::get(cur)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(cur)?)),
            tag => Err(ProtoError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for x in self {
            x.put(out);
        }
    }

    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        let n = cur.seq_len(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(cur)?);
        }
        Ok(v)
    }
}

/// One map entry: key, then value.
impl Wire for (i64, i64) {
    const MIN_BYTES: usize = 16;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        Ok((i64::get(cur)?, i64::get(cur)?))
    }
}

/// A `u32` byte count, then UTF-8 bytes.
impl Wire for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        let n = cur.seq_len(1)?;
        String::from_utf8(cur.take(n)?.to_vec()).map_err(|_| ProtoError::BadTag {
            what: "node name",
            tag: 0,
        })
    }
}

/// The 17-byte trace-context extension: trace id, parent span, flags
/// ([`TraceContext::WIRE_BYTES`]).
impl Wire for TraceContext {
    const MIN_BYTES: usize = TraceContext::WIRE_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.trace_id.put(out);
        self.parent_span.put(out);
        self.flags.put(out);
    }

    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        Ok(TraceContext {
            trace_id: u64::get(cur)?,
            parent_span: u64::get(cur)?,
            flags: u8::get(cur)?,
        })
    }
}

/// Seven `u64` words ([`SpanRecord::to_words`]).
impl Wire for SpanRecord {
    const MIN_BYTES: usize = 7 * 8;

    fn put(&self, out: &mut Vec<u8>) {
        for w in self.to_words() {
            w.put(out);
        }
    }

    fn get(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        let mut w = [0u64; 7];
        for word in &mut w {
            *word = u64::get(cur)?;
        }
        Ok(SpanRecord::from_words(w))
    }
}

wire_enum!(@codec Bound<i64>, "bound", 1;
    0 => Unbounded,
    1 => Included(key: i64),
    2 => Excluded(key: i64),
);

wire_enum!(@codec BatchOp<i64, i64>, "batch op", 9;
    0 => Get(key: i64),
    1 => Insert(key: i64, value: i64),
    2 => Remove(key: i64),
    3 => Cas { key: i64, expected: Option<i64>, new: Option<i64> },
);

wire_enum!(@codec BatchResult<i64>, "batch result", 2;
    0 => Got(value: Option<i64>),
    1 => Inserted(previous: Option<i64>),
    2 => Removed(removed: Option<i64>),
    3 => Cas(applied: bool),
);

wire_enum!(@codec DiffEntry<i64, i64>, "diff entry", 17;
    0 => Added(key: i64, value: i64),
    1 => Removed(key: i64, value: i64),
    2 => Changed(key: i64, old: i64, new: i64),
);

// ---------------------------------------------------------------------------
// The envelope and framing: one path each way
// ---------------------------------------------------------------------------

/// Appends one complete frame — length prefix, envelope, tag, payload —
/// to `out`. Every encoder in this module ends here; this is the only
/// place the envelope is laid down.
fn encode_frame_into<M: Wire>(
    out: &mut Vec<u8>,
    msg: &M,
    id: RequestId,
    trace: Option<&TraceContext>,
) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    put_body(out, msg, id, trace);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// [`encode_frame_into`] a fresh buffer.
fn encode_frame<M: Wire>(msg: &M, id: RequestId, trace: Option<&TraceContext>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    encode_frame_into(&mut frame, msg, id, trace);
    frame
}

/// Appends one frame body: version byte (flagged when traced), request
/// id, the trace context if any, then the message.
fn put_body<M: Wire>(out: &mut Vec<u8>, msg: &M, id: RequestId, trace: Option<&TraceContext>) {
    match trace {
        None => out.push(PROTO_VERSION),
        Some(_) => out.push(PROTO_VERSION | PROTO_TRACE_FLAG),
    }
    id.put(out);
    if let Some(ctx) = trace {
        ctx.put(out);
    }
    msg.put(out);
}

/// Parses one frame body keeping its envelope. Every decoder in this
/// module ends here.
fn decode_body<M: Wire>(body: &[u8]) -> Result<Framed<M>, ProtoError> {
    let mut cur = Cur::new(body);
    let version = u8::get(&mut cur)?;
    if version & !PROTO_TRACE_FLAG != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let request_id = u64::get(&mut cur)?;
    let trace = if version & PROTO_TRACE_FLAG != 0 {
        Some(TraceContext::get(&mut cur)?)
    } else {
        None
    };
    let msg = M::get(&mut cur)?;
    cur.finish()?;
    Ok(Framed {
        request_id,
        trace,
        msg,
    })
}

/// Whether a diff of `entries` entries can fit one frame at all: each
/// [`DiffEntry`] encodes to at least its codec's smallest size, so a
/// longer diff is refused ([`WireError::TooLarge`]) or not pushed
/// before a multi-megabyte body is encoded just to be discarded.
pub(crate) fn diff_fits_frame(entries: usize) -> bool {
    let min_bytes = <DiffEntry<i64, i64> as Wire>::MIN_BYTES as u64;
    entries as u64 * min_bytes <= MAX_FRAME_LEN as u64
}

/// Best-effort request id of a body that failed to decode, so the
/// `Malformed` reply can still echo it: the id field when the version
/// byte is one this build speaks and the field is whole, else `0`.
pub(crate) fn peek_request_id(body: &[u8]) -> RequestId {
    match body {
        [v, id @ ..] if v & !PROTO_TRACE_FLAG == PROTO_VERSION && id.len() >= 8 => {
            u64::from_le_bytes(id[..8].try_into().expect("8 bytes"))
        }
        _ => 0,
    }
}

/// Validates a frame's length prefix and returns the body length it
/// announces. The one place the bounds are checked, for the blocking
/// reader below and for a [`Session`](crate::Session)'s reassembly
/// buffer alike.
pub(crate) fn body_len(prefix: [u8; 4]) -> Result<usize, ProtoError> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge(len));
    }
    if len < 2 {
        // A valid body always has at least a version and a tag byte.
        return Err(ProtoError::Truncated);
    }
    Ok(len as usize)
}

/// Reads one length-prefixed frame body. `Ok(None)` means the peer
/// closed the connection cleanly at a frame boundary.
fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled read_exact for the prefix so a clean EOF before the
    // first byte is distinguishable from EOF mid-prefix.
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let mut body = vec![0u8; body_len(len_buf)?];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(Some(body)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(ProtoError::Truncated),
        Err(e) => Err(ProtoError::Io(e)),
    }
}

impl Request {
    /// Parses a frame body (no length prefix) keeping its envelope: the
    /// correlation id the reply must echo and the trace context, if the
    /// sender stamped one. This is the server's entry point.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadVersion`], [`ProtoError::BadTag`],
    /// [`ProtoError::Truncated`], or [`ProtoError::TrailingBytes`] —
    /// never a panic, whatever the input bytes.
    pub fn decode_enveloped(body: &[u8]) -> Result<Framed<Self>, ProtoError> {
        decode_body(body)
    }
}

impl Response {
    /// Serializes the message into an untraced frame body with request
    /// id `0` (version + id + tag + payload, without the length prefix).
    /// The durable log stores exactly these bodies, so recovery decodes
    /// with the same [`decode`](Self::decode) the wire uses.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_body(out, self, 0, None);
    }

    /// Parses a frame body produced by [`encode`](Self::encode) (or any
    /// other response body), with the same strictness as
    /// [`Request::decode_enveloped`]. The envelope fields are
    /// discarded; a pipelined client uses
    /// [`decode_enveloped`](Self::decode_enveloped) to route the reply
    /// to its ticket.
    ///
    /// # Errors
    ///
    /// As [`Request::decode_enveloped`].
    pub fn decode(body: &[u8]) -> Result<Self, ProtoError> {
        Self::decode_enveloped(body).map(|f| f.msg)
    }

    /// Parses a frame body keeping its envelope — the request id it
    /// answers and its trace context, if any.
    ///
    /// # Errors
    ///
    /// As [`Request::decode_enveloped`].
    pub fn decode_enveloped(body: &[u8]) -> Result<Framed<Self>, ProtoError> {
        decode_body(body)
    }
}

/// Encodes `req` as one complete frame — length prefix included —
/// carrying `id`, the correlation id the server will echo on its reply.
/// With `Some(ctx)` the envelope carries the 17-byte trace extension
/// ([`PROTO_TRACE_FLAG`]) — how a tracing client stamps the root of a
/// distributed trace onto a request; with `None` the frame is
/// byte-identical to the untraced form.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for a body over [`MAX_FRAME_LEN`]:
/// nothing has been written, so the caller's stream stays at a frame
/// boundary.
pub fn request_frame(
    req: &Request,
    id: RequestId,
    trace: Option<&TraceContext>,
) -> io::Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(64);
    request_frame_into(&mut frame, req, id, trace)?;
    Ok(frame)
}

/// [`request_frame`] appended to a buffer the caller reuses. What a
/// [`Session`](crate::Session) corks its requests with, so a steady
/// stream of them allocates nothing.
///
/// # Errors
///
/// As [`request_frame`]; `out` is left as it was, still ending at a
/// frame boundary.
pub(crate) fn request_frame_into(
    out: &mut Vec<u8>,
    req: &Request,
    id: RequestId,
    trace: Option<&TraceContext>,
) -> io::Result<()> {
    let start = out.len();
    encode_frame_into(out, req, id, trace);
    let body = out.len() - start - 4;
    if body > MAX_FRAME_LEN as usize {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    Ok(())
}

/// Encodes `resp` as one complete frame — length prefix included —
/// echoing `id`, with the trace extension when `trace` is `Some` (the
/// server uses it on [`Response::Push`] frames so a traced publish
/// propagates its context down the push tree). A body over
/// [`MAX_FRAME_LEN`] is replaced by [`WireError::TooLarge`] in the same
/// envelope, so the result is always sendable and the stream always
/// stays at a frame boundary. This is what the event-driven server
/// queues on each connection's write buffer.
pub fn response_frame(resp: &Response, id: RequestId, trace: Option<&TraceContext>) -> Vec<u8> {
    let frame = encode_frame(resp, id, trace);
    if frame.len() - 4 > MAX_FRAME_LEN as usize {
        return encode_frame(&Response::Error(WireError::TooLarge), id, trace);
    }
    frame
}

/// Writes one untraced request frame carrying `id`, the correlation id
/// a pipelined session matches the reply by (the caller flushes
/// buffered writers).
///
/// # Errors
///
/// As [`request_frame`], plus any [`io::Error`] from the underlying
/// writer.
pub fn write_request_with_id<W: Write>(w: &mut W, id: RequestId, req: &Request) -> io::Result<()> {
    w.write_all(&request_frame(req, id, None)?)
}

/// Reads one request frame keeping its envelope (request id + trace
/// context); `Ok(None)` on clean connection close. What a server loop
/// reads.
///
/// # Errors
///
/// [`ProtoError::Io`] from the transport,
/// [`ProtoError::FrameTooLarge`] for an oversized length prefix,
/// [`ProtoError::Truncated`] for a connection cut mid-frame, and any
/// [`Request::decode_enveloped`] error for a malformed body.
pub fn read_request_enveloped<R: Read>(r: &mut R) -> Result<Option<Framed<Request>>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Request::decode_enveloped(&body).map(Some),
    }
}

/// Reads one response frame keeping its envelope — what a pipelined
/// session's demux loop reads to route each reply to its ticket.
/// `Ok(None)` means the peer closed cleanly at a frame boundary (a
/// session with nothing in flight treats that as normal teardown).
///
/// # Errors
///
/// As [`read_request_enveloped`].
pub fn read_response_enveloped<R: Read>(r: &mut R) -> Result<Option<Framed<Response>>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Response::decode_enveloped(&body).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request_with_id(&mut buf, 0, req).unwrap();
        let mut r = &buf[..];
        let back = read_request_enveloped(&mut r).unwrap().unwrap();
        assert!(r.is_empty(), "frame fully consumed");
        back.msg
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let buf = response_frame(resp, 0, None);
        let mut r = &buf[..];
        let back = read_response_enveloped(&mut r).unwrap().unwrap();
        assert!(r.is_empty(), "frame fully consumed");
        back.msg
    }

    /// An untraced request body (no length prefix) carrying `id`.
    fn request_body(req: &Request, id: RequestId) -> Vec<u8> {
        request_frame(req, id, None).unwrap().split_off(4)
    }

    /// An untraced response body (no length prefix) echoing `id`.
    fn response_body(resp: &Response, id: RequestId) -> Vec<u8> {
        response_frame(resp, id, None).split_off(4)
    }

    fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
        Request::decode_enveloped(body).map(|f| f.msg)
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Get { key: -7 },
            Request::Insert { key: 1, value: 2 },
            Request::Remove { key: i64::MIN },
            Request::Cas {
                key: 3,
                expected: Some(i64::MAX),
                new: None,
            },
            Request::Batch {
                ops: vec![
                    BatchOp::Get(1),
                    BatchOp::Insert(2, 20),
                    BatchOp::Remove(3),
                    BatchOp::Cas {
                        key: 4,
                        expected: None,
                        new: Some(40),
                    },
                ],
                guarded: false,
            },
            Request::Batch {
                ops: vec![BatchOp::Cas {
                    key: 4,
                    expected: Some(1),
                    new: None,
                }],
                guarded: true,
            },
            Request::Snapshot,
            Request::Range {
                snapshot: Some(9),
                lo: Bound::Included(-5),
                hi: Bound::Excluded(5),
                limit: 128,
            },
            Request::Range {
                snapshot: None,
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                limit: 0,
            },
            Request::Diff {
                from: 1,
                to: Some(2),
            },
            Request::Diff { from: 3, to: None },
            Request::Release { snapshot: 11 },
            Request::Publish,
            Request::Subscribe,
            Request::PullDiff { from: 17 },
            Request::FullSync {
                epoch: None,
                after: None,
                limit: 0,
            },
            Request::FullSync {
                epoch: Some(9),
                after: Some(-3),
                limit: 4096,
            },
            Request::SubscribePush { from: 0 },
            Request::SubscribePush { from: 41 },
            Request::GetAt {
                key: -9,
                min_epoch: 17,
                wait_ms: 250,
            },
            Request::WriteAt {
                op: BatchOp::Insert(5, 50),
            },
            Request::WriteAt {
                op: BatchOp::Cas {
                    key: 6,
                    expected: Some(1),
                    new: None,
                },
            },
            Request::Metrics,
            Request::ResetMetrics,
            Request::TraceDump,
        ];
        for req in reqs {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn tag_byte_matches_the_encoder() {
        let reqs = [
            Request::Get { key: 1 },
            Request::Batch {
                ops: vec![],
                guarded: false,
            },
            Request::Publish,
            Request::Metrics,
            Request::ResetMetrics,
            Request::TraceDump,
        ];
        for req in reqs {
            let body = request_body(&req, 0);
            // Tag sits after the 1-byte version and 8-byte request id.
            assert_eq!(body[9], req.tag_byte(), "{req:?}");
            assert!(Request::tag_name(req.tag_byte()).is_some());
        }
        assert!([0, 10, 18, 22]
            .iter()
            .all(|t| Request::tag_name(*t).is_none()));
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            Response::Got(Some(4)),
            Response::Inserted(None),
            Response::Removed(Some(-1)),
            Response::CasApplied(true),
            Response::Batch(vec![
                BatchResult::Got(None),
                BatchResult::Inserted(Some(1)),
                BatchResult::Removed(None),
                BatchResult::Cas(false),
            ]),
            Response::SnapshotTaken(42),
            Response::Entries {
                entries: vec![(1, 10), (2, 20)],
                complete: false,
            },
            Response::Diff(vec![
                DiffEntry::Added(1, 10),
                DiffEntry::Removed(2, 20),
                DiffEntry::Changed(3, 30, 31),
            ]),
            Response::Released(true),
            Response::BatchAborted(vec![0, 3, 7]),
            Response::Published(12),
            Response::FeedInfo(FeedInfo {
                head: 12,
                oldest: 5,
                capacity: 8,
            }),
            Response::EpochDiff {
                to: 12,
                entries: vec![DiffEntry::Added(1, 10), DiffEntry::Removed(2, 20)],
            },
            Response::EpochDiff {
                to: 3,
                entries: vec![],
            },
            Response::SyncPage {
                epoch: 12,
                entries: vec![(1, 10), (2, 20)],
                done: true,
            },
            Response::SubscribeAck(FeedInfo {
                head: 7,
                oldest: 3,
                capacity: 8,
            }),
            Response::Push {
                from: 6,
                epoch: 7,
                entries: vec![DiffEntry::Added(1, 10), DiffEntry::Changed(2, 20, 21)],
            },
            Response::Push {
                from: 0,
                epoch: 1,
                entries: vec![],
            },
            Response::GotAt {
                value: Some(-4),
                epoch: 19,
            },
            Response::GotAt {
                value: None,
                epoch: 0,
            },
            Response::WroteAt {
                result: BatchResult::Inserted(None),
                watermark: 21,
            },
            Response::Metrics(vec![]),
            Response::Metrics(vec![
                StageSummary {
                    stage: 1,
                    tag: 1,
                    count: 100,
                    sum: 12_345,
                    p50: 10,
                    p90: 20,
                    p99: 30,
                    p999: 40,
                    max: 50,
                    exemplar_id: 77,
                    exemplar_trace: 0xDEAD,
                },
                StageSummary {
                    stage: 6,
                    tag: 0,
                    count: 7,
                    sum: 7,
                    p50: 1,
                    p90: 1,
                    p99: 1,
                    p999: 1,
                    max: 1,
                    exemplar_id: 0,
                    exemplar_trace: 0,
                },
            ]),
            Response::MetricsReset,
            Response::TraceDump {
                node: String::new(),
                spans: vec![],
            },
            Response::TraceDump {
                node: "relay-1".to_string(),
                spans: vec![
                    SpanRecord {
                        trace_id: 9,
                        span_id: 2,
                        parent_span: 1,
                        kind: 2,
                        tag: 11,
                        flags: 1,
                        epoch: 40,
                        start_ns: 1_000,
                        dur_ns: 250,
                    },
                    SpanRecord {
                        trace_id: u64::MAX,
                        span_id: u64::MAX,
                        parent_span: 0,
                        kind: 5,
                        tag: 0,
                        flags: 3,
                        epoch: u64::MAX,
                        start_ns: u64::MAX,
                        dur_ns: u64::MAX,
                    },
                ],
            },
            Response::Error(WireError::UnknownSnapshot(77)),
            Response::Error(WireError::SnapshotMismatch),
            Response::Error(WireError::Malformed),
            Response::Error(WireError::TooLarge),
            Response::Error(WireError::SnapshotLimit(512)),
            Response::Error(WireError::EpochRetired(4)),
            Response::Error(WireError::Busy(64)),
            Response::Error(WireError::Stale(13)),
        ];
        for resp in resps {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_truncated() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_request_enveloped(&mut empty), Ok(None)));

        let mut buf = Vec::new();
        write_request_with_id(&mut buf, 0, &Request::Snapshot).unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_request_enveloped(&mut r), Err(ProtoError::Truncated)),
                "cut at {cut} must be Truncated"
            );
        }
    }

    #[test]
    fn bad_version_and_bad_tag_are_rejected() {
        // The retired id-less v2 envelope is a bad version like any other.
        for version in [PROTO_VERSION + 1, 2, 2 | PROTO_TRACE_FLAG, 0] {
            let err = decode_request(&[version, 1]).unwrap_err();
            assert!(matches!(err, ProtoError::BadVersion(v) if v == version));
            let err = Response::decode(&[version, 1]).unwrap_err();
            assert!(matches!(err, ProtoError::BadVersion(v) if v == version));
        }

        // v3 envelope: version, 8 id bytes, then a bogus tag.
        let mut body = vec![PROTO_VERSION];
        7u64.put(&mut body);
        body.push(0xEE);
        let err = decode_request(&body).unwrap_err();
        assert!(matches!(
            err,
            ProtoError::BadTag {
                what: "request",
                ..
            }
        ));

        let err = Response::decode(&body).unwrap_err();
        assert!(matches!(
            err,
            ProtoError::BadTag {
                what: "response",
                ..
            }
        ));

        // A v3 frame cut inside the id field is truncation, not a tag.
        assert!(matches!(
            decode_request(&[PROTO_VERSION, 1, 2, 3]),
            Err(ProtoError::Truncated)
        ));
    }

    #[test]
    fn envelope_carries_the_request_id_both_ways() {
        for id in [0u64, 1, 42, u64::MAX] {
            let body = request_body(&Request::Get { key: 9 }, id);
            assert_eq!(body[0], PROTO_VERSION);
            let framed = Request::decode_enveloped(&body).unwrap();
            assert_eq!(framed.request_id, id);
            assert_eq!(framed.msg, Request::Get { key: 9 });

            let body = response_body(&Response::Got(Some(-3)), id);
            let framed = Response::decode_enveloped(&body).unwrap();
            assert_eq!(framed.request_id, id);
            assert_eq!(framed.msg, Response::Got(Some(-3)));
        }
    }

    #[test]
    fn traced_envelope_roundtrips_and_untraced_stays_byte_identical() {
        let ctx = TraceContext {
            trace_id: 0xAB_CD,
            parent_span: 42,
            flags: TraceContext::SAMPLED | TraceContext::SLOW,
        };
        let body = request_frame(&Request::Publish, 7, Some(&ctx))
            .unwrap()
            .split_off(4);
        assert_eq!(body[0], PROTO_VERSION | PROTO_TRACE_FLAG);
        assert_eq!(body.len(), 1 + 8 + TraceContext::WIRE_BYTES + 1);
        let framed = Request::decode_enveloped(&body).unwrap();
        assert_eq!(framed.request_id, 7);
        assert_eq!(framed.trace, Some(ctx));
        assert_eq!(framed.msg, Request::Publish);

        let frame = response_frame(&Response::Published(9), 3, Some(&ctx));
        let framed = Response::decode_enveloped(&frame[4..]).unwrap();
        assert_eq!(framed.trace, Some(ctx));
        assert_eq!(framed.msg, Response::Published(9));

        // No context → the traced frame minus flag and context bytes,
        // so tracing-off costs nothing on the wire.
        let plain = response_frame(&Response::Published(9), 3, None);
        assert_eq!(plain[4], PROTO_VERSION);
        assert_eq!(plain[5..13], frame[5..13], "same request id");
        assert_eq!(
            plain[13..],
            frame[13 + TraceContext::WIRE_BYTES..],
            "same tag + payload"
        );
        assert_eq!(Response::decode_enveloped(&plain[4..]).unwrap().trace, None);
    }

    #[test]
    fn busy_error_roundtrips() {
        let resp = Response::Error(WireError::Busy(64));
        let framed = Response::decode_enveloped(&response_body(&resp, 5)).unwrap();
        assert_eq!(framed.request_id, 5);
        assert_eq!(framed.msg, resp);
    }

    #[test]
    fn response_frame_is_versioned_and_substitutes_too_large() {
        let frame = response_frame(&Response::Got(None), 9, None);
        assert_eq!(frame[4], PROTO_VERSION);
        let framed = Response::decode_enveloped(&frame[4..]).unwrap();
        assert_eq!(framed.request_id, 9);

        // An overflowing body becomes TooLarge with the same envelope.
        let huge = Response::Entries {
            entries: vec![(0, 0); (MAX_FRAME_LEN as usize / 16) + 1],
            complete: true,
        };
        let frame = response_frame(&huge, 7, None);
        let framed = Response::decode_enveloped(&frame[4..]).unwrap();
        assert_eq!(framed.request_id, 7);
        assert_eq!(framed.msg, Response::Error(WireError::TooLarge));
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        assert_eq!(len as usize, frame.len() - 4);
    }

    #[test]
    fn push_ids_live_outside_the_client_namespace() {
        // Clients allocate ids upward from 1; push ids set the top bit,
        // so the two namespaces can never collide in practice.
        for epoch in [1u64, 42, u64::MAX >> 1] {
            let id = PUSH_ID_BASE | epoch;
            assert_ne!(id & PUSH_ID_BASE, 0);
            assert_eq!(id & !PUSH_ID_BASE, epoch);
            let push = Response::Push {
                from: epoch - 1,
                epoch,
                entries: vec![],
            };
            let framed = Response::decode_enveloped(&response_body(&push, id)).unwrap();
            assert_eq!(framed.request_id, id);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = request_body(&Request::Get { key: 5 }, 0);
        body.push(0);
        assert!(matches!(
            decode_request(&body),
            Err(ProtoError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_request_enveloped(&mut r),
            Err(ProtoError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn oversized_request_body_fails_before_any_byte_is_written() {
        // ~1.9M ops at 9 bytes each overflow the 16 MiB frame cap.
        let huge = Request::Batch {
            guarded: false,
            ops: vec![BatchOp::Get(0); (MAX_FRAME_LEN as usize / 9) + 1],
        };
        let mut buf = Vec::new();
        let err = write_request_with_id(&mut buf, 1, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "stream must stay at a frame boundary");

        // Appending behind a corked frame rolls back to that frame.
        let mut corked = request_frame(&Request::Get { key: 1 }, 1, None).unwrap();
        let before = corked.clone();
        let err = request_frame_into(&mut corked, &huge, 2, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(corked, before);
        request_frame_into(&mut corked, &Request::Get { key: 3 }, 3, None).unwrap();
        let mut r = &corked[..];
        for id in [1, 3] {
            let framed = read_request_enveloped(&mut r).unwrap().unwrap();
            assert_eq!(framed.request_id, id);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn corrupt_sequence_length_is_truncated_not_oom() {
        // A Batch frame claiming u32::MAX ops with a near-empty payload
        // must fail cleanly instead of attempting a giant allocation.
        let mut body = vec![PROTO_VERSION];
        0u64.put(&mut body); // request id
        body.push(5); // Batch
        body.push(0); // guarded: false
        u32::MAX.put(&mut body);
        assert!(matches!(decode_request(&body), Err(ProtoError::Truncated)));
    }

    #[test]
    fn sync_page_cap_fits_the_frame_cap_with_room() {
        // The chunking invariant: a maximal SyncPage must encode well
        // under MAX_FRAME_LEN (satellite: FullSync bootstrap can never
        // trip the frame cap, however big the map).
        let page = Response::SyncPage {
            epoch: u64::MAX,
            entries: vec![(i64::MIN, i64::MAX); SYNC_PAGE_MAX_ENTRIES as usize],
            done: false,
        };
        let mut body = Vec::new();
        page.encode(&mut body);
        assert!(
            (body.len() as u32) < MAX_FRAME_LEN / 4,
            "maximal sync page ({} bytes) too close to the frame cap",
            body.len()
        );
    }
}
