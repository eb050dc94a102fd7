//! # pathcopy-metrics
//!
//! Distribution-level observability for the path-copying serving stack.
//! The source paper's finding is that scaling effects invisible to
//! throughput averages (allocator pressure, cache misses, NUMA) dominate
//! at high core counts, so the serving layer exposes *latency
//! distributions*, not just the monotonic counters in
//! `pathcopy_core::stats`.
//!
//! Two pieces:
//!
//! * [`LatencyHistogram`] — a lock-free, HdrHistogram-style log-bucketed
//!   histogram: power-of-two octaves with [`SUB_BUCKETS`] linear
//!   sub-buckets each, a fixed array of relaxed atomic counters, and
//!   mergeable [`HistogramSnapshot`]s with bounded-relative-error
//!   percentiles (p50/p90/p99/p999/max via [`Summary`]).
//! * [`Stage`] — the kinds of row the wire protocol's `Metrics` frame
//!   and the text exposition share: the instrumented pipeline stages,
//!   plus the engine and server counters and gauges ([`Kind`]).
//!
//! Hot paths do not record into a histogram directly: they hold a
//! `pathcopy_trace::Probe`, which laps one clock per stage boundary into
//! both a histogram here and a trace span.

#![warn(missing_docs)]

pub mod histogram;

pub use histogram::{
    bucket_high, bucket_index, bucket_low, HistogramSnapshot, LatencyHistogram, Summary,
    BUCKET_COUNT, SUB_BUCKETS, SUB_BUCKET_BITS,
};

/// What a row of the `Metrics` scrape carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A histogram's percentile summary: every field of the row is used.
    Summary,
    /// A monotonic count since the process started, in the row's `count`.
    Counter,
    /// A current level, in the row's `count`.
    Gauge,
}

/// Declares the row kinds **once**, one line each — wire byte, variant,
/// name, unit ([`Stage::unit`]), [`Kind`] and doc — and derives
/// [`Stage`], [`Stage::ALL`] and every lookup from that one table.
macro_rules! stages {
    ($( $byte:literal => $V:ident, $name:literal, $unit:literal, $kind:ident, $doc:literal; )*) => {
        /// The kinds of row a `Metrics` scrape returns: the instrumented
        /// pipeline stages, whose rows summarise a latency histogram, and
        /// the counters and gauges a node keeps as plain atomics.
        /// Discriminants are the `stage` bytes carried by the wire
        /// protocol's `Metrics` response and must never be reused for a
        /// different meaning.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Stage { $( #[doc = $doc] $V = $byte, )* }

        impl Stage {
            /// Every row kind, in wire-discriminant order.
            pub const ALL: [Stage; [$($byte),*].len()] = [$(Stage::$V),*];

            /// Decodes a wire `stage` byte.
            #[must_use]
            pub fn from_u8(byte: u8) -> Option<Stage> {
                match byte {
                    $( $byte => Some(Stage::$V), )*
                    _ => None,
                }
            }

            /// Stable snake_case name used as the metric name in the text
            /// exposition.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                match self { $( Stage::$V => $name, )* }
            }

            /// Unit suffix for the text exposition (`""` for a plain
            /// count, which gets no suffix).
            #[must_use]
            pub fn unit(self) -> &'static str {
                match self { $( Stage::$V => $unit, )* }
            }

            /// Whether the row is a histogram summary, a counter or a
            /// gauge.
            #[must_use]
            pub fn kind(self) -> Kind {
                match self { $( Stage::$V => Kind::$kind, )* }
            }
        }
    };
}

stages! {
    1 => QueueWait, "queue_wait", "ns", Summary, "Event loop: decode→dispatch queue wait, per request tag.";
    2 => Execute, "execute", "ns", Summary, "Executing a request and encoding its reply, per request tag.";
    3 => WriteFlush, "write_flush", "ns", Summary, "Reply ready → last byte written, per request tag.";
    4 => AppendFsync, "append_fsync", "ns", Summary, "Durable feed persister: append + fsync per publish.";
    5 => PushApply, "push_apply", "ns", Summary, "Push replica: applying one push frame.";
    6 => EpochLag, "epoch_lag", "epochs", Summary, "Push replica: published minus applied epoch at apply.";
    7 => Ops, "ops", "", Counter, "Engine: completed update operations.";
    8 => Attempts, "attempts", "", Counter, "Engine: CAS-loop attempts across all updates.";
    9 => CasFailures, "cas_failures", "", Counter, "Engine: failed root CASes.";
    10 => NoopUpdates, "noop_updates", "", Counter, "Engine: updates that changed nothing.";
    11 => Reads, "reads", "", Counter, "Engine: read-only operations.";
    12 => FrozenInstalls, "frozen_installs", "", Counter, "Engine: roots installed by freeze.";
    13 => FreezeRetries, "freeze_retries", "", Counter, "Engine: backed-out freeze passes.";
    14 => Requests, "requests", "", Counter, "Server: requests executed, shed ones excluded.";
    15 => RequestsShed, "requests_shed", "", Counter, "Server: requests refused as `Busy`.";
    16 => WireSent, "wire_sent", "bytes", Counter, "Server: bytes written to all connections.";
    17 => WireReceived, "wire_received", "bytes", Counter, "Server: bytes read from all connections.";
    18 => Pushes, "pushes", "", Counter, "Server: push frames enqueued to subscribers.";
    19 => PushDemotions, "push_demotions", "", Counter, "Server: subscribers dropped, outbox full.";
    20 => Len, "len", "", Gauge, "Engine: entry count (weakly consistent across shards).";
    21 => Snapshots, "snapshots", "", Gauge, "Server: named snapshots pinned.";
    22 => OpenConns, "open_conns", "", Gauge, "Server: connections open.";
    23 => Subscribers, "subscribers", "", Gauge, "Server: connections registered for pushes.";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_bytes_roundtrip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_u8(stage as u8), Some(stage));
        }
        assert_eq!(Stage::from_u8(0), None);
        assert_eq!(Stage::from_u8(Stage::ALL.len() as u8 + 1), None);
        // Dense from 1, histogram stages first: a scrape appends the
        // counter rows behind the sorted histogram rows and stays sorted.
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i + 1);
            assert_eq!(stage.kind() == Kind::Summary, i < 6);
        }
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
