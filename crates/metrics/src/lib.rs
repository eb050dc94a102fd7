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
//! * [`Stage`] — names for the instrumented pipeline stages, shared by
//!   the wire protocol's `Metrics` frame and the text exposition.
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

/// The instrumented pipeline stages. Discriminants are the `stage` bytes
/// carried by the wire protocol's `Metrics` response and must never be
/// reused for a different meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Event loop: decode→dispatch queue wait, per request tag (ns).
    QueueWait = 1,
    /// Worker pool: `handle_request` + encode time, per request tag (ns).
    Execute = 2,
    /// Event loop: reply-ready→last-byte-written flush time, per request
    /// tag (ns).
    WriteFlush = 3,
    /// Durable feed persister: append + fsync latency per publish (ns).
    AppendFsync = 4,
    /// Push replica: apply latency per push frame (ns).
    PushApply = 5,
    /// Push replica: published-epoch minus applied-epoch watermark gap at
    /// apply time (epochs, not ns — 1 means fully caught up).
    EpochLag = 6,
}

impl Stage {
    /// Every stage, in wire-discriminant order.
    pub const ALL: [Stage; 6] = [
        Stage::QueueWait,
        Stage::Execute,
        Stage::WriteFlush,
        Stage::AppendFsync,
        Stage::PushApply,
        Stage::EpochLag,
    ];

    /// Decodes a wire `stage` byte.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<Stage> {
        match byte {
            1 => Some(Stage::QueueWait),
            2 => Some(Stage::Execute),
            3 => Some(Stage::WriteFlush),
            4 => Some(Stage::AppendFsync),
            5 => Some(Stage::PushApply),
            6 => Some(Stage::EpochLag),
            _ => None,
        }
    }

    /// Stable snake_case name used as the metric name in the text
    /// exposition.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Execute => "execute",
            Stage::WriteFlush => "write_flush",
            Stage::AppendFsync => "append_fsync",
            Stage::PushApply => "push_apply",
            Stage::EpochLag => "epoch_lag",
        }
    }

    /// Unit suffix for the text exposition: everything is nanoseconds
    /// except the epoch-lag watermark gap.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            Stage::EpochLag => "epochs",
            _ => "ns",
        }
    }
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
        assert_eq!(Stage::from_u8(7), None);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
