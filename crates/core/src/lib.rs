//! # pathcopy-core
//!
//! The universal construction (UC) from *Unexpected Scaling in Path
//! Copying Trees* (Kokorin, Fedorov, Brown, Aksenov — PPoPP 2023,
//! arXiv:2212.00521), plus the baselines it is compared against.
//!
//! The construction is deliberately simple:
//!
//! 1. a [`VersionCell`] (the paper's `Root_Ptr` read/CAS register) holds
//!    the current version of a persistent data structure;
//! 2. queries load the current version and run on the immutable snapshot;
//! 3. updates load the current version, build a new version by **path
//!    copying**, and CAS the root — retrying from scratch on failure.
//!
//! The result is lock-free and linearizable. The paper's surprise is that
//! it also *scales* on write-heavy workloads, because a failed attempt
//! warms the retrying process's private cache and the winning update
//! invalidated, in expectation, at most 2 nodes on the retried search
//! path. See `pathcopy-sim` for the executable form of that argument and
//! `pathcopy-concurrent` for ready-made tree front-ends.
//!
//! ## Crate map
//!
//! * [`version`] — `VersionCell<T>`: epoch-protected atomic `Arc` cell.
//! * [`uc`] — `PathCopyUc<S>`: the retrying load/copy/CAS loop.
//! * [`pool`] — `PoolArc<T>`: node memory. One node per cache line from
//!   per-thread magazines, so the loop above never calls `malloc`.
//! * [`lock_uc`] — `MutexUc` (the intro's global lock) and `SeqUc` baselines.
//! * [`backoff`] — retry backoff policies (ablation; the paper uses none).
//! * [`stats`] — attempt/retry counters used to validate the model.
//! * [`api`] — the unified `ConcurrentMap`/`ConcurrentSet`/`Snapshottable`
//!   trait family every front-end implements.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod backoff;
pub mod lock_uc;
pub mod pool;
pub mod stats;
pub mod uc;
pub mod version;

pub use api::{
    ConcurrentMap, ConcurrentSet, DiffEntry, MapSnapshot, SetDiffEntry, SetSnapshot, Snapshottable,
};
pub use backoff::{Backoff, BackoffPolicy};
pub use lock_uc::{MutexUc, SeqUc};
pub use pool::{PoolArc, PoolStats};
pub use stats::{
    ByteCounters, ByteCountersSnapshot, IoCounters, IoCountersSnapshot, StatsSnapshot, UcStats,
};
pub use uc::{PathCopyUc, Update, UpdateReport};
pub use version::{CasError, VersionCell};
