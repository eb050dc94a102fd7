//! # pathcopy-concurrent
//!
//! Ready-made concurrent data structures obtained by applying the
//! path-copying universal construction (`pathcopy-core`) to the
//! persistent structures of `pathcopy-trees`.
//!
//! All structures are linearizable; updates are lock-free, reads are
//! wait-free, and `snapshot()` returns an immutable point-in-time view in
//! O(1) that never blocks writers. (On the *sharded* structures, reads of
//! a shard briefly spin while a cross-shard batch is mid-install there —
//! see [`batch`] — so the batch becomes visible everywhere at once.)
//!
//! Every backend implements the unified trait family of
//! [`pathcopy_core::api`] — [`ConcurrentMap`](pathcopy_core::ConcurrentMap)
//! / [`ConcurrentSet`](pathcopy_core::ConcurrentSet) for point
//! operations and [`Snapshottable`](pathcopy_core::Snapshottable) for
//! first-class snapshot handles with lazy `range`/`iter` and
//! shared-subtree-pruned `diff` (see [`snapshot`]). The [`registry`]
//! wires all backends up once for the generic oracle tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod ebst_set;
pub mod locked;
pub mod registry;
pub mod sharded;
pub mod snapshot;
pub mod treap_map;
pub mod treap_set;

pub use batch::{diff_to_ops, BatchOp, BatchResult, GuardAbort};
pub use ebst_set::ExternalBstSet;
pub use locked::LockedTreapSet;
pub use sharded::{MergedRange, ShardedSnapshot, ShardedTreapMap};
pub use snapshot::{EbstSnapshot, SetRange, TreapSetSnapshot, TreapSnapshot};
pub use treap_set::TreapSet;

pub use treap_map::TreapMap;
