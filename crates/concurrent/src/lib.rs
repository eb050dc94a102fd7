//! # pathcopy-concurrent
//!
//! Ready-made concurrent data structures obtained by applying the
//! path-copying universal construction (`pathcopy-core`) to the
//! persistent structures of `pathcopy-trees`.
//!
//! All structures are linearizable; updates are lock-free, reads are
//! wait-free, and `snapshot()` returns an immutable point-in-time view in
//! O(1) that never blocks writers. Each map or set is one `Root_Ptr`
//! register, as in the paper: a multi-key batch ([`batch`]) is one more
//! update of that root.
//!
//! Every set backend — [`TreapMap<K, ()>`](TreapMap), [`ExternalBstSet`]
//! and [`LockedTreapSet`] — implements the trait family of
//! [`pathcopy_core::api`]: [`ConcurrentSet`](pathcopy_core::ConcurrentSet)
//! for point operations and
//! [`Snapshottable`](pathcopy_core::Snapshottable) for first-class
//! snapshot handles with lazy `range`/`iter` and shared-subtree-pruned
//! `diff` (see [`snapshot`]). [`TreapMap`] is the one map and is used
//! by name; its snapshot is a [`MapSnapshot`](pathcopy_core::MapSnapshot).
//! The [`registry`] wires the set backends up once for the generic
//! oracle tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod ebst_set;
pub mod locked;
pub mod registry;
mod sharded;
pub mod snapshot;
pub mod treap_map;
pub mod treap_set;

pub use batch::{diff_to_ops, BatchOp, BatchResult, GuardAbort};
pub use ebst_set::ExternalBstSet;
pub use locked::LockedTreapSet;
#[doc(hidden)]
pub use sharded::ShardedTreapMap;
pub use snapshot::{EbstSnapshot, SetRange, TreapSnapshot};

pub use treap_map::TreapMap;
