//! # pathcopy-trees
//!
//! Persistent (path-copying) sequential data structures: the substrates
//! the universal construction of `pathcopy-core` is applied to — the
//! treap the paper measures, the external BST its Appendix-A model is
//! stated for, and the mutable treap behind its "Seq Treap" column.
//!
//! Every persistent structure here is immutable: modifying operations
//! return a new version that shares all untouched nodes with the old one.
//! Operations that would not change the structure return `None`, allowing
//! the UC to skip its CAS. Their nodes are `pathcopy_core::pool::PoolArc`
//! blocks, one cache line each.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod external_bst;
pub mod hash;
pub mod mutable;
pub mod sharing;
pub mod treap;

pub use external_bst::ExternalBstSet;
pub use mutable::MutTreapSet;
pub use sharing::{node_count, sharing_stats, uncached_on_retry, SearchTree, SharingStats};
pub use treap::{TreapMap, TreapSet};
