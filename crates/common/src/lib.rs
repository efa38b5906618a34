#![warn(missing_docs)]

//! Shared kernel for the COTE reproduction.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! * [`ids`] — newtype identifiers for catalog objects and query table
//!   references, so that a catalog [`ids::TableId`] can never be confused
//!   with a query-local [`ids::TableRef`].
//! * [`bitset`] — [`bitset::TableSet`], the `u64`-backed set of query table
//!   references that keys the optimizer's MEMO structure.
//! * [`fxhash`] — the FxHash algorithm (as used by rustc) plus
//!   [`fxhash::FxHashMap`] / [`fxhash::FxHashSet`] aliases. Hashing MEMO keys
//!   is hot; SipHash is unnecessary for trusted, in-process keys.
//! * [`error`] — the workspace-wide error type.
//! * [`rng`] — deterministic SplitMix64 / xoshiro256++ generators, so the
//!   workload generators and randomized tests need no external `rand`.
//! * [`inline_vec`] — [`inline_vec::InlineVec`], SmallVec-style inline
//!   storage for the tiny per-plan-node lists on the enumeration hot path.
//! * [`intern`] — [`intern::Interner`] / [`intern::PropSetId`], the
//!   hash-consing table behind the MEMO's interned property lists.
//! * [`lru`] — a small O(1) LRU cache shared by the statement cache and the
//!   serving layer's sharded estimate cache.
//! * [`failpoint`] — deterministic, seed-replayable fault injection for the
//!   serving tier; one relaxed load per site while disarmed.

pub mod bitset;
pub mod error;
pub mod failpoint;
pub mod fxhash;
pub mod ids;
pub mod inline_vec;
pub mod intern;
pub mod lru;
pub mod rng;

pub use bitset::TableSet;
pub use error::{CoteError, Result};
pub use failpoint::{FaultAction, FaultSpec, FireMode};
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{ColRef, ColumnId, IndexId, TableId, TableRef};
pub use inline_vec::InlineVec;
pub use intern::{Interner, PropSetId};
pub use lru::LruCache;
pub use rng::{SplitMix64, Xoshiro256pp};
