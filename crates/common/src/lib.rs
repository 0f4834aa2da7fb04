//! Shared foundation types for the `lsm-aux` workspace.
//!
//! This crate hosts everything that the storage, index, and engine layers all
//! need to agree on:
//!
//! * [`value::Value`] — the typed values stored in records, together with an
//!   order-preserving ("memcomparable") byte encoding so that composite index
//!   keys can be compared as raw byte strings;
//! * [`schema::Schema`] and [`schema::Record`] — the minimal row model used by
//!   the engine (the paper's tweets are records of this form) — and
//!   [`schema::RecordView`], the allocation-free way to read one field of a
//!   stored record;
//! * [`clock::LogicalClock`] — the monotonic per-dataset clock that stands in
//!   for the node-local wall-clock time used by the paper for ingestion
//!   timestamps and component IDs;
//! * [`error::Error`] — the workspace-wide error type;
//! * [`counters!`] — declares a struct of event counters and its snapshot
//!   from one list.

#![warn(missing_docs)]

pub mod clock;
mod counters;
pub mod error;
pub mod schema;
pub mod value;

pub use clock::{LogicalClock, Timestamp};
pub use error::{Error, Result};
pub use schema::{FieldType, Record, RecordView, Schema};
pub use value::Value;

/// An encoded, memcomparable key. Keys compare correctly as raw byte strings.
pub type Key = Vec<u8>;

/// An opaque stored value (for the primary index this is the encoded record).
pub type Bytes = Vec<u8>;
