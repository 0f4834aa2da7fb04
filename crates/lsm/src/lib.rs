//! LSM-trees with the auxiliary machinery of Luo & Carey (VLDB 2019).
//!
//! This crate implements the per-index structure of the paper's storage
//! architecture (Section 3, Figure 1): an in-memory component plus immutable
//! disk components, each a bulk-loaded B+-tree with an optional Bloom
//! filter, range filter, and validity bitmap; component IDs as
//! `(minTS, maxTS)` intervals; flush and merge operations under the tiering
//! policy; reconciling range scans; and the point-lookup
//! algorithms of Section 3.2 (naive, batched, stateful-cursor,
//! component-ID-pruned).
//!
//! The engine crate (`lsm-engine`) composes these trees into datasets —
//! primary index + primary key index + secondary indexes — and implements
//! the maintenance strategies on top.

#![warn(missing_docs)]

pub mod bitmap;
pub mod build_link;
pub mod component;
pub mod component_id;
pub mod entry;
pub mod lookup;
pub mod memtable;
pub mod merge_policy;
pub mod range_filter;
pub mod scan;
pub mod tree;

pub use bitmap::{AtomicBitmap, BitmapSnapshot};
pub use build_link::BuildLink;
pub use component::DiskComponent;
pub use component_id::ComponentId;
pub use entry::{EntryRef, LsmEntry};
pub use lookup::{
    any_may_contain, locate_valid, lookup_sorted, may_contain, point_lookup, sorted_timestamps,
    LookupOptions, WalkStats,
};
pub use memtable::MemComponent;
pub use merge_policy::{MergePolicy, MergeRange, TieringPolicy};
pub use range_filter::RangeFilter;
pub use scan::{scan_components_sequential, Lent, LsmScan, ScanOptions};
pub use tree::{ComponentBuilder, ComponentList, LsmOptions, LsmTree};
